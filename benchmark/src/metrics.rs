//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` repeats it (a test keeps them equal).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What an analyst sees. Reported by every workload, spans off.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("scan_mrows_per_s", "Mrows/s", "higher", 0.25),
    e2e("cold_open_first_query_ms", "ms", "lower", 0.25),
    e2e("import_mb_per_s", "MB/s", "higher", 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", 0.01),
    e2e("compact_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// (name, unit, better) of every per-layer metric, reported by the
/// traced run. Layers are the crates on the query and import path.
pub const PER_LAYER: [(&str, &str, &str); 80] = [
    ("host.memcpy_gb_per_s", "GB/s", "higher"),
    ("host.nproc", "count", "higher"),
    ("encodings.unpack_w04_gb_per_s", "GB/s", "higher"),
    ("encodings.unpack_w06_gb_per_s", "GB/s", "higher"),
    ("encodings.unpack_w12_gb_per_s", "GB/s", "higher"),
    ("encodings.unpack_w20_gb_per_s", "GB/s", "higher"),
    ("encodings.unpack_w32_gb_per_s", "GB/s", "higher"),
    ("encodings.decode_for_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.decode_delta_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.decode_dict_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.decode_rle_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.decode_affine_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.kernel_for_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.kernel_dict_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.kernel_delta_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.kernel_rle_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.kernel_affine_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.decode_share_pct", "%", "lower"),
    ("encodings.kernel_rows_skipped_ratio", "ratio", "higher"),
    ("encodings.encode_mrows_per_s", "Mrows/s", "higher"),
    ("encodings.pack_gb_per_s", "GB/s", "higher"),
    ("encodings.reencodings_per_column", "count", "lower"),
    ("storage.column_build_mrows_per_s", "Mrows/s", "higher"),
    ("storage.string_build_mrows_per_s", "Mrows/s", "higher"),
    ("io.checksum_gb_per_s", "GB/s", "higher"),
    ("io.read_retries", "count", "lower"),
    ("pager.open_us", "us", "lower"),
    ("pager.segment_load_us_p50", "us", "lower"),
    ("pager.segment_load_mb_per_s", "MB/s", "higher"),
    ("pager.pool_hit_us", "us", "lower"),
    ("pager.pool_hit_rate", "ratio", "higher"),
    ("pager.pool_evictions", "count", "lower"),
    ("pager.bytes_read_per_query", "bytes", "lower"),
    ("pager.save_mb_per_s", "MB/s", "higher"),
    ("exec.scan_eager_mrows_per_s", "Mrows/s", "higher"),
    ("exec.scan_pushed_mrows_per_s", "Mrows/s", "higher"),
    ("exec.scan_fallback_mrows_per_s", "Mrows/s", "higher"),
    ("exec.filter_agg_mrows_per_s", "Mrows/s", "higher"),
    ("exec.hash_agg_small_mrows_per_s", "Mrows/s", "higher"),
    ("exec.hash_agg_large_mrows_per_s", "Mrows/s", "higher"),
    ("exec.query_par_p50_ms", "ms", "lower"),
    ("exec.morsel_speedup_x", "x", "higher"),
    ("exec.morsel_stolen_ratio", "ratio", "lower"),
    ("exec.indexed_scan_mrows_per_s", "Mrows/s", "higher"),
    ("exec.ordered_agg_mrows_per_s", "Mrows/s", "higher"),
    ("exec.scan_paged_warm_mrows_per_s", "Mrows/s", "higher"),
    ("exec.scan_paged_cold_mrows_per_s", "Mrows/s", "higher"),
    ("exec.scan_merged_mrows_per_s", "Mrows/s", "higher"),
    ("exec.merged_overhead_x", "x", "lower"),
    ("exec.flow_table_mrows_per_s", "Mrows/s", "higher"),
    ("exec.self_share_pct_scan", "%", "lower"),
    ("exec.self_share_pct_filter", "%", "lower"),
    ("exec.self_share_pct_aggregate", "%", "lower"),
    ("exec.self_share_pct_indexed_scan", "%", "lower"),
    ("exec.self_share_pct_morsel", "%", "lower"),
    ("plan.optimize_us_p50", "us", "lower"),
    ("plan.lower_us_p50", "us", "lower"),
    ("plan.plan_share_pct", "%", "lower"),
    ("plan.kernel_pushdown_ratio", "ratio", "higher"),
    ("plan.scan_rows_per_source_row", "ratio", "lower"),
    ("textscan.read_gb_per_s", "GB/s", "higher"),
    ("textscan.tokenize_mb_per_s", "MB/s", "higher"),
    ("textscan.split_mb_per_s", "MB/s", "higher"),
    ("textscan.import_scalars_mb_per_s", "MB/s", "higher"),
    ("textscan.import_all_mb_per_s", "MB/s", "higher"),
    ("delta.append_krows_per_s", "krows/s", "higher"),
    ("delta.delete_kids_per_s", "kids/s", "higher"),
    ("delta.snapshot_us", "us", "lower"),
    ("delta.compact_ms", "ms", "lower"),
    ("delta.save_ms", "ms", "lower"),
    ("delta.rows_reencoded_per_compaction", "count", "lower"),
    ("delta.bytes_rewritten_per_user_byte", "ratio", "lower"),
    ("core.query_p95_ms", "ms", "lower"),
    ("core.rows_materialize_us_p50", "us", "lower"),
    ("core.residue_pct", "%", "lower"),
    ("core.error_rate", "ratio", "lower"),
    ("obs.bench_span_overhead_pct", "%", "lower"),
    ("obs.engine_trace_overhead_pct", "%", "lower"),
    ("obs.engine_metrics_overhead_pct", "%", "lower"),
    ("obs.timeline_dropped_events", "count", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}
