//! tde-fuzz: deterministic metamorphic & differential query fuzzer.
//!
//! Structure:
//!
//! * [`spec`] — the serializable case model: columns with data and
//!   per-column encoding policies, a plan-operator stack, an optional
//!   TLP predicate, an optional metadata-bug injection. Cases round-trip
//!   through a small s-expression text format (`.case` files) so a
//!   shrunk failure pins itself as a self-contained repro.
//! * [`gen`] — the seeded generator: schemas and data biased to trigger
//!   each encoder (runs, dense ranges, affine sequences, small domains,
//!   NULL sentinels, string heaps), plans over
//!   scan/filter/project/aggregate/sort.
//! * [`oracle`] — the oracle families (differential, metamorphic,
//!   invariant); see that module's docs.
//! * [`delta_oracle`] — the merge-on-read differential: a case's
//!   `(delta …)` append/delete/compact interleaving replayed against a
//!   `tde-delta` store must match a from-scratch rebuild of the final
//!   logical table across the encoding×predicate matrix.
//! * [`import_oracle`] — the import leg: seeded flat files through
//!   TextScan against a row-loop reference importer, and arbitrary bytes
//!   against "a table or an error, never a panic".
//! * [`shrink`] — the fixpoint reducer minimizing rows, columns, plan
//!   operators and predicates while preserving the original failure.
//!
//! Everything is deterministic in the seed: `run_seed(n)` always builds
//! the same case, so a seed number alone reproduces a sweep failure.

pub mod delta_oracle;
pub mod gen;
pub mod import_oracle;
pub mod oracle;
pub mod shrink;
pub mod spec;

pub use oracle::{run_case, run_case_catching, CaseReport, Discrepancy};
pub use shrink::{shrink, ShrinkOutcome};
pub use spec::CaseSpec;

/// Generate and run the case for one seed.
pub fn run_seed(seed: u64) -> (CaseSpec, CaseReport) {
    let spec = gen::generate(seed);
    let report = run_case_catching(&spec);
    (spec, report)
}

/// Whether the case's plan, as the optimizer builds it, feeds its
/// aggregate run-carrying blocks (the `fold-runs` decision) and whether
/// it hands the aggregate group keys as codes (`group-codes`) — the
/// shares of a sweep that exercise the weighted fold and coded keys.
pub fn aggregate_leaf(spec: &CaseSpec) -> (bool, bool) {
    let table = spec.build_table();
    let Ok(report) = spec
        .apply_plan(tde_core::Query::scan(&table))
        .try_explain_analyze()
    else {
        return (false, false);
    };
    let chose = |what: &str| {
        report
            .events
            .iter()
            .any(|e| matches!(e, tde_obs::Event::Decision { choice, .. } if choice == what))
    };
    (chose("fold-runs"), chose("group-codes"))
}

/// Whether the case's plan aggregates without group keys: a grand
/// total, which folds each block column into one group.
pub fn grand_total(spec: &CaseSpec) -> bool {
    spec.plan
        .iter()
        .any(|op| matches!(op, spec::PlanOpSpec::Aggregate { group_by, .. } if group_by.is_empty()))
}

/// Pick a column where injecting `kind` actually corrupts a claim (e.g. a
/// sorted claim on genuinely unsorted data). Returns `None` when the case
/// has no eligible column.
pub fn eligible_injection_column(spec: &CaseSpec, kind: spec::InjectKind) -> Option<usize> {
    use spec::{ColumnData, InjectKind};
    // The claim `kind` asserts must be false of the column's values.
    let claim_broken: fn(&[i64]) -> bool = match kind {
        InjectKind::SegmentByte => {
            // Every column of a non-empty case has segments on disk. The
            // seed picks the column, so a sweep reaches the dictionaries
            // and heaps stored beside the streams.
            return (spec.rows() > 0).then(|| spec.seed as usize % spec.columns.len());
        }
        InjectKind::SortedClaim => |vals| vals.windows(2).any(|w| w[1] < w[0]),
        InjectKind::DenseUnique => {
            |vals| vals.len() >= 2 && !vals.windows(2).all(|w| w[1].wrapping_sub(w[0]) == 1)
        }
        InjectKind::MinMax => |vals| !vals.is_empty(),
    };
    spec.columns.iter().position(|c| {
        let ints: Vec<Option<i64>> = match &c.data {
            ColumnData::Ints(v) => v.clone(),
            // Injection targets the stored token/value stream; string
            // token order is an artifact of heap construction, so keep
            // injections on integer columns where claims are legible.
            ColumnData::Strs(_) => return false,
        };
        let vals: Vec<i64> = ints
            .iter()
            .map(|v| v.unwrap_or(tde_types::sentinel::NULL_I64))
            .collect();
        claim_broken(&vals)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_sweep_is_clean() {
        for seed in 0..12 {
            let (spec, report) = run_seed(seed);
            assert!(
                report.clean(),
                "seed {seed} fired: {:?}\ncase:\n{}",
                report.discrepancies,
                spec.to_text()
            );
        }
    }

    #[test]
    fn some_seeds_fold_runs() {
        let folded = (0..40)
            .filter(|&seed| aggregate_leaf(&gen::generate(seed)).0)
            .count();
        assert!(folded >= 4, "only {folded} of 40 seeds fold runs");
    }

    #[test]
    fn some_seeds_fold_grand_totals() {
        // Both inputs of the grand-total fold stay under the oracles:
        // run-carrying blocks, and a merge snapshot's base and delta legs
        // (the delta oracle runs the plan over every snapshot). Seeds
        // 0..40 are the CI smoke sweep's, so it folds one too.
        let totals: Vec<CaseSpec> = (0..400).map(gen::generate).filter(grand_total).collect();
        assert!(
            (0..40).map(gen::generate).any(|s| grand_total(&s)),
            "no seed of 0..40 aggregates without keys"
        );
        assert!(
            totals.iter().any(|s| aggregate_leaf(s).0),
            "no grand total of 400 seeds folds runs"
        );
        assert!(
            totals.iter().any(|s| !s.delta.is_empty()),
            "no grand total of 400 seeds runs over a merge snapshot"
        );
    }

    #[test]
    fn some_seeds_drop_columns() {
        // The CI smoke sweep's seeds reach both halves of column demand:
        // a scan column nothing reads as values, which the scan drops,
        // and a group key under a filter the optimizer leaves residual
        // (the optimizer oracle's rewrite-free reference), which arrives
        // as codes.
        let residual = tde_plan::strategic::OptimizerOptions {
            invisible_joins: false,
            index_tables: false,
            ordered_retrieval: false,
            kernel_pushdown: false,
            parallelism: 1,
        };
        let trees: Vec<[String; 2]> = (0..40)
            .map(gen::generate)
            .map(|spec| {
                let table = spec.build_table();
                [Default::default(), residual].map(|opts| {
                    let q = spec.apply_plan(tde_core::Query::scan(&table));
                    let report = q.with_optimizer(opts).try_explain_analyze();
                    report.map_or_else(|_| String::new(), |r| r.operator_tree)
                })
            })
            .collect();
        let dropped = |t: &String| t.contains(" [dropped: ");
        let coded_under_filter = |t: &String| {
            let filter = t.find("Filter");
            filter.is_some_and(|at| t[at..].contains(" [codes: "))
        };
        assert!(
            trees.iter().any(|[t, _]| dropped(t)),
            "no seed drops a column"
        );
        assert!(
            trees.iter().any(|[_, t]| coded_under_filter(t)),
            "no seed groups on codes under a residual filter"
        );
    }

    #[test]
    fn an_injected_sorted_claim_is_caught_and_shrunk() {
        use spec::{InjectKind, Injection};
        // Find a generated case with an unsorted integer column to corrupt.
        let mut found = false;
        for seed in 0..64 {
            let mut spec = gen::generate(seed);
            let Some(col) = crate::eligible_injection_column(&spec, InjectKind::SortedClaim) else {
                continue;
            };
            spec.inject = Some(Injection {
                column: col,
                kind: InjectKind::SortedClaim,
            });
            if spec.validate().is_err() {
                continue;
            }
            let report = run_case_catching(&spec);
            if !report.clean() {
                let outcome = shrink(&spec, 200);
                assert!(!outcome.report.clean(), "shrunk case stopped failing");
                assert!(
                    outcome.spec.rows() <= spec.rows(),
                    "shrinking grew the case"
                );
                found = true;
                break;
            }
        }
        assert!(found, "no generated case caught the injected sorted claim");
    }

    #[test]
    fn an_injected_segment_byte_is_always_caught() {
        use spec::{InjectKind, Injection};
        // Every eligible seed must be caught: each step of the checksum
        // is injective in the word or byte it takes in and in its state,
        // so a single-byte substitution can never collide — 100%
        // detection is the contract, not a statistic. The seeds pick
        // stream, dictionary and heap segments alike.
        let kinds = ["stream", "dictionary", "heap"];
        let mut hits = [0usize; 3];
        let mut eligible = 0;
        for seed in 0..48 {
            let mut spec = gen::generate(seed);
            let Some(col) = eligible_injection_column(&spec, InjectKind::SegmentByte) else {
                continue;
            };
            spec.inject = Some(Injection {
                column: col,
                kind: InjectKind::SegmentByte,
            });
            if spec.validate().is_err() {
                continue;
            }
            eligible += 1;
            let report = run_case_catching(&spec);
            assert!(
                !report.clean(),
                "seed {seed}: segment-byte corruption got past the checksum\ncase:\n{}",
                spec.to_text()
            );
            // Only the checksum's refusal counts: an infrastructure
            // failure of the oracle corrupted nothing.
            assert!(
                report.discrepancies.iter().all(|d| d.is_checksum_refusal()),
                "seed {seed}: not a checksum refusal: {:?}",
                report.discrepancies
            );
            for (hit, kind) in hits.iter_mut().zip(kinds) {
                let refused = format!("checksum mismatch in {kind} segment");
                if report
                    .discrepancies
                    .iter()
                    .any(|d| d.detail.contains(&refused))
                {
                    *hit += 1;
                }
            }
        }
        assert!(eligible >= 16, "only {eligible} eligible seeds in 0..48");
        for (hit, kind) in hits.iter().zip(kinds) {
            assert!(
                *hit > 0,
                "no seed in 0..48 corrupted a {kind} segment: {hits:?}"
            );
        }
    }
}
