//! Criterion micro-benchmark (M4): the hash-strategy ladder of §2.3.4 —
//! direct 64K-table hashing vs perfect hashing vs collision-checked tuple
//! hashing — plus heap accelerator interning.
//!
//! This is the microscopic justification for width narrowing: the same
//! grouping workload gets strictly cheaper as the key gets narrower.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tde_exec::hash::{GroupMap, HashStrategy, KeyPacking};
use tde_storage::{HeapAccelerator, StringHeap};
use tde_types::Collation;

const N: usize = 200_000;

fn bench_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_strategies");
    g.sample_size(15);
    g.throughput(Throughput::Elements(N as u64));
    // 200 distinct 2-column keys; identical workload for all strategies.
    let keys: Vec<[i64; 2]> = (0..N as i64).map(|i| [i % 20, 100 + (i % 10)]).collect();
    let packing = KeyPacking::plan(&[Some((0, 19)), Some((100, 109))]).unwrap();
    assert!(packing.total_bits <= 16);

    for strategy in [
        HashStrategy::Direct64K,
        HashStrategy::Perfect,
        HashStrategy::Collision,
    ] {
        g.bench_with_input(
            BenchmarkId::new("group", strategy.name()),
            &keys,
            |b, keys| {
                b.iter(|| {
                    let packing = (strategy != HashStrategy::Collision).then(|| packing.clone());
                    let mut m = GroupMap::new(strategy, packing, 2);
                    let mut acc = 0usize;
                    for k in keys {
                        acc += m.get_or_insert(k);
                    }
                    acc
                });
            },
        );
    }
    g.finish();
}

fn bench_accelerator(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap_accelerator");
    g.sample_size(15);
    let small: Vec<String> = (0..N).map(|i| format!("value_{}", i % 100)).collect();
    let large: Vec<String> = (0..N / 10)
        .map(|i| format!("unique_string_number_{i}"))
        .collect();
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("intern_small_domain", |b| {
        b.iter(|| {
            let mut heap = StringHeap::new();
            let mut acc = HeapAccelerator::new(Collation::Binary);
            let mut sum = 0u64;
            for s in &small {
                sum = sum.wrapping_add(acc.intern(&mut heap, s));
            }
            sum
        });
    });
    g.throughput(Throughput::Elements((N / 10) as u64));
    g.bench_function("intern_unique", |b| {
        b.iter(|| {
            let mut heap = StringHeap::new();
            let mut acc = HeapAccelerator::new(Collation::Binary);
            let mut sum = 0u64;
            for s in &large {
                sum = sum.wrapping_add(acc.intern(&mut heap, s));
            }
            sum
        });
    });
    g.bench_function("append_unaccelerated", |b| {
        b.iter(|| {
            let mut heap = StringHeap::new();
            let mut sum = 0u64;
            for s in &small {
                sum = sum.wrapping_add(heap.append(s));
            }
            sum
        });
    });
    g.finish();
}

criterion_group!(benches, bench_strategies, bench_accelerator);
criterion_main!(benches);
