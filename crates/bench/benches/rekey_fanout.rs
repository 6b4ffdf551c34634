//! Rekey fan-out: the flat per-member rekey against the MLS-style rekey
//! tree (EXPERIMENTS.md rows S11 and S14).
//!
//! A *flat* rekey is irreducibly O(N) AEAD seals on the admin channel —
//! every member must receive the new group key under its own pairwise
//! `K_a`. Only the rekey call is timed (`iter_custom`); draining the
//! stop-and-wait acknowledgments between rekeys happens off the clock.
//!
//! The *tree* rekey removes the O(N) term altogether: one leaf-to-root
//! path refresh sealed once per copath resolution node — at most
//! `2·ceil(log2 N)+1` seals — fanned out as a single `PathUpdate`
//! multicast with no per-member admin traffic to drain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enclaves_bench::FanoutGroup;
use std::time::{Duration, Instant};

const GROUP_SIZES: [usize; 4] = [8, 64, 512, 4096];

fn bench_rekey_flat(c: &mut Criterion) {
    let mut group = c.benchmark_group("rekey_fanout/flat");
    group.sample_size(10);
    for n in GROUP_SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut world = FanoutGroup::new(n);
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let start = Instant::now();
                    let outgoing = world.rekey_flat();
                    total += start.elapsed();
                    world.settle(outgoing);
                }
                total
            });
        });
    }
    group.finish();
}

fn bench_rekey_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("rekey_fanout/tree");
    group.sample_size(10);
    for n in GROUP_SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut world = FanoutGroup::new_tree(n);
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let start = Instant::now();
                    let frame = world.rekey_tree();
                    total += start.elapsed();
                    std::hint::black_box(&frame);
                }
                total
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rekey_flat, bench_rekey_tree);
criterion_main!(benches);
