//! Group-management operation cost vs group size (system evaluation,
//! figures S3–S5): the O(n) leader cost the paper's architecture accepts
//! for integrity.
//!
//! Expected shapes:
//! * admin broadcast and rekey scale linearly in member count (per-member
//!   unicast under `K_a`);
//! * group-data relay is cheaper per member (one `K_a` open and one `K_g`
//!   seal at the leader, one shared frame for the n-1 other members) —
//!   the crossover justifying the two-channel design;
//! * the improved protocol's rekey costs more than legacy's per member
//!   (nonce chain + acknowledgments), the price of replay protection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enclaves_bench::{ImprovedGroup, LegacyGroup};
use enclaves_core::config::RekeyPolicy;
use enclaves_wire::codec::decode;
use enclaves_wire::message::Envelope;
use std::hint::black_box;
use std::time::Duration;

const GROUP_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

fn bench_admin_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("admin_broadcast");
    group.sample_size(20);
    for n in GROUP_SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut world = ImprovedGroup::new(n, RekeyPolicy::Manual);
            b.iter(|| {
                let out = world
                    .leader
                    .broadcast_admin_data(black_box(b"tick"))
                    .unwrap();
                world.settle(out.outgoing);
            });
        });
    }
    group.finish();
}

fn bench_rekey_improved(c: &mut Criterion) {
    let mut group = c.benchmark_group("rekey_improved");
    group.sample_size(20);
    for n in GROUP_SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut world = ImprovedGroup::new(n, RekeyPolicy::Manual);
            b.iter(|| {
                let out = world.leader.rekey_now().unwrap();
                world.settle(out.outgoing);
            });
        });
    }
    group.finish();
}

fn bench_rekey_legacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("rekey_legacy");
    group.sample_size(20);
    for n in GROUP_SIZES {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut world = LegacyGroup::new(n);
            b.iter(|| {
                let out = world.leader.rekey().unwrap();
                // Deliver new_key to each member (no acknowledgment chain
                // in legacy — that is exactly the missing protection).
                for env in out.outgoing {
                    if let Some(idx) = env
                        .recipient
                        .as_str()
                        .strip_prefix('m')
                        .and_then(|s| s.parse::<usize>().ok())
                    {
                        let _ = world.members[idx].handle(&env);
                    }
                }
            });
        });
    }
    group.finish();
}

fn bench_group_data_relay(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_data_relay");
    group.sample_size(20);
    for n in GROUP_SIZES.iter().filter(|&&n| n >= 2) {
        group.throughput(Throughput::Elements(*n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), n, |b, &n| {
            let mut world = ImprovedGroup::new(n, RekeyPolicy::Manual);
            b.iter(|| {
                let env = world.members[0]
                    .send_group_data(black_box(b"hello group"))
                    .unwrap();
                let out = world.leader.handle_at(&env, Duration::ZERO).unwrap();
                for relay in &out.broadcasts {
                    let frame: Envelope = decode(&relay.frame).unwrap();
                    for target in relay.targets() {
                        // Member ids are `m<i>`.
                        let idx: usize = target[1..].parse().unwrap();
                        let _ = world.members[idx].handle(&frame);
                    }
                }
            });
        });
    }
    group.finish();
}

fn bench_join_nth_member(c: &mut Criterion) {
    // Cost of the n-th join under rekey-on-join: grows with n because the
    // whole group must be rekeyed and notified.
    let mut group = c.benchmark_group("join_with_rekey_policy");
    group.sample_size(10);
    for n in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let world = ImprovedGroup::new(black_box(n), RekeyPolicy::OnJoin);
                assert_eq!(world.leader.roster().len(), n);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_admin_broadcast,
    bench_rekey_improved,
    bench_rekey_legacy,
    bench_group_data_relay,
    bench_join_nth_member
);
criterion_main!(benches);
