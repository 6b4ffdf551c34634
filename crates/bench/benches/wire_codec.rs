//! Wire codec cost (system evaluation, table S7): envelope encode/decode
//! and sealed-message build/open, the per-message fixed costs of the
//! hardened protocol — plus the `welcome_path` group (table S19), the
//! roster-sized cost of a join on each side of the wire.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enclaves_crypto::nonce::{AeadNonce, ProtocolNonce};
use enclaves_wire::codec::{decode, encode};
use enclaves_wire::message::{
    open, seal, AdminPayload, AdminPlain, Envelope, MsgType, NonceAckPlain,
};
use enclaves_wire::{ActorId, Roster};
use std::hint::black_box;

fn ids() -> (ActorId, ActorId) {
    (
        ActorId::new("alice").unwrap(),
        ActorId::new("leader").unwrap(),
    )
}

fn bench_envelope_codec(c: &mut Criterion) {
    let (alice, leader) = ids();
    let mut group = c.benchmark_group("envelope_codec");
    for size in [32usize, 256, 4096] {
        let env = Envelope {
            msg_type: MsgType::AdminMsg,
            sender: leader.clone(),
            recipient: alice.clone(),
            group: None,
            body: vec![0xAB; size],
        };
        let bytes = encode(&env);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", size), &env, |b, env| {
            b.iter(|| encode(black_box(env)));
        });
        group.bench_with_input(BenchmarkId::new("decode", size), &bytes, |b, bytes| {
            b.iter(|| decode::<Envelope>(black_box(bytes)).unwrap());
        });
    }
    group.finish();
}

fn bench_sealed_messages(c: &mut Criterion) {
    let (alice, leader) = ids();
    let key = [0x42u8; 32];
    let nonce = AeadNonce::from_bytes([1; 12]);
    let mut group = c.benchmark_group("sealed_messages");

    let admin = AdminPlain {
        leader: leader.clone(),
        user: alice.clone(),
        user_nonce: ProtocolNonce::from_bytes([2; 16]),
        leader_nonce: ProtocolNonce::from_bytes([3; 16]),
        payload: AdminPayload::NewGroupKey {
            epoch: 7,
            key: [9; 32],
            iv: [1; 12],
        },
    };
    group.bench_function("seal_admin_msg", |b| {
        b.iter(|| seal(black_box(&key), nonce, b"hdr", black_box(&admin)));
    });
    let body = seal(&key, nonce, b"hdr", &admin);
    group.bench_function("open_admin_msg", |b| {
        b.iter(|| open::<AdminPlain>(black_box(&key), b"hdr", black_box(&body)).unwrap());
    });

    let ack = NonceAckPlain {
        user: alice,
        leader,
        acked_nonce: ProtocolNonce::from_bytes([4; 16]),
        next_nonce: ProtocolNonce::from_bytes([5; 16]),
    };
    group.bench_function("seal_ack", |b| {
        b.iter(|| seal(black_box(&key), nonce, b"hdr", black_box(&ack)));
    });
    group.finish();
}

/// A join's roster-sized work at N members: the leader turns the
/// snapshot it holds into a sealed `Welcome` frame, the member turns
/// that frame back into an opened, validated roster, and the leader's
/// next snapshot is one `Roster::with`.
fn bench_welcome_path(c: &mut Criterion) {
    let (_, leader) = ids();
    let key = [0x42u8; 32];
    let nonce = AeadNonce::from_bytes([1; 12]);
    let mut group = c.benchmark_group("welcome_path");
    for n in [256usize, 1024, 4096] {
        let name = |i: usize| ActorId::new(format!("m{i:05}")).unwrap();
        let roster: Roster = (0..n).map(name).collect();
        let joiner = name(n / 2);
        let plain = |members: Roster| AdminPlain {
            leader: leader.clone(),
            user: joiner.clone(),
            user_nonce: ProtocolNonce::from_bytes([2; 16]),
            leader_nonce: ProtocolNonce::from_bytes([3; 16]),
            payload: AdminPayload::Welcome {
                members,
                epoch: 7,
                group_key: [9; 32],
                iv: [1; 12],
            },
        };
        let header = Envelope {
            msg_type: MsgType::AdminMsg,
            sender: leader.clone(),
            recipient: joiner.clone(),
            group: None,
            body: Vec::new(),
        };
        let frame = header
            .clone()
            .seal_body(&key, nonce, &plain(roster.clone()));
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::new("leader_seal_frame", n), &roster, |b, r| {
            b.iter(|| {
                header
                    .clone()
                    .seal_body(&key, nonce, &plain(black_box(r).clone()))
            });
        });
        group.bench_with_input(BenchmarkId::new("member_open_roster", n), &frame, |b, f| {
            b.iter(|| {
                let env: Envelope = decode(black_box(f)).unwrap();
                open::<AdminPlain>(&key, &env.header_aad(), &env.body).unwrap()
            });
        });
        let without = roster.without(&joiner);
        group.bench_with_input(BenchmarkId::new("roster_with", n), &without, |b, r| {
            b.iter(|| black_box(r).with(&joiner));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_envelope_codec,
    bench_sealed_messages,
    bench_welcome_path
);
criterion_main!(benches);
