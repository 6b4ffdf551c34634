//! Crypto substrate microbenchmarks (system evaluation, table S1 in
//! EXPERIMENTS.md): throughput of the primitives behind `{X}_K`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use enclaves_crypto::aead::ChaCha20Poly1305;
use enclaves_crypto::chacha20;
use enclaves_crypto::hmac::HmacSha256;
use enclaves_crypto::keys::LongTermKey;
use enclaves_crypto::nonce::AeadNonce;
use enclaves_crypto::pbkdf2::pbkdf2;
use enclaves_crypto::poly1305::Poly1305;
use enclaves_crypto::sha256::sha256;
use std::hint::black_box;

/// Where production sizes are: 64 B is a broadcast payload, 256 B the
/// Poly1305 four-block threshold, 512 B the ChaCha20 wide path's chunk
/// (the dispatch threshold), 10 240 B a Welcome at N of about 1 000.
const SIZES: [usize; 6] = [64, 256, 512, 1024, 8192, 10_240];

/// The AEAD's short path besides: 32 to 192 B fold the one-time key into
/// a four-lane pass, 448 B (the longest fold) into an eight-lane one.
const AEAD_SIZES: [usize; 10] = [32, 64, 128, 192, 256, 448, 512, 1024, 8192, 10_240];

/// Poly1305 besides: 128 B is one lane-kernel chunk, still single blocks;
/// from 256 B the IFMA lanes run, or the four-block path without IFMA.
const POLY1305_SIZES: [usize; 7] = [64, 128, 256, 512, 1024, 8192, 10_240];

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in SIZES {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(black_box(data)));
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let mut group = c.benchmark_group("hmac_sha256");
    let key = [7u8; 32];
    for size in SIZES {
        let data = vec![0xCDu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| HmacSha256::mac(black_box(&key), black_box(data)));
        });
    }
    group.finish();
}

fn bench_chacha20(c: &mut Criterion) {
    let mut group = c.benchmark_group("chacha20");
    let key = [9u8; 32];
    let nonce = [1u8; 12];
    for size in SIZES {
        let data = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| chacha20::encrypt(black_box(&key), 1, black_box(&nonce), black_box(data)));
        });
    }
    group.finish();
}

fn bench_poly1305(c: &mut Criterion) {
    let mut group = c.benchmark_group("poly1305");
    let key = [3u8; 32];
    for size in POLY1305_SIZES {
        let data = vec![0x55u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| Poly1305::mac(black_box(&key), black_box(data)));
        });
    }
    group.finish();
}

fn bench_aead(c: &mut Criterion) {
    let mut group = c.benchmark_group("chacha20poly1305");
    let cipher = ChaCha20Poly1305::new(&[5u8; 32]);
    let nonce = AeadNonce::from_bytes([0; 12]);
    for size in AEAD_SIZES {
        let data = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("seal", size), &data, |b, data| {
            b.iter(|| cipher.seal(black_box(&nonce), black_box(data), b"aad"));
        });
        let sealed = cipher.seal(&nonce, &data, b"aad");
        group.bench_with_input(BenchmarkId::new("open", size), &sealed, |b, sealed| {
            b.iter(|| {
                cipher
                    .open(black_box(&nonce), black_box(sealed), b"aad")
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_x25519(c: &mut Criterion) {
    use enclaves_crypto::x25519::{x25519, x25519_base, BASE_POINT};
    let mut group = c.benchmark_group("x25519");
    group.sample_size(20);
    let scalar = [0x42u8; 32];
    let point = x25519_base(&scalar);
    group.bench_function("scalar_mult", |b| {
        b.iter(|| x25519(black_box(&scalar), black_box(&point)));
    });
    group.bench_function("base_point_mult", |b| {
        b.iter(|| x25519(black_box(&scalar), black_box(&BASE_POINT)));
    });
    group.finish();
}

fn bench_key_derivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_derivation");
    group.sample_size(10);
    group.bench_function("pbkdf2_4096_iters", |b| {
        b.iter(|| {
            let mut out = [0u8; 32];
            pbkdf2(black_box(b"password"), b"enclaves:alice", 4096, &mut out).unwrap();
            out
        });
    });
    group.bench_function("long_term_key_from_password", |b| {
        b.iter(|| LongTermKey::derive_from_password(black_box("password"), "alice").unwrap());
    });
    group.finish();
}

/// The rekey tree's key schedule (EXPERIMENTS.md rows S18, S22): one tree
/// level and the per-epoch group derivation, beside the one ChaCha20 block
/// each of them is and one extract-then-expand of the same size, which is
/// what a level cost (twice over) before S22.
fn bench_tree_schedule(c: &mut Criterion) {
    use enclaves_crypto::{chacha20, hkdf, treekdf};
    let mut group = c.benchmark_group("tree_key_schedule");
    let secret = [0x42u8; 32];
    group.bench_function("treekdf::derive_step", |b| {
        b.iter(|| treekdf::derive_step(black_box(&secret)));
    });
    group.bench_function("treekdf::derive_group", |b| {
        b.iter(|| treekdf::derive_group(black_box(&secret), black_box(7)));
    });
    group.bench_function("chacha20::block", |b| {
        b.iter(|| chacha20::block(black_box(&secret), 0, black_box(b"enclave-step")));
    });
    group.bench_function("hkdf::derive", |b| {
        b.iter(|| {
            let mut out = [0u8; 32];
            hkdf::derive(
                b"enclaves treekem v1",
                black_box(&secret),
                b"node key",
                &mut out,
            )
            .unwrap();
            out
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hmac,
    bench_chacha20,
    bench_poly1305,
    bench_aead,
    bench_x25519,
    bench_key_derivation,
    bench_tree_schedule
);
criterion_main!(benches);
