//! RFC 8439 ChaCha20 stream cipher.
//!
//! The concrete cipher behind the paper's `{X}_K` encryption. Validated
//! against the RFC 8439 §2.3.2/§2.4.2 test vectors.
//!
//! # One kernel source, two paths
//!
//! [`block`] and the scalar path of [`xor_in_place`] compute one 64-byte
//! block at a time. They serve one-block messages, the tree key schedule,
//! and every message on a CPU without the features below.
//!
//! The lane kernel, `xor_lanes::<L>`, computes `L` consecutive blocks side
//! by side in the *vertical* layout: each of the sixteen state words is an
//! `[u32; L]`, lane `l` belonging to block `counter + l`, and a
//! quarter-round is the scalar quarter-round applied to every lane. It is
//! safe, generic Rust with no intrinsics, so it compiles for any target
//! and the tests call it directly; built for the baseline `x86_64` target
//! it is no faster than the scalar path (eight lanes are sixteen 128-bit
//! halves and most of them spill), which is why it is not used there. It
//! is instantiated inside `#[target_feature]` functions, where each
//! lane-wise operation becomes one vector instruction: at sixteen lanes
//! under `avx512f` (zmm), at eight under `avx512f,avx512vl` (ymm, with 32
//! registers and one-instruction rotates) and under `avx2`, and at four
//! under `avx512f,avx512vl`, where LLVM packs four state words of four
//! lanes into each zmm register, so a step of the column round is one
//! instruction for the whole row (EXPERIMENTS.md S27 has the disassembly).
//! [`crate::dispatch`] pairs each with its features and calls it only
//! where they are detected.
//!
//! [`xor_in_place`] runs two paths. The *wide* path hands a message's
//! whole 1024-byte chunks to the sixteen-lane kernel and the 512-byte
//! chunk that may be left to the eight-lane one. The *short* path takes
//! what is left, under 512 bytes — all of a short message: where the CPU
//! has AVX-512VL, two blocks or more go through the narrowest VL kernel
//! that holds them with at most half its lanes idle (four lanes for two
//! to four blocks, eight for five to eight), in one pass over a 512-byte
//! stack buffer whose keystream is then XORed in. One block, and every
//! short message on a CPU without AVX-512VL, takes the scalar path: the
//! AVX2 eight-lane build has 16 registers for a 16-word state and spills
//! it (EXPERIMENTS.md S27), and no measurement shows it beating scalar
//! blocks at five to eight of them. [`lanes`] reports the widest kernel.
//! `Fold` is the short path over zeros from counter 0: the AEAD takes its
//! Poly1305 key (block 0) from the same lane pass as the message's
//! keystream.
//!
//! The output is byte for byte the scalar path's: the choice depends on
//! the CPU and the message length and on nothing a caller, a build flag or
//! the environment can set. A padded pass also computes keystream for the
//! lanes past the message (whose counters may wrap) and throws it away.
//!
//! Every path is constant-time in the key, the nonce and the data: they
//! consist of 32-bit additions, XORs and rotations by fixed amounts, and
//! no branch or memory index depends on anything but the message length.
//! Off `x86_64` the dispatch table is empty, the `#[target_feature]`
//! instantiations are compiled out and every message takes the scalar
//! path.

use crate::dispatch::{self, ChaCha20Kernel, Detected};

/// The ChaCha20 key length in bytes.
pub const KEY_LEN: usize = 32;

/// The ChaCha20 (IETF) nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// The ChaCha20 block length in bytes.
pub const BLOCK_LEN: usize = 64;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn initial_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }
    state
}

/// Runs the 20 ChaCha rounds over `initial`, adds the initial state back
/// in, and serializes the keystream block into `out` (RFC 8439 §2.3).
#[inline]
fn permute_into(initial: &[u32; 16], out: &mut [u8; BLOCK_LEN]) {
    let mut state = *initial;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
}

/// Computes one 64-byte ChaCha20 keystream block.
#[must_use]
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let initial = initial_state(key, counter, nonce);
    let mut out = [0u8; BLOCK_LEN];
    permute_into(&initial, &mut out);
    out
}

/// The eight-lane kernel's chunk: the shortest message the wide path is
/// tried on, and the longest the short path takes.
const SHORT_MAX: usize = 8 * BLOCK_LEN;

/// The wide path's kernels, widest first: each takes the whole chunks of
/// its size from what the one before left.
const WIDE_LANES: [usize; 2] = [16, 8];

/// The short path's kernels, narrowest first.
const SHORT_LANES: [usize; 2] = [4, 8];

/// [`xor_lanes`] at sixteen lanes, compiled with AVX-512F switched on so
/// each lane-wise operation is one 512-bit instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) fn xor_lanes_avx512(state: &mut [u32; 16], data: &mut [u8]) {
    xor_lanes::<16>(state, data);
}

/// [`xor_lanes`] at eight lanes on ymm registers with AVX-512VL: 32 of
/// them instead of AVX2's 16, and a rotate is one `vprold`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
pub(crate) fn xor_lanes_vl8(state: &mut [u32; 16], data: &mut [u8]) {
    xor_lanes::<8>(state, data);
}

/// [`xor_lanes`] at eight lanes, compiled with AVX2 switched on so each
/// lane-wise operation is one 256-bit instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn xor_lanes_avx2(state: &mut [u32; 16], data: &mut [u8]) {
    xor_lanes::<8>(state, data);
}

/// [`xor_lanes`] at four lanes with AVX-512VL: the short path's two to
/// four blocks in one pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
pub(crate) fn xor_lanes_vl4(state: &mut [u32; 16], data: &mut [u8]) {
    xor_lanes::<4>(state, data);
}

/// The most blocks [`xor_in_place`] computes side by side on this CPU for
/// a message long enough to fill them: 16 where AVX-512F is detected, 8
/// where AVX2 is, 1 (the scalar path) everywhere else. It reads the table
/// the dispatch reads and nothing else, so it is also what an operator is
/// shown.
#[must_use]
pub fn lanes() -> usize {
    WIDE_LANES
        .into_iter()
        .find(|&lanes| dispatch::chacha20(lanes).is_some())
        .unwrap_or(1)
}

/// Encrypts or decrypts `data` in place with the keystream starting at block
/// `counter` (the operation is its own inverse).
///
/// From 512 bytes up, whole chunks go through the widest lane kernel this
/// CPU has and what is left through the next; the rest, like every
/// shorter message, takes the short path (module docs).
///
/// # Panics
///
/// Panics if the keystream would exceed the 32-bit block counter — i.e. if
/// `data` is longer than `(2^32 - counter) * 64` bytes. Messages in this
/// system are far below that limit.
pub fn xor_in_place(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    let blocks_needed = data.len().div_ceil(BLOCK_LEN) as u64;
    assert!(
        u64::from(counter) + blocks_needed <= (1u64 << 32),
        "chacha20 block counter overflow"
    );
    let mut state = initial_state(key, counter, nonce);
    let wide = if data.len() >= SHORT_MAX {
        xor_wide(&mut state, data)
    } else {
        0
    };
    xor_short(&mut state, &mut data[wide..]);
}

/// The longest message whose AEAD one-time key (block 0) comes out of the
/// same short-path pass as its keystream: block 0 and the message fill at
/// most [`SHORT_MAX`].
pub(crate) const FOLD_MAX: usize = SHORT_MAX - BLOCK_LEN;

/// Block 0 and the keystream from block 1 on for a message of up to
/// [`FOLD_MAX`] bytes, from one short-path pass over zeros at counter 0:
/// the AEAD takes its Poly1305 key from [`Fold::block0`] and XORs the
/// message with [`Fold::apply`], after checking the tag when it opens.
pub(crate) struct Fold {
    stream: [u8; SHORT_MAX],
    len: usize,
}

impl Fold {
    /// The fold for a message of `len` bytes, or `None` past [`FOLD_MAX`].
    pub(crate) fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], len: usize) -> Option<Fold> {
        if len > FOLD_MAX {
            return None;
        }
        // The short path over zeros, with the kernel writing straight into
        // the fold's buffer.
        let mut stream = [0u8; SHORT_MAX];
        let mut state = initial_state(key, 0, nonce);
        match short_kernel(BLOCK_LEN + len) {
            Some((lanes, kernel)) => kernel.call(&mut state, &mut stream[..lanes * BLOCK_LEN]),
            None => xor_scalar(&mut state, &mut stream[..BLOCK_LEN + len]),
        }
        Some(Fold { stream, len })
    }

    /// Keystream block 0.
    pub(crate) fn block0(&self) -> &[u8; BLOCK_LEN] {
        self.stream.first_chunk().expect("the fold holds block 0")
    }

    /// XORs the keystream from block 1 on into `data`, the message the
    /// fold was made for.
    pub(crate) fn apply(&self, data: &mut [u8]) {
        assert_eq!(data.len(), self.len, "the fold's message length");
        xor(data, &self.stream[BLOCK_LEN..]);
    }
}

/// The short path: `data` goes through one padded pass of the lane
/// kernel [`short_kernel`] picks, or through the scalar path where it
/// picks none.
fn xor_short(state: &mut [u32; 16], data: &mut [u8]) {
    match short_kernel(data.len()) {
        Some((lanes, kernel)) => {
            let mut stream = [0u8; SHORT_MAX];
            kernel.call(state, &mut stream[..lanes * BLOCK_LEN]);
            xor(data, &stream);
        }
        None => xor_scalar(state, data),
    }
}

/// XORs the front of `stream` into `data`.
fn xor(data: &mut [u8], stream: &[u8]) {
    for (d, k) in data.iter_mut().zip(stream) {
        *d ^= k;
    }
}

/// The narrowest short-path kernel that holds `len` bytes in one pass
/// with at most half its lanes idle, and its width, where this CPU has
/// AVX-512VL; `None` for one block or less, and on any other CPU, whose
/// short input stays on the scalar path (module docs).
fn short_kernel<'s, 'd>(len: usize) -> Option<(usize, Detected<ChaCha20Kernel<'s, 'd>>)> {
    let blocks = len.div_ceil(BLOCK_LEN);
    let lanes = SHORT_LANES
        .into_iter()
        .find(|&lanes| blocks <= lanes && 2 * blocks >= lanes)?;
    // The four-lane kernel is the AVX-512VL one: where it is missing, the
    // eight-lane one would be the AVX2 build.
    dispatch::chacha20(4)?;
    Some((lanes, dispatch::chacha20(lanes)?))
}

/// The scalar path: XORs the keystream from `state`'s block counter on
/// into `data`, one block per iteration, and leaves the counter on the
/// next unused block.
fn xor_scalar(state: &mut [u32; 16], data: &mut [u8]) {
    let mut keystream = [0u8; BLOCK_LEN];
    for chunk in data.chunks_mut(BLOCK_LEN) {
        permute_into(state, &mut keystream);
        state[12] = state[12].wrapping_add(1);
        for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
    }
}

/// The wide path: runs each wide kernel this CPU has, widest first, over
/// the whole chunks of its size at the front of what is left of `data`,
/// and returns how many bytes that covered (0 where there is no kernel for
/// this CPU).
fn xor_wide(state: &mut [u32; 16], data: &mut [u8]) -> usize {
    let mut done = 0;
    for lanes in WIDE_LANES {
        let Some(kernel) = dispatch::chacha20(lanes) else {
            continue;
        };
        let rest = &mut data[done..];
        let whole = rest.len() - rest.len() % (lanes * BLOCK_LEN);
        if whole > 0 {
            kernel.call(state, &mut rest[..whole]);
            done += whole;
        }
    }
    done
}

/// One word of the state across `L` blocks.
type Lanes<const L: usize> = [u32; L];

#[inline(always)]
fn add<const L: usize>(a: Lanes<L>, b: Lanes<L>) -> Lanes<L> {
    core::array::from_fn(|l| a[l].wrapping_add(b[l]))
}

#[inline(always)]
fn xor_rotl<const L: usize>(a: Lanes<L>, b: Lanes<L>, n: u32) -> Lanes<L> {
    core::array::from_fn(|l| (a[l] ^ b[l]).rotate_left(n))
}

#[inline(always)]
fn lane_quarter_round<const L: usize>(
    x: &mut [Lanes<L>; 16],
    a: usize,
    b: usize,
    c: usize,
    d: usize,
) {
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotl(x[d], x[a], 16);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotl(x[b], x[c], 12);
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotl(x[d], x[a], 8);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotl(x[b], x[c], 7);
}

/// The lane kernel: XORs the keystream from `state`'s block counter on
/// into `data`, `L` blocks per iteration, and leaves the counter on the
/// next unused block. `data` must be whole chunks of `L` blocks.
///
/// The layout is vertical: each of the sixteen state words is held as
/// `L` lanes, lane `l` belonging to block `counter + l`, so a quarter-round
/// is the scalar one applied lane by lane and no lane ever reads another.
// Off `x86_64` nothing but the tests instantiates it yet.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn xor_lanes<const L: usize>(state: &mut [u32; 16], data: &mut [u8]) {
    assert_eq!(data.len() % (L * BLOCK_LEN), 0, "whole chunks only");
    let mut initial: [Lanes<L>; 16] = state.map(|word| [word; L]);
    initial[12] = core::array::from_fn(|l| state[12].wrapping_add(l as u32));
    for chunk in data.chunks_exact_mut(L * BLOCK_LEN) {
        let mut x = initial;
        for _ in 0..10 {
            // Column rounds.
            lane_quarter_round(&mut x, 0, 4, 8, 12);
            lane_quarter_round(&mut x, 1, 5, 9, 13);
            lane_quarter_round(&mut x, 2, 6, 10, 14);
            lane_quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal rounds.
            lane_quarter_round(&mut x, 0, 5, 10, 15);
            lane_quarter_round(&mut x, 1, 6, 11, 12);
            lane_quarter_round(&mut x, 2, 7, 8, 13);
            lane_quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, first) in x.iter_mut().zip(initial.iter()) {
            *word = add(*word, *first);
        }
        for (l, block) in chunk.chunks_exact_mut(BLOCK_LEN).enumerate() {
            for (bytes, word) in block.chunks_exact_mut(4).zip(x.iter()) {
                let keyed = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ word[l];
                bytes.copy_from_slice(&keyed.to_le_bytes());
            }
        }
        initial[12] = add(initial[12], [L as u32; L]);
    }
    state[12] = initial[12][0];
}

/// Encrypts `plaintext`, returning a fresh ciphertext vector.
#[must_use]
pub fn encrypt(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    xor_in_place(key, counter, nonce, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn test_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    // RFC 8439 §2.3.2: block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key = test_key();
        let nonce: [u8; NONCE_LEN] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let ks = block(&key, 1, &nonce);
        assert_eq!(
            ks.to_vec(),
            unhex(
                "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e
                 d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
            )
        );
    }

    // RFC 8439 §2.4.2: encryption test vector ("sunscreen" plaintext).
    #[test]
    fn rfc8439_encrypt_vector() {
        let key = test_key();
        let nonce: [u8; NONCE_LEN] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&key, 1, &nonce, plaintext);
        assert_eq!(
            ct,
            unhex(
                "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b
                 f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8
                 07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736
                 5af90bbf74a35be6b40b8eedf2785e42874d"
            )
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let nonce = [7u8; NONCE_LEN];
        let msg = b"enclaves group management message".to_vec();
        let mut buf = msg.clone();
        xor_in_place(&key, 0, &nonce, &mut buf);
        assert_ne!(buf, msg);
        xor_in_place(&key, 0, &nonce, &mut buf);
        assert_eq!(buf, msg);
    }

    #[test]
    fn counter_advances_across_blocks() {
        let key = test_key();
        let nonce = [3u8; NONCE_LEN];
        // Encrypting 130 bytes starting at counter 5 must equal blockwise
        // encryption with counters 5, 6, 7.
        let data = vec![0u8; 130];
        let full = encrypt(&key, 5, &nonce, &data);
        let mut manual = Vec::new();
        for (i, chunk) in data.chunks(BLOCK_LEN).enumerate() {
            let ks = block(&key, 5 + i as u32, &nonce);
            manual.extend(chunk.iter().zip(ks.iter()).map(|(d, k)| d ^ k));
        }
        assert_eq!(full, manual);
    }

    #[test]
    fn different_nonces_different_streams() {
        let key = test_key();
        let a = encrypt(&key, 0, &[0u8; NONCE_LEN], &[0u8; 64]);
        let b = encrypt(&key, 0, &[1u8; NONCE_LEN], &[0u8; 64]);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_plaintext_ok() {
        let key = test_key();
        assert!(encrypt(&key, 0, &[0u8; NONCE_LEN], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn counter_overflow_panics() {
        let key = test_key();
        let nonce = [0u8; NONCE_LEN];
        let mut data = vec![0u8; 65];
        // Starting at u32::MAX, a 2-block message overflows.
        xor_in_place(&key, u32::MAX, &nonce, &mut data);
    }
}

#[cfg(test)]
mod multiblock_vectors {
    //! Multi-block keystream vectors for [`xor_in_place`], written when its
    //! bulk path first computed more than one block per iteration.
    //!
    //! Inputs for the first vector follow RFC 8439 A.2 #2 (key
    //! `00..0001`, nonce `00..0002`, initial counter 1); the expected
    //! ciphertexts were produced by the scalar one-block-at-a-time
    //! implementation that the RFC 8439 §2.3.2/§2.4.2 vectors validate.
    //! Each vector exercises a shape a multi-block path must get right:
    //! whole blocks plus a partial tail, an exact block multiple with a
    //! counter near wrap, and a tail that is itself several blocks.

    use super::tests::unhex;
    use super::*;

    /// 375 bytes (5 full blocks + 55-byte tail), counter 1.
    #[test]
    fn vector_a_375_bytes_counter_1() {
        let mut key = [0u8; KEY_LEN];
        key[31] = 0x01;
        let mut nonce = [0u8; NONCE_LEN];
        nonce[11] = 0x02;
        let pt: Vec<u8> = (0..375u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(
            encrypt(&key, 1, &nonce, &pt),
            unhex(
                "e2948b5e848a4bb42e4d15c05de15d0b3e513be43e7a08efc0a0166f39102e9d
                 6ed3d288952e2f4688bfd95fb4902a5857cdd1911cf0d5ce01ab2b8117e9775b
                 6362d60daec78adc70229ecfcabd65335097dbfa29adb896be2b1b391b4a7349
                 0295f66072cfa10708039d3011ea5b537707377418909213a16b174495baf656
                 24ef72af046f9a237e8640eacf3c3380a6b233909919f056a7b95e0cdf2bc376
                 447c145c7141ea7fd4203b7ca4a833ee20ed93f133b0991046ade11c4b6b3de6
                 add42f0ec96cdd6cd31792e5767788b40a72822d95a085cfa37e314794143d93
                 5faf2c08b8f14aa2abba360a5e1b6f1e352ad700e20d232a29bb7c9c7cdf2d61
                 b2e939e60c3379b70c215a5cfc73ecbdf0d2ff57e8da07bc855e279b19df111b
                 0a3d840e98f77aaf23b25da9958d5635fff8a57b95e5fbce4b67af92b5add6c3
                 a9e1ff7ff995bd495e18e00c818bffbf389cbab3f890c8729d4662d502f2d7e3
                 3fd712d3966d6ab7448d602625f57decc2f892707bfc35"
            )
        );
    }

    /// 192 bytes (exactly 3 blocks), counter 0xfffffffd — the last legal
    /// starting point before the 32-bit block counter would overflow.
    #[test]
    fn vector_b_exact_blocks_near_counter_wrap() {
        let key: [u8; KEY_LEN] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(3));
        let nonce: [u8; NONCE_LEN] = core::array::from_fn(|i| 0xa0 + i as u8);
        let pt: Vec<u8> = (0..192u32).map(|i| (i as u8).wrapping_mul(13)).collect();
        assert_eq!(
            encrypt(&key, 0xffff_fffd, &nonce, &pt),
            unhex(
                "fc954c8f04173d5b544f8b48ce58d11b727f6e66edccbe985b15e86aedf36dc6
                 2165b4ccbf14f1f7dac6bcecc1116234a9f1214f870c352042e4ea94616de63e
                 be75a9b2b62f4bae17aa1cd2e3e648cd23db230b4227dfc82e436fe7f6d0dad0
                 53d3dccfc8ae3e818bdd4aa43df0e992a7cdd54139d5656f7ac36c9bda6f3283
                 587a42571b29b61272091a76bfea5548c48f742c916427951056d7b57ea8f54c
                 137a360eddb2c5132be564c0f38d3221fecfb0609782d1e5021e08a915a8728a"
            )
        );
    }

    /// 260 bytes (one 4-block batch + 4-byte tail), counter 5.
    #[test]
    fn vector_c_crosses_batch_boundary() {
        let key = [0x42u8; KEY_LEN];
        let nonce = [0x24u8; NONCE_LEN];
        let pt: Vec<u8> = (0..260u32).map(|i| (i % 256) as u8).collect();
        assert_eq!(
            encrypt(&key, 5, &nonce, &pt),
            unhex(
                "d0a3dfeb2a9e8d9ba8403e9557d82559eeeefbeb7ebaf763d45b6791fba826ea
                 dd22a787e9812abb4da92a5b2c883178a6550fac755dbf61c09e2596042b10be
                 ecc5b8f230ab72a16b2bbf1400076aa569375cd9f4c7d90f89bb54f1823cdd53
                 d59a987e9adeed474ac87dc49433ef9a4ef6ba4a9fee16b678c847feb9f2c1f4
                 02b90e4e74f709f3adfd9e470f661cde06b9920843580e4015b64eb000209ce1
                 1f2875bd985371ba152a60543dc1904ea9b4bbc98245bfda52e55c28d0482e5b
                 98e2a560e15c747ca4b966c46c0e37017a551f31ac2b01abcf45528bdbae8d6c
                 8524fda4818fde01af63853664f0d4ec86b3db92e9a3acd1fc5f67ba40c2e521
                 f878ff2f"
            )
        );
    }

    /// The batched bulk path must agree byte-for-byte with the scalar
    /// [`block`] primitive (which the RFC vectors pin down) for every
    /// length around the block and batch boundaries and for counters
    /// around zero and the batch stride.
    #[test]
    fn batched_path_matches_scalar_blocks_exhaustively() {
        let key: [u8; KEY_LEN] = core::array::from_fn(|i| i as u8 ^ 0x5a);
        let nonce: [u8; NONCE_LEN] = core::array::from_fn(|i| 0x10 + i as u8);
        for counter in [0u32, 1, 3, 4, 5, 1000] {
            for len in [
                0usize, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 319, 320, 511,
                512, 513,
            ] {
                let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
                let mut fast = data.clone();
                xor_in_place(&key, counter, &nonce, &mut fast);
                let mut slow = data;
                for (i, chunk) in slow.chunks_mut(BLOCK_LEN).enumerate() {
                    let ks = block(&key, counter + i as u32, &nonce);
                    for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                        *d ^= k;
                    }
                }
                assert_eq!(fast, slow, "counter={counter} len={len}");
            }
        }
    }
}

#[cfg(test)]
mod lane_kernel {
    //! The dispatch, the scalar path and the lane kernel agree byte for
    //! byte. `xor_lanes::<4>`, `::<8>` and `::<16>` are called directly,
    //! as the baseline builds of the very source the `#[target_feature]`
    //! instantiations compile, and arranged as each CPU the dispatch table
    //! describes would run them, so these tests pin every path whatever
    //! CPU runs them.

    use super::*;

    const KEY: [u8; KEY_LEN] = [
        0x1c, 0x92, 0x40, 0xa5, 0xeb, 0x55, 0xd3, 0x8a, 0xf3, 0x33, 0x88, 0x86, 0x04, 0xf6, 0xb5,
        0xf0, 0x47, 0x39, 0x17, 0xc1, 0x40, 0x2b, 0x80, 0x09, 0x9d, 0xca, 0x5c, 0xbc, 0x20, 0x70,
        0x75, 0xc0,
    ];
    const NONCE: [u8; NONCE_LEN] = [0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];

    /// The eight-lane kernel's chunk.
    const CHUNK: usize = 8 * BLOCK_LEN;

    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 251) as u8).collect()
    }

    fn scalar(counter: u32, data: &mut [u8]) {
        xor_scalar(&mut initial_state(&KEY, counter, &NONCE), data);
    }

    /// The baseline build of the kernel `lanes` wide.
    fn lanes_kernel(lanes: usize, state: &mut [u32; 16], data: &mut [u8]) {
        match lanes {
            1 => xor_lanes::<1>(state, data),
            2 => xor_lanes::<2>(state, data),
            4 => xor_lanes::<4>(state, data),
            8 => xor_lanes::<8>(state, data),
            16 => xor_lanes::<16>(state, data),
            other => panic!("no test instantiation at {other} lanes"),
        }
    }

    /// The kernels a CPU has: the wide path's, widest first, and the short
    /// path's, narrowest first.
    type Cpu = (&'static [usize], &'static [usize]);

    /// Every CPU the dispatch table can describe: none of the features,
    /// AVX2 only, AVX-512F without VL (neither has a short path), and
    /// AVX-512F with VL.
    const CPUS: [Cpu; 4] = [
        (&[], &[]),
        (&[8], &[]),
        (&[16, 8], &[]),
        (&[16, 8], &[4, 8]),
    ];

    /// What the dispatch does on `cpu`, from the kernels' baseline builds:
    /// each wide kernel takes the whole chunks of its size from what is
    /// left, the rest goes through one padded pass of the narrowest short
    /// kernel that holds it with at most half its lanes idle, or else
    /// through the scalar path, and one block counter runs through all of
    /// them.
    fn as_on_cpu((wide, short): Cpu, counter: u32, data: &mut [u8]) {
        let mut state = initial_state(&KEY, counter, &NONCE);
        let mut done = 0;
        for &lanes in wide {
            let rest = &mut data[done..];
            let whole = rest.len() - rest.len() % (lanes * BLOCK_LEN);
            lanes_kernel(lanes, &mut state, &mut rest[..whole]);
            done += whole;
        }
        let rest = &mut data[done..];
        let blocks = rest.len().div_ceil(BLOCK_LEN);
        match short
            .iter()
            .find(|&&lanes| blocks <= lanes && 2 * blocks >= lanes)
        {
            Some(&lanes) => {
                let mut stream = vec![0u8; lanes * BLOCK_LEN];
                lanes_kernel(lanes, &mut state, &mut stream);
                for (d, k) in rest.iter_mut().zip(stream) {
                    *d ^= k;
                }
            }
            None => xor_scalar(&mut state, rest),
        }
    }

    /// Every CPU's paths and whatever this CPU dispatches to: one
    /// ciphertext.
    fn assert_every_path_agrees(counter: u32, len: usize) {
        let plain = message(len);
        let mut by_scalar = plain.clone();
        scalar(counter, &mut by_scalar);
        for cpu in CPUS {
            let mut by_kernels = plain.clone();
            as_on_cpu(cpu, counter, &mut by_kernels);
            assert!(
                by_kernels == by_scalar,
                "cpu {cpu:?} != scalar: counter={counter} len={len}"
            );
        }
        let mut dispatched = plain;
        xor_in_place(&KEY, counter, &NONCE, &mut dispatched);
        assert!(
            dispatched == by_scalar,
            "dispatch != scalar: counter={counter} len={len}"
        );
    }

    /// Every length up to 2 600 crosses each short-path width (0..=600 is
    /// every short message and every tail), each hand-over to the wide
    /// path, and both wide widths.
    #[test]
    fn dispatch_scalar_and_lanes_agree_at_every_length() {
        // 20 655 is the Welcome body of the benchmark's largest roster.
        let lengths = (0..=2600usize).chain([4096, 10_240, 20_655]);
        for len in lengths {
            for counter in [0, 1, u32::MAX - 40] {
                let fits = u64::from(counter) + len.div_ceil(BLOCK_LEN) as u64 <= 1 << 32;
                if fits {
                    assert_every_path_agrees(counter, len);
                }
            }
        }
    }

    /// One byte either side of one eight-lane chunk, of two (one
    /// sixteen-lane chunk) and of three (one of each): the last message
    /// the scalar path takes alone, the first a kernel takes whole, the
    /// first with a scalar tail, and the hand-over between kernels.
    #[test]
    fn chunk_boundaries() {
        assert_eq!((SHORT_MAX, CHUNK), (512, 512));
        for len in [511, 512, 513, 1023, 1024, 1025, 1535, 1536, 1537] {
            for counter in [0, 1, 7, u32::MAX - 24] {
                assert_every_path_agrees(counter, len);
            }
        }
    }

    /// The kernel leaves the counter on the next unused block, so a caller
    /// can go on from where it stopped; and the last block before the
    /// 32-bit counter would wrap is reachable through it.
    #[test]
    fn kernel_advances_the_counter_and_reaches_the_last_block() {
        let mut state = initial_state(&KEY, u32::MAX - 7, &NONCE);
        let mut data = message(CHUNK);
        xor_lanes::<8>(&mut state, &mut data);
        assert_eq!(state[12], 0, "eight blocks from 2^32 - 8 end on the wrap");
        let mut expected = message(CHUNK);
        scalar(u32::MAX - 7, &mut expected);
        assert_eq!(data, expected);
    }

    /// The kernel is one function of its width: any lane count gives the
    /// scalar keystream.
    #[test]
    fn any_lane_count_gives_the_scalar_keystream() {
        let mut expected = message(2048 + 100);
        scalar(3, &mut expected);
        for lanes in [1, 2, 4, 8, 16] {
            let mut data = message(2048 + 100);
            let whole = 2048;
            let mut state = initial_state(&KEY, 3, &NONCE);
            lanes_kernel(lanes, &mut state, &mut data[..whole]);
            xor_scalar(&mut state, &mut data[whole..]);
            assert!(data == expected, "{lanes} lanes");
        }
    }

    /// A fold holds scalar block 0 and XORs the scalar keystream from
    /// block 1 on, at every length it takes; past that it is refused.
    #[test]
    fn fold_is_block0_and_the_scalar_keystream_from_block1() {
        for len in 0..=FOLD_MAX {
            let fold = Fold::new(&KEY, &NONCE, len).expect("short enough to fold");
            assert_eq!(*fold.block0(), block(&KEY, 0, &NONCE), "len={len}");
            let mut folded = message(len);
            fold.apply(&mut folded);
            let mut expected = message(len);
            scalar(1, &mut expected);
            assert!(folded == expected, "len={len}");
        }
        assert!(Fold::new(&KEY, &NONCE, FOLD_MAX + 1).is_none());
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn counter_overflow_panics_on_the_wide_path() {
        // Two chunks are sixteen blocks; fifteen are left.
        let mut data = vec![0u8; 2 * CHUNK];
        xor_in_place(&KEY, u32::MAX - 14, &NONCE, &mut data);
    }

    #[test]
    #[should_panic(expected = "whole chunks only")]
    fn kernel_refuses_a_partial_chunk() {
        let mut state = initial_state(&KEY, 0, &NONCE);
        xor_lanes::<8>(&mut state, &mut [0u8; CHUNK + BLOCK_LEN]);
    }

    /// `lanes()` is the widest kernel the dispatch will run; with or
    /// without a wider one, three eight-lane chunks and five bytes leave
    /// five bytes and 24 blocks behind, or everything on a scalar-only CPU.
    #[test]
    fn lanes_reports_the_path_the_dispatch_takes() {
        let mut state = initial_state(&KEY, 0, &NONCE);
        let taken = xor_wide(&mut state, &mut [0u8; 3 * CHUNK + 5]);
        match lanes() {
            1 => assert_eq!((taken, state[12]), (0, 0)),
            8 | 16 => assert_eq!((taken, state[12]), (3 * CHUNK, 24)),
            other => panic!("no kernel has {other} lanes"),
        }
    }
}
