//! RFC 8439 Poly1305 one-time authenticator.
//!
//! The accumulator and the key `r` are held as three limbs of 44, 44 and
//! 42 bits (the "donna-64" layout), `l[0] + l[1]·2^44 + l[2]·2^88`, on
//! every path. An `update` takes one of three:
//!
//! * **One block per reduction**, nine 128-bit products: short input, the
//!   blocks the paths below leave over, and the final partial block.
//! * **Four blocks per reduction**, from [`WIDE_MIN`] bytes of whole
//!   blocks up where the CPU has no lane kernel: Horner's rule unrolled
//!   four times, `h = (h + m1)·r^4 + m2·r^3 + m3·r^2 + m4·r`, whose four
//!   products do not depend on one another.
//! * **Eight lanes** of AVX-512 IFMA, for the whole 128-byte chunks of
//!   [`WIDE_MIN`] bytes and more, where the CPU has it ([`ifma`]). Lane
//!   `l` of a 512-bit vector absorbs the blocks whose index is `l` mod 8:
//!   per chunk it adds its block and multiplies by `r^8`, except that its
//!   multiplier for the last chunk is `r^(8-l)`. Over `k` blocks lane `l`
//!   then holds `Σ_t m_(8t+l)·r^(k-8t-l)`, and the eight lanes sum to what
//!   Horner's rule gives; the accumulator carried in rides in lane 0 with
//!   the first block. Each limb is one vector of eight, every limb and
//!   multiplier under 2^52, so `vpmadd52luq`/`vpmadd52huq` multiply them
//!   whole: a column of products splits at bit 52 into a low half in
//!   place and a high half 52 bits up (8 bits into the next limb, or from
//!   the top column `2^140 ≡ 5·2^10` back into the bottom), and one carry
//!   pass, [`carry`] lane by lane, brings the limbs back under 2^44 and
//!   2^42. Message words are read with `u64::from_le_bytes` and placed
//!   with `_mm512_set_epi64`, never loaded through a pointer.
//!
//! `r^2..r^4` are computed once per MAC, the first time a path needs
//! them, and `r^5..r^8` once per run of the lane kernel. Which path runs
//! depends only on the CPU and on the lengths an `update` is given, and
//! every path gives the same tag: the tests hold them all to the
//! 26-bit-limb implementation this module replaced.
//!
//! Everything that touches the key or the message is an addition, a
//! shift, a mask or a multiplication, IFMA's 52-bit multiplies included,
//! whose timing does not depend on their operands: no branch and no memory
//! index depends on secret data (the paths are chosen by the *length* of
//! the input, which is public), and the final conditional subtraction of
//! `2^130 - 5` is a mask select. Off `x86_64` the lane kernel is compiled
//! out, and there, as on a CPU without IFMA, long input takes the
//! four-block path.
//!
//! Validated against the RFC 8439 §2.5.2 and A.3 vectors, and
//! property-tested against the 26-bit-limb implementation it replaced.

use crate::dispatch;

/// The Poly1305 key length in bytes (`r || s`).
pub const KEY_LEN: usize = 32;

/// The Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

const BLOCK_LEN: usize = 16;

/// The shortest run of whole blocks handed to the four-block path or the
/// lane kernel, which compute powers of `r` first (and the kernel sums its
/// lanes after): at two 128-byte chunks the lane kernel beats the
/// four-block path by 5–30 % (ten of ten runs), from three on by a
/// quarter and more (EXPERIMENTS.md S27).
const WIDE_MIN: usize = 256;

/// The lane kernel's chunk: one block per lane.
const CHUNK_LEN: usize = 8 * BLOCK_LEN;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// `2^128` as it sits in the top limb: the bit appended to every full
/// block.
const HIBIT: u64 = 1 << 40;

/// A value modulo `2^130 - 5` as `l[0] + l[1]·2^44 + l[2]·2^88`. After
/// [`carry`] the limbs are below `2^44`, `2^44 + 2^16` and `2^42`.
pub(crate) type Limbs = [u64; 3];

/// Incremental Poly1305 computation.
///
/// A Poly1305 key must be used for exactly one message; the AEAD in
/// [`crate::aead`] derives a fresh key per nonce.
#[derive(Clone)]
pub struct Poly1305 {
    r: Limbs,
    /// `r^2`, `r^3`, `r^4`, once a four-block or lane path has needed them.
    powers: Option<[Limbs; 3]>,
    s: [u64; 2],
    acc: Limbs,
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poly1305").finish_non_exhaustive()
    }
}

#[inline(always)]
fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// Splits a 16-byte block into limbs, with `hibit` (2^128, or 0 for the
/// padded final block) on top.
#[inline(always)]
fn load(block: &[u8], hibit: u64) -> Limbs {
    let (t0, t1) = (le64(&block[..8]), le64(&block[8..16]));
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | hibit,
    ]
}

#[inline(always)]
fn add(a: &Limbs, b: &Limbs) -> Limbs {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// The unreduced product `a · b` with the limbs above `2^130` folded back
/// (`2^132 = 20 mod 2^130 - 5`). With `a` a carried value plus a block and
/// `b` a carried value, each sum is below `2^93`, so four of them add up
/// in a `u128` with room to spare.
#[inline(always)]
fn mul(a: &Limbs, b: &Limbs) -> [u128; 3] {
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let (s1, s2) = (b1 * 20, b2 * 20);
    [
        a0 * b0 + a1 * s2 + a2 * s1,
        a0 * b1 + a1 * b0 + a2 * s2,
        a0 * b2 + a1 * b1 + a2 * b0,
    ]
}

/// One carry pass over the sums of [`mul`], folding what leaves the top
/// limb back into the bottom one times five.
#[inline(always)]
fn carry(d: [u128; 3]) -> Limbs {
    let h0 = d[0] as u64 & MASK44;
    let d1 = d[1] + (d[0] >> 44);
    let h1 = d1 as u64 & MASK44;
    let d2 = d[2] + (d1 >> 44);
    let h2 = d2 as u64 & MASK42;
    let h0 = h0 + (d2 >> 42) as u64 * 5;
    [h0 & MASK44, h1 + (h0 >> 44), h2]
}

impl Poly1305 {
    /// Creates an authenticator from a 32-byte one-time key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // The RFC 8439 §2.5 clamp, folded into the limb masks.
        let (t0, t1) = (le64(&key[..8]), le64(&key[8..16]));
        Poly1305 {
            r: [
                t0 & 0xffc_0fff_ffff,
                ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
                (t1 >> 24) & 0x00f_ffff_fc0f,
            ],
            powers: None,
            s: [le64(&key[16..24]), le64(&key[24..32])],
            acc: [0; 3],
            buffer: [0; BLOCK_LEN],
            buffer_len: 0,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        if let Some(data) = self.top_up(data) {
            let data = self.absorb_lanes(data);
            self.absorb_blocks(data);
        }
    }

    /// Completes a partly filled block from the front of `data` and absorbs
    /// it once full. Returns the rest of `data`, or `None` while the block
    /// is still partial (all of `data` went into it).
    fn top_up<'a>(&mut self, data: &'a [u8]) -> Option<&'a [u8]> {
        if self.buffer_len == 0 {
            return Some(data);
        }
        let take = (BLOCK_LEN - self.buffer_len).min(data.len());
        self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
        self.buffer_len += take;
        if self.buffer_len < BLOCK_LEN {
            return None;
        }
        let block = self.buffer;
        self.absorb(&block, HIBIT);
        self.buffer_len = 0;
        Some(&data[take..])
    }

    /// Hands the whole chunks at the front of `data` to the lane kernel,
    /// where this CPU has one and `data` is long enough to pay for it, and
    /// returns what is left.
    fn absorb_lanes<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        if data.len() < WIDE_MIN {
            return data;
        }
        let Some(kernel) = dispatch::poly1305() else {
            return data;
        };
        let whole = data.len() - data.len() % CHUNK_LEN;
        let (r, [r2, r3, r4]) = (self.r, self.powers());
        let [r5, r6, r7, r8] = [r, r2, r3, r4].map(|rk| carry(mul(&r4, &rk)));
        // The kernel gets a copy of the accumulator: a reference to `self`
        // passed through a function pointer would pin the whole MAC to
        // memory on every path, where the scalar one keeps it in registers.
        let mut acc = self.acc;
        kernel.call(&mut acc, (&[r, r2, r3, r4, r5, r6, r7, r8], &data[..whole]));
        self.acc = acc;
        &data[whole..]
    }

    /// The scalar path: groups of four blocks from [`WIDE_MIN`] bytes up,
    /// then single blocks; a partial block left at the end is buffered.
    /// The buffer must be empty.
    fn absorb_blocks(&mut self, mut data: &[u8]) {
        if data.len() >= WIDE_MIN {
            data = self.absorb_fours(data);
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            self.absorb(block, HIBIT);
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// `r^2`, `r^3` and `r^4`, computed the first time they are needed.
    fn powers(&mut self) -> [Limbs; 3] {
        let r = self.r;
        *self.powers.get_or_insert_with(|| {
            let r2 = carry(mul(&r, &r));
            [r2, carry(mul(&r2, &r)), carry(mul(&r2, &r2))]
        })
    }

    /// `acc = (acc + block) · r`.
    #[inline(always)]
    fn absorb(&mut self, block: &[u8], hibit: u64) {
        self.acc = carry(mul(&add(&self.acc, &load(block, hibit)), &self.r));
    }

    /// Absorbs the whole groups of four blocks at the front of `data`, one
    /// reduction per group, and returns what is left.
    fn absorb_fours<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        let (r, [r2, r3, r4]) = (self.r, self.powers());
        let mut fours = data.chunks_exact(4 * BLOCK_LEN);
        for four in &mut fours {
            let first = add(&self.acc, &load(&four[..16], HIBIT));
            let p4 = mul(&first, &r4);
            let p3 = mul(&load(&four[16..32], HIBIT), &r3);
            let p2 = mul(&load(&four[32..48], HIBIT), &r2);
            let p1 = mul(&load(&four[48..], HIBIT), &r);
            self.acc = carry(core::array::from_fn(|i| p4[i] + p3[i] + p2[i] + p1[i]));
        }
        fours.remainder()
    }

    /// Completes the authenticator and returns the 16-byte tag.
    #[must_use]
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffer_len > 0 {
            // Final partial block: append 0x01 then zero-pad; no 2^128 bit.
            let mut block = [0u8; BLOCK_LEN];
            block[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
            block[self.buffer_len] = 1;
            self.absorb(&block, 0);
        }
        let [mut h0, mut h1, mut h2] = self.acc;

        // Full carry: once round from the middle limb, and on until the
        // wrap-around has settled.
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // g = h + 5 - 2^130, that is h - (2^130 - 5).
        let mut g0 = h0 + 5;
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1 + c;
        c = g1 >> 44;
        g1 &= MASK44;
        let g2 = (h2 + c).wrapping_sub(1 << 42);

        // Select h if h < p, g otherwise (constant-time via mask).
        let mask = (g2 >> 63).wrapping_sub(1); // all-ones if g >= 0 (h >= p)
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);

        // h mod 2^128, plus s, mod 2^128.
        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let (lo, carried) = lo.overflowing_add(self.s[0]);
        let hi = hi.wrapping_add(self.s[1]).wrapping_add(u64::from(carried));
        let mut out = [0u8; TAG_LEN];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }

    /// One-shot MAC of `message` under a one-time `key`.
    #[must_use]
    pub fn mac(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(message);
        p.finalize()
    }
}

/// How many blocks this CPU's Poly1305 absorbs side by side on long
/// input: 8 where AVX-512 IFMA is detected, 1 everywhere else (where long
/// input takes four blocks per reduction, in one lane). It reads the table
/// the dispatch reads and nothing else, so it is also what an operator is
/// shown.
#[must_use]
pub fn lanes() -> usize {
    if dispatch::poly1305().is_some() {
        8
    } else {
        1
    }
}

/// The eight-lane kernel (module docs), compiled for `x86_64` only and
/// called only through [`crate::dispatch`], which runs it where
/// `avx512f` and `avx512ifma` are detected.
#[cfg(target_arch = "x86_64")]
pub(crate) mod ifma {
    use super::{carry, Limbs, CHUNK_LEN, HIBIT, MASK42, MASK44};
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
        _mm512_or_si512, _mm512_reduce_add_epi64, _mm512_set1_epi64, _mm512_set_epi64,
        _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srli_epi64,
    };

    /// Eight values modulo `2^130 - 5`, one per lane, as their limbs.
    type Lanes = [__m512i; 3];

    /// A multiplier per lane: its limbs, and 20 times the upper two (a
    /// product that reaches `2^132` is 20 times itself at the bottom).
    struct Multiplier {
        r: Lanes,
        s1: __m512i,
        s2: __m512i,
    }

    /// Absorbs `data`, whole chunks, into `acc` under the key whose powers
    /// are `p` (`p[k]` is `r^(k+1)`): the kernel
    /// [`crate::dispatch::poly1305`] hands out.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn absorb_chunks(acc: &mut Limbs, (p, data): (&[Limbs; 8], &[u8])) {
        let (chunks, rest) = data.as_chunks::<CHUNK_LEN>();
        assert!(rest.is_empty(), "whole chunks only");
        let Some((last, body)) = chunks.split_last() else {
            return;
        };
        // Every lane multiplies by r^8 for every chunk but the last ...
        let all_r8 = multiplier([0, 1, 2].map(|i| splat(p[7][i])));
        // ... and lane l by r^(8-l) for the last (the highest lane is the
        // first argument).
        let last_by_lane = multiplier([0, 1, 2].map(|i| {
            let limb = |k: usize| p[k][i] as i64;
            _mm512_set_epi64(
                limb(0),
                limb(1),
                limb(2),
                limb(3),
                limb(4),
                limb(5),
                limb(6),
                limb(7),
            )
        }));
        let mut h: Lanes = [0, 1, 2].map(|i| _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, acc[i] as i64));
        for chunk in body {
            h = absorb(h, chunk, &all_r8);
        }
        h = absorb(h, last, &last_by_lane);
        // Each lane's limbs are carried, under 2^45, so the sums fit.
        let sums = h.map(|limb| _mm512_reduce_add_epi64(limb) as u64);
        *acc = carry(sums.map(u128::from));
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn multiplier(r: Lanes) -> Multiplier {
        // 20·x = 16·x + 4·x.
        let times20 = |x| _mm512_add_epi64(_mm512_slli_epi64::<4>(x), _mm512_slli_epi64::<2>(x));
        Multiplier {
            r,
            s1: times20(r[1]),
            s2: times20(r[2]),
        }
    }

    /// `(h + chunk) · by`, lane by lane: lane `l` adds block `l`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn absorb(h: Lanes, chunk: &[u8; CHUNK_LEN], by: &Multiplier) -> Lanes {
        let word = |i: usize| i64::from_le_bytes(chunk[8 * i..8 * i + 8].try_into().expect("8"));
        // Block l is words 2l (low) and 2l + 1 (high).
        let lo = _mm512_set_epi64(
            word(14),
            word(12),
            word(10),
            word(8),
            word(6),
            word(4),
            word(2),
            word(0),
        );
        let hi = _mm512_set_epi64(
            word(15),
            word(13),
            word(11),
            word(9),
            word(7),
            word(5),
            word(3),
            word(1),
        );
        let mask44 = splat(MASK44);
        let m = [
            _mm512_and_si512(lo, mask44),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64::<44>(lo), _mm512_slli_epi64::<20>(hi)),
                mask44,
            ),
            _mm512_or_si512(_mm512_srli_epi64::<24>(hi), splat(HIBIT)),
        ];
        mul([0, 1, 2].map(|i| _mm512_add_epi64(h[i], m[i])), by)
    }

    /// `a · by`, carried. The three columns are the scalar `mul`'s. Limbs
    /// of `a` are under 2^46 (a carried value plus a block), of `r` under
    /// 2^45 and of `20·r` under 2^50, all under IFMA's 52 bits; a column's
    /// low halves sum to under 2^54 and its high halves to under 2^42, so
    /// nothing overflows 64 bits.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn mul(a: Lanes, by: &Multiplier) -> Lanes {
        let [a0, a1, a2] = a;
        let [r0, r1, r2] = by.r;
        let (s1, s2) = (by.s1, by.s2);
        let columns = [
            [(a0, r0), (a1, s2), (a2, s1)],
            [(a0, r1), (a1, r0), (a2, s2)],
            [(a0, r2), (a1, r1), (a2, r0)],
        ];
        let zero = _mm512_setzero_si512();
        let lo = columns.map(|column| {
            column
                .iter()
                .fold(zero, |sum, &(x, y)| _mm512_madd52lo_epu64(sum, x, y))
        });
        let hi = columns.map(|column| {
            column
                .iter()
                .fold(zero, |sum, &(x, y)| _mm512_madd52hi_epu64(sum, x, y))
        });
        // A high half sits 52 bits above its column: 8 bits into the next
        // limb, and from the top column at 2^140 = 5·2^10 mod 2^130 - 5.
        let wrapped = _mm512_add_epi64(
            _mm512_slli_epi64::<12>(hi[2]),
            _mm512_slli_epi64::<10>(hi[2]),
        );
        let d0 = _mm512_add_epi64(lo[0], wrapped);
        let d1 = _mm512_add_epi64(lo[1], _mm512_slli_epi64::<8>(hi[0]));
        let d2 = _mm512_add_epi64(lo[2], _mm512_slli_epi64::<8>(hi[1]));
        carry_lanes([d0, d1, d2])
    }

    /// The scalar [`carry`], lane by lane.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn carry_lanes([d0, d1, d2]: Lanes) -> Lanes {
        let (mask44, mask42) = (splat(MASK44), splat(MASK42));
        let d1 = _mm512_add_epi64(d1, _mm512_srli_epi64::<44>(d0));
        let d2 = _mm512_add_epi64(d2, _mm512_srli_epi64::<44>(d1));
        let c = _mm512_srli_epi64::<42>(d2);
        let h0 = _mm512_add_epi64(
            _mm512_and_si512(d0, mask44),
            _mm512_add_epi64(c, _mm512_slli_epi64::<2>(c)),
        );
        [
            _mm512_and_si512(h0, mask44),
            _mm512_add_epi64(_mm512_and_si512(d1, mask44), _mm512_srli_epi64::<44>(h0)),
            _mm512_and_si512(d2, mask42),
        ]
    }
}

#[cfg(test)]
mod reference {
    //! The implementation this module shipped before the 44-bit limbs:
    //! 26-bit limbs and 64-bit products (the classic "donna" layout), one
    //! block per reduction. Kept as the oracle the property tests compare
    //! tags against.

    use super::{KEY_LEN, TAG_LEN};

    #[derive(Clone)]
    pub struct Poly1305 {
        r: [u32; 5],
        s: [u32; 4],
        acc: [u32; 5],
        buffer: [u8; 16],
        buffer_len: usize,
    }

    impl Poly1305 {
        /// Creates an authenticator from a 32-byte one-time key.
        #[must_use]
        pub fn new(key: &[u8; KEY_LEN]) -> Self {
            // Load r with the RFC 8439 §2.5 clamp folded into the limb masks
            // (the classic "donna" unaligned loads at offsets 0, 3, 6, 9, 12).
            let load32 =
                |i: usize| u32::from_le_bytes([key[i], key[i + 1], key[i + 2], key[i + 3]]);
            let r = [
                load32(0) & 0x3ff_ffff,
                (load32(3) >> 2) & 0x3ff_ff03,
                (load32(6) >> 4) & 0x3ff_c0ff,
                (load32(9) >> 6) & 0x3f0_3fff,
                (load32(12) >> 8) & 0x00f_ffff,
            ];

            let s = [
                u32::from_le_bytes([key[16], key[17], key[18], key[19]]),
                u32::from_le_bytes([key[20], key[21], key[22], key[23]]),
                u32::from_le_bytes([key[24], key[25], key[26], key[27]]),
                u32::from_le_bytes([key[28], key[29], key[30], key[31]]),
            ];

            Poly1305 {
                r,
                s,
                acc: [0; 5],
                buffer: [0; 16],
                buffer_len: 0,
            }
        }

        /// Absorbs message bytes.
        pub fn update(&mut self, mut data: &[u8]) {
            if self.buffer_len > 0 {
                let take = (16 - self.buffer_len).min(data.len());
                self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
                self.buffer_len += take;
                data = &data[take..];
                if self.buffer_len == 16 {
                    let block = self.buffer;
                    self.process_block(&block, 1);
                    self.buffer_len = 0;
                }
            }
            while data.len() >= 16 {
                let mut block = [0u8; 16];
                block.copy_from_slice(&data[..16]);
                self.process_block(&block, 1);
                data = &data[16..];
            }
            if !data.is_empty() {
                self.buffer[..data.len()].copy_from_slice(data);
                self.buffer_len = data.len();
            }
        }

        fn process_block(&mut self, block: &[u8; 16], hibit: u32) {
            let t0 = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            let t1 = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
            let t2 = u32::from_le_bytes([block[8], block[9], block[10], block[11]]);
            let t3 = u32::from_le_bytes([block[12], block[13], block[14], block[15]]);

            // acc += block (with the high bit).
            self.acc[0] = self.acc[0].wrapping_add(t0 & 0x3ff_ffff);
            self.acc[1] = self.acc[1].wrapping_add(((t0 >> 26) | (t1 << 6)) & 0x3ff_ffff);
            self.acc[2] = self.acc[2].wrapping_add(((t1 >> 20) | (t2 << 12)) & 0x3ff_ffff);
            self.acc[3] = self.acc[3].wrapping_add(((t2 >> 14) | (t3 << 18)) & 0x3ff_ffff);
            self.acc[4] = self.acc[4].wrapping_add((t3 >> 8) | (hibit << 24));

            // acc *= r (mod 2^130 - 5).
            let [r0, r1, r2, r3, r4] = self.r.map(u64::from);
            let [h0, h1, h2, h3, h4] = self.acc.map(u64::from);
            let s1 = r1 * 5;
            let s2 = r2 * 5;
            let s3 = r3 * 5;
            let s4 = r4 * 5;

            let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
            let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
            let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
            let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
            let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

            // Carry propagation.
            let mut c: u64;
            let mut h = [0u64; 5];
            c = d0 >> 26;
            h[0] = d0 & 0x3ff_ffff;
            let d1 = d1 + c;
            c = d1 >> 26;
            h[1] = d1 & 0x3ff_ffff;
            let d2 = d2 + c;
            c = d2 >> 26;
            h[2] = d2 & 0x3ff_ffff;
            let d3 = d3 + c;
            c = d3 >> 26;
            h[3] = d3 & 0x3ff_ffff;
            let d4 = d4 + c;
            c = d4 >> 26;
            h[4] = d4 & 0x3ff_ffff;
            h[0] += c * 5;
            c = h[0] >> 26;
            h[0] &= 0x3ff_ffff;
            h[1] += c;

            self.acc = h.map(|x| x as u32);
        }

        /// Completes the authenticator and returns the 16-byte tag.
        #[must_use]
        pub fn finalize(mut self) -> [u8; TAG_LEN] {
            if self.buffer_len > 0 {
                // Final partial block: append 0x01 then zero-pad; hibit is 0.
                let mut block = [0u8; 16];
                block[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
                block[self.buffer_len] = 1;
                self.process_block(&block, 0);
            }

            let mut h = self.acc.map(u64::from);

            // Full carry.
            let mut c: u64;
            c = h[1] >> 26;
            h[1] &= 0x3ff_ffff;
            h[2] += c;
            c = h[2] >> 26;
            h[2] &= 0x3ff_ffff;
            h[3] += c;
            c = h[3] >> 26;
            h[3] &= 0x3ff_ffff;
            h[4] += c;
            c = h[4] >> 26;
            h[4] &= 0x3ff_ffff;
            h[0] += c * 5;
            c = h[0] >> 26;
            h[0] &= 0x3ff_ffff;
            h[1] += c;

            // Compute h + -p = h - (2^130 - 5).
            let mut g = [0u64; 5];
            g[0] = h[0].wrapping_add(5);
            c = g[0] >> 26;
            g[0] &= 0x3ff_ffff;
            g[1] = h[1].wrapping_add(c);
            c = g[1] >> 26;
            g[1] &= 0x3ff_ffff;
            g[2] = h[2].wrapping_add(c);
            c = g[2] >> 26;
            g[2] &= 0x3ff_ffff;
            g[3] = h[3].wrapping_add(c);
            c = g[3] >> 26;
            g[3] &= 0x3ff_ffff;
            g[4] = h[4].wrapping_add(c).wrapping_sub(1 << 26);

            // Select h if h < p, g otherwise (constant-time via mask).
            let mask = (g[4] >> 63).wrapping_sub(1); // all-ones if g >= 0 (h >= p)
            for i in 0..5 {
                h[i] = (h[i] & !mask) | (g[i] & mask);
            }

            // Serialize h to 128 bits.
            let h0 = (h[0] | (h[1] << 26)) as u32;
            let h1 = ((h[1] >> 6) | (h[2] << 20)) as u32;
            let h2 = ((h[2] >> 12) | (h[3] << 14)) as u32;
            let h3 = ((h[3] >> 18) | (h[4] << 8)) as u32;

            // Add s with carry.
            let mut f: u64;
            let mut out = [0u8; TAG_LEN];
            f = u64::from(h0) + u64::from(self.s[0]);
            out[0..4].copy_from_slice(&(f as u32).to_le_bytes());
            f = u64::from(h1) + u64::from(self.s[1]) + (f >> 32);
            out[4..8].copy_from_slice(&(f as u32).to_le_bytes());
            f = u64::from(h2) + u64::from(self.s[2]) + (f >> 32);
            out[8..12].copy_from_slice(&(f as u32).to_le_bytes());
            f = u64::from(h3) + u64::from(self.s[3]) + (f >> 32);
            out[12..16].copy_from_slice(&(f as u32).to_le_bytes());
            out
        }

        /// One-shot MAC of `message` under a one-time `key`.
        #[must_use]
        pub fn mac(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
            let mut p = Poly1305::new(key);
            p.update(message);
            p.finalize()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_vector() {
        let key_bytes = unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&key_bytes);
        let tag = Poly1305::mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), unhex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    // RFC 8439 A.3 #1: all-zero key gives all-zero tag.
    #[test]
    fn zero_key_zero_tag() {
        let key = [0u8; KEY_LEN];
        let tag = Poly1305::mac(&key, &[0u8; 64]);
        assert_eq!(tag, [0u8; TAG_LEN]);
    }

    // RFC 8439 A.3 #5: edge case in modular reduction (2^130-5 + self).
    #[test]
    fn rfc8439_a3_vector5_reduction_edge() {
        let mut key = [0u8; KEY_LEN];
        key[0] = 2;
        let msg = unhex("ffffffffffffffffffffffffffffffff");
        let tag = Poly1305::mac(&key, &msg);
        assert_eq!(tag.to_vec(), unhex("03000000000000000000000000000000"));
    }

    // RFC 8439 A.3 #7: reduction with carry into high limb.
    #[test]
    fn rfc8439_a3_vector7() {
        let mut key = [0u8; KEY_LEN];
        key[0] = 1;
        let msg = unhex(concat!(
            "ffffffffffffffffffffffffffffffff",
            "f0ffffffffffffffffffffffffffffff",
            "11000000000000000000000000000000"
        ));
        let tag = Poly1305::mac(&key, &msg);
        assert_eq!(tag.to_vec(), unhex("05000000000000000000000000000000"));
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let key_bytes = unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&key_bytes);
        let msg: Vec<u8> = (0u16..100).map(|i| i as u8).collect();
        let expect = Poly1305::mac(&key, &msg);
        for split in 0..msg.len() {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn empty_message() {
        let key = [9u8; KEY_LEN];
        // Empty message: tag is simply s.
        let tag = Poly1305::mac(&key, b"");
        assert_eq!(tag.to_vec(), key[16..32].to_vec());
    }
}

#[cfg(test)]
mod lane_kernel {
    //! The dispatch (the lane kernel wherever this CPU has IFMA), the
    //! scalar path called directly (so CPUs without it stay covered) and
    //! the 26-bit reference give one tag, at every length a path boundary
    //! can fall on and for input split across one, two and three
    //! `update`s.

    use super::{reference, Poly1305, BLOCK_LEN, KEY_LEN, TAG_LEN};

    /// What `update` does on a CPU without the lane kernel.
    fn update_scalar(mac: &mut Poly1305, data: &[u8]) {
        if let Some(rest) = mac.top_up(data) {
            mac.absorb_blocks(rest);
        }
    }

    /// Two keys, and all ones: after the clamp the largest `r` there is.
    const KEYS: [[u8; KEY_LEN]; 3] = {
        let mut keys = [[0xff; KEY_LEN]; 3];
        let mut i = 0;
        while i < KEY_LEN {
            keys[0][i] = (i * 29 + 7) as u8;
            keys[1][i] = (i as u8).wrapping_mul(151) ^ 0xa5;
            i += 1;
        }
        keys
    };

    /// Scrambled bytes with a third of the blocks all `0xff`: with the
    /// `2^128` bit on top, the largest value a block can take.
    fn message(len: usize) -> Vec<u8> {
        let mut bytes: Vec<u8> = (0..len)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8)
            .collect();
        for (i, block) in bytes.chunks_mut(BLOCK_LEN).enumerate() {
            if i % 24 < 8 {
                block.fill(0xff);
            }
        }
        bytes
    }

    /// The tag of `msg` fed in pieces that end at `cuts`, then the rest.
    fn tag_in_pieces(
        key: &[u8; KEY_LEN],
        msg: &[u8],
        cuts: &[usize],
        scalar: bool,
    ) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(key);
        let mut start = 0;
        for &end in cuts.iter().chain([&msg.len()]) {
            if scalar {
                update_scalar(&mut mac, &msg[start..end]);
            } else {
                mac.update(&msg[start..end]);
            }
            start = end;
        }
        mac.finalize()
    }

    #[test]
    fn dispatch_scalar_and_reference_agree_at_every_length() {
        // 20 655 is the Welcome body of the benchmark's largest roster.
        for len in (0..=2600usize).chain([4096, 10_240, 20_655]) {
            let msg = message(len);
            let cut_sets = [
                vec![],
                vec![len / 2],
                vec![1.min(len), len - len / 7],
                vec![len / 3, 2 * len / 3],
            ];
            for key in &KEYS {
                let expected = reference::Poly1305::mac(key, &msg);
                for cuts in &cut_sets {
                    for scalar in [false, true] {
                        assert_eq!(
                            tag_in_pieces(key, &msg, cuts, scalar),
                            expected,
                            "len={len} cuts={cuts:?} scalar={scalar}"
                        );
                    }
                }
            }
        }
    }

    /// `lanes()` is what the dispatch table says about this CPU.
    #[test]
    fn lanes_is_eight_or_one() {
        let lanes = super::lanes();
        assert_eq!(lanes == 8, crate::dispatch::poly1305().is_some());
        assert!([1, 8].contains(&lanes), "{lanes}");
    }
}

#[cfg(test)]
mod proptests {
    //! The 44-bit limbs against the 26-bit reference, over inputs chosen
    //! to meet every path through `update` and the worst carries.

    use super::{reference, Poly1305, BLOCK_LEN, KEY_LEN};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Any key; `r` all ones before the clamp (the largest multiplier there
    /// is) under any `s`; and `s` all ones as well.
    fn key() -> impl Strategy<Value = [u8; KEY_LEN]> {
        prop_oneof![
            proptest::array::uniform32(any::<u8>()),
            proptest::array::uniform16(any::<u8>()).prop_map(|s| {
                let mut key = [0xff; KEY_LEN];
                key[16..].copy_from_slice(&s);
                key
            }),
            Just([0xff; KEY_LEN]),
        ]
    }

    /// Random bytes, 0..=600 of them or one of the two production sizes
    /// (a 4 KiB payload, a 10 KiB Welcome), with up to three runs of `0xff`
    /// blocks laid over them: with the `2^128` bit on top, the largest
    /// value a block can take and the most carries one can cause.
    fn message() -> impl Strategy<Value = Vec<u8>> {
        let len = prop_oneof![
            0usize..=600,
            0usize..=600,
            Just(4096usize),
            Just(10_240usize)
        ];
        (len, any::<u64>()).prop_map(|(len, seed)| {
            let mut rng = TestRng::new(seed);
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            for _ in 0..rng.below(0, 4) {
                let start = (rng.below(0, (len / BLOCK_LEN) as u64 + 1) as usize) * BLOCK_LEN;
                let end = (start + rng.below(1, 9) as usize * BLOCK_LEN).min(len);
                bytes[start..end].fill(0xff);
            }
            bytes
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One `update` and two, split anywhere — so the buffered, the
        /// one-block and the four-block paths hand the accumulator to one
        /// another at every offset — give the reference's tag.
        #[test]
        fn tags_match_the_26_bit_reference(
            key in key(),
            msg in message(),
            split in any::<usize>(),
        ) {
            let expected = reference::Poly1305::mac(&key, &msg);
            prop_assert_eq!(Poly1305::mac(&key, &msg), expected);

            let split = split % (msg.len() + 1);
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            prop_assert_eq!(mac.finalize(), expected, "split at {} of {}", split, msg.len());
        }
    }
}
