//! RFC 8439 Poly1305 one-time authenticator.
//!
//! The accumulator and the key `r` are held as three limbs of 44, 44 and
//! 42 bits with 128-bit products (the "donna-64" layout), so one block is
//! nine multiplications. From [`WIDE_MIN`] bytes up, an `update` absorbs
//! four blocks per modular reduction by Horner's rule unrolled four times,
//!
//! ```text
//! h = (h + m1)·r^4 + m2·r^3 + m3·r^2 + m4·r
//! ```
//!
//! whose four products do not depend on one another; `r^2..r^4` are
//! computed once per MAC, the first time an `update` is long enough to
//! want them. Shorter input, the blocks left over after the last group of
//! four, and the final partial block go one block per reduction.
//!
//! Everything that touches the key or the message is an addition, a
//! shift, a mask or a multiplication: no branch and no memory index
//! depends on secret data (the four-block path is chosen by the *length*
//! of the input, which is public), and the final conditional subtraction
//! of `2^130 - 5` is a mask select.
//!
//! Validated against the RFC 8439 §2.5.2 and A.3 vectors, and
//! property-tested against the 26-bit-limb implementation it replaced.

/// The Poly1305 key length in bytes (`r || s`).
pub const KEY_LEN: usize = 32;

/// The Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

const BLOCK_LEN: usize = 16;

/// The shortest run of whole blocks handed to the four-block path (which
/// has to compute three powers of `r` the first time it runs).
const WIDE_MIN: usize = 256;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// `2^128` as it sits in the top limb: the bit appended to every full
/// block.
const HIBIT: u64 = 1 << 40;

/// A value modulo `2^130 - 5` as `l[0] + l[1]·2^44 + l[2]·2^88`. After
/// [`carry`] the limbs are below `2^44`, `2^44 + 2^16` and `2^42`.
type Limbs = [u64; 3];

/// Incremental Poly1305 computation.
///
/// A Poly1305 key must be used for exactly one message; the AEAD in
/// [`crate::aead`] derives a fresh key per nonce.
#[derive(Clone)]
pub struct Poly1305 {
    r: Limbs,
    /// `r^2`, `r^3`, `r^4`, once the four-block path has needed them.
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
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            let block = self.buffer;
            self.absorb(&block, HIBIT);
            self.buffer_len = 0;
        }
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

    /// `acc = (acc + block) · r`.
    #[inline(always)]
    fn absorb(&mut self, block: &[u8], hibit: u64) {
        self.acc = carry(mul(&add(&self.acc, &load(block, hibit)), &self.r));
    }

    /// Absorbs the whole groups of four blocks at the front of `data`, one
    /// reduction per group, and returns what is left.
    fn absorb_fours<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        let r = self.r;
        let [r2, r3, r4] = *self.powers.get_or_insert_with(|| {
            let r2 = carry(mul(&r, &r));
            [r2, carry(mul(&r2, &r)), carry(mul(&r2, &r2))]
        });
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
