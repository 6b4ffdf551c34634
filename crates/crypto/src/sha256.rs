//! FIPS 180-4 SHA-256.
//!
//! A from-scratch implementation of the SHA-256 compression function with an
//! incremental [`Sha256`] hasher and a one-shot [`sha256`] convenience
//! function. Validated against the NIST/FIPS test vectors in this module's
//! tests.

/// The SHA-256 digest length in bytes.
pub const DIGEST_LEN: usize = 32;

/// The SHA-256 internal block length in bytes.
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use enclaves_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Avoid leaking partially-hashed (possibly secret) material.
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the FIPS 180-4 initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        let mut blocks = input.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(
                &mut self.state,
                block.try_into().expect("chunks_exact yields whole blocks"),
            );
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Completes the hash and returns the 32-byte digest, consuming the
    /// hasher.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian
        // message length in bits — written into the block buffer whole,
        // spilling into a second block when fewer than 9 bytes are free.
        const LEN_OFFSET: usize = BLOCK_LEN - 8;
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= LEN_OFFSET {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[LEN_OFFSET..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One round of the compression function with the working variables
/// passed in rotated order, so the eight per-round register moves of the
/// textbook formulation disappear.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($kw);
        $d = $d.wrapping_add(t1);
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
    };
}

/// The FIPS 180-4 §6.2.2 compression function, all 64 rounds unrolled
/// over a 16-word rolling message schedule (`W[t]` depends only on the
/// sixteen words before it, so each is extended in place just before its
/// round).
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("chunks_exact yields 4 bytes"));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // `W[t]`: a block word for `t < 16`, afterwards computed into the slot
    // of the word it retires (`W[t - 16]`). `t` is a literal at every use,
    // so the branch and the index masks fold away.
    macro_rules! w {
        ($t:expr) => {{
            if $t >= 16 {
                let w15 = w[($t + 1) & 15];
                let w2 = w[($t + 14) & 15];
                w[$t & 15] = w[$t & 15]
                    .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                    .wrapping_add(w[($t + 9) & 15])
                    .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
            }
            w[$t & 15]
        }};
    }
    macro_rules! rounds8 {
        ($t:expr) => {
            round!(a, b, c, d, e, f, g, h, K[$t].wrapping_add(w!($t)));
            round!(h, a, b, c, d, e, f, g, K[$t + 1].wrapping_add(w!($t + 1)));
            round!(g, h, a, b, c, d, e, f, K[$t + 2].wrapping_add(w!($t + 2)));
            round!(f, g, h, a, b, c, d, e, K[$t + 3].wrapping_add(w!($t + 3)));
            round!(e, f, g, h, a, b, c, d, K[$t + 4].wrapping_add(w!($t + 4)));
            round!(d, e, f, g, h, a, b, c, K[$t + 5].wrapping_add(w!($t + 5)));
            round!(c, d, e, f, g, h, a, b, K[$t + 6].wrapping_add(w!($t + 6)));
            round!(b, c, d, e, f, g, h, a, K[$t + 7].wrapping_add(w!($t + 7)));
        };
    }
    rounds8!(0);
    rounds8!(8);
    rounds8!(16);
    rounds8!(24);
    rounds8!(32);
    rounds8!(40);
    rounds8!(48);
    rounds8!(56);

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Example
///
/// ```
/// let d = enclaves_crypto::sha256::sha256(b"");
/// assert_eq!(d[..4], [0xe3, 0xb0, 0xc4, 0x42]);
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_block() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths around the 64-byte block and 56-byte padding boundary.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xABu8; len];
            let one = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }

    // Digests from an independent implementation (Python's hashlib) of
    // `data[i] = (7 i + 3) mod 251` at the lengths where padding switches
    // between one and two trailing blocks.
    #[test]
    fn known_answers_at_padding_boundaries() {
        let expect = [
            (
                55usize,
                "1deace58c745f3ecadde68a5923f494c3703fa73f0306483ccb898a5826e8d70",
            ),
            (
                56,
                "06dbe23685750e4d3881ded95047abaf93fa8f9c5d3501dc57c717a72ff1398e",
            ),
            (
                63,
                "47fb38b12335c9298d09280515c0666489a189d1554bb0ac1a0740806ce9d8b6",
            ),
            (
                64,
                "dfa798724b1a8014994f363e5da7474ed26ce3757fb29e07aa47ad5a9352d37b",
            ),
            (
                119,
                "c6e0f435df5d7d265baacca31e0602c00aa22fa6d3819aed664649294c743756",
            ),
            (
                120,
                "17eb8960823a644bde3065620bb9d45931fe8993fd8eb692a17aff0fd725db6a",
            ),
        ];
        for (len, digest) in expect {
            let data: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 251) as u8).collect();
            assert_eq!(hex(&sha256(&data)), digest, "len {len}");
        }
    }

    #[test]
    fn debug_does_not_leak_buffer() {
        let mut h = Sha256::new();
        h.update(b"secret-material");
        let dbg = format!("{h:?}");
        assert!(!dbg.contains("secret"));
    }
}
