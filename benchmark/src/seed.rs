//! The generator's own pseudo-random stream. `--seed` drives member
//! order, payload bytes and churn victims through this and nothing else;
//! the crates under test receive only the inputs it produces.

/// splitmix64: small, fast, and every seed gives a full-period stream.
#[derive(Clone, Debug)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed)
    }

    /// An independent stream for a named purpose, so that adding draws
    /// to one purpose does not shift another's inputs.
    pub fn fork(&self, label: u64) -> Self {
        let mut child = SeedRng(self.0 ^ label.wrapping_mul(0xa076_1d64_78bd_642f));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SeedRng::new(7);
        let mut b = SeedRng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut f1 = a.fork(1);
        let mut f2 = a.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
        let mut v: Vec<u32> = (0..100).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted);
    }
}
