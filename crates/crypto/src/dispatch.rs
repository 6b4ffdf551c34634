//! The run-time kernel dispatch, and the workspace's one `unsafe` block.
//!
//! A kernel is safe Rust compiled inside a `#[target_feature]` function:
//! ChaCha20's generic `xor_lanes::<L>`, whose lane-wise operations become
//! one vector instruction each once the feature is on, and Poly1305's IFMA
//! kernel, which may only name the intrinsics of its feature inside such a
//! function. Calling one from code compiled without the feature is
//! `unsafe`, because executing AVX2 or AVX-512 instructions on a CPU that
//! lacks them is undefined behaviour.
//!
//! A [`Detected<K>`] is the proof that it is not. Nothing outside this
//! file can make one: the table below ([`chacha20`], [`poly1305`]) hands a
//! kernel out only where `is_x86_feature_detected!` found every feature
//! that kernel's `#[target_feature]` attribute enables, and
//! [`Detected::call`] is the one place a kernel is called. So the whole
//! safety argument is one check, made in this file: each table entry
//! lists exactly the features of the kernel it names.
//!
//! The table is read afresh on every call (the standard library caches
//! what `cpuid` said, so each check is one load), and nothing but the CPU
//! feeds it: no build flag, environment variable or configuration field
//! selects a kernel. On any architecture but `x86_64` it is empty, the
//! kernels are compiled out, and every message takes the scalar paths.

/// A ChaCha20 lane kernel: XORs the keystream from the state's block
/// counter on into whole chunks of its width, and leaves the counter on
/// the next unused block. The lifetimes are the caller's, so each call
/// takes its token fresh from [`chacha20`].
pub(crate) type ChaCha20Kernel<'s, 'd> = unsafe fn(&'s mut [u32; 16], &'d mut [u8]);

/// A Poly1305 lane kernel: absorbs whole 128-byte chunks into an
/// accumulator, given the powers `r, r^2, ..., r^8` of the key.
pub(crate) type Poly1305Kernel<'s, 'd> =
    unsafe fn(&'s mut crate::poly1305::Limbs, (&'s [crate::poly1305::Limbs; 8], &'d [u8]));

/// A kernel of type `K` this CPU has been found to run. Only this
/// module's table mints one.
#[derive(Clone, Copy)]
pub(crate) struct Detected<K>(K);

impl<A, B> Detected<unsafe fn(A, B)> {
    /// Runs the kernel: the one call site every kernel goes through.
    #[allow(unsafe_code)]
    #[inline(always)]
    pub(crate) fn call(self, a: A, b: B) {
        // SAFETY: a `Detected` is minted only by the table below, which
        // hands out a kernel only after `is_x86_feature_detected!` found
        // every feature the kernel's `#[target_feature]` attribute
        // enables; that is the kernel's only requirement, since its body
        // is safe Rust.
        unsafe { (self.0)(a, b) }
    }
}

/// Whether this CPU has every one of the named features.
#[cfg(target_arch = "x86_64")]
macro_rules! has {
    ($($feature:tt),+) => {
        $(std::arch::is_x86_feature_detected!($feature))&&+
    };
}

/// The ChaCha20 lane kernel `lanes` blocks wide that this CPU runs, if
/// any: sixteen lanes on zmm registers under AVX-512F; eight on ymm under
/// AVX-512VL where it is detected (32 registers, one-instruction rotates)
/// and under AVX2 where only that is; four under AVX-512VL.
#[cfg(target_arch = "x86_64")]
pub(crate) fn chacha20<'s, 'd>(lanes: usize) -> Option<Detected<ChaCha20Kernel<'s, 'd>>> {
    use crate::chacha20::{xor_lanes_avx2, xor_lanes_avx512, xor_lanes_vl4, xor_lanes_vl8};
    // Each arm is cast on its own: two `#[target_feature]` functions have
    // no common type for a `match` to infer.
    let kernel: ChaCha20Kernel = match lanes {
        16 if has!("avx512f") => xor_lanes_avx512 as ChaCha20Kernel,
        8 if has!("avx512f", "avx512vl") => xor_lanes_vl8 as ChaCha20Kernel,
        8 if has!("avx2") => xor_lanes_avx2 as ChaCha20Kernel,
        4 if has!("avx512f", "avx512vl") => xor_lanes_vl4 as ChaCha20Kernel,
        _ => return None,
    };
    Some(Detected(kernel))
}

/// The eight-lane Poly1305 kernel, where AVX-512 IFMA is detected.
#[cfg(target_arch = "x86_64")]
pub(crate) fn poly1305<'s, 'd>() -> Option<Detected<Poly1305Kernel<'s, 'd>>> {
    let kernel: Poly1305Kernel<'s, 'd> = crate::poly1305::ifma::absorb_chunks;
    has!("avx512f", "avx512ifma").then_some(Detected(kernel))
}

/// No lane kernel is compiled for this architecture.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn chacha20<'s, 'd>(_lanes: usize) -> Option<Detected<ChaCha20Kernel<'s, 'd>>> {
    None
}

/// No lane kernel is compiled for this architecture.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn poly1305<'s, 'd>() -> Option<Detected<Poly1305Kernel<'s, 'd>>> {
    None
}
