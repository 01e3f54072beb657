//! Runtime-dispatched SIMD variants of the packed W4A4 accumulate loops.
//!
//! The hot work of [`crate::kernels::gemv_packed`] is the nibble
//! unpack–multiply–accumulate over one packed byte row per nonzero
//! activation code. This module holds that inner loop in three forms:
//!
//! * **scalar** — the portable form, always compiled. This is the
//!   proptested oracle; the SIMD forms must match it *bit-for-bit*.
//! * **AVX2** (`x86_64`, behind the `simd` cargo feature) — 16 packed
//!   bytes per iteration into i16 planes, 8 per iteration into i32.
//! * **NEON** (`aarch64`, behind the `simd` cargo feature) — the same
//!   strides with 128-bit vectors.
//!
//! # Why SIMD is exactly bit-identical here
//!
//! The vectorized loops perform only *integer* operations — nibble mask,
//! `(c ^ 8) − 8` sign extension, widening, multiply, add — each of which
//! is exact and element-independent, and they accumulate in the same
//! per-element slots as the scalar loop (one add per output element per
//! row, so not even integer associativity is exercised). The f32 rescale
//! stays scalar in the callers, so no float operation is reordered.
//! Equality with the scalar oracle is therefore exact, not approximate —
//! pinned by proptests in `tests/kernel_props.rs`.
//!
//! Dispatch is a one-time CPU check ([`detect`], cached): compiling the
//! `simd` feature on a host without AVX2/NEON simply runs scalar.

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub use avx2::{accumulate_row_i16_avx2, accumulate_row_i32_avx2};
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
pub use neon::{accumulate_row_i16_neon, accumulate_row_i32_neon};

/// Which instruction set the packed-kernel inner loops run with.
///
/// Produced by [`detect`]; the scalar variant is always available and is
/// the reference the others are proptested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// Portable scalar loops (the bit-exactness oracle).
    Scalar,
    /// 256-bit AVX2 loops (x86_64, runtime-detected).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    /// 128-bit NEON loops (aarch64, runtime-detected).
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    Neon,
}

/// Detects the best available instruction set once (cached) — an AVX2 /
/// NEON CPUID-style check under the `simd` feature, always
/// [`Lanes::Scalar`] without it.
pub fn detect() -> Lanes {
    static ACTIVE: std::sync::OnceLock<Lanes> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Lanes::Avx2;
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return Lanes::Neon;
            }
        }
        Lanes::Scalar
    })
}

/// Human-readable name of the detected instruction set ("avx2", "neon",
/// or "scalar") — surfaced by the bench bins so archived BENCH_JSON
/// records what actually ran.
pub fn active_isa() -> &'static str {
    match detect() {
        Lanes::Scalar => "scalar",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lanes::Avx2 => "avx2",
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        Lanes::Neon => "neon",
    }
}

/// Accumulates one packed weight row (input channel `i`'s nibbles across
/// all outputs) into the even/odd accumulator planes, scaled by the
/// activation code `q`. Nibble sign-extension is branchless
/// (`(n ^ 8) - 8`), both planes are stride-1, and the zips are
/// bounds-check free — the scalar loop auto-vectorizes reasonably and is
/// the bit-exactness oracle for the explicit SIMD forms.
#[inline]
pub(crate) fn accumulate_row_i16_scalar(row: &[u8], q: i16, even: &mut [i16], odd: &mut [i16]) {
    for ((&b, e), o) in row.iter().zip(even.iter_mut()).zip(odd.iter_mut()) {
        *e += q * (((b & 0x0F) ^ 8) as i16 - 8);
        *o += q * (((b >> 4) ^ 8) as i16 - 8);
    }
}

/// The i32 twin of [`accumulate_row_i16_scalar`] for wider activations.
#[inline]
pub(crate) fn accumulate_row_i32_scalar(row: &[u8], q: i32, even: &mut [i32], odd: &mut [i32]) {
    for ((&b, e), o) in row.iter().zip(even.iter_mut()).zip(odd.iter_mut()) {
        *e += q * (((b & 0x0F) ^ 8) as i32 - 8);
        *o += q * (((b >> 4) ^ 8) as i32 - 8);
    }
}

/// Dispatches one i16 row accumulation to the active instruction set.
#[inline]
pub(crate) fn accumulate_row_i16(
    lanes: Lanes,
    row: &[u8],
    q: i16,
    even: &mut [i16],
    odd: &mut [i16],
) {
    match lanes {
        Lanes::Scalar => accumulate_row_i16_scalar(row, q, even, odd),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `lanes == Avx2` only comes from `detect`, which
        // verified AVX2; slice-length contract checked by the callee's
        // debug assertions and upheld by the plane layout (planes are at
        // least as long as a packed row).
        Lanes::Avx2 => unsafe { accumulate_row_i16_avx2(row, q, even, odd) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        // SAFETY: as above, with NEON verified by `detect`.
        Lanes::Neon => unsafe { accumulate_row_i16_neon(row, q, even, odd) },
    }
}

/// Dispatches one i32 row accumulation to the active instruction set.
#[inline]
pub(crate) fn accumulate_row_i32(
    lanes: Lanes,
    row: &[u8],
    q: i32,
    even: &mut [i32],
    odd: &mut [i32],
) {
    match lanes {
        Lanes::Scalar => accumulate_row_i32_scalar(row, q, even, odd),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `lanes == Avx2` only comes from `detect`.
        Lanes::Avx2 => unsafe { accumulate_row_i32_avx2(row, q, even, odd) },
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        // SAFETY: `lanes == Neon` only comes from `detect`.
        Lanes::Neon => unsafe { accumulate_row_i32_neon(row, q, even, odd) },
    }
}

/// AVX2 forms of the accumulate loops: 16 packed bytes (32 nibbles) per
/// i16 iteration, 8 per i32 iteration, with the ragged tail handled by
/// the scalar oracle so the whole row is covered.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{accumulate_row_i16_scalar, accumulate_row_i32_scalar};

    /// AVX2 [`accumulate_row_i16_scalar`](super::accumulate_row_i16_scalar):
    /// per 128-bit load, both nibbles of 16 packed bytes are
    /// sign-extended (`(c ^ 8) − 8` bytewise, then `cvtepi8_epi16`),
    /// multiplied by the splatted activation code, and added into the
    /// even/odd i16 planes. All operations are exact integer ops on the
    /// same per-element slots as the scalar loop, so the result is
    /// bit-identical.
    ///
    /// # Safety
    ///
    /// * The CPU must support AVX2 (guaranteed when dispatched through
    ///   [`detect`](super::detect)).
    /// * `even.len() >= row.len()` and `odd.len() >= row.len()` — the
    ///   unaligned vector loads/stores read and write `row.len()`
    ///   elements of each plane.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_row_i16_avx2(row: &[u8], q: i16, even: &mut [i16], odd: &mut [i16]) {
        let n = row.len();
        debug_assert!(even.len() >= n && odd.len() >= n);
        let qv = _mm256_set1_epi16(q);
        let nib_mask = _mm_set1_epi8(0x0F);
        let sign_bit = _mm_set1_epi8(8);
        let mut i = 0;
        while i + 16 <= n {
            let bytes = _mm_loadu_si128(row.as_ptr().add(i) as *const __m128i);
            let lo = _mm_sub_epi8(
                _mm_xor_si128(_mm_and_si128(bytes, nib_mask), sign_bit),
                sign_bit,
            );
            // High nibbles: a 16-bit shift drags bits across byte lanes,
            // the mask removes them.
            let hi = _mm_sub_epi8(
                _mm_xor_si128(_mm_and_si128(_mm_srli_epi16(bytes, 4), nib_mask), sign_bit),
                sign_bit,
            );
            let e_ptr = even.as_mut_ptr().add(i) as *mut __m256i;
            let o_ptr = odd.as_mut_ptr().add(i) as *mut __m256i;
            let e = _mm256_loadu_si256(e_ptr);
            let o = _mm256_loadu_si256(o_ptr);
            _mm256_storeu_si256(
                e_ptr,
                _mm256_add_epi16(e, _mm256_mullo_epi16(qv, _mm256_cvtepi8_epi16(lo))),
            );
            _mm256_storeu_si256(
                o_ptr,
                _mm256_add_epi16(o, _mm256_mullo_epi16(qv, _mm256_cvtepi8_epi16(hi))),
            );
            i += 16;
        }
        accumulate_row_i16_scalar(&row[i..], q, &mut even[i..n], &mut odd[i..n]);
    }

    /// AVX2 [`accumulate_row_i32_scalar`](super::accumulate_row_i32_scalar):
    /// as the i16 form but widening 8 packed bytes to i32 lanes per
    /// iteration. Bit-identical to scalar for the same reason.
    ///
    /// # Safety
    ///
    /// Same contract as [`accumulate_row_i16_avx2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_row_i32_avx2(row: &[u8], q: i32, even: &mut [i32], odd: &mut [i32]) {
        let n = row.len();
        debug_assert!(even.len() >= n && odd.len() >= n);
        let qv = _mm256_set1_epi32(q);
        let nib_mask = _mm_set1_epi8(0x0F);
        let sign_bit = _mm_set1_epi8(8);
        let mut i = 0;
        while i + 8 <= n {
            let bytes = _mm_loadl_epi64(row.as_ptr().add(i) as *const __m128i);
            let lo = _mm_sub_epi8(
                _mm_xor_si128(_mm_and_si128(bytes, nib_mask), sign_bit),
                sign_bit,
            );
            let hi = _mm_sub_epi8(
                _mm_xor_si128(_mm_and_si128(_mm_srli_epi16(bytes, 4), nib_mask), sign_bit),
                sign_bit,
            );
            let e_ptr = even.as_mut_ptr().add(i) as *mut __m256i;
            let o_ptr = odd.as_mut_ptr().add(i) as *mut __m256i;
            let e = _mm256_loadu_si256(e_ptr);
            let o = _mm256_loadu_si256(o_ptr);
            _mm256_storeu_si256(
                e_ptr,
                _mm256_add_epi32(e, _mm256_mullo_epi32(qv, _mm256_cvtepi8_epi32(lo))),
            );
            _mm256_storeu_si256(
                o_ptr,
                _mm256_add_epi32(o, _mm256_mullo_epi32(qv, _mm256_cvtepi8_epi32(hi))),
            );
            i += 8;
        }
        accumulate_row_i32_scalar(&row[i..], q, &mut even[i..n], &mut odd[i..n]);
    }
}

/// NEON forms of the accumulate loops (aarch64): 16 packed bytes per
/// i16 iteration, 8 per i32 iteration, scalar tail.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    use std::arch::aarch64::*;

    use super::{accumulate_row_i16_scalar, accumulate_row_i32_scalar};

    /// NEON [`accumulate_row_i16_scalar`](super::accumulate_row_i16_scalar):
    /// both nibbles of 16 packed bytes are sign-extended bytewise,
    /// widened with `vmovl_s8`, and multiply-accumulated into the
    /// even/odd i16 planes. Exact integer ops on the scalar loop's
    /// per-element slots — bit-identical.
    ///
    /// # Safety
    ///
    /// * The CPU must support NEON (guaranteed when dispatched through
    ///   [`detect`](super::detect); architecturally always true on
    ///   aarch64).
    /// * `even.len() >= row.len()` and `odd.len() >= row.len()` — the
    ///   vector loads/stores read and write `row.len()` elements of
    ///   each plane.
    #[target_feature(enable = "neon")]
    pub unsafe fn accumulate_row_i16_neon(row: &[u8], q: i16, even: &mut [i16], odd: &mut [i16]) {
        let n = row.len();
        debug_assert!(even.len() >= n && odd.len() >= n);
        let qv = vdupq_n_s16(q);
        let nib_mask = vdupq_n_u8(0x0F);
        let sign_bit = vdupq_n_s8(8);
        let mut i = 0;
        while i + 16 <= n {
            let bytes = vld1q_u8(row.as_ptr().add(i));
            let lo = vsubq_s8(
                veorq_s8(vreinterpretq_s8_u8(vandq_u8(bytes, nib_mask)), sign_bit),
                sign_bit,
            );
            // 8-bit lane shift: no cross-byte contamination on NEON.
            let hi = vsubq_s8(
                veorq_s8(vreinterpretq_s8_u8(vshrq_n_u8::<4>(bytes)), sign_bit),
                sign_bit,
            );
            let e_ptr = even.as_mut_ptr().add(i);
            let o_ptr = odd.as_mut_ptr().add(i);
            vst1q_s16(
                e_ptr,
                vmlaq_s16(vld1q_s16(e_ptr), qv, vmovl_s8(vget_low_s8(lo))),
            );
            vst1q_s16(
                e_ptr.add(8),
                vmlaq_s16(vld1q_s16(e_ptr.add(8)), qv, vmovl_s8(vget_high_s8(lo))),
            );
            vst1q_s16(
                o_ptr,
                vmlaq_s16(vld1q_s16(o_ptr), qv, vmovl_s8(vget_low_s8(hi))),
            );
            vst1q_s16(
                o_ptr.add(8),
                vmlaq_s16(vld1q_s16(o_ptr.add(8)), qv, vmovl_s8(vget_high_s8(hi))),
            );
            i += 16;
        }
        accumulate_row_i16_scalar(&row[i..], q, &mut even[i..n], &mut odd[i..n]);
    }

    /// NEON [`accumulate_row_i32_scalar`](super::accumulate_row_i32_scalar):
    /// as the i16 form but widening 8 packed bytes to i32 lanes per
    /// iteration. Bit-identical to scalar.
    ///
    /// # Safety
    ///
    /// Same contract as [`accumulate_row_i16_neon`].
    #[target_feature(enable = "neon")]
    pub unsafe fn accumulate_row_i32_neon(row: &[u8], q: i32, even: &mut [i32], odd: &mut [i32]) {
        let n = row.len();
        debug_assert!(even.len() >= n && odd.len() >= n);
        let qv = vdupq_n_s32(q);
        let nib_mask = vdup_n_u8(0x0F);
        let sign_bit = vdup_n_s8(8);
        let mut i = 0;
        while i + 8 <= n {
            let bytes = vld1_u8(row.as_ptr().add(i));
            let lo = vsub_s8(
                veor_s8(vreinterpret_s8_u8(vand_u8(bytes, nib_mask)), sign_bit),
                sign_bit,
            );
            let hi = vsub_s8(
                veor_s8(vreinterpret_s8_u8(vshr_n_u8::<4>(bytes)), sign_bit),
                sign_bit,
            );
            let lo16 = vmovl_s8(lo);
            let hi16 = vmovl_s8(hi);
            let e_ptr = even.as_mut_ptr().add(i);
            let o_ptr = odd.as_mut_ptr().add(i);
            vst1q_s32(
                e_ptr,
                vmlaq_s32(vld1q_s32(e_ptr), qv, vmovl_s16(vget_low_s16(lo16))),
            );
            vst1q_s32(
                e_ptr.add(4),
                vmlaq_s32(vld1q_s32(e_ptr.add(4)), qv, vmovl_s16(vget_high_s16(lo16))),
            );
            vst1q_s32(
                o_ptr,
                vmlaq_s32(vld1q_s32(o_ptr), qv, vmovl_s16(vget_low_s16(hi16))),
            );
            vst1q_s32(
                o_ptr.add(4),
                vmlaq_s32(vld1q_s32(o_ptr.add(4)), qv, vmovl_s16(vget_high_s16(hi16))),
            );
            i += 8;
        }
        accumulate_row_i32_scalar(&row[i..], q, &mut even[i..n], &mut odd[i..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_named() {
        assert_eq!(detect(), detect());
        let isa = active_isa();
        assert!(["scalar", "avx2", "neon"].contains(&isa), "unknown {isa}");
        if cfg!(not(feature = "simd")) {
            assert_eq!(detect(), Lanes::Scalar);
        }
    }

    #[test]
    fn dispatched_matches_scalar_on_all_nibbles() {
        // Every signed nibble pair in every lane position, across sizes
        // that cover the vector body and the ragged tail.
        for n in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 40] {
            let row: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            for q in [-7i16, -1, 1, 3, 7] {
                let mut e_s = vec![1i16; n];
                let mut o_s = vec![-2i16; n];
                accumulate_row_i16_scalar(&row, q, &mut e_s, &mut o_s);
                let mut e_d = vec![1i16; n];
                let mut o_d = vec![-2i16; n];
                accumulate_row_i16(detect(), &row, q, &mut e_d, &mut o_d);
                assert_eq!(e_s, e_d);
                assert_eq!(o_s, o_d);

                let mut e32_s = vec![5i32; n];
                let mut o32_s = vec![-9i32; n];
                accumulate_row_i32_scalar(&row, q as i32, &mut e32_s, &mut o32_s);
                let mut e32_d = vec![5i32; n];
                let mut o32_d = vec![-9i32; n];
                accumulate_row_i32(detect(), &row, q as i32, &mut e32_d, &mut o32_d);
                assert_eq!(e32_s, e32_d);
                assert_eq!(o32_s, o32_d);
            }
        }
    }
}
