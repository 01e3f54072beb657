//! True-integer W4A4 decode kernels over packed 4-bit weights.
//!
//! [`crate::qmodel`]'s fake-quantized path evaluates PTQ *accuracy*: it
//! dequantizes to f32 at load and every step computes in f32, so the host
//! never sees the paper's bandwidth win. This module is the execution
//! half: weights live packed — **two signed nibbles per byte** plus one
//! f32 scale per `(output row, input group)` block — and the GEMV
//! kernel computes `i8 activations × u4-packed weights → i32 accumulate →
//! one f32 rescale per group`. Per output element the weight stream is
//! 0.5 bytes instead of the dequantized path's 4, and one call applies
//! each packed row to every activation row of a batch, which is what
//! makes host decode of a bandwidth-bound Mamba step fast.
//!
//! # Agreement with the fake-quant reference
//!
//! Both paths share one quantization grid (the codes come from the same
//! [`QuantizedTensor`] rounding), so they differ only in accumulation:
//! the integer kernel computes `Σ_g (Σ_{i∈g} qw·qa) · sw_g·sa_g` with the
//! inner sum exact in i32, while the reference ([`gemv_reference`])
//! computes `Σ_g Σ_{i∈g} (qw·sw_g)·(qa·sa_g)` in f32, group-blocked in
//! the same order.
//!
//! * With **power-of-two scales** the two are **bit-exact**: every
//!   partial product `qw·qa·2^e` and every group subtotal (bounded by
//!   `qmax² · group ≤ 49·4096 ≪ 2²⁴`) is exactly representable in f32,
//!   so no operation in either path rounds. The proptests pin this.
//! * With arbitrary scales the reference rounds once per element and the
//!   integer path once per group, so outputs agree to a few ulps of each
//!   group contribution (proptested against a relative bound).
//!
//! The kernels allocate nothing: activations quantize into a reusable
//! [`ActQuant`] scratch and outputs land in caller buffers, which is what
//! keeps the serving hot path allocation-free.

use lightmamba_tensor::Tensor;

use crate::quantizer::{Granularity, QuantScheme, QuantizedTensor};
use crate::simd::{accumulate_row_i16, accumulate_row_i32, Lanes};
use crate::{QuantError, Result};

/// Packs signed 4-bit codes two-per-byte (even index → low nibble, odd
/// index → high nibble; a trailing odd element leaves the high nibble 0).
pub fn pack_nibbles(codes: &[i8]) -> Vec<u8> {
    let mut out = vec![0u8; codes.len().div_ceil(2)];
    for (i, &c) in codes.iter().enumerate() {
        let nib = (c as u8) & 0x0F;
        if i & 1 == 0 {
            out[i / 2] |= nib;
        } else {
            out[i / 2] |= nib << 4;
        }
    }
    out
}

/// Unpacks `n` signed 4-bit codes from [`pack_nibbles`] output into a
/// caller buffer of length `n` (allocation-free inverse).
pub fn unpack_nibbles_into(packed: &[u8], n: usize, out: &mut [i8]) {
    debug_assert!(out.len() >= n && packed.len() >= n.div_ceil(2));
    for (i, o) in out.iter_mut().enumerate().take(n) {
        let b = packed[i / 2];
        *o = if i & 1 == 0 {
            ((b << 4) as i8) >> 4
        } else {
            (b as i8) >> 4
        };
    }
}

/// A weight matrix in packed 4-bit form for the integer GEMV.
///
/// Logical layout matches the FP path — `(in_features, out_features)`,
/// activations multiply from the left. Quantization groups run along the
/// *input* (reduction) dimension — the reduction-friendly blocking of
/// the paper's DSP-packing MMU (Fig. 5b) — so the scale grid is one f32
/// per `(output, input-group)` block.
///
/// Physical storage is **input-major**: one packed row of
/// `out_features` nibbles per *input* channel. A GEMV then sweeps
/// activation-outer / output-inner exactly like the f32 `vecmat` hot
/// loop: each nonzero activation code streams one contiguous byte row
/// (0.5 bytes per weight) into contiguous i32 accumulators, zero codes
/// skip their row entirely (4-bit activations are frequently zero), and
/// one rescale per group folds the accumulators into f32. Scales are
/// held twice: output-major ([`PackedW4::scales`], the grid order the
/// quantizer produces) and group-major (`scales_t`, the order the
/// rescale sweep consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedW4 {
    /// `in_features` rows of `bytes_per_row` packed nibbles each
    /// (output 2j in the low nibble of byte j, output 2j+1 in the high).
    packed: Vec<u8>,
    /// One scale per `(output, group)` block, `groups_per_row` per
    /// output — the [`QuantizedTensor`] grid order.
    scales: Vec<f32>,
    /// The same scales transposed to `[group][output]` for the rescale
    /// sweep.
    scales_t: Vec<f32>,
    group: usize,
    groups_per_row: usize,
    bytes_per_row: usize,
    in_features: usize,
    out_features: usize,
    bits: u8,
}

impl PackedW4 {
    /// Quantizes a `(in_features, out_features)` weight matrix under a
    /// per-group scheme with `bits ≤ 4` and packs the codes. The codes
    /// are produced by the shared [`QuantizedTensor`] on the transposed
    /// matrix, so the grid is identical to fake-quantizing the packed
    /// view — the agreement proofs above rely on exactly this.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] unless the scheme is
    /// per-group with 2–4 bits.
    pub fn quantize(weight: &Tensor, scheme: QuantScheme) -> Result<Self> {
        scheme.validate()?;
        let group = match scheme.granularity {
            Granularity::PerGroup(g) => g,
            other => {
                return Err(QuantError::InvalidScheme(format!(
                    "packed 4-bit weights need per-group scales, got {other:?}"
                )))
            }
        };
        if scheme.bits > 4 {
            return Err(QuantError::InvalidScheme(format!(
                "packed nibble storage holds at most 4-bit codes, got {}",
                scheme.bits
            )));
        }
        let (in_features, out_features) = weight.as_matrix_dims()?;
        // Quantize the transposed view so groups run along the reduction
        // (input) dimension; then pack input-major for the GEMV sweep.
        let wt = weight.transpose()?;
        let q = QuantizedTensor::quantize(&wt, scheme)?;
        let groups_per_row = in_features.div_ceil(group);
        let bytes_per_row = out_features.div_ceil(2);
        let mut packed = Vec::with_capacity(in_features * bytes_per_row);
        let mut row_codes = vec![0i8; out_features];
        for i in 0..in_features {
            for (o, c) in row_codes.iter_mut().enumerate() {
                *c = q.codes()[o * in_features + i];
            }
            packed.extend(pack_nibbles(&row_codes));
        }
        let mut scales_t = vec![0.0f32; groups_per_row * out_features];
        for o in 0..out_features {
            for g in 0..groups_per_row {
                scales_t[g * out_features + o] = q.scales()[o * groups_per_row + g];
            }
        }
        Ok(PackedW4 {
            packed,
            scales: q.scales().to_vec(),
            scales_t,
            group,
            groups_per_row,
            bytes_per_row,
            in_features,
            out_features,
            bits: scheme.bits,
        })
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Quantization group size along the input dimension.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The per-`(row, group)` scales, row-major.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The packed nibble storage (`in_features` rows of
    /// `out_features.div_ceil(2)` bytes).
    pub fn packed_bytes(&self) -> &[u8] {
        &self.packed
    }

    /// Gathers output channel `o`'s signed codes (one per input) into
    /// `out` (length `in_features`) — the logical "weight row" view used
    /// by the reference oracle and tests; the hot kernels never gather.
    pub fn unpack_row_into(&self, o: usize, out: &mut [i8]) {
        for (i, v) in out.iter_mut().enumerate().take(self.in_features) {
            let b = self.packed[i * self.bytes_per_row + o / 2];
            *v = if o & 1 == 0 {
                ((b << 4) as i8) >> 4
            } else {
                (b as i8) >> 4
            };
        }
    }

    /// Storage footprint in bits of the representation actually held:
    /// packed nibble bytes (including any odd-width padding nibble) plus
    /// FP16 scales. This is the honest weight-stream width the serving
    /// cost model prices.
    pub fn storage_bits(&self) -> usize {
        self.packed.len() * 8 + self.scales.len() * 16
    }

    /// Number of quantized parameters (the storage denominator).
    pub fn params(&self) -> usize {
        self.in_features * self.out_features
    }

    /// Reconstructs the dequantized weight in the logical `(in, out)`
    /// layout — the f32 tensor the fake-quant reference oracle computes
    /// with. Shares the packed grid exactly.
    pub fn dequantized_weight(&self) -> Tensor {
        let mut w = Tensor::zeros(&[self.in_features, self.out_features]);
        let data = w.data_mut();
        let mut row = vec![0i8; self.in_features];
        for o in 0..self.out_features {
            self.unpack_row_into(o, &mut row);
            for (i, &c) in row.iter().enumerate() {
                let s = self.scales[o * self.groups_per_row + i / self.group];
                data[i * self.out_features + o] = c as f32 * s;
            }
        }
        w
    }
}

/// Reusable activation-quantization scratch: per-group symmetric i8
/// codes plus one f32 scale per group, for one or more rows of equal
/// width. Buffers grow on first use and are reused, so quantizing
/// activations allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct ActQuant {
    codes: Vec<i8>,
    scales: Vec<f32>,
    group: usize,
    len: usize,
    rows: usize,
    /// Largest code magnitude of the latest scheme (drives the i16
    /// fast-path overflow proof in [`gemv_packed`]).
    qmax: i32,
}

impl ActQuant {
    /// An empty scratch; it warms up on first use.
    pub fn new() -> Self {
        ActQuant::default()
    }

    /// Quantizes one vector `x` under a per-group scheme (2–8 bits),
    /// reusing the internal buffers. Codes and scales match
    /// [`QuantizedTensor`] on the same vector bit-for-bit (same absmax →
    /// scale → round-clamp).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] for non-per-group schemes or
    /// invalid bit widths.
    pub fn quantize(&mut self, x: &[f32], scheme: QuantScheme) -> Result<()> {
        self.quantize_rows(x, x.len(), scheme)
    }

    /// Quantizes `xs`, a whole number of rows of `width` values back to
    /// back, each row exactly as [`ActQuant::quantize`] would — the
    /// activation side of a row-batched [`gemv_packed`].
    ///
    /// # Errors
    ///
    /// As [`ActQuant::quantize`], plus [`QuantError::InvalidScheme`]
    /// when `xs` is not a whole number of rows.
    pub fn quantize_rows(&mut self, xs: &[f32], width: usize, scheme: QuantScheme) -> Result<()> {
        scheme.validate()?;
        let group = match scheme.granularity {
            Granularity::PerGroup(g) => g,
            other => {
                return Err(QuantError::InvalidScheme(format!(
                    "activation scratch quantizes per group, got {other:?}"
                )))
            }
        };
        let rows = xs.len().checked_div(width).unwrap_or(1);
        if rows * width != xs.len() {
            return Err(QuantError::InvalidScheme(format!(
                "{} activations are not whole rows of {width}",
                xs.len()
            )));
        }
        let qmax = scheme.qmax() as f32;
        self.codes.resize(xs.len(), 0);
        self.scales.clear();
        for (row, row_codes) in xs
            .chunks(width.max(1))
            .zip(self.codes.chunks_mut(width.max(1)))
        {
            for (chunk, codes) in row.chunks(group).zip(row_codes.chunks_mut(group)) {
                let absmax = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let scale = scheme.scale_for(absmax);
                for (c, &v) in codes.iter_mut().zip(chunk.iter()) {
                    *c = (v / scale).round().clamp(-qmax, qmax) as i8;
                }
                self.scales.push(scale);
            }
        }
        self.group = group;
        self.len = width;
        self.rows = rows;
        self.qmax = scheme.qmax();
        Ok(())
    }

    /// The quantized codes of the latest call, row after row.
    pub fn codes(&self) -> &[i8] {
        &self.codes[..self.rows * self.len]
    }

    /// The scales of the latest call: one per group, row after row.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Width of each row of the latest call.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Rows quantized by the latest call.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether no vector has been quantized yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Codes and scales of row `r`.
    fn row(&self, r: usize) -> (&[i8], &[f32]) {
        let groups = self.scales.len() / self.rows.max(1);
        (
            &self.codes[r * self.len..(r + 1) * self.len],
            &self.scales[r * groups..(r + 1) * groups],
        )
    }
}

fn check_gemv(w: &PackedW4, act: &ActQuant, out: &[f32]) -> Result<()> {
    if act.len() != w.in_features {
        return Err(QuantError::InvalidScheme(format!(
            "activation length {} does not match in_features {}",
            act.len(),
            w.in_features
        )));
    }
    if act.group != w.group {
        return Err(QuantError::InvalidScheme(format!(
            "activation group {} does not match weight group {}",
            act.group, w.group
        )));
    }
    if out.len() != act.rows() * w.out_features {
        return Err(QuantError::InvalidScheme(format!(
            "output length {} does not hold {} rows of out_features {}",
            out.len(),
            act.rows(),
            w.out_features
        )));
    }
    Ok(())
}

/// Reusable integer buffers for [`gemv_packed`]: one "even outputs"
/// and one "odd outputs" accumulator plane per activation row, plus one
/// unpacked weight row, in i16 (the W4A4 fast path — twice the SIMD
/// lanes, exact because a group's reduction is bounded by
/// `group · qmaxₐ · qmax_w`) or i32 (the general path). Splitting by
/// nibble parity keeps every hot loop stride-1 over contiguous buffers,
/// which is what lets the compiler vectorize them.
#[derive(Debug, Clone, Default)]
pub struct GemvScratch {
    acc16: Vec<i16>,
    row16: Vec<i16>,
    acc32: Vec<i32>,
    row32: Vec<i32>,
}

impl GemvScratch {
    /// An empty scratch; it warms up on first use.
    pub fn new() -> Self {
        GemvScratch::default()
    }
}

/// Whether a whole group's integer reduction provably fits i16:
/// `group · qmaxₐ · qmax_w ≤ i16::MAX` (weight codes are ≤ 4-bit, so
/// `qmax_w = 7`). The W4A4 recipe (qmaxₐ = 7) qualifies up to group 668.
#[inline]
fn fits_i16(group: usize, act_qmax: i32) -> bool {
    (group as i64) * (act_qmax as i64) * 7 <= i16::MAX as i64
}

/// Integer GEMV over every row of `act`: `out[r][o] = Σ_g (Σ_{i∈g}
/// qw·qa_r) · sw[o,g]·sa_r[g]`, with the inner reduction exact in
/// integers and one f32 rescale per `(output, group)` block — the
/// arithmetic the DSP tree of the paper's MMU performs. `out` holds one
/// `out_features` row per activation row.
///
/// The sweep is weight-stationary and activation-outer like the f32
/// `vecmat` hot loop: each packed input row is read once and applied to
/// every activation row whose code there is nonzero (zero codes,
/// frequent at 4 bits, skip the row), streaming 0.5 bytes per output
/// into that row's accumulator planes in `scratch` (allocation-free
/// once warm). With several activation rows, a packed row is unpacked
/// once and then multiply-added per row; a single row takes the fused
/// unpack-and-accumulate loop. For
/// W4A4-shaped groups the planes are i16, doubling SIMD width; the
/// reduction value is identical either way. Each output's f32 rescales
/// run in group order, so row `r` is bit-identical to a one-row call on
/// row `r` alone.
///
/// The accumulate loops run on the instruction set reported by
/// [`crate::simd::detect`] (AVX2/NEON under the `simd` feature, scalar
/// otherwise); results are bit-identical either way — see
/// [`crate::simd`] for the argument and [`gemv_packed_scalar`] for the
/// pinned-scalar entry point.
///
/// # Errors
///
/// Returns [`QuantError::InvalidScheme`] on any shape or group mismatch.
pub fn gemv_packed(
    w: &PackedW4,
    act: &ActQuant,
    scratch: &mut GemvScratch,
    out: &mut [f32],
) -> Result<()> {
    gemv_packed_lanes(w, act, scratch, out, crate::simd::detect())
}

/// [`gemv_packed`] forced onto the scalar accumulate loops — the oracle
/// the SIMD dispatch is proptested bit-identical against, and the loop
/// every host runs without the `simd` feature.
///
/// # Errors
///
/// Same conditions as [`gemv_packed`].
pub fn gemv_packed_scalar(
    w: &PackedW4,
    act: &ActQuant,
    scratch: &mut GemvScratch,
    out: &mut [f32],
) -> Result<()> {
    gemv_packed_lanes(w, act, scratch, out, Lanes::Scalar)
}

fn gemv_packed_lanes(
    w: &PackedW4,
    act: &ActQuant,
    scratch: &mut GemvScratch,
    out: &mut [f32],
    lanes: Lanes,
) -> Result<()> {
    check_gemv(w, act, out)?;
    out.fill(0.0);
    if w.out_features == 0 || act.rows() == 0 {
        return Ok(());
    }
    if fits_i16(w.group, act.qmax) {
        sweep(w, act, &mut scratch.acc16, &mut scratch.row16, out, lanes);
    } else {
        sweep(w, act, &mut scratch.acc32, &mut scratch.row32, out, lanes);
    }
    Ok(())
}

/// An integer accumulator lane of [`gemv_packed`] (i16 or i32).
trait Plane:
    Copy + Default + From<i8> + Into<i32> + std::ops::Mul<Output = Self> + std::ops::AddAssign
{
    /// The packed row accumulate on `lanes` (see [`crate::simd`]).
    fn accumulate_row(lanes: Lanes, row: &[u8], q: i8, even: &mut [Self], odd: &mut [Self]);
}

impl Plane for i16 {
    fn accumulate_row(lanes: Lanes, row: &[u8], q: i8, even: &mut [i16], odd: &mut [i16]) {
        accumulate_row_i16(lanes, row, q.into(), even, odd);
    }
}

impl Plane for i32 {
    fn accumulate_row(lanes: Lanes, row: &[u8], q: i8, even: &mut [i32], odd: &mut [i32]) {
        accumulate_row_i32(lanes, row, q.into(), even, odd);
    }
}

/// The body of [`gemv_packed`] on accumulator lanes `T`: `acc` holds
/// one `[even | odd]` plane pair per activation row, `unpacked` one
/// sign-extended weight row in the same layout.
fn sweep<T: Plane>(
    w: &PackedW4,
    act: &ActQuant,
    acc: &mut Vec<T>,
    unpacked: &mut Vec<T>,
    out: &mut [f32],
    lanes: Lanes,
) {
    let half = w.bytes_per_row;
    let planes = 2 * half;
    acc.resize(act.rows() * planes, T::default());
    unpacked.resize(planes, T::default());
    // Unpacking once pays off only when several rows share the row and
    // the accumulate loop would otherwise unpack it again per row.
    let unpack_once = act.rows() > 1;
    let codes = act.codes();
    for g in 0..w.groups_per_row {
        let start = g * w.group;
        let end = (start + w.group).min(w.in_features);
        acc.fill(T::default());
        for i in start..end {
            let row = &w.packed[i * half..(i + 1) * half];
            let mut fresh = false;
            // Code `i` of every row: one stride of `in_features` apart.
            let qs = codes[i..].iter().step_by(w.in_features);
            for (acc_r, &q) in acc.chunks_exact_mut(planes).zip(qs) {
                if q == 0 {
                    continue;
                }
                if !unpack_once {
                    let (even, odd) = acc_r.split_at_mut(half);
                    T::accumulate_row(lanes, row, q, even, odd);
                    continue;
                }
                if !fresh {
                    unpack_row(row, unpacked);
                    fresh = true;
                }
                let q = T::from(q);
                for (a, &wv) in acc_r.iter_mut().zip(unpacked.iter()) {
                    *a += q * wv;
                }
            }
        }
        // One rescale per (output, group) block; with PoT scales every
        // operation here is exact (see module docs).
        let srow = &w.scales_t[g * w.out_features..(g + 1) * w.out_features];
        let rows = acc
            .chunks_exact(planes)
            .zip(out.chunks_exact_mut(w.out_features));
        for (r, (acc_r, out_r)) in rows.enumerate() {
            let (codes, scales) = act.row(r);
            if codes[start..end].iter().all(|&q| q == 0) {
                continue;
            }
            let asc = scales[g];
            for (o, (out_v, &wsc)) in out_r.iter_mut().zip(srow).enumerate() {
                let ia: i32 = acc_r[(o & 1) * half + (o >> 1)].into();
                *out_v += ia as f32 * (wsc * asc);
            }
        }
    }
}

/// Sign-extends both nibbles of every byte of `row` into `out`: low
/// nibbles (even outputs) first, then high nibbles (odd outputs).
fn unpack_row<T: Plane>(row: &[u8], out: &mut [T]) {
    let (even, odd) = out.split_at_mut(row.len());
    for ((&b, e), o) in row.iter().zip(even).zip(odd) {
        *e = T::from(((b & 0x0F) ^ 8) as i8 - 8);
        *o = T::from(((b >> 4) ^ 8) as i8 - 8);
    }
}

/// The fake-quant reference oracle for [`gemv_packed`]: dequantize both
/// operands element-wise and accumulate in f32, group-blocked in the
/// same group order. Bit-exact against the integer kernel under
/// power-of-two scales; within a few ulps per group otherwise (module
/// docs). This is deliberately the *slow honest* implementation.
///
/// # Errors
///
/// Same conditions as [`gemv_packed`].
pub fn gemv_reference(w: &PackedW4, act: &ActQuant, out: &mut [f32]) -> Result<()> {
    check_gemv(w, act, out)?;
    let mut row = vec![0i8; w.in_features];
    for o in 0..w.out_features {
        w.unpack_row_into(o, &mut row);
        let row_scales = &w.scales[o * w.groups_per_row..(o + 1) * w.groups_per_row];
        for r in 0..act.rows() {
            let (qa, act_scales) = act.row(r);
            let mut acc = 0.0f32;
            for (g, (&wsc, &asc)) in row_scales.iter().zip(act_scales).enumerate() {
                let start = g * w.group;
                let end = (start + w.group).min(w.in_features);
                let mut fsum = 0.0f32;
                for i in start..end {
                    fsum += (row[i] as f32 * wsc) * (qa[i] as f32 * asc);
                }
                acc += fsum;
            }
            out[r * w.out_features + o] = acc;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weight(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        Tensor::from_fn(&[rows, cols], |_| rng.gen_range(-0.5f32..0.5))
    }

    fn w4(group: usize) -> QuantScheme {
        QuantScheme::weight_per_group(4, group)
    }

    #[test]
    fn pack_unpack_roundtrips_all_nibble_values() {
        // Every signed 4-bit value in every byte position.
        let codes: Vec<i8> = (-8..=7).chain((-8..=7).rev()).collect();
        let packed = pack_nibbles(&codes);
        assert_eq!(packed.len(), codes.len() / 2);
        let mut out = vec![0i8; codes.len()];
        unpack_nibbles_into(&packed, codes.len(), &mut out);
        assert_eq!(out, codes);
        // Odd length: trailing low nibble only.
        let odd = [3i8, -5, 7];
        let packed = pack_nibbles(&odd);
        assert_eq!(packed.len(), 2);
        let mut out = [0i8; 3];
        unpack_nibbles_into(&packed, 3, &mut out);
        assert_eq!(out, odd);
    }

    #[test]
    fn packed_matches_quantized_tensor_grid() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = random_weight(&mut rng, 32, 24);
        let p = PackedW4::quantize(&w, w4(8)).unwrap();
        let wt = w.transpose().unwrap();
        let q = QuantizedTensor::quantize(&wt, w4(8)).unwrap();
        let mut row = vec![0i8; 32];
        for o in 0..24 {
            p.unpack_row_into(o, &mut row);
            assert_eq!(&row, &q.codes()[o * 32..(o + 1) * 32], "row {o}");
        }
        assert_eq!(p.scales(), q.scales());
        // Dequantized weight matches the transposed fake-quant grid.
        let dq = p.dequantized_weight();
        let dq_t = q.dequantize();
        for o in 0..24 {
            for i in 0..32 {
                assert_eq!(dq.data()[i * 24 + o], dq_t.data()[o * 32 + i], "({i},{o})");
            }
        }
    }

    #[test]
    fn gemv_matches_reference_closely() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(inf, outf, group) in &[(64usize, 48usize, 16usize), (33, 7, 5), (128, 16, 128)] {
            let w = random_weight(&mut rng, inf, outf);
            let p = PackedW4::quantize(&w, w4(group)).unwrap();
            let x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut act = ActQuant::new();
            act.quantize(&x, QuantScheme::act_per_group(4, group))
                .unwrap();
            let mut iacc = GemvScratch::new();
            let mut int_out = vec![0.0f32; outf];
            let mut ref_out = vec![0.0f32; outf];
            gemv_packed(&p, &act, &mut iacc, &mut int_out).unwrap();
            gemv_reference(&p, &act, &mut ref_out).unwrap();
            for (a, b) in int_out.iter().zip(ref_out.iter()) {
                assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn gemv_is_bit_exact_under_pot_scales() {
        let mut rng = StdRng::seed_from_u64(3);
        let pot = |bits, group| QuantScheme {
            bits,
            granularity: Granularity::PerGroup(group),
            pot_scale: true,
        };
        let w = random_weight(&mut rng, 96, 40);
        let p = PackedW4::quantize(&w, pot(4, 16)).unwrap();
        let x: Vec<f32> = (0..96).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let mut act = ActQuant::new();
        act.quantize(&x, pot(4, 16)).unwrap();
        let mut iacc = GemvScratch::new();
        let mut int_out = vec![0.0f32; 40];
        let mut ref_out = vec![0.0f32; 40];
        gemv_packed(&p, &act, &mut iacc, &mut int_out).unwrap();
        gemv_reference(&p, &act, &mut ref_out).unwrap();
        assert_eq!(int_out, ref_out, "PoT scales must be bit-exact");
    }

    #[test]
    fn gemm_matches_gemv_per_row() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = random_weight(&mut rng, 48, 32);
        let p = PackedW4::quantize(&w, w4(16)).unwrap();
        let xs: Vec<f32> = (0..3 * 48).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let scheme = QuantScheme::act_per_group(4, 16);
        let mut acts = ActQuant::new();
        acts.quantize_rows(&xs, 48, scheme).unwrap();
        assert_eq!(acts.rows(), 3);
        let mut outs = vec![0.0f32; 3 * 32];
        gemv_packed(&p, &acts, &mut GemvScratch::new(), &mut outs).unwrap();
        for (x, out) in xs.chunks(48).zip(outs.chunks(32)) {
            let mut a = ActQuant::new();
            a.quantize(x, scheme).unwrap();
            let mut single = vec![0.0f32; 32];
            gemv_packed(&p, &a, &mut GemvScratch::new(), &mut single).unwrap();
            assert_eq!(out, &single[..]);
        }
    }

    #[test]
    fn zero_rows_is_an_empty_product() {
        let mut rng = StdRng::seed_from_u64(8);
        let w = random_weight(&mut rng, 32, 16);
        let p = PackedW4::quantize(&w, w4(8)).unwrap();
        let mut acts = ActQuant::new();
        acts.quantize_rows(&[], 32, QuantScheme::act_per_group(4, 8))
            .unwrap();
        assert_eq!(acts.rows(), 0);
        let mut out: [f32; 0] = [];
        gemv_packed(&p, &acts, &mut GemvScratch::new(), &mut out).unwrap();
        gemv_packed_scalar(&p, &acts, &mut GemvScratch::new(), &mut out).unwrap();
    }

    #[test]
    fn act_quant_matches_quantized_tensor() {
        let mut rng = StdRng::seed_from_u64(5);
        let x: Vec<f32> = (0..50).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        let scheme = QuantScheme::act_per_group(4, 16);
        let mut act = ActQuant::new();
        act.quantize(&x, scheme).unwrap();
        let t = Tensor::from_vec(x.clone(), &[x.len()]).unwrap();
        let q = QuantizedTensor::quantize(&t, scheme).unwrap();
        assert_eq!(act.codes(), q.codes());
        assert_eq!(act.scales(), q.scales());
        // Reuse shrinks cleanly.
        act.quantize(&x[..10], scheme).unwrap();
        assert_eq!(act.len(), 10);
        assert_eq!(act.scales().len(), 1);
    }

    #[test]
    fn rejects_mismatched_shapes_and_schemes() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = random_weight(&mut rng, 16, 8);
        assert!(PackedW4::quantize(&w, QuantScheme::weight_per_channel(4)).is_err());
        assert!(PackedW4::quantize(&w, w4(0)).is_err());
        assert!(PackedW4::quantize(&w, QuantScheme::weight_per_group(8, 4)).is_err());
        let p = PackedW4::quantize(&w, w4(8)).unwrap();
        let mut act = ActQuant::new();
        act.quantize(&[0.5; 16], QuantScheme::act_per_group(4, 4))
            .unwrap();
        let mut iacc = GemvScratch::new();
        let mut out = vec![0.0; 8];
        // Group mismatch.
        assert!(gemv_packed(&p, &act, &mut iacc, &mut out).is_err());
        act.quantize(&[0.5; 12], QuantScheme::act_per_group(4, 8))
            .unwrap();
        // Length mismatch.
        assert!(gemv_packed(&p, &act, &mut iacc, &mut out).is_err());
        act.quantize(&[0.5; 16], QuantScheme::act_per_group(4, 8))
            .unwrap();
        // Output length mismatch.
        assert!(gemv_packed(&p, &act, &mut iacc, &mut out[..4]).is_err());
        gemv_packed(&p, &act, &mut iacc, &mut out).unwrap();
    }

    #[test]
    fn storage_accounts_packed_bytes_and_scales() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = random_weight(&mut rng, 32, 16);
        let p = PackedW4::quantize(&w, w4(16)).unwrap();
        // 32 input rows × 8 bytes of nibbles + 16 outs × 2 groups of
        // 16-bit scales.
        assert_eq!(p.storage_bits(), 32 * 8 * 8 + 32 * 16);
        assert_eq!(p.params(), 512);
        // Odd output width pads each input row to a whole byte.
        let w = random_weight(&mut rng, 16, 5);
        let p = PackedW4::quantize(&w, w4(16)).unwrap();
        assert_eq!(p.storage_bits(), 16 * 3 * 8 + 5 * 16);
    }
}
