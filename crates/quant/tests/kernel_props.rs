//! Property tests for the packed integer W4A4 kernels: lossless nibble
//! packing, agreement between the integer GEMV and the fake-quant
//! reference oracle (bit-exact under PoT scales), row-batched GEMV ≡
//! per-row GEMV, and full-model integer-vs-oracle decode agreement.

use lightmamba_model::MambaConfig;
use lightmamba_model::MambaModel;
use lightmamba_quant::kernels::{
    gemv_packed, gemv_packed_scalar, gemv_reference, pack_nibbles, unpack_nibbles_into, ActQuant,
    GemvScratch, PackedW4,
};
use lightmamba_quant::qmodel::{ExecMode, Precision};
use lightmamba_quant::{Granularity, PreparedModel, QuantScheme, QuantizedMamba};
use lightmamba_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn per_group(bits: u8, group: usize, pot: bool) -> QuantScheme {
    QuantScheme {
        bits,
        granularity: Granularity::PerGroup(group),
        pot_scale: pot,
    }
}

fn random_problem(
    seed: u64,
    inf: usize,
    outf: usize,
    group: usize,
    wbits: u8,
    abits: u8,
    pot: bool,
) -> (PackedW4, ActQuant) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = Tensor::from_fn(&[inf, outf], |_| rng.gen_range(-0.8f32..0.8));
    let p = PackedW4::quantize(&w, per_group(wbits, group, pot)).unwrap();
    let x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-2.5f32..2.5)).collect();
    let mut act = ActQuant::new();
    act.quantize(&x, per_group(abits, group, pot)).unwrap();
    (p, act)
}

/// A packed 4-bit weight plus `batch` activation rows quantized
/// together; returns the rows' f32 values too. With `sparse`, about
/// three in four activations are exactly zero.
#[allow(clippy::too_many_arguments)]
fn random_rows(
    seed: u64,
    inf: usize,
    outf: usize,
    group: usize,
    batch: usize,
    abits: u8,
    pot: bool,
    sparse: bool,
) -> (PackedW4, ActQuant, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = Tensor::from_fn(&[inf, outf], |_| rng.gen_range(-0.8f32..0.8));
    let p = PackedW4::quantize(&w, per_group(4, group, pot)).unwrap();
    let xs: Vec<f32> = (0..batch * inf)
        .map(|_| {
            let v = rng.gen_range(-2.0f32..2.0);
            if sparse && rng.gen_range(0u8..4) != 0 {
                0.0
            } else {
                v
            }
        })
        .collect();
    let mut acts = ActQuant::new();
    acts.quantize_rows(&xs, inf, per_group(abits, group, pot))
        .unwrap();
    (p, acts, xs)
}

/// One single-row [`gemv_packed`] per `inf`-wide row of `xs`,
/// concatenated.
fn per_row(p: &PackedW4, xs: &[f32], inf: usize, scheme: QuantScheme) -> Vec<f32> {
    let mut out = Vec::new();
    for x in xs.chunks(inf) {
        let mut act = ActQuant::new();
        act.quantize(x, scheme).unwrap();
        let mut row = vec![0.0f32; p.out_features()];
        gemv_packed(p, &act, &mut GemvScratch::new(), &mut row).unwrap();
        out.extend(row);
    }
    out
}

/// Every possible byte holds two nibbles that survive a pack round trip
/// (exhaustive, so the proptest below only has to cover lengths).
#[test]
fn every_byte_pattern_roundtrips() {
    for b in 0u8..=255 {
        let mut pair = [0i8; 2];
        unpack_nibbles_into(&[b], 2, &mut pair);
        assert!((-8..=7).contains(&pair[0]) && (-8..=7).contains(&pair[1]));
        assert_eq!(pack_nibbles(&pair), vec![b], "byte {b:#04x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_nibble_roundtrip_is_lossless(
        codes in proptest::collection::vec(-8i8..8, 0..200),
    ) {
        let packed = pack_nibbles(&codes);
        prop_assert_eq!(packed.len(), codes.len().div_ceil(2));
        let mut out = vec![0i8; codes.len()];
        unpack_nibbles_into(&packed, codes.len(), &mut out);
        prop_assert_eq!(out, codes);
    }

    #[test]
    fn integer_gemv_agrees_with_fake_quant_reference(
        seed in 0u64..10_000,
        inf in 1usize..96,
        outf in 1usize..64,
        group in 1usize..48,
        wbits in 2u8..5,
        abits in 2u8..5,
    ) {
        let (p, act) = random_problem(seed, inf, outf, group, wbits, abits, false);
        let mut scratch = GemvScratch::new();
        let mut int_out = vec![0.0f32; outf];
        let mut ref_out = vec![0.0f32; outf];
        gemv_packed(&p, &act, &mut scratch, &mut int_out).unwrap();
        gemv_reference(&p, &act, &mut ref_out).unwrap();
        // Same quantization grid, same group-blocked accumulation order;
        // only per-element vs per-group rounding differs.
        for (a, b) in int_out.iter().zip(ref_out.iter()) {
            prop_assert!(
                (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                "int {} vs oracle {} (seed {}, {}x{} g{})",
                a, b, seed, inf, outf, group
            );
        }
    }

    #[test]
    fn integer_gemv_is_bit_exact_under_pot_scales(
        seed in 0u64..10_000,
        inf in 1usize..96,
        outf in 1usize..64,
        group in 1usize..48,
    ) {
        // With power-of-two scales neither path performs a rounding
        // f32 operation, so agreement is exact, not approximate.
        let (p, act) = random_problem(seed, inf, outf, group, 4, 4, true);
        let mut scratch = GemvScratch::new();
        let mut int_out = vec![0.0f32; outf];
        let mut ref_out = vec![0.0f32; outf];
        gemv_packed(&p, &act, &mut scratch, &mut int_out).unwrap();
        gemv_reference(&p, &act, &mut ref_out).unwrap();
        prop_assert_eq!(int_out, ref_out);
    }

    #[test]
    fn dispatched_gemv_is_bit_identical_to_scalar(
        seed in 0u64..10_000,
        inf in 1usize..96,
        outf in 1usize..64,
        group in 1usize..48,
        pot in any::<bool>(),
    ) {
        // The runtime-dispatched entry point (AVX2/NEON when built with
        // `--features simd` on capable hardware, scalar otherwise) against
        // the always-scalar oracle. Only the integer accumulate loops are
        // vectorized — one exact integer add per output element, and the
        // f32 rescale stays scalar on both paths — so agreement is
        // bit-exact for *any* scale mode, not just PoT.
        let (p, act) = random_problem(seed, inf, outf, group, 4, 4, pot);
        let mut s1 = GemvScratch::new();
        let mut s2 = GemvScratch::new();
        let mut dispatched = vec![0.0f32; outf];
        let mut scalar = vec![0.0f32; outf];
        gemv_packed(&p, &act, &mut s1, &mut dispatched).unwrap();
        gemv_packed_scalar(&p, &act, &mut s2, &mut scalar).unwrap();
        prop_assert_eq!(dispatched, scalar);
    }

    #[test]
    fn dispatched_gemm_is_bit_identical_to_scalar(
        seed in 0u64..10_000,
        inf in 1usize..64,
        outf in 1usize..48,
        group in 1usize..32,
        batch in 1usize..5,
        pot in any::<bool>(),
    ) {
        let (p, acts, _) = random_rows(seed, inf, outf, group, batch, 4, pot, false);
        let mut dispatched = vec![0.0f32; batch * outf];
        let mut scalar = vec![0.0f32; batch * outf];
        gemv_packed(&p, &acts, &mut GemvScratch::new(), &mut dispatched).unwrap();
        gemv_packed_scalar(&p, &acts, &mut GemvScratch::new(), &mut scalar).unwrap();
        prop_assert_eq!(dispatched, scalar);
    }

    #[test]
    fn gemm_is_value_identical_to_gemv(
        seed in 0u64..10_000,
        inf in 1usize..96,
        outf in 1usize..64,
        group in 1usize..64,
        batch in 1usize..9,
        eight_bit in any::<bool>(),
        pot in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        // 8-bit activations with groups above 36 overflow the i16 proof,
        // so the range covers both accumulator widths; `sparse` zeroes
        // most activations so whole rows and groups skip.
        let abits = if eight_bit { 8 } else { 4 };
        let (p, acts, xs) = random_rows(seed, inf, outf, group, batch, abits, pot, sparse);
        let expect = per_row(&p, &xs, inf, per_group(abits, group, pot));
        let mut scratch = GemvScratch::new();
        let mut dispatched = vec![0.0f32; batch * outf];
        gemv_packed(&p, &acts, &mut scratch, &mut dispatched).unwrap();
        prop_assert_eq!(&dispatched, &expect);
        // The same scratch again, on the pinned-scalar loops.
        let mut scalar = vec![0.0f32; batch * outf];
        gemv_packed_scalar(&p, &acts, &mut scratch, &mut scalar).unwrap();
        prop_assert_eq!(&scalar, &expect);
    }

    #[test]
    fn model_integer_decode_tracks_fake_quant_oracle(
        seed in 0u64..200,
        group in prop_oneof![Just(8usize), Just(16), Just(32)],
    ) {
        // Full-model version of the kernel agreement: one weight set,
        // both execution modes, logits within a tight relative band.
        let model =
            MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(seed)).unwrap();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q_int = QuantizedMamba::new(prepared, Precision::w4a4(group)).unwrap();
        prop_assert_eq!(q_int.exec_mode(), ExecMode::Integer);
        let q_fake = q_int.clone().with_exec_mode(ExecMode::FakeQuant).unwrap();
        prop_assert!(q_int.shares_weights_with(&q_fake));
        let mut s_int = q_int.new_state();
        let mut s_fake = q_fake.new_state();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..6 {
            let t = rng.gen_range(0u32..256);
            let li = q_int.forward_step_with(t, &mut s_int).unwrap();
            let lf = q_fake.forward_step_with(t, &mut s_fake).unwrap();
            let scale = lf.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
            for (a, b) in li.iter().zip(lf.iter()) {
                prop_assert!((a - b).abs() <= 1e-3 * scale, "{} vs {}", a, b);
            }
        }
    }
}
