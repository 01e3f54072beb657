//! Property-based tests for the Mamba2 substrate.

use lightmamba_model::ssm::{head_coeffs, ssm_step, ssm_step_into, HeadCoeffs, SsmDims};
use lightmamba_model::{MambaConfig, MambaModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The one-channel-at-a-time SSM head loop (state update and `h·C`
/// fused in one serial chain per channel): the reference the blocked
/// kernel must match bit for bit.
fn serial_head_step(
    state: &mut [f32],
    y_head: &mut [f32],
    x_head: &[f32],
    b: &[f32],
    c: &[f32],
    coeffs: HeadCoeffs,
    d_skip: f32,
) {
    let n = b.len();
    for (p, (&xv, yv)) in x_head.iter().zip(y_head.iter_mut()).enumerate() {
        let row = &mut state[p * n..(p + 1) * n];
        let dtx = coeffs.dt * xv;
        let mut acc = 0.0f32;
        for ((s, &bn), &cn) in row.iter_mut().zip(b.iter()).zip(c.iter()) {
            *s = coeffs.decay * *s + dtx * bn;
            acc += *s * cn;
        }
        *yv = acc + d_skip * xv;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_ssm_step_matches_serial_loop_bitwise(
        seed in 0u64..10_000,
        // Head widths off the 4-channel block leave a tail.
        headdim in 1usize..11,
        d_state in 1usize..70,
        heads_per_group in 1usize..3,
        ngroups in 1usize..3,
        steps in 1usize..4,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = SsmDims { nheads: heads_per_group * ngroups, headdim, d_state, ngroups };
        let mut vals = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect() };
        let a_log = vals(dims.nheads);
        let dt_bias = vals(dims.nheads);
        let d_skip = vals(dims.nheads);
        let mut blocked = vals(dims.state_len());
        let mut serial = blocked.clone();
        for _ in 0..steps {
            let x = vals(dims.inner_len());
            let b = vals(dims.bc_len());
            let c = vals(dims.bc_len());
            let dt_raw = vals(dims.nheads);
            let mut y = vec![f32::NAN; dims.inner_len()];
            ssm_step_into(dims, &x, &b, &c, &dt_raw, &a_log, &dt_bias, &d_skip, &mut blocked, &mut y)
                .unwrap();
            let (p, n) = (headdim, d_state);
            let mut y_ref = vec![f32::NAN; dims.inner_len()];
            for h in 0..dims.nheads {
                let g = h / heads_per_group;
                serial_head_step(
                    &mut serial[h * p * n..(h + 1) * p * n],
                    &mut y_ref[h * p..(h + 1) * p],
                    &x[h * p..(h + 1) * p],
                    &b[g * n..(g + 1) * n],
                    &c[g * n..(g + 1) * n],
                    head_coeffs(dt_raw[h], dt_bias[h], a_log[h]),
                    d_skip[h],
                );
            }
            prop_assert_eq!(&y, &y_ref);
            prop_assert_eq!(&blocked, &serial);
        }
    }

    #[test]
    fn decay_always_in_unit_interval(raw in -20.0f32..20.0, bias in -5.0f32..5.0, a_log in -3.0f32..3.0) {
        let c = head_coeffs(raw, bias, a_log);
        // decay = exp(-A·Δ) ∈ [0, 1]; it underflows to exactly 0 in f32
        // for very large A·Δ, which hardware also clamps to zero.
        prop_assert!(c.decay >= 0.0 && c.decay <= 1.0, "decay {}", c.decay);
        prop_assert!(c.dt >= 0.0 && c.dt.is_finite());
    }

    #[test]
    fn ssm_output_is_finite_and_linear_in_c(
        seed in 0u64..100,
        scale in 0.1f32..4.0,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = SsmDims { nheads: 2, headdim: 3, d_state: 4, ngroups: 1 };
        let x: Vec<f32> = (0..dims.inner_len()).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let b: Vec<f32> = (0..dims.bc_len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let c: Vec<f32> = (0..dims.bc_len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let dt = vec![0.5f32; 2];
        let a_log = vec![0.3f32; 2];
        let dt_bias = vec![0.0f32; 2];
        let d_skip = vec![0.0f32; 2];

        // Same state evolution, C scaled -> y scales identically (readout
        // is linear in C when D = 0).
        let mut s1 = vec![0.1f32; dims.state_len()];
        let mut s2 = s1.clone();
        let y1 = ssm_step(dims, &x, &b, &c, &dt, &a_log, &dt_bias, &d_skip, &mut s1).unwrap();
        let c_scaled: Vec<f32> = c.iter().map(|v| v * scale).collect();
        let y2 = ssm_step(dims, &x, &b, &c_scaled, &dt, &a_log, &dt_bias, &d_skip, &mut s2).unwrap();
        for (a, b2) in y1.iter().zip(y2.iter()) {
            prop_assert!(a.is_finite());
            prop_assert!((a * scale - b2).abs() < 1e-3 + scale * 1e-4, "{a} vs {b2}");
        }
        // State evolution is independent of C.
        for (a, b2) in s1.iter().zip(s2.iter()) {
            prop_assert!((a - b2).abs() < 1e-6);
        }
    }

    #[test]
    fn state_norm_is_bounded_under_bounded_input(seed in 0u64..50) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = SsmDims { nheads: 1, headdim: 2, d_state: 4, ngroups: 1 };
        let b: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let c = vec![0.5f32; 4];
        let dt = [rng.gen_range(-1.0f32..2.0)];
        let a_log = [rng.gen_range(0.0f32..2.0)];
        let dt_bias = [0.0f32];
        let d_skip = [0.0f32];
        let mut state = vec![0.0f32; dims.state_len()];
        // With |x| <= 1, the state is a geometric series bounded by
        // dt·|B| / (1 - decay).
        let coeffs = head_coeffs(dt[0], dt_bias[0], a_log[0]);
        let bound = if coeffs.decay < 1.0 {
            coeffs.dt * 1.0 / (1.0 - coeffs.decay) + 1.0
        } else {
            f32::INFINITY
        };
        for _ in 0..200 {
            let x = [rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)];
            ssm_step(dims, &x, &b, &c, &dt, &a_log, &dt_bias, &d_skip, &mut state).unwrap();
        }
        let max = state.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        prop_assert!(max <= bound, "state {max} exceeds bound {bound}");
    }

    #[test]
    fn prefill_equals_stepwise_for_any_prompt(prompt in proptest::collection::vec(0u32..256, 1..12)) {
        let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(1)).unwrap();
        let mut s1 = model.new_state();
        let via_prefill = model.prefill(&prompt, &mut s1).unwrap();
        let mut s2 = model.new_state();
        let mut last = Vec::new();
        for &t in &prompt {
            last = model.forward_step(t, &mut s2).unwrap();
        }
        prop_assert_eq!(via_prefill, last);
    }

    #[test]
    fn logits_always_finite(token in 0u32..256, seed in 0u64..20) {
        let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(seed)).unwrap();
        let mut state = model.new_state();
        let logits = model.forward_step(token, &mut state).unwrap();
        prop_assert!(logits.iter().all(|v| v.is_finite()));
    }
}
