//! Property-based tests for the tensor substrate.

use lightmamba_tensor::{activation, norm, ops, stats, Tensor};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c).prop_map(move |v| (r, c, v))
    })
}

/// `n` deterministic pseudo-random values in `[-2, 2)` from `seed`;
/// with `sparse`, about half of them are exactly zero.
fn values(seed: u64, n: usize, sparse: bool) -> Vec<f32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if sparse && z & 1 == 0 {
                0.0
            } else {
                (z >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
            }
        })
        .collect()
}

/// One serial sum per output in index order: the plain `matvec` loop the
/// blocked kernel must reproduce bit for bit.
fn serial_matvec(a: &[f32], k: usize, x: &[f32]) -> Vec<f32> {
    a.chunks(k)
        .map(|row| {
            let mut acc = 0.0f32;
            for (&w, &v) in row.iter().zip(x) {
                acc += w * v;
            }
            acc
        })
        .collect()
}

/// The plain activation-outer `vecmat` loop (zero activations skipped).
fn serial_vecmat(a: &[f32], n: usize, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    for (row, &xv) in a.chunks(n).zip(x) {
        if xv == 0.0 {
            continue;
        }
        for (o, &w) in out.iter_mut().zip(row) {
            *o += xv * w;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_matvec_matches_per_row_and_serial_bitwise(
        seed in 0u64..10_000,
        m in 1usize..40,
        // Past 256 the row tiles transpose the input in two depth chunks.
        k in prop_oneof![1usize..24, 250usize..300],
        rows in 1usize..10,
        sparse in any::<bool>(),
    ) {
        let a = Tensor::from_vec(values(seed, m * k, false), &[m, k]).unwrap();
        let xs = values(seed ^ 0xA5A5, rows * k, sparse);
        let mut batched = vec![f32::NAN; rows * m];
        a.matvec_rows_into(&xs, &mut batched).unwrap();
        for (x, got) in xs.chunks(k).zip(batched.chunks(m)) {
            let mut single = vec![f32::NAN; m];
            a.matvec_into(x, &mut single).unwrap();
            prop_assert_eq!(got, &single[..]);
            prop_assert_eq!(got, &serial_matvec(a.data(), k, x)[..]);
        }
    }

    #[test]
    fn row_vecmat_matches_per_row_and_serial_bitwise(
        seed in 0u64..10_000,
        k in 1usize..40,
        // Crosses the 256-column tile with a ragged last tile.
        n in prop_oneof![1usize..24, 250usize..300],
        rows in 1usize..10,
        sparse in any::<bool>(),
    ) {
        let a = Tensor::from_vec(values(seed, k * n, false), &[k, n]).unwrap();
        let xs = values(seed ^ 0x5A5A, rows * k, sparse);
        let mut batched = vec![f32::NAN; rows * n];
        a.vecmat_rows_into(&xs, &mut batched).unwrap();
        for (x, got) in xs.chunks(k).zip(batched.chunks(n)) {
            let mut single = vec![f32::NAN; n];
            a.vecmat_into(x, &mut single).unwrap();
            prop_assert_eq!(got, &single[..]);
            prop_assert_eq!(got, &serial_vecmat(a.data(), n, x)[..]);
        }
    }
}

proptest! {
    #[test]
    fn matmul_identity_is_noop((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        let out = a.matmul(&Tensor::eye(c)).unwrap();
        for (x, y) in a.data().iter().zip(out.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        (r, c, d1) in small_matrix(),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_vec(d1, &[r, c]).unwrap();
        let b = Tensor::from_fn(&[c, 3], |_| rng.gen_range(-10.0..10.0));
        let cmat = Tensor::from_fn(&[c, 3], |_| rng.gen_range(-10.0..10.0));
        let lhs = a.matmul(&b.add(&cmat).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&cmat).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-1, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_is_involution((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn vecmat_matches_matmul_row(
        (r, c, data, row_vals) in small_matrix().prop_flat_map(|(r, c, data)| {
            proptest::collection::vec(-10.0f32..10.0, r).prop_map(move |v| (r, c, data.clone(), v))
        })
    ) {
        let w = Tensor::from_vec(data, &[r, c]).unwrap();
        let via_vecmat = w.vecmat(&row_vals).unwrap();
        let x = Tensor::from_vec(row_vals, &[1, r]).unwrap();
        let via_matmul = x.matmul(&w).unwrap();
        for (a, b) in via_vecmat.iter().zip(via_matmul.data().iter()) {
            prop_assert!((a - b).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_is_probability_vector(xs in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
        let p = activation::softmax(&xs);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn kl_is_nonnegative(
        a in proptest::collection::vec(0.01f32..10.0, 4),
        b in proptest::collection::vec(0.01f32..10.0, 4),
    ) {
        let pa = activation::softmax(&a);
        let pb = activation::softmax(&b);
        prop_assert!(stats::kl_divergence(&pa, &pb) >= -1e-6);
    }

    #[test]
    fn rms_norm_unscaled_gives_unit_rms(mut xs in proptest::collection::vec(-100.0f32..100.0, 2..64)) {
        prop_assume!(xs.iter().any(|&v| v.abs() > 1e-3));
        norm::rms_norm_unscaled(&mut xs, 0.0);
        prop_assert!((norm::rms(&xs, 0.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn silu_bounded_relative_to_input(x in -100.0f32..100.0) {
        let y = activation::silu(x);
        prop_assert!(y.abs() <= x.abs() + 1e-6);
        prop_assert!(y >= -0.279);
    }

    #[test]
    fn outer_accumulate_matches_matmul(
        a in proptest::collection::vec(-5.0f32..5.0, 1..6),
        b in proptest::collection::vec(-5.0f32..5.0, 1..6),
    ) {
        let mut out = vec![0.0f32; a.len() * b.len()];
        ops::outer_accumulate(&mut out, &a, &b, 2.0);
        let am = Tensor::from_vec(a.clone(), &[a.len(), 1]).unwrap();
        let bm = Tensor::from_vec(b.clone(), &[1, b.len()]).unwrap();
        let reference = am.matmul(&bm).unwrap().scale(2.0);
        for (x, y) in out.iter().zip(reference.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }
}
