//! Release-only pin of the worker-pool scaling claim: sharding a
//! batch-16 integer-W4A4 decode across 4 threads must reach ≥2.5× the
//! single-thread tokens/s (the `bench_decode --threads` headline).
//!
//! The pin self-skips on debug builds (kernel timings there measure
//! bounds checks, not weight streaming) and on hosts with fewer than 4
//! cores (the pool would just time-slice one core) — so `cargo test`
//! stays green everywhere while `cargo test --release` on a multi-core
//! box enforces the scaling floor.

use std::time::Instant;

use lightmamba_model::{advance, AdvanceWorkspace, LogitsBuf, MambaConfig, MambaModel, ModelState};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::qmodel::{ExecMode, Precision, QuantScratch};
use lightmamba_quant::{PreparedModel, QuantizedMamba};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 16;
const WARMUP: usize = 6;
const STEPS: usize = 24;

/// Decode tokens/s of batch-`BATCH` single-token advances on `pool`.
fn tok_s(
    q: &QuantizedMamba,
    vocab: usize,
    states: &mut [ModelState],
    pool: &WorkerPool,
    ws: &mut AdvanceWorkspace<QuantScratch>,
) -> f64 {
    for st in states.iter_mut() {
        st.reset();
    }
    // Every tick's tokens, laid out before the clock starts.
    let tokens: Vec<u32> = (0..WARMUP + STEPS)
        .flat_map(|t| (0..BATCH).map(move |k| ((t * 7 + k * 13) % vocab) as u32))
        .collect();
    let ticks: Vec<Vec<(usize, &[u32])>> = tokens
        .chunks(BATCH)
        .map(|tick| {
            tick.iter()
                .enumerate()
                .map(|(k, t)| (k, std::slice::from_ref(t)))
                .collect()
        })
        .collect();
    let mut out = LogitsBuf::new();
    for items in &ticks[..WARMUP] {
        advance(q, items, states, pool, ws, &mut out).unwrap();
    }
    let start = Instant::now();
    for items in &ticks[WARMUP..] {
        advance(q, items, states, pool, ws, &mut out).unwrap();
    }
    (BATCH * STEPS) as f64 / start.elapsed().as_secs_f64()
}

#[test]
fn four_thread_integer_decode_reaches_2_5x() {
    if cfg!(debug_assertions) {
        eprintln!("skipping scaling pin: debug build");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping scaling pin: host has {cores} core(s), need 4");
        return;
    }

    // The bench_decode host model: big enough that per-step weight
    // streaming dominates, small enough to run in seconds.
    let cfg = MambaConfig {
        d_model: 256,
        n_layer: 4,
        d_state: 64,
        d_conv: 4,
        expand: 2,
        headdim: 64,
        ngroups: 1,
        vocab_size: 2048,
    };
    let model = MambaModel::synthetic(cfg.clone(), &mut StdRng::seed_from_u64(7)).unwrap();
    let prepared = PreparedModel::from_reference(&model).unwrap();
    let q = QuantizedMamba::new(prepared, Precision::w4a4(128)).unwrap();
    assert_eq!(q.exec_mode(), ExecMode::Integer);

    let mut states: Vec<ModelState> = (0..BATCH).map(|_| q.new_state()).collect();
    let mut seq_ws = AdvanceWorkspace::new();
    let seq = tok_s(
        &q,
        cfg.vocab_size,
        &mut states,
        &WorkerPool::new(1),
        &mut seq_ws,
    );

    let pool = WorkerPool::new(4);
    let mut par_ws = AdvanceWorkspace::new();
    // Best of 3: one scheduler hiccup on a shared runner must not fail
    // the floor.
    let par = (0..3)
        .map(|_| tok_s(&q, cfg.vocab_size, &mut states, &pool, &mut par_ws))
        .fold(0.0f64, f64::max);

    let scaling = par / seq;
    assert!(
        scaling >= 2.5,
        "4-thread integer decode reached only {scaling:.2}x single-thread \
         ({par:.0} vs {seq:.0} tok/s) at batch {BATCH}"
    );
}
