//! Pins the threaded quantized hot-path contract: steady-state batched
//! integer-W4A4 advance sharded across a 4-thread worker pool performs
//! **zero heap allocations** on every participating thread, for
//! single-token and multi-token items alike. A counting global
//! allocator wraps the system allocator; after warm-up (each shard's
//! private workspace has grown to its shapes) the counter must not
//! move.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{advance, AdvanceWorkspace, LogitsBuf, MambaConfig, MambaModel};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::qmodel::{ExecMode, Precision};
use lightmamba_quant::{PreparedModel, QuantizedMamba};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Token slices for every step: item `k` of step `t` feeds one to three
/// tokens, so each step mixes decode-sized and prefill-chunk items.
fn token_table(steps: usize, batch: usize, vocab: usize) -> Vec<Vec<Vec<u32>>> {
    (0..steps)
        .map(|t| {
            (0..batch)
                .map(|k| {
                    (0..1 + (t + k) % 3)
                        .map(|j| ((t * 11 + k * 5 + j * 3) % vocab) as u32)
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn steady_state_parallel_quantized_decode_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let prepared = PreparedModel::from_reference(&model).unwrap();
    let q = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
    assert_eq!(q.exec_mode(), ExecMode::Integer);

    let batch = 6;
    let pool = WorkerPool::new(4);
    let mut states: Vec<_> = (0..batch).map(|_| q.new_state()).collect();
    let mut ws = AdvanceWorkspace::new();
    let mut out = LogitsBuf::new();
    let table = token_table(40, batch, 256);
    let schedule: Vec<Vec<(usize, &[u32])>> = table
        .iter()
        .map(|step| step.iter().enumerate().map(|(k, t)| (k, &t[..])).collect())
        .collect();

    let mut step = |t: usize, states: &mut [_]| {
        advance(&q, &schedule[t], states, &pool, &mut ws, &mut out).unwrap();
        assert_eq!(out.rows(), batch);
    };

    // Warm-up: per-shard scratch grows to final shapes, pool settles.
    for t in 0..3 {
        step(t, &mut states);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for t in 3..40 {
        step(t, &mut states);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state 4-thread integer-W4A4 advance allocated {} times over 37 steps",
        after - before
    );
}
