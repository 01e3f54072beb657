//! Pins the quantized hot-path contract: steady-state batched advance
//! on a one-thread pool — on both the packed-integer path and the
//! fake-quant oracle path — performs **zero heap allocations**, for
//! single-token and multi-token items alike. A counting global
//! allocator wraps the system allocator; after warm-up the counter must
//! not move.
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

fn drive(q: &QuantizedMamba, label: &str) {
    let batch = 3;
    let pool = WorkerPool::new(1);
    let mut states: Vec<_> = (0..batch).map(|_| q.new_state()).collect();
    let mut ws = AdvanceWorkspace::new();
    let mut out = LogitsBuf::new();
    let table = token_table(40, batch, 256);
    let schedule: Vec<Vec<(usize, &[u32])>> = table
        .iter()
        .map(|step| step.iter().enumerate().map(|(k, t)| (k, &t[..])).collect())
        .collect();

    let mut step = |t: usize, states: &mut [_]| {
        advance(q, &schedule[t], states, &pool, &mut ws, &mut out).unwrap();
        assert_eq!(out.rows(), batch);
    };

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
        "steady-state {label} advance allocated {} times over 37 steps",
        after - before
    );
}

#[test]
fn steady_state_quantized_decode_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let prepared = PreparedModel::from_reference(&model).unwrap();
    let q_int = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
    assert_eq!(q_int.exec_mode(), ExecMode::Integer);
    drive(&q_int, "integer-W4A4");
    let q_fake = q_int.with_exec_mode(ExecMode::FakeQuant).unwrap();
    drive(&q_fake, "fake-quant oracle");
}
