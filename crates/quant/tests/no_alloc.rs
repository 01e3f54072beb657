//! Pins the quantized hot-path contract: steady-state batched advance
//! on a one-thread pool — on both the packed-integer path and the
//! fake-quant oracle path — performs **zero heap allocations**, for
//! single-token and multi-token items alike. A counting global
//! allocator wraps the system allocator; after warm-up the counter must
//! not move.
//! Two schedules are pinned: items of one to three tokens, and a
//! ragged mixed batch of one 4-token prefill chunk plus decode items
//! (which exercises the per-position row gather and the staged head
//! output).
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{
    advance, AdvanceWorkspace, LogitsBuf, MambaConfig, MambaModel, ModelState, StepKernels,
};
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

/// A ragged mixed batch per step: item `t % batch` feeds a 4-token
/// prefill chunk and every other item one decode token, so the
/// chunk's position moves through the batch.
fn mixed_table(steps: usize, batch: usize, vocab: usize) -> Vec<Vec<Vec<u32>>> {
    (0..steps)
        .map(|t| {
            (0..batch)
                .map(|k| {
                    let len = if k == t % batch { 4 } else { 1 };
                    (0..len)
                        .map(|j| ((t * 13 + k * 7 + j) % vocab) as u32)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Advances 3 fresh states through `table` on a 1-thread
/// pool and returns the allocations made after the first 3 (warm-up)
/// steps.
fn allocs_after_warmup<K: StepKernels>(
    kernels: &K,
    new_state: impl Fn() -> ModelState,
    table: &[Vec<Vec<u32>>],
) -> usize {
    let pool = WorkerPool::new(1);
    let mut states: Vec<_> = (0..3).map(|_| new_state()).collect();
    let mut ws = AdvanceWorkspace::new();
    let mut out = LogitsBuf::new();
    let schedule: Vec<Vec<(usize, &[u32])>> = table
        .iter()
        .map(|step| step.iter().enumerate().map(|(k, t)| (k, &t[..])).collect())
        .collect();
    let mut before = 0;
    for (t, items) in schedule.iter().enumerate() {
        if t == 3 {
            before = ALLOCS.load(Ordering::SeqCst);
        }
        if advance(kernels, items, &mut states, &pool, &mut ws, &mut out).is_err() {
            panic!("advance failed at step {t}");
        }
        assert_eq!(out.rows(), 3);
    }
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_quantized_decode_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let prepared = PreparedModel::from_reference(&model).unwrap();
    let q_int = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
    assert_eq!(q_int.exec_mode(), ExecMode::Integer);
    let q_fake = q_int.clone().with_exec_mode(ExecMode::FakeQuant).unwrap();
    for (q, label) in [(&q_int, "integer-W4A4"), (&q_fake, "fake-quant oracle")] {
        let ragged = allocs_after_warmup(q, || q.new_state(), &token_table(40, 3, 256));
        assert_eq!(
            ragged, 0,
            "steady-state {label} advance allocated {ragged} times over 37 steps"
        );
        let mixed = allocs_after_warmup(q, || q.new_state(), &mixed_table(40, 3, 256));
        assert_eq!(
            mixed, 0,
            "steady-state {label} chunk+decode advance allocated {mixed} times over 37 steps"
        );
    }
}
