//! Pins the backend seam's hot-path contract: steady-state
//! [`DecodeBackend::advance_into`] on both shipped backends performs
//! **zero heap allocations**, on one- and four-thread pools, with
//! chunked-prefill items (several tokens each) riding next to decode
//! items (one token). Logits land in the caller's reused buffer, so no
//! per-position vector or logits clone is made.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{LogitsBuf, MambaConfig, MambaModel};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_serve::backend::{DecodeBackend, FpBackend, W4A4Backend};
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

fn drive(backend: &dyn DecodeBackend, threads: usize) {
    let batch = 5;
    let steps = 30;
    let pool = WorkerPool::new(threads);
    let mut out = LogitsBuf::new();
    let mut states: Vec<_> = (0..batch).map(|_| backend.new_state()).collect();
    // Item `k` of step `t` feeds a chunk of one to four tokens.
    let table: Vec<Vec<Vec<u32>>> = (0..steps)
        .map(|t| {
            (0..batch)
                .map(|k| {
                    (0..1 + (t + k) % 4)
                        .map(|j| ((t * 7 + k * 13 + j) % 256) as u32)
                        .collect()
                })
                .collect()
        })
        .collect();
    let schedule: Vec<Vec<(usize, &[u32])>> = table
        .iter()
        .map(|step| step.iter().enumerate().map(|(k, t)| (k, &t[..])).collect())
        .collect();

    for items in &schedule[..3] {
        backend
            .advance_into(items, &mut states, &pool, &mut out)
            .unwrap();
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for items in &schedule[3..] {
        backend
            .advance_into(items, &mut states, &pool, &mut out)
            .unwrap();
        assert_eq!(out.rows(), batch);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state {} advance_into on {threads} thread(s) allocated {} times over {} steps",
        backend.name(),
        after - before,
        steps - 3
    );
}

#[test]
fn steady_state_backend_advance_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
    let fp = FpBackend::new(&model);
    let w4 = W4A4Backend::new(q);
    for threads in [1, 4] {
        drive(&fp, threads);
        drive(&w4, threads);
    }
}
