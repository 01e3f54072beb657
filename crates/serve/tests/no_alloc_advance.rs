//! Pins the backend seam's hot-path contract: steady-state
//! [`DecodeBackend::advance_into`] on both shipped backends performs
//! **zero heap allocations**, on one- and four-thread pools, with
//! chunked-prefill items (several tokens each) riding next to decode
//! items (one token), including a ragged mixed batch of one 4-token
//! prefill chunk plus decode items. Logits land in the caller's reused
//! buffer, so no per-position vector or logits clone is made.
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

/// Item `k` of step `t` feeds a chunk of one to four tokens.
fn chunk_table(steps: usize, batch: usize) -> Vec<Vec<Vec<u32>>> {
    (0..steps)
        .map(|t| {
            (0..batch)
                .map(|k| {
                    (0..1 + (t + k) % 4)
                        .map(|j| ((t * 7 + k * 13 + j) % 256) as u32)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Item `t % batch` of step `t` feeds a 4-token prefill chunk, every
/// other item one decode token.
fn mixed_table(steps: usize, batch: usize) -> Vec<Vec<Vec<u32>>> {
    (0..steps)
        .map(|t| {
            (0..batch)
                .map(|k| {
                    let len = if k == t % batch { 4 } else { 1 };
                    (0..len)
                        .map(|j| ((t * 11 + k * 5 + j) % 256) as u32)
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn drive(backend: &dyn DecodeBackend, threads: usize, table: &[Vec<Vec<u32>>], label: &str) {
    let batch = table[0].len();
    let pool = WorkerPool::new(threads);
    let mut out = LogitsBuf::new();
    let mut states: Vec<_> = (0..batch).map(|_| backend.new_state()).collect();
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
        "steady-state {} {label} advance_into on {threads} thread(s) allocated {} times over {} steps",
        backend.name(),
        after - before,
        schedule.len() - 3
    );
}

#[test]
fn steady_state_backend_advance_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
    let fp = FpBackend::new(&model);
    let w4 = W4A4Backend::new(q);
    let (chunks, mixed) = (chunk_table(30, 5), mixed_table(30, 5));
    for threads in [1, 4] {
        for backend in [&fp as &dyn DecodeBackend, &w4] {
            drive(backend, threads, &chunks, "chunked");
            drive(backend, threads, &mixed, "chunk+decode");
        }
    }
}
