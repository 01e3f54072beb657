//! Pins the observability layer's steady-state contract: a fully
//! instrumented decode loop — real batched model advances (one- and
//! four-thread pools, single- and multi-token items) plus counter
//! bumps, histogram observations, span begin/end, and flight-recorder
//! pushes every step — performs **zero heap allocations** once warm.
//! All obs storage is pre-allocated at construction (registry vectors,
//! span buffer, ring buffers), so instrumentation rides the
//! allocation-free serving hot path without reintroducing allocator
//! traffic.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lightmamba_model::{advance, AdvanceWorkspace, LogitsBuf, MambaConfig, MambaModel};
use lightmamba_obs::{FlightRecorder, LifecyclePhase, MetricsRegistry, SpanRecorder, StepRecord};
use lightmamba_pool::WorkerPool;
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

fn drive(model: &MambaModel, threads: usize) {
    let batch = 3;
    let pool = WorkerPool::new(threads);
    let mut states: Vec<_> = (0..batch).map(|_| model.new_state()).collect();
    let mut ws = AdvanceWorkspace::new();
    let mut out = LogitsBuf::new();
    let table = token_table(60, batch, 256);
    let schedule: Vec<Vec<(usize, &[u32])>> = table
        .iter()
        .map(|step| step.iter().enumerate().map(|(k, t)| (k, &t[..])).collect())
        .collect();

    // The full observability surface, sized small enough that the ring
    // wraps and the span buffer fills *inside* the measurement window —
    // eviction and span-drop paths must be allocation-free too.
    let mut metrics = MetricsRegistry::new();
    let steps = metrics.counter("steps_total", "steps");
    let tokens = metrics.counter("tokens_total", "tokens");
    let depth = metrics.gauge("queue_depth", "depth");
    let wall = metrics.histogram("step_wall_us", "wall", &[10.0, 100.0, 1000.0]);
    let mut spans = SpanRecorder::with_capacity(64);
    let mut flight = FlightRecorder::new(8, 16);

    let mut step = |t: usize, states: &mut [_]| {
        let t0 = Instant::now();
        spans.begin("step", "fifo", t as u64);
        spans.begin("advance", "fifo", t as u64);
        advance(model, &schedule[t], states, &pool, &mut ws, &mut out).unwrap();
        spans.end_with([("tokens", batch as f64), ("", 0.0)]);
        spans.end();
        metrics.inc(steps);
        metrics.add(tokens, batch as u64);
        metrics.set(depth, (t % 5) as f64);
        metrics.observe(wall, t0.elapsed().as_secs_f64() * 1e6);
        flight.record_step(StepRecord {
            step: t as u64,
            batch: batch as u32,
            ..StepRecord::default()
        });
        flight.record_lifecycle((t % 4) as u64, t as u64, LifecyclePhase::FirstToken);
    };

    // Warm-up: workspace buffers grow to their final shapes (the obs
    // side is pre-allocated and needs none).
    for t in 0..3 {
        step(t, &mut states);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for t in 3..60 {
        step(t, &mut states);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "instrumented steady-state decode on {threads} thread(s) allocated {} times over 57 steps",
        after - before
    );
    // The window really exercised the bounded paths.
    assert!(flight.steps().evicted() > 0, "step ring wrapped");
    assert!(flight.lifecycle().evicted() > 0, "lifecycle ring wrapped");
    assert!(spans.dropped() > 0, "span buffer filled and dropped");
    assert_eq!(metrics.counter_value(steps), 60);
}

#[test]
fn instrumented_steady_state_decode_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    drive(&model, 1);
    drive(&model, 4);
}
