//! The two traffic loops. Each times only its own calls into the
//! serving stack and records what it saw per request.
//!
//! * [`open_loop`] steps a [`ServeEngine`] on this thread, submitting
//!   each request when it is due and timestamping `take_events()` after
//!   every `step`.
//! * [`frontend_burst`] submits a closed burst through
//!   [`run_frontend`] and drains the token streams from one client
//!   thread.

use std::time::{Duration, Instant};

use lightmamba_serve::engine::{ServeEngine, StepEvent};
use lightmamba_serve::frontend::{run_frontend, FrontendConfig, StreamEvent, TokenStream};
use lightmamba_serve::observe::{EngineObs, ObsConfig};
use lightmamba_serve::request::FinishReason;
use lightmamba_serve::scheduler::Fifo;
use lightmamba_serve::ServeError;

use crate::alloc::{self, Snapshot};
use crate::stack::{gen_request, PREFILL_CHUNK, SLOTS};
use crate::workload::ReqSpec;

/// How long past the last arrival a run may drain before its
/// unfinished requests count as failed.
const DRAIN_LIMIT_S: f64 = 90.0;

/// Steps before this point of a run are warm-up for allocation counts.
const WARMUP_S: f64 = 1.0;

/// What the traffic loop saw of one request. Times are seconds since the run
/// started.
#[derive(Debug, Clone, Default)]
pub struct ReqTiming {
    /// When the request was due.
    pub due_s: f64,
    /// When its `Started` event was seen.
    pub started_s: Option<f64>,
    /// When its first token was seen.
    pub first_s: Option<f64>,
    /// When its latest token was seen.
    pub last_s: Option<f64>,
    /// Largest gap between two of its consecutive tokens.
    pub max_gap_s: f64,
    /// Tokens seen.
    pub tokens: usize,
    /// Whether it completed with every requested token.
    pub completed: bool,
}

/// One driven run.
pub struct Served {
    /// Per request, in generation order.
    pub reqs: Vec<ReqTiming>,
    /// Output tokens per request (empty when it did not complete).
    pub outputs: Vec<Vec<u32>>,
    /// Every gap between consecutive tokens of a request, in ms.
    pub itl_ms: Vec<f64>,
    /// Run start to the last completion, in seconds.
    pub wall_s: f64,
    /// Engine steps executed.
    pub steps: u64,
    /// Durations of the loop's own `step` calls, in µs (open loop).
    pub step_us: Vec<f64>,
    /// How late each request was submitted, in ms.
    pub lag_ms: Vec<f64>,
    /// Requests submitted but not completed at the last submission.
    pub outstanding_at_last_arrival: usize,
    /// Durations of `FrontendHandle::submit` calls, in µs (frontend).
    pub submit_us: Vec<f64>,
    /// Stream events the client received (frontend).
    pub events: u64,
    /// Prefix-cache hits and misses.
    pub prefix: (u64, u64),
    /// The engine's observability layer (traced runs).
    pub obs: Option<Box<EngineObs>>,
    /// Allocations over the steady-state window and the engine steps
    /// in it (traced runs).
    pub steady_allocs: Option<(Snapshot, u64)>,
    /// Net heap growth over the whole run, in bytes (traced runs).
    pub heap_growth: Option<i64>,
}

/// The observability layer of a traced run, with room for every span
/// of a run of `seconds`.
pub fn obs_config(seconds: u64) -> ObsConfig {
    ObsConfig {
        span_capacity: (seconds as usize * 16_384).max(65_536),
        ..ObsConfig::default()
    }
}

impl ReqTiming {
    fn on_token(&mut self, t: f64, itl_ms: &mut Vec<f64>) {
        match self.last_s {
            Some(last) => {
                let gap = t - last;
                itl_ms.push(gap * 1e3);
                self.max_gap_s = self.max_gap_s.max(gap);
            }
            None => self.first_s = Some(t),
        }
        self.last_s = Some(t);
        self.tokens += 1;
    }
}

fn timings(reqs: &[ReqSpec]) -> Vec<ReqTiming> {
    reqs.iter()
        .map(|r| ReqTiming {
            due_s: r.due_us as f64 / 1e6,
            ..ReqTiming::default()
        })
        .collect()
}

/// Drives `engine` on this thread, submitting each request of `reqs`
/// when it is due (`arrival_step = engine.clock()`). With `traced`, the
/// engine's observability layer and the counting allocator are on.
pub fn open_loop(
    mut engine: ServeEngine<'_>,
    reqs: &[ReqSpec],
    traced: bool,
    seconds: u64,
) -> Result<Served, ServeError> {
    let n = reqs.len();
    let mut timing = timings(reqs);
    // Everything the loop appends to is reserved up front, so the
    // traced run's heap growth is the engine's alone.
    let mut itl_ms = Vec::with_capacity(reqs.iter().map(|r| r.max_new).sum());
    let mut lag_ms = Vec::with_capacity(n);
    let mut step_us = Vec::with_capacity(seconds as usize * 4_000 + 100_000);
    if traced {
        engine.enable_obs(obs_config(seconds));
    }
    engine.enable_events();
    let mut policy = Fifo;
    alloc::set_counting(traced);
    let heap_start = Snapshot::now();
    let mut steady = Snapshot::default();
    let mut steady_steps = 0u64;
    let mut outstanding_at_last_arrival = 0;
    let mut seen = 0; // cursor into engine.completions()
    let mut done = 0;
    let mut next = 0;
    let mut wall_s = 0.0;
    let t0 = Instant::now();
    let last_due = timing.last().map_or(0.0, |t| t.due_s);

    loop {
        let now = t0.elapsed().as_secs_f64();
        while next < n && timing[next].due_s <= now {
            let mut r = gen_request(next, &reqs[next]);
            r.arrival_step = engine.clock();
            engine.submit(vec![r])?;
            lag_ms.push((t0.elapsed().as_secs_f64() - timing[next].due_s) * 1e3);
            next += 1;
            if next == n {
                outstanding_at_last_arrival = n - done;
            }
        }
        if engine.has_work() {
            let before = Snapshot::now();
            let start = Instant::now();
            engine.step(&mut policy)?;
            let end = t0.elapsed().as_secs_f64();
            step_us.push(start.elapsed().as_secs_f64() * 1e6);
            if traced && end >= WARMUP_S {
                let d = Snapshot::now().since(before);
                steady.allocs += d.allocs;
                steady.alloc_bytes += d.alloc_bytes;
                steady.freed_bytes += d.freed_bytes;
                steady_steps += 1;
            }
            for ev in engine.take_events() {
                match ev {
                    StepEvent::Started { id, .. } => timing[id as usize].started_s = Some(end),
                    StepEvent::Token { id, .. } => timing[id as usize].on_token(end, &mut itl_ms),
                }
            }
            for c in &engine.completions()[seen..] {
                let r = &mut timing[c.id as usize];
                r.completed = c.finish == FinishReason::MaxTokens
                    && c.tokens.len() == reqs[c.id as usize].max_new
                    && r.tokens == c.tokens.len();
                done += 1;
                wall_s = end;
            }
            seen = engine.completions().len();
            if end > last_due + DRAIN_LIMIT_S {
                break;
            }
        } else if next < n {
            let wait = timing[next].due_s - t0.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
        } else {
            break;
        }
    }
    let heap_growth = Snapshot::now().since(heap_start).net_bytes();
    alloc::set_counting(false);

    let mut outputs = vec![Vec::new(); n];
    for c in engine.completions() {
        if timing[c.id as usize].completed {
            outputs[c.id as usize] = c.tokens.clone();
        }
    }
    let prefix = engine
        .prefix_cache()
        .map_or((0, 0), |p| (p.hits(), p.misses()));
    Ok(Served {
        reqs: timing,
        outputs,
        itl_ms,
        wall_s,
        steps: engine.clock(),
        step_us,
        lag_ms,
        outstanding_at_last_arrival,
        submit_us: Vec::new(),
        events: 0,
        prefix,
        obs: engine.take_obs(),
        steady_allocs: traced.then_some((steady, steady_steps)),
        heap_growth: traced.then_some(heap_growth),
    })
}

/// What the frontend client hands back.
struct ClientOut {
    timing: Vec<ReqTiming>,
    outputs: Vec<Vec<u32>>,
    itl_ms: Vec<f64>,
    wall_s: f64,
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    events: u64,
    window: Snapshot,
}

/// Submits every request of `reqs` at once through [`run_frontend`] and
/// drains the streams from this thread.
///
/// `recv` blocks, so the client must not wait on a stream that has
/// nothing coming while others fill. It reads the oldest [`SLOTS`]
/// unfinished streams (under FIFO admission, the resident requests),
/// always the one whose next event is due at the earliest engine step:
/// a decoding stream one step after its last token, a prefilling one
/// at the step of its last prompt chunk. Each event is then read within
/// about one step of being sent.
pub fn frontend_burst(
    engine: ServeEngine<'_>,
    reqs: &[ReqSpec],
    traced: bool,
    seconds: u64,
) -> Result<Served, ServeError> {
    let n = reqs.len();
    let cfg = FrontendConfig {
        // Queued + Started + every token + the terminal event: the
        // engine thread must never block on an unread stream.
        stream_capacity: reqs.iter().map(|r| r.max_new).max().unwrap_or(0) + 3,
        session_capacity: 1,
        obs: traced.then(|| obs_config(seconds)),
    };
    let (client, run) = run_frontend(engine, Box::new(Fifo), cfg, |handle| {
        let mut timing = timings(reqs);
        let mut outputs: Vec<Vec<u32>> =
            reqs.iter().map(|r| Vec::with_capacity(r.max_new)).collect();
        let mut itl_ms = Vec::with_capacity(reqs.iter().map(|r| r.max_new).sum());
        let mut lag_ms = Vec::with_capacity(n);
        let mut submit_us = Vec::with_capacity(n);
        let mut streams: Vec<Option<TokenStream>> = Vec::with_capacity(n);
        let mut window: Vec<(usize, u64)> = Vec::with_capacity(SLOTS);
        alloc::set_counting(traced);
        let heap_start = Snapshot::now();
        let t0 = Instant::now();
        for (i, spec) in reqs.iter().enumerate() {
            let req = gen_request(i, spec);
            let start = Instant::now();
            streams.push(Some(handle.submit(req)?));
            submit_us.push(start.elapsed().as_secs_f64() * 1e6);
            lag_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        drop(handle);
        // Resident streams as (request, step its next event is due).
        window.extend((0..n.min(SLOTS)).map(|i| (i, 0)));
        let mut next = window.len();
        let mut step = 0; // latest engine step seen in any event
        let mut events = 0u64;
        let mut wall_s = 0.0;
        while let Some(k) = (0..window.len()).min_by_key(|&k| window[k].1) {
            let i = window[k].0;
            let stream = streams[i].as_mut().expect("windowed streams are open");
            let ev = stream.recv();
            let t = t0.elapsed().as_secs_f64();
            events += 1;
            let r = &mut timing[i];
            let due = match ev {
                Some(StreamEvent::Queued { .. }) => Some(step + 1),
                Some(StreamEvent::Started { step: s }) => {
                    r.started_s = Some(t);
                    step = step.max(s);
                    // The first token comes with the last prompt chunk.
                    Some(s + reqs[i].prompt.len().div_ceil(PREFILL_CHUNK) as u64 - 1)
                }
                Some(StreamEvent::Token { token, step: s }) => {
                    r.on_token(t, &mut itl_ms);
                    outputs[i].push(token);
                    step = step.max(s);
                    Some(s + 1)
                }
                Some(StreamEvent::Done(c)) => {
                    r.completed = c.finish == FinishReason::MaxTokens
                        && c.tokens == outputs[i]
                        && outputs[i].len() == reqs[i].max_new;
                    wall_s = t;
                    None
                }
                Some(_) | None => None,
            };
            match due {
                Some(due) => window[k].1 = due,
                None => {
                    streams[i] = None;
                    window.swap_remove(k);
                    if next < n {
                        window.push((next, step));
                        next += 1;
                    }
                }
            }
        }
        let window = Snapshot::now().since(heap_start);
        alloc::set_counting(false);
        for (out, r) in outputs.iter_mut().zip(&timing) {
            if !r.completed {
                out.clear();
            }
        }
        Ok::<_, ServeError>(ClientOut {
            timing,
            outputs,
            itl_ms,
            wall_s,
            lag_ms,
            submit_us,
            events,
            window,
        })
    })?;
    let c = client?;
    let steps = run.report.steps;
    Ok(Served {
        reqs: c.timing,
        outputs: c.outputs,
        itl_ms: c.itl_ms,
        wall_s: c.wall_s,
        steps,
        step_us: Vec::new(),
        lag_ms: c.lag_ms,
        outstanding_at_last_arrival: n,
        submit_us: c.submit_us,
        events: c.events,
        prefix: (run.prefix_hits, run.prefix_misses),
        obs: run.obs,
        steady_allocs: traced.then_some((c.window, steps)),
        heap_growth: traced.then_some(c.window.net_bytes()),
    })
}
