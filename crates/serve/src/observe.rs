//! Engine-side observability: the metrics registry, step-phase span
//! tracing, and flight recorder wired into [`crate::engine::ServeEngine`].
//!
//! [`EngineObs`] bundles the three `lightmamba_obs` primitives and owns
//! every engine-specific registration: which counters exist, which
//! histogram buckets latency lands in, which lifecycle transitions the
//! flight recorder keeps. The engine carries an `Option<Box<EngineObs>>`
//! — `None` (the default) costs one branch per hook, and
//! [`crate::engine::ServeEngine::enable_obs`] turns the whole layer on.
//!
//! Everything the engine calls per step is allocation-free after
//! construction: counters and gauges are index-addressed, histograms
//! scan fixed buckets, spans and flight-recorder entries land in
//! pre-allocated bounded storage. The allocating operations —
//! [`EngineObs::exposition`], the Chrome-trace renderers, and
//! [`EngineObs::flight_dump`] — are explicit cold paths a caller invokes
//! after (or outside) the serving loop. The one exception is deliberate:
//! an SLO violation captures a flight-recorder dump at the moment of the
//! breach, because a violated SLO is precisely not steady state.
//!
//! Two clocks appear in the exported trace. The *wall-clock* lane is
//! what the host spent simulating each phase ([`std::time::Instant`]).
//! The *virtual* lane restates the same steps in accelerator-projected
//! seconds from the cost models
//! ([`crate::accel_cost::StepCostModel::trace_step_seconds`]), so a
//! trace viewer shows host cost and modeled-hardware cost side by side
//! on one time axis each.

use lightmamba_obs::recorder::{FaultKind, FlightRecorder, LifecyclePhase, StepRecord};
use lightmamba_obs::registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use lightmamba_obs::trace::{ChromeTraceBuilder, SpanRecorder};

use crate::engine::SessionSnapshot;
use crate::request::{Completion, FinishReason};

/// Capacity and SLO knobs of an [`EngineObs`]. The defaults suit the
/// bench harnesses: ~1.5k steps of spans, 512 steps of flight record,
/// 4k lifecycle events, no SLOs.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Maximum spans retained (≈10 per step; beyond this, spans are
    /// counted as dropped, not stored).
    pub span_capacity: usize,
    /// Step records the flight recorder retains.
    pub step_records: usize,
    /// Lifecycle events the flight recorder retains.
    pub lifecycle_events: usize,
    /// Optional TTFT SLO in engine steps: a completion whose TTFT
    /// exceeds it counts as a violation and snapshots the flight
    /// recorder.
    pub slo_ttft_steps: Option<u64>,
    /// Optional end-to-end SLO in engine steps, same semantics.
    pub slo_e2e_steps: Option<u64>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            span_capacity: 16_384,
            step_records: 512,
            lifecycle_events: 4_096,
            slo_ttft_steps: None,
            slo_e2e_steps: None,
        }
    }
}

/// Pre-registered metric ids — resolved once at
/// [`EngineObs::new`], index-addressed ever after.
#[derive(Debug)]
struct Ids {
    steps: CounterId,
    decode_tokens: CounterId,
    prefill_tokens: CounterId,
    admissions: CounterId,
    preemptions: CounterId,
    resumes: CounterId,
    cancellations: CounterId,
    expiries: CounterId,
    completions: CounterId,
    state_moves: CounterId,
    session_parks: CounterId,
    session_restores: CounterId,
    slo_violations: CounterId,
    requests_failed: CounterId,
    requests_rejected: CounterId,
    backend_faults: CounterId,
    quarantine_entered: CounterId,
    quarantine_recovered: CounterId,
    degradation_level: GaugeId,
    worker_threads: GaugeId,
    par_shards: CounterId,
    queue_depth: GaugeId,
    paused_depth: GaugeId,
    active_seqs: GaugeId,
    free_slots: GaugeId,
    step_wall_us: HistogramId,
    step_batch: HistogramId,
    ttft_steps: HistogramId,
    e2e_steps: HistogramId,
    queue_steps: HistogramId,
    prefix_hits: CounterId,
    prefix_misses: CounterId,
    budget_deferrals: CounterId,
    budget_deferred: HistogramId,
    /// Per-model token-advance counters, indexed by
    /// [`crate::registry::ModelId`].
    model_tokens: Vec<CounterId>,
    /// Per-model state-move counters, same index.
    model_state_moves: Vec<CounterId>,
}

/// The observability state of one engine run. Obtain via
/// [`crate::engine::ServeEngine::enable_obs`] /
/// [`crate::engine::ServeEngine::obs`] /
/// [`crate::engine::ServeEngine::take_obs`].
#[derive(Debug)]
pub struct EngineObs {
    /// The metrics registry (counters/gauges/histograms; render with
    /// [`EngineObs::exposition`]).
    pub metrics: MetricsRegistry,
    /// Per-step phase spans (render with [`EngineObs::chrome_trace`]).
    pub spans: SpanRecorder,
    /// Recent steps and request lifecycle transitions.
    pub flight: FlightRecorder,
    ids: Ids,
    slo_ttft_steps: Option<u64>,
    slo_e2e_steps: Option<u64>,
    slo_violations: u64,
    /// Flight-recorder snapshot captured at the *first* SLO violation
    /// (later breaches only count — the interesting state is the one
    /// that produced the first miss).
    slo_dump: Option<String>,
}

impl EngineObs {
    /// Registers the full engine metric set. `model_names` are the
    /// registry's backend names, in [`crate::registry::ModelId`] order —
    /// each gets labeled per-model token and state-move counters.
    pub fn new(cfg: ObsConfig, model_names: &[&str]) -> Self {
        let mut m = MetricsRegistry::new();
        let ids = Ids {
            steps: m.counter("engine_steps_total", "Engine steps executed."),
            decode_tokens: m.counter("engine_decode_tokens_total", "Decode tokens sampled."),
            prefill_tokens: m.counter(
                "engine_prefill_tokens_total",
                "Prompt tokens consumed by chunked prefill.",
            ),
            admissions: m.counter(
                "engine_admissions_total",
                "Requests admitted from the waiting queue (session resumes included).",
            ),
            preemptions: m.counter(
                "engine_preemptions_total",
                "Residents paused out of their slot by the policy.",
            ),
            resumes: m.counter(
                "engine_resumes_total",
                "Paused sequences restored into a slot.",
            ),
            cancellations: m.counter(
                "engine_cancellations_total",
                "Requests evicted by client cancellation.",
            ),
            expiries: m.counter(
                "engine_expiries_total",
                "Requests evicted on deadline (doomed evictions included).",
            ),
            completions: m.counter(
                "engine_completions_total",
                "Requests completed normally (max-tokens or EOS).",
            ),
            state_moves: m.counter(
                "engine_state_moves_total",
                "Fixed-size recurrent states moved (pause/resume/park/restore).",
            ),
            session_parks: m.counter(
                "engine_session_parks_total",
                "Session turns whose final state was parked for the next turn.",
            ),
            session_restores: m.counter(
                "engine_session_restores_total",
                "Admissions that restored a parked session state.",
            ),
            slo_violations: m.counter(
                "engine_slo_violations_total",
                "Completions that breached a configured TTFT/e2e SLO.",
            ),
            requests_failed: m.counter(
                "engine_requests_failed_total",
                "Requests retired by backend faults (contained errors/panics).",
            ),
            requests_rejected: m.counter(
                "engine_requests_rejected_total",
                "Arrivals shed by overload protection.",
            ),
            backend_faults: m.counter(
                "engine_backend_faults_total",
                "Backend faults contained (error returns plus caught panics).",
            ),
            quarantine_entered: m.counter(
                "engine_quarantine_entered_total",
                "Backend quarantine entries (first faults and half-open re-faults).",
            ),
            quarantine_recovered: m.counter(
                "engine_quarantine_recovered_total",
                "Backend quarantine recoveries (half-open canary survived).",
            ),
            degradation_level: m.gauge(
                "engine_degradation_level",
                "Current rung of the overload degradation ladder (0 = nominal).",
            ),
            worker_threads: m.gauge(
                "engine_pool_threads",
                "Worker threads executing batched model steps (1 = sequential).",
            ),
            par_shards: m.counter(
                "engine_par_shards_total",
                "Worker shards sub-batches were split across (1 per sub-batch when sequential).",
            ),
            queue_depth: m.gauge("engine_queue_depth", "Waiting requests at step close."),
            paused_depth: m.gauge("engine_paused_depth", "Paused sequences at step close."),
            active_seqs: m.gauge(
                "engine_active_sequences",
                "Resident sequences at step close.",
            ),
            free_slots: m.gauge("engine_free_slots", "Free slots at step close."),
            step_wall_us: m.histogram(
                "engine_step_wall_us",
                "Wall-clock engine step latency (microseconds).",
                &[
                    10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0,
                ],
            ),
            step_batch: m.histogram(
                "engine_step_batch",
                "Resident batch size per step.",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            ),
            ttft_steps: m.histogram(
                "engine_ttft_steps",
                "Time-to-first-token of completions (engine steps).",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
            ),
            e2e_steps: m.histogram(
                "engine_e2e_steps",
                "End-to-end latency of completions (engine steps).",
                &[4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1_024.0],
            ),
            queue_steps: m.histogram(
                "engine_queue_steps",
                "Queueing delay of completions (engine steps).",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
            prefix_hits: m.counter(
                "engine_prefix_hits_total",
                "Admissions that restored a cached shared-prefix state.",
            ),
            prefix_misses: m.counter(
                "engine_prefix_misses_total",
                "Shared-prefix admissions that found no cached state (harvested one).",
            ),
            budget_deferrals: m.counter(
                "engine_budget_deferrals_total",
                "Admissions deferred by the token budget (kept queued).",
            ),
            budget_deferred: m.histogram(
                "engine_budget_deferred",
                "Admissions deferred by the token budget, per step.",
                &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            ),
            model_tokens: model_names
                .iter()
                .map(|name| {
                    m.counter_labeled(
                        "engine_model_tokens_total",
                        &format!("model=\"{name}\""),
                        "Token-advances processed, per backend.",
                    )
                })
                .collect(),
            model_state_moves: model_names
                .iter()
                .map(|name| {
                    m.counter_labeled(
                        "engine_model_state_moves_total",
                        &format!("model=\"{name}\""),
                        "State moves attributed to a backend.",
                    )
                })
                .collect(),
        };
        EngineObs {
            metrics: m,
            spans: SpanRecorder::with_capacity(cfg.span_capacity),
            flight: FlightRecorder::new(cfg.step_records, cfg.lifecycle_events),
            ids,
            slo_ttft_steps: cfg.slo_ttft_steps,
            slo_e2e_steps: cfg.slo_e2e_steps,
            slo_violations: 0,
            slo_dump: None,
        }
    }

    /// Records one request lifecycle transition (hot path).
    #[inline]
    pub(crate) fn lifecycle(&mut self, id: u64, step: u64, phase: LifecyclePhase) {
        self.flight.record_lifecycle(id, step, phase);
    }

    /// Counts an admission that restored a parked session state.
    #[inline]
    pub(crate) fn session_restore(&mut self) {
        self.metrics.inc(self.ids.session_restores);
    }

    /// Counts an admission that restored a cached shared-prefix state.
    #[inline]
    pub(crate) fn prefix_hit(&mut self) {
        self.metrics.inc(self.ids.prefix_hits);
    }

    /// Counts a shared-prefix admission that missed the cache (and will
    /// harvest a snapshot at its prefix boundary).
    #[inline]
    pub(crate) fn prefix_miss(&mut self) {
        self.metrics.inc(self.ids.prefix_misses);
    }

    /// Folds one step's token-budget deferrals into the counter and the
    /// per-step histogram (hot path, allocation-free).
    #[inline]
    pub(crate) fn budget_deferred(&mut self, n: u64) {
        self.metrics.add(self.ids.budget_deferrals, n);
        self.metrics.observe(self.ids.budget_deferred, n as f64);
    }

    /// Records one fault-domain transition: counts it and lands it in
    /// the flight recorder's fault ring (hot path, allocation-free —
    /// fault steps are rare but should never themselves allocate).
    #[inline]
    pub(crate) fn fault_event(&mut self, step: u64, model: u32, kind: FaultKind) {
        match kind {
            FaultKind::BackendError | FaultKind::BackendPanic => {
                self.metrics.inc(self.ids.backend_faults);
            }
            FaultKind::Quarantined => self.metrics.inc(self.ids.quarantine_entered),
            FaultKind::Recovered => self.metrics.inc(self.ids.quarantine_recovered),
            FaultKind::HalfOpen => {}
        }
        self.flight.record_fault(step, model, kind);
    }

    /// Publishes the degradation ladder's current rung.
    #[inline]
    pub(crate) fn degradation(&mut self, level: u8) {
        self.metrics.set(self.ids.degradation_level, level as f64);
    }

    /// Records one step's parallel-execution activity: the pool width
    /// and how many worker shards this step's sub-batches split across
    /// (hot path, allocation-free).
    #[inline]
    pub(crate) fn pool_activity(&mut self, threads: usize, shards: u64) {
        self.metrics.set(self.ids.worker_threads, threads as f64);
        self.metrics.add(self.ids.par_shards, shards);
    }

    /// Closes one engine step: folds the step's record, the requests
    /// that left the engine this step, its session parks, and its
    /// per-model work into counters, histograms, and the flight
    /// recorder. `rec.cancelled`/`rec.expired` are derived here from the
    /// completion delta. Allocation-free except on an SLO breach.
    pub(crate) fn close_step(
        &mut self,
        mut rec: StepRecord,
        finished: &[Completion],
        parks: &[(u64, SessionSnapshot)],
        sub_processed: &[usize],
        sub_state_moves: &[usize],
    ) {
        let m = &mut self.metrics;
        m.inc(self.ids.steps);
        m.add(self.ids.decode_tokens, rec.decode_tokens as u64);
        m.add(self.ids.prefill_tokens, rec.prefill_tokens as u64);
        m.add(self.ids.admissions, rec.admitted as u64);
        m.add(self.ids.preemptions, rec.preempted as u64);
        m.add(self.ids.resumes, rec.resumed as u64);
        m.add(self.ids.state_moves, rec.state_moves as u64);
        m.set(self.ids.queue_depth, rec.queue_depth as f64);
        m.set(self.ids.paused_depth, rec.paused_depth as f64);
        m.set(self.ids.active_seqs, rec.batch as f64);
        m.set(self.ids.free_slots, rec.free_slots as f64);
        m.observe(self.ids.step_wall_us, rec.wall_ns as f64 / 1e3);
        m.observe(self.ids.step_batch, rec.batch as f64);
        for (mid, &tokens) in sub_processed.iter().enumerate() {
            if let Some(&id) = self.ids.model_tokens.get(mid) {
                m.add(id, tokens as u64);
            }
        }
        for (mid, &moves) in sub_state_moves.iter().enumerate() {
            if let Some(&id) = self.ids.model_state_moves.get(mid) {
                m.add(id, moves as u64);
            }
        }

        let mut violated = false;
        for c in finished {
            let phase = match c.finish {
                FinishReason::MaxTokens | FinishReason::Eos => LifecyclePhase::Done,
                FinishReason::Cancelled => LifecyclePhase::Cancelled,
                FinishReason::DeadlineExceeded => LifecyclePhase::Expired,
                FinishReason::Failed => LifecyclePhase::Failed,
                FinishReason::Rejected => LifecyclePhase::Rejected,
            };
            match phase {
                LifecyclePhase::Done => m.inc(self.ids.completions),
                LifecyclePhase::Cancelled => {
                    rec.cancelled += 1;
                    m.inc(self.ids.cancellations);
                }
                LifecyclePhase::Expired => {
                    rec.expired += 1;
                    m.inc(self.ids.expiries);
                }
                LifecyclePhase::Failed => m.inc(self.ids.requests_failed),
                LifecyclePhase::Rejected => m.inc(self.ids.requests_rejected),
                _ => unreachable!("finish reasons map to terminal phases"),
            }
            self.flight.record_lifecycle(c.id, rec.step, phase);
            if phase != LifecyclePhase::Done {
                continue;
            }
            let ttft = c.ttft_steps();
            let e2e = c.e2e_steps();
            if let Some(t) = ttft {
                m.observe(self.ids.ttft_steps, t as f64);
            }
            if let Some(e) = e2e {
                m.observe(self.ids.e2e_steps, e as f64);
            }
            if let Some(q) = c.queue_steps() {
                m.observe(self.ids.queue_steps, q as f64);
            }
            let ttft_miss = matches!((self.slo_ttft_steps, ttft), (Some(slo), Some(t)) if t > slo);
            let e2e_miss = matches!((self.slo_e2e_steps, e2e), (Some(slo), Some(e)) if e > slo);
            if ttft_miss || e2e_miss {
                m.inc(self.ids.slo_violations);
                self.slo_violations += 1;
                violated = true;
            }
        }
        for &(sid, _) in parks {
            m.inc(self.ids.session_parks);
            self.flight
                .record_lifecycle(sid, rec.step, LifecyclePhase::Parked);
        }
        self.flight.record_step(rec);
        // Snapshot *after* recording the step, so the dump shows the
        // offending step itself; first breach only.
        if violated && self.slo_dump.is_none() {
            self.slo_dump = Some(self.flight.dump());
        }
    }

    /// Completions that breached a configured SLO so far.
    pub fn slo_violations(&self) -> u64 {
        self.slo_violations
    }

    /// The flight-recorder dump captured at the first SLO violation, if
    /// any (taking it resets the capture, arming the next breach).
    pub fn take_slo_dump(&mut self) -> Option<String> {
        self.slo_dump.take()
    }

    /// Renders the Prometheus-style text exposition snapshot (cold
    /// path).
    pub fn exposition(&self) -> String {
        self.metrics.expose()
    }

    /// Renders the current flight-recorder window as readable text
    /// (cold path).
    pub fn flight_dump(&self) -> String {
        self.flight.dump()
    }

    /// Renders the recorded phase spans as Chrome trace-event JSON, one
    /// wall-clock lane (cold path).
    pub fn chrome_trace(&self) -> String {
        self.spans.chrome_trace()
    }

    /// Renders a two-lane Chrome trace: the wall-clock phase spans plus
    /// a virtual-time lane in which step *i* lasts `step_seconds[i]`
    /// accelerator-projected seconds (from
    /// [`crate::accel_cost::StepCostModel::trace_step_seconds`] or its
    /// multiplexed counterpart), prefix-summed onto its own axis. Cold
    /// path.
    pub fn chrome_trace_with_virtual(&self, step_seconds: &[f64]) -> String {
        let mut b = ChromeTraceBuilder::new();
        b.process_name(1, "wall clock (host)");
        b.process_name(2, "virtual (accelerator-projected)");
        for s in self.spans.spans() {
            b.span(s, 1, 1);
        }
        let mut now_us = 0.0f64;
        for (i, &s) in step_seconds.iter().enumerate() {
            let dur_us = s * 1e6;
            // Idle steps are free on the accelerator; skip their
            // zero-width events so the lane stays readable.
            if dur_us > 0.0 {
                b.complete_event(
                    "step",
                    "virtual",
                    2,
                    1,
                    now_us,
                    dur_us,
                    &[("step", i as f64)],
                );
            }
            now_us += dur_us;
        }
        b.finish()
    }
}
