//! The serving engine: a virtual-time loop joining admission, batched
//! prefill/decode, sampling, and eviction.
//!
//! One engine *step* is one batched model invocation. A decoding
//! sequence advances by exactly one token per step; a *prefilling*
//! sequence consumes up to [`EngineConfig::prefill_chunk`] prompt
//! tokens per step. Chunking bounds how much of a step's work any one
//! prompt can claim, so a long prompt is spread across several steps
//! interleaved with its batch-mates' decode — it can never stall
//! already-running sequences for its whole prefill, yet still finishes
//! `chunk×` faster than the one-token-per-step loop. The recurrence
//! makes token-level prefill exact (no attention window to re-scan), so
//! any chunk size yields bit-identical outputs.
//!
//! Admission is policy-driven ([`crate::scheduler::Policy`]): each step
//! the policy sees the entire waiting queue and selects *which*
//! requests join, not merely how many — FIFO, earliest-deadline-first,
//! strict priority classes, or weighted fair queueing across models.
//! Deadline-aware policies additionally ask the engine to evict doomed
//! requests (deadline provably unmeetable) before admission, so a
//! guaranteed miss never burns a slot or a batched step.
//!
//! Residency is *preemptible*: a policy may pause resident sequences
//! ([`crate::scheduler::Policy::preempt`]) to hand their slots to more
//! urgent work. Because Mamba2's per-sequence state is fixed-size, a
//! pause is one state snapshot ([`crate::backend::PausedState`]) — no
//! KV cache to spill — and a later resume restores it bit-identically,
//! so preemption changes *when* a request runs, never *what* it
//! generates (pinned by the pause/resume equivalence proptests). Paused
//! sequences wait in a side queue, compete for slots through the same
//! policy admission as fresh arrivals, and still honor their deadlines
//! (expiry and doomed eviction apply while paused, judged on the work
//! they still owe). Pause/resume traffic is priced by the cost models
//! as state-transfer bytes on the shared stream.
//!
//! The engine is generic over execution backends: it drives a
//! [`ModelRegistry`] of named [`crate::backend::DecodeBackend`]s sharing
//! one slot pool, forming one sub-batch per model per step (each
//! sub-batch is one shared weight stream on the accelerator, so the cost
//! model prices them independently). A single-model engine is the
//! one-entry special case ([`ServeEngine::new`]).
//!
//! Sampling is per-request deterministic (each request carries its own
//! seeded RNG), so a request's output tokens are independent of the
//! admission policy, prefill chunking, batch composition, and which
//! other models are multiplexed — the engine's equivalence tests pin
//! batched-vs-sequential outputs bit-for-bit.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lightmamba_model::{LogitsBuf, MambaModel};
use lightmamba_obs::recorder::{FaultKind, LifecyclePhase, StepRecord};
use lightmamba_pool::WorkerPool;

use crate::backend::PausedState;
use crate::error::ServeError;
use crate::metrics::{ClassBreakdown, ModelBreakdown, Percentiles, RunTrace, ServeReport};
use crate::observe::{EngineObs, ObsConfig};
use crate::prefix::PrefixCache;
use crate::registry::ModelRegistry;
use crate::request::{Completion, FinishReason, GenRequest, Priority, RequestId};
use crate::resilience::{BackendHealth, DegradationController, HealthTracker, ResilienceConfig};
use crate::scheduler::{AdmissionCtx, Policy, SeqView, TokenBudget};
use crate::slots::SlotPool;

/// Empties an item list and hands its allocation back under a fresh
/// borrow lifetime, so the engine reuses one buffer of borrowed feed
/// slices across steps instead of allocating one per sub-batch. The
/// element layout is unchanged, so std's in-place collect keeps the
/// buffer (an optimization, not a language guarantee: without it this
/// costs one allocation per step, never a wrong result).
fn recycle_items<'b>(mut items: Vec<(usize, &[u32])>) -> Vec<(usize, &'b [u32])> {
    items.clear();
    items.into_iter().map(|(slot, _)| (slot, &[][..])).collect()
}

/// Human-readable description of a caught panic payload (`panic!` with
/// a literal yields `&str`, with a format string yields `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The continuation record of a finished session turn: the final
/// fixed-size recurrent state plus the one token that was sampled but
/// never fed back through the model. The engine saves one at retirement
/// for every session-tagged request ([`GenRequest::session`]; drain via
/// [`ServeEngine::take_session_snapshots`]) and
/// [`ServeEngine::submit_with_state`] consumes one to serve the
/// session's next turn — a single state-transfer DMA instead of
/// re-prefilling the whole conversation, the serving payoff of Mamba's
/// constant-size state.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The final decode state, having consumed the turn's prompt plus
    /// all generated tokens except the last.
    pub state: PausedState,
    /// The turn's final sampled token. It was never fed through the
    /// model (sampling it retired the sequence), so the resume prepends
    /// it to the next turn's prompt — that is what makes the resumed
    /// decode bit-identical to re-prefilling the full history.
    pub pending_token: u32,
    /// Token-advances baked into the state (prompt plus generated minus
    /// the pending token) — the re-prefill work a resume avoids.
    pub consumed_tokens: usize,
}

/// One live notification recorded during a step when event recording is
/// on ([`ServeEngine::enable_events`]) — the feed the streaming
/// frontend fans out to per-request channels. Requests *leaving* the
/// engine are not events: every eviction path already records a
/// [`Completion`], so readers watch [`ServeEngine::completions`] grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// The request was admitted to a slot (its prefill starts this
    /// step). Emitted once per request — a preemption resume is not a
    /// new start.
    Started {
        /// The admitted request.
        id: RequestId,
        /// Admission step.
        step: u64,
    },
    /// The request sampled one token this step.
    Token {
        /// The sampling request.
        id: RequestId,
        /// The sampled token id.
        token: u32,
        /// The sampling step.
        step: u64,
    },
}

/// One resident sequence.
#[derive(Debug)]
struct ActiveSeq {
    req: GenRequest,
    slot: usize,
    /// Prompt tokens consumed so far; decode starts at `prompt.len()`.
    pos: usize,
    generated: Vec<u32>,
    rng: StdRng,
    admitted_step: u64,
    first_token_step: Option<u64>,
    /// Times this sequence has been paused out of its slot.
    preemptions: u32,
    /// Steps spent paused across all completed episodes.
    paused_steps: u64,
    /// The subset of `paused_steps` accrued before the first token
    /// (excluded from TTFT).
    paused_steps_pre_first: u64,
    /// `Some(k)`: the first `k` prompt tokens are a shared prefix the
    /// prefix cache missed on — snapshot the state when `pos` reaches
    /// `k` (see [`ServeEngine::step`] phase 8b), then clear. Feeding
    /// clips at `k` so the snapshot summarizes exactly the prefix.
    harvest: Option<usize>,
}

/// One preempted sequence: its fixed-size saved state plus every piece
/// of generation progress needed to resume bit-identically — prompt
/// position, sampled tokens, and the request's private RNG (moved, not
/// reseeded, so the sampling stream continues exactly where it paused).
#[derive(Debug)]
struct PausedSeq {
    req: GenRequest,
    state: PausedState,
    pos: usize,
    generated: Vec<u32>,
    rng: StdRng,
    admitted_step: u64,
    first_token_step: Option<u64>,
    /// Step at which this pause episode began.
    paused_at: u64,
    preemptions: u32,
    paused_steps: u64,
    paused_steps_pre_first: u64,
    /// Pending prefix-harvest marker, carried across the pause (see
    /// [`ActiveSeq::harvest`]).
    harvest: Option<usize>,
}

impl PausedSeq {
    /// Scheduling view with progress-aware remaining work.
    fn view(&self, prefill_chunk: usize) -> SeqView {
        SeqView::new(
            &self.req,
            self.req
                .min_steps_remaining(self.pos, self.generated.len(), prefill_chunk),
        )
    }

    /// Ends the current pause episode at `clock`: the episode length
    /// plus the updated `(paused_steps, paused_steps_pre_first)`
    /// totals. The pre-first-token split is the TTFT-exclusion rule —
    /// one place, shared by resume and by eviction-while-paused.
    fn end_episode(&self, clock: u64) -> (u64, u64, u64) {
        let pause_len = clock.checked_sub(self.paused_at);
        debug_assert!(
            pause_len.is_some(),
            "pause episode of request {} ends at step {clock}, before it began at {}",
            self.req.id,
            self.paused_at
        );
        let pause_len = pause_len.unwrap_or(0);
        let pre_first = if self.first_token_step.is_none() {
            pause_len
        } else {
            0
        };
        (
            pause_len,
            self.paused_steps + pause_len,
            self.paused_steps_pre_first + pre_first,
        )
    }

    /// Completion record for a pause episode ended at `clock` without a
    /// resume — deadline eviction or client cancellation (the final,
    /// never-resumed episode counts as paused time).
    fn finish_paused(&mut self, clock: u64, finish: FinishReason) -> Completion {
        let (_, paused_steps, pre_first) = self.end_episode(clock);
        Completion {
            id: self.req.id,
            model: self.req.model,
            priority: self.req.priority,
            tokens: std::mem::take(&mut self.generated),
            finish,
            arrival_step: self.req.arrival_step,
            deadline_steps: self.req.deadline_steps,
            admitted_step: Some(self.admitted_step),
            first_token_step: self.first_token_step,
            finished_step: clock,
            preemptions: self.preemptions,
            paused_steps,
            paused_steps_before_first_token: pre_first,
            retry_after_steps: None,
        }
    }
}

impl ActiveSeq {
    /// Tokens this sequence advances in the next batched step: a prompt
    /// chunk of at most `prefill_chunk` while prefilling (clipped at a
    /// pending harvest boundary so the post-prefix state is observable),
    /// exactly 1 while decoding. [`ActiveSeq::feed`] and the phase-8
    /// bookkeeping both derive from this, so they can never disagree.
    fn feed_len(&self, prefill_chunk: usize) -> usize {
        if self.pos < self.req.prompt.len() {
            let mut end = (self.pos + prefill_chunk.max(1)).min(self.req.prompt.len());
            if let Some(h) = self.harvest {
                if self.pos < h {
                    end = end.min(h);
                }
            }
            end - self.pos
        } else {
            1
        }
    }

    /// Tokens this sequence feeds into the next batched step: a prompt
    /// chunk of at most `prefill_chunk` tokens while prefilling, the
    /// previously sampled token while decoding.
    fn feed(&self, prefill_chunk: usize) -> &[u32] {
        if self.pos < self.req.prompt.len() {
            &self.req.prompt[self.pos..self.pos + self.feed_len(prefill_chunk)]
        } else {
            std::slice::from_ref(
                self.generated
                    .last()
                    .expect("decode implies a sampled token"),
            )
        }
    }
}

/// Engine limits.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Slot-pool capacity (maximum resident sequences).
    pub slots: usize,
    /// Step budget; `run` stops here even with work outstanding.
    pub max_steps: u64,
    /// Prompt tokens one prefilling sequence may consume per step
    /// (≥ 1). 1 reproduces the strict one-token-per-step loop; larger
    /// budgets speed prefill `chunk×` while bounding how long any one
    /// prompt can monopolize a step's work.
    pub prefill_chunk: usize,
    /// Host threads executing each batched model step (≥ 1). The
    /// engine owns one [`WorkerPool`] of this width and passes it to
    /// every backend advance, which shards each per-model sub-batch
    /// across it (1 runs inline on the calling thread). Outputs are
    /// **bit-identical** for any thread count (pinned by the engine
    /// equivalence proptests), so this knob trades host wall-clock
    /// only — never results.
    pub threads: usize,
    /// Token-level admission caps layered under every policy
    /// ([`TokenBudget`]); `None` (the default) keeps slot-only
    /// admission. Calibrate from the accelerator cost model with
    /// [`crate::accel_cost::calibrate_token_budget`].
    pub token_budget: Option<TokenBudget>,
    /// Shared-prefix state-cache capacity in snapshots
    /// ([`crate::prefix::PrefixCache`]); `None` (the default) disables
    /// the cache, making [`GenRequest::shared_prefix`] markers inert.
    /// `Some(0)` is rejected at construction.
    pub prefix_cache: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            slots: 16,
            max_steps: 100_000,
            prefill_chunk: 1,
            threads: 1,
            token_budget: None,
            prefix_cache: None,
        }
    }
}

/// The multi-tenant serving engine over a registry of model backends.
pub struct ServeEngine<'m> {
    registry: ModelRegistry<'m>,
    pool: SlotPool,
    /// The worker pool every backend advance shards its sub-batch over
    /// ([`EngineConfig::threads`] wide; one thread runs inline).
    workers: WorkerPool,
    /// Per-model logits of the latest advance, reused across steps.
    logits: Vec<LogitsBuf>,
    /// Per active sequence, its row in its model's logits buffer.
    logit_rows: Vec<usize>,
    /// The advance's item list, kept empty between steps so its
    /// allocation is reused (see [`recycle_items`]).
    items: Vec<(usize, &'static [u32])>,
    cfg: EngineConfig,
    /// Future arrivals, sorted by `arrival_step` (then id).
    pending: VecDeque<GenRequest>,
    /// Arrived, unadmitted requests in arrival order. Policies select
    /// from the whole queue, so this is a plain vector, not a FIFO.
    waiting: Vec<GenRequest>,
    active: Vec<ActiveSeq>,
    /// Preempted sequences awaiting a slot, oldest pause first. They
    /// hold no slot — just their fixed-size saved state — and re-enter
    /// through the policy's admission picks.
    paused: Vec<PausedSeq>,
    clock: u64,
    completions: Vec<Completion>,
    trace: RunTrace,
    total_prefill_tokens: u64,
    total_decode_tokens: u64,
    /// Token-advances per model across all steps (Σ sub-batch tokens).
    processed_per_model: Vec<u64>,
    /// Pause events across the run.
    total_preemptions: u64,
    /// Resume events across the run.
    total_resumes: u64,
    /// Steps between pause and resume, per completed episode.
    resume_latency: Vec<f64>,
    /// Requests whose clients asked for cancellation; honored at the
    /// top of the next step.
    cancels: HashSet<RequestId>,
    /// Requests evicted by client cancellation across the run.
    total_cancellations: usize,
    /// Token-advances spent on requests that were later cancelled.
    total_wasted_advances: u64,
    /// Minimum remaining service (steps) of cancelled residents at the
    /// moment their slot was reclaimed.
    total_reclaimed_slot_steps: u64,
    /// Saved states of submitted session resumes, restored into the
    /// slot at admission ([`ServeEngine::submit_with_state`]).
    resume_states: HashMap<RequestId, PausedState>,
    /// Session snapshots saved at retirement, awaiting
    /// [`ServeEngine::take_session_snapshots`].
    session_snapshots: Vec<(u64, SessionSnapshot)>,
    /// Whether steps record [`StepEvent`]s.
    events_enabled: bool,
    /// Events recorded since [`ServeEngine::take_events`].
    events: Vec<StepEvent>,
    /// The observability layer, when enabled
    /// ([`ServeEngine::enable_obs`]). Boxed so the disabled engine pays
    /// one word and one branch per hook.
    obs: Option<Box<EngineObs>>,
    /// Fault-tolerance knobs ([`ServeEngine::set_resilience`]); the
    /// default is inert on the fault-free path.
    resilience: ResilienceConfig,
    /// Per-model quarantine state machine.
    health: HealthTracker,
    /// Reusable admission mask (`true` = model accepts no admissions),
    /// refreshed in place each step so the hot path stays
    /// allocation-free.
    quarantine_mask: Vec<bool>,
    /// Sustained-overload ladder walker (inert unless
    /// [`ResilienceConfig::degradation`] is set).
    degradation: DegradationController,
    /// Requests retired as [`FinishReason::Failed`] by backend faults.
    total_failed: usize,
    /// Arrivals shed as [`FinishReason::Rejected`].
    total_rejected: usize,
    /// Backend faults contained (error returns plus caught panics).
    total_backend_faults: u64,
    /// Quarantine entries (first faults and half-open re-faults).
    total_quarantine_entries: u64,
    /// Quarantine recoveries (half-open canary survived).
    total_quarantine_recoveries: u64,
    /// The shared-prefix state cache, when enabled
    /// ([`EngineConfig::prefix_cache`]).
    prefix: Option<PrefixCache>,
    /// Admissions the token budget deferred on the *previous* step —
    /// feeds the overload shed hint so budget-deferred congestion and
    /// queue depth report consistent retry semantics.
    budget_deferred_last_step: u64,
    /// Admissions the token budget deferred across the run.
    total_budget_deferrals: u64,
    /// Peak resident-token footprint (Σ `prompt + max_new` over
    /// slot-holders) observed across the run.
    peak_resident_tokens: usize,
}

impl<'m> ServeEngine<'m> {
    /// Builds a single-model engine over the FP reference backend — the
    /// one-entry special case of [`ServeEngine::with_registry`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero-slot pool or a
    /// zero prefill chunk.
    pub fn new(model: &'m MambaModel, cfg: EngineConfig) -> Result<Self, ServeError> {
        Self::with_registry(ModelRegistry::single(model), cfg)
    }

    /// Builds an engine multiplexing every registered backend over one
    /// fresh slot pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero-slot pool, a
    /// zero prefill chunk, or an empty registry.
    pub fn with_registry(
        registry: ModelRegistry<'m>,
        cfg: EngineConfig,
    ) -> Result<Self, ServeError> {
        if cfg.slots == 0 {
            return Err(ServeError::InvalidConfig("slot pool of size 0".into()));
        }
        if cfg.prefill_chunk == 0 {
            return Err(ServeError::InvalidConfig(
                "prefill chunk of 0 tokens per step".into(),
            ));
        }
        if cfg.threads == 0 {
            return Err(ServeError::InvalidConfig(
                "engine with 0 threads (1 = sequential)".into(),
            ));
        }
        if registry.is_empty() {
            return Err(ServeError::InvalidConfig(
                "engine needs at least one registered model".into(),
            ));
        }
        if let Some(budget) = cfg.token_budget {
            // Re-validate here so a literal-built budget can't smuggle a
            // zero cap past `TokenBudget::new`.
            TokenBudget::new(budget.max_prefill_tokens_per_step, budget.max_total_tokens)?;
        }
        if cfg.prefix_cache == Some(0) {
            return Err(ServeError::InvalidConfig(
                "prefix cache of 0 entries (use None to disable)".into(),
            ));
        }
        let template = registry.new_state();
        let n_models = registry.len();
        Ok(ServeEngine {
            registry,
            pool: SlotPool::new(&template, cfg.slots),
            workers: WorkerPool::new(cfg.threads),
            logits: vec![LogitsBuf::new(); n_models],
            logit_rows: Vec::new(),
            items: Vec::new(),
            cfg,
            pending: VecDeque::new(),
            waiting: Vec::new(),
            active: Vec::new(),
            paused: Vec::new(),
            clock: 0,
            completions: Vec::new(),
            trace: RunTrace::default(),
            total_prefill_tokens: 0,
            total_decode_tokens: 0,
            processed_per_model: vec![0; n_models],
            total_preemptions: 0,
            total_resumes: 0,
            resume_latency: Vec::new(),
            cancels: HashSet::new(),
            total_cancellations: 0,
            total_wasted_advances: 0,
            total_reclaimed_slot_steps: 0,
            resume_states: HashMap::new(),
            session_snapshots: Vec::new(),
            events_enabled: false,
            events: Vec::new(),
            obs: None,
            resilience: ResilienceConfig::default(),
            health: HealthTracker::new(n_models),
            quarantine_mask: vec![false; n_models],
            degradation: DegradationController::default(),
            total_failed: 0,
            total_rejected: 0,
            total_backend_faults: 0,
            total_quarantine_entries: 0,
            total_quarantine_recoveries: 0,
            prefix: cfg.prefix_cache.map(PrefixCache::new),
            budget_deferred_last_step: 0,
            total_budget_deferrals: 0,
            peak_resident_tokens: 0,
        })
    }

    /// Replaces the fault-tolerance configuration (quarantine shape,
    /// bounded admission queue, degradation ladder). The default
    /// [`ResilienceConfig`] is inert until a fault occurs, so an engine
    /// that never calls this behaves bit-identically to one predating
    /// the fault layer; [`ResilienceConfig::none`] is the no-mitigation
    /// baseline the chaos study compares against.
    pub fn set_resilience(&mut self, cfg: ResilienceConfig) {
        self.resilience = cfg;
    }

    /// The current fault-tolerance configuration.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// Quarantine state of model `id` (`None` for an unknown id).
    pub fn backend_health(&self, id: usize) -> Option<BackendHealth> {
        (id < self.registry.len()).then(|| self.health.get(id))
    }

    /// Current rung of the degradation ladder (0 = nominal; see
    /// [`crate::resilience`] for the ladder).
    pub fn degradation_level(&self) -> u8 {
        self.degradation.level()
    }

    /// Prompt tokens one prefilling sequence may consume per step right
    /// now: [`EngineConfig::prefill_chunk`], halved (never below 1)
    /// while the degradation ladder is at level ≥ 1. Chunked prefill is
    /// exact, so shrinking the chunk mid-run never changes outputs —
    /// only how work interleaves.
    pub fn effective_prefill_chunk(&self) -> usize {
        if self.degradation.level() >= 1 {
            (self.cfg.prefill_chunk / 2).max(1)
        } else {
            self.cfg.prefill_chunk
        }
    }

    /// Requests retired as [`FinishReason::Failed`] by backend faults.
    pub fn failed_count(&self) -> usize {
        self.total_failed
    }

    /// Arrivals shed as [`FinishReason::Rejected`] by overload
    /// protection.
    pub fn rejected_count(&self) -> usize {
        self.total_rejected
    }

    /// Backend faults contained so far (error returns plus caught
    /// panics, one per model per step at most).
    pub fn backend_fault_count(&self) -> u64 {
        self.total_backend_faults
    }

    /// Quarantine transitions so far: `(entries, recoveries)`.
    pub fn quarantine_transitions(&self) -> (u64, u64) {
        (
            self.total_quarantine_entries,
            self.total_quarantine_recoveries,
        )
    }

    /// The registry of backends this engine multiplexes.
    pub fn registry(&self) -> &ModelRegistry<'m> {
        &self.registry
    }

    /// Threads executing each batched model step (1 = sequential; see
    /// [`EngineConfig::threads`]).
    pub fn worker_threads(&self) -> usize {
        self.workers.threads()
    }

    /// Submits requests; they enter the waiting queue at their
    /// `arrival_step`. Must be sorted by arrival step (generators
    /// produce them that way).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for empty prompts, prompt
    /// tokens outside the target model's vocabulary, or out-of-order
    /// arrivals, and [`ServeError::UnknownModel`] for a request naming
    /// a model the registry does not hold. Requests before the first
    /// rejected one are queued.
    pub fn submit(&mut self, requests: Vec<GenRequest>) -> Result<(), ServeError> {
        for r in requests {
            if r.prompt.is_empty() {
                return Err(ServeError::InvalidConfig(format!(
                    "request {} has an empty prompt",
                    r.id
                )));
            }
            let Some(backend) = self.registry.get(r.model) else {
                return Err(ServeError::UnknownModel(format!(
                    "request {} names model id {} but only {} model(s) are registered",
                    r.id,
                    r.model,
                    self.registry.len()
                )));
            };
            let vocab = backend.config().vocab_size;
            if let Some(&t) = r.prompt.iter().find(|&&t| t as usize >= vocab) {
                return Err(ServeError::InvalidConfig(format!(
                    "request {} has prompt token {t} outside model {}'s vocabulary of {vocab}",
                    r.id, r.model
                )));
            }
            if let Some(back) = self.pending.back() {
                if r.arrival_step < back.arrival_step {
                    return Err(ServeError::InvalidConfig(
                        "submissions must be sorted by arrival step".into(),
                    ));
                }
            }
            self.pending.push_back(r);
        }
        Ok(())
    }

    /// Submits one request that *resumes* a stored session snapshot
    /// instead of starting from a zeroed state. The snapshot's pending
    /// token is prepended to the prompt (it was sampled last turn but
    /// never fed through the model), and on admission the saved state
    /// is restored into the claimed slot — one state-transfer move in
    /// the trace, priced like a preemption resume, in place of
    /// re-prefilling the whole conversation.
    ///
    /// # Errors
    ///
    /// Everything [`ServeEngine::submit`] rejects, plus
    /// [`ServeError::InvalidConfig`] for a snapshot whose state shape
    /// does not fit this engine's slot pool.
    pub fn submit_with_state(
        &mut self,
        mut req: GenRequest,
        snapshot: SessionSnapshot,
    ) -> Result<(), ServeError> {
        let template = self.registry.new_state();
        let state = snapshot.state.state();
        let compatible = state.layers.len() == template.layers.len()
            && state.layers.iter().zip(&template.layers).all(|(a, b)| {
                a.h.len() == b.h.len()
                    && a.conv.channels() == b.conv.channels()
                    && a.conv.kernel() == b.conv.kernel()
            });
        if !compatible {
            return Err(ServeError::InvalidConfig(format!(
                "request {} resumes a session state whose shape does not fit this engine's \
                 slot pool",
                req.id
            )));
        }
        req.prompt.insert(0, snapshot.pending_token);
        let id = req.id;
        self.submit(vec![req])?;
        self.resume_states.insert(id, snapshot.state);
        Ok(())
    }

    /// Requests cancellation of `id` (client hang-up). At the top of
    /// the next step the request is evicted from wherever it sits —
    /// pending, waiting, resident, or paused — with
    /// [`FinishReason::Cancelled`]; a cancelled *resident* frees its
    /// slot within that one step, and the freed capacity is offered to
    /// admission in the same step. Unknown or already-finished ids are
    /// ignored (the cancel raced with completion).
    pub fn cancel(&mut self, id: RequestId) {
        self.cancels.insert(id);
    }

    /// Turns on per-step [`StepEvent`] recording. Off by default so
    /// closed-loop benchmark runs don't pay for a feed nobody drains.
    pub fn enable_events(&mut self) {
        self.events_enabled = true;
    }

    /// Drains the [`StepEvent`]s recorded since the last call.
    pub fn take_events(&mut self) -> Vec<StepEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains the `(session id, snapshot)` pairs saved by retirements
    /// of session-tagged requests since the last call.
    pub fn take_session_snapshots(&mut self) -> Vec<(u64, SessionSnapshot)> {
        std::mem::take(&mut self.session_snapshots)
    }

    /// Turns on the observability layer: engine metrics (per-model
    /// series registered from this engine's registry), per-step phase
    /// spans, and the flight recorder. Off by default — a disabled
    /// engine pays one branch per hook. Enabling mid-run starts the
    /// wall-clock epoch at the call, replacing any prior layer.
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        let names: Vec<&str> = self.registry.iter().map(|(_, name, _)| name).collect();
        self.obs = Some(Box::new(EngineObs::new(cfg, &names)));
    }

    /// The observability layer, when enabled.
    pub fn obs(&self) -> Option<&EngineObs> {
        self.obs.as_deref()
    }

    /// Mutable access to the observability layer, when enabled.
    pub fn obs_mut(&mut self) -> Option<&mut EngineObs> {
        self.obs.as_deref_mut()
    }

    /// Detaches and returns the observability layer (the engine keeps
    /// running un-instrumented). The frontend uses this to hand the
    /// final metrics/trace/flight state to the caller with the run
    /// report.
    pub fn take_obs(&mut self) -> Option<Box<EngineObs>> {
        self.obs.take()
    }

    /// Opens a phase span when observability is enabled.
    #[inline]
    fn obs_begin(&mut self, name: &'static str, cat: &'static str) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.spans.begin(name, cat, self.clock);
        }
    }

    /// Closes the innermost phase span when observability is enabled.
    #[inline]
    fn obs_end(&mut self) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.spans.end();
        }
    }

    /// Submitted session resumes whose saved state has not yet been
    /// restored into a slot (drops to zero once they are admitted or
    /// leave the engine — nothing leaks).
    pub fn pending_resumes(&self) -> usize {
        self.resume_states.len()
    }

    /// The limits this engine was built with.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Completed/evicted requests so far.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Current virtual time in steps.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The shared-prefix state cache, when enabled
    /// ([`EngineConfig::prefix_cache`]) — hit/miss/eviction counters and
    /// occupancy for tests and reports.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.prefix.as_ref()
    }

    /// Admissions deferred by the token budget across the run
    /// ([`EngineConfig::token_budget`]); 0 with no budget set.
    pub fn budget_deferrals(&self) -> u64 {
        self.total_budget_deferrals
    }

    /// Peak resident-token footprint (Σ `prompt + max_new` over
    /// slot-holders at the post-admission point) observed so far.
    pub fn peak_resident_tokens(&self) -> usize {
        self.peak_resident_tokens
    }

    /// Slot-pool capacity.
    pub fn capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Currently free slots.
    pub fn free_slots(&self) -> usize {
        self.pool.free_count()
    }

    /// Currently resident sequences.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Currently paused (preempted, slotless) sequences.
    pub fn paused_count(&self) -> usize {
        self.paused.len()
    }

    /// Whether any request is pending, waiting, paused, or resident.
    pub fn has_work(&self) -> bool {
        !self.pending.is_empty()
            || !self.waiting.is_empty()
            || !self.paused.is_empty()
            || !self.active.is_empty()
    }

    /// Runs until all submitted work drains or the step budget is hit,
    /// then returns the run report.
    ///
    /// # Errors
    ///
    /// Propagates model step errors (invalid tokens, state mismatch).
    pub fn run(&mut self, policy: &mut dyn Policy) -> Result<ServeReport, ServeError> {
        while self.has_work() && self.clock < self.cfg.max_steps {
            self.step(policy)?;
        }
        Ok(self.report(&*policy))
    }

    /// Records the eviction of a never-admitted request (pending or
    /// waiting) — deadline expiry or client cancellation.
    fn evict_unadmitted(
        completions: &mut Vec<Completion>,
        r: &GenRequest,
        clock: u64,
        finish: FinishReason,
    ) {
        completions.push(Completion {
            id: r.id,
            model: r.model,
            priority: r.priority,
            tokens: Vec::new(),
            finish,
            arrival_step: r.arrival_step,
            deadline_steps: r.deadline_steps,
            admitted_step: None,
            first_token_step: None,
            finished_step: clock,
            preemptions: 0,
            paused_steps: 0,
            paused_steps_before_first_token: 0,
            retry_after_steps: None,
        });
    }

    /// Scheduling views of the resident sequences, batch order.
    fn resident_views(&self) -> Vec<SeqView> {
        self.active
            .iter()
            .map(|s| {
                SeqView::new(
                    &s.req,
                    s.req
                        .min_steps_remaining(s.pos, s.generated.len(), self.cfg.prefill_chunk),
                )
            })
            .collect()
    }

    /// Scheduling views of the paused sequences, oldest pause first.
    fn paused_views(&self) -> Vec<SeqView> {
        self.paused
            .iter()
            .map(|p| p.view(self.cfg.prefill_chunk))
            .collect()
    }

    /// Executes one engine step: arrivals → expiry/doomed eviction →
    /// policy preemption (pause residents for urgent work) → policy
    /// admission (fresh arrivals and resumes compete for the freed
    /// slots) → batched model advance (chunked prefill + decode) →
    /// sampling/finish/evict bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates model step errors.
    pub fn step(&mut self, policy: &mut dyn Policy) -> Result<(), ServeError> {
        let completions_at_entry = self.completions.len();
        let snapshots_at_entry = self.session_snapshots.len();
        // Wall-clock timing and the step span exist only when the
        // observability layer is on — a bare engine pays one branch.
        let wall_start = self.obs.is_some().then(Instant::now);
        let cat = policy.name();
        self.obs_begin("step", cat);

        // 0. Fault-layer heartbeat. Every registered backend observes
        //    the step clock — quarantined ones included, so a fault
        //    injector's windows elapse in virtual time whether or not
        //    the engine routes work to it (like a real transient fault
        //    clearing on its own schedule). Then quarantine windows
        //    whose backoff elapsed open half-way: admission below will
        //    offer each such backend exactly one canary.
        for (_, _, backend) in self.registry.iter() {
            backend.on_step(self.clock);
        }
        {
            let clock = self.clock;
            let obs = &mut self.obs;
            self.health.tick(clock, |mid, _level| {
                if let Some(o) = obs.as_deref_mut() {
                    o.fault_event(clock, mid as u32, FaultKind::HalfOpen);
                }
            });
        }

        // 1. Arrivals whose time has come join the waiting queue —
        //    unless overload protection sheds them: with a bounded
        //    queue, arrivals beyond `queue_limit` are turned away, and
        //    from rung 2 of the degradation ladder Batch-priority
        //    arrivals are shed outright. A shed request retires as
        //    `Rejected` with a retry hint scaled to queue pressure; it
        //    never holds a slot and does no model work. From rung 3,
        //    degradable (non-Interactive, non-session) arrivals are
        //    rerouted to the registry's cheapest backend.
        let degradation_level = self.degradation.level();
        let reroute_to = (degradation_level >= 3)
            .then(|| self.registry.cheapest_model())
            .flatten();
        while self
            .pending
            .front()
            .is_some_and(|r| r.arrival_step <= self.clock)
        {
            let mut r = self.pending.pop_front().expect("front checked");
            let over_limit = self
                .resilience
                .queue_limit
                .is_some_and(|lim| self.waiting.len() >= lim);
            let shed_class = degradation_level >= 2 && r.priority == Priority::Batch;
            if over_limit || shed_class {
                // Hint: the steps the backlog ahead needs to drain at
                // one slot-pool wave per step — crude, but
                // deterministic and monotone in pressure. Token-budget
                // deferrals slow the drain below one wave per step, so
                // last step's deferral count is added: a client turned
                // away under budget pressure waits longer than one
                // turned away by queue depth alone (saturating — the
                // hint is advisory, never a wrap).
                let hint = (1 + self.waiting.len() as u64 / self.pool.capacity().max(1) as u64)
                    .saturating_add(self.budget_deferred_last_step);
                self.total_rejected += 1;
                // A shed session resume never restores its state.
                self.resume_states.remove(&r.id);
                self.completions.push(Completion {
                    id: r.id,
                    model: r.model,
                    priority: r.priority,
                    tokens: Vec::new(),
                    finish: FinishReason::Rejected,
                    arrival_step: r.arrival_step,
                    deadline_steps: r.deadline_steps,
                    admitted_step: None,
                    first_token_step: None,
                    finished_step: self.clock,
                    preemptions: 0,
                    paused_steps: 0,
                    paused_steps_before_first_token: 0,
                    retry_after_steps: Some(hint),
                });
                continue;
            }
            if let Some(cheap) = reroute_to {
                // Session resumes stay on their model: their saved
                // state embodies that model's decode history.
                if r.priority != Priority::Interactive && !self.resume_states.contains_key(&r.id) {
                    r.model = cheap;
                }
            }
            if let Some(o) = self.obs.as_deref_mut() {
                o.lifecycle(r.id, self.clock, LifecyclePhase::Queued);
            }
            self.waiting.push(r);
        }

        // 1b. Client cancellations: a cancelled request leaves from
        //     wherever it sits. A cancelled *resident* frees its slot
        //     right here — before admission — so the capacity it hands
        //     back is re-offered this very step; its sunk
        //     token-advances are booked as wasted work and the minimum
        //     service it still owed as reclaimed slot-steps. Ids the
        //     engine no longer holds are dropped silently (the cancel
        //     raced with completion).
        let mut cancelled_this_step = 0usize;
        self.obs_begin("cancel", cat);
        if !self.cancels.is_empty() {
            let cancels = std::mem::take(&mut self.cancels);
            for id in &cancels {
                // A cancelled session resume never restores its state.
                self.resume_states.remove(id);
            }
            let clock = self.clock;
            let chunk = self.cfg.prefill_chunk;
            let completions = &mut self.completions;
            self.pending.retain(|r| {
                let hit = cancels.contains(&r.id);
                if hit {
                    cancelled_this_step += 1;
                    Self::evict_unadmitted(completions, r, clock, FinishReason::Cancelled);
                }
                !hit
            });
            self.waiting.retain(|r| {
                let hit = cancels.contains(&r.id);
                if hit {
                    cancelled_this_step += 1;
                    Self::evict_unadmitted(completions, r, clock, FinishReason::Cancelled);
                }
                !hit
            });
            let pool = &mut self.pool;
            let mut wasted = 0u64;
            let mut reclaimed = 0u64;
            self.active.retain_mut(|seq| {
                if !cancels.contains(&seq.req.id) {
                    return true;
                }
                wasted += seq.pos as u64;
                reclaimed += seq
                    .req
                    .min_steps_remaining(seq.pos, seq.generated.len(), chunk);
                cancelled_this_step += 1;
                pool.release(seq.slot);
                completions.push(Completion {
                    id: seq.req.id,
                    model: seq.req.model,
                    priority: seq.req.priority,
                    tokens: std::mem::take(&mut seq.generated),
                    finish: FinishReason::Cancelled,
                    arrival_step: seq.req.arrival_step,
                    deadline_steps: seq.req.deadline_steps,
                    admitted_step: Some(seq.admitted_step),
                    first_token_step: seq.first_token_step,
                    finished_step: clock,
                    preemptions: seq.preemptions,
                    paused_steps: seq.paused_steps,
                    paused_steps_before_first_token: seq.paused_steps_pre_first,
                    retry_after_steps: None,
                });
                false
            });
            self.paused.retain_mut(|p| {
                if !cancels.contains(&p.req.id) {
                    return true;
                }
                wasted += p.pos as u64;
                cancelled_this_step += 1;
                completions.push(p.finish_paused(clock, FinishReason::Cancelled));
                false
            });
            self.total_cancellations += cancelled_this_step;
            self.total_wasted_advances += wasted;
            self.total_reclaimed_slot_steps += reclaimed;
        }
        self.obs_end();
        self.obs_begin("expire", cat);

        // 2. Evict deadline-expired requests still waiting — they must
        //    not burn a slot or a batched model step on admission.
        {
            let clock = self.clock;
            let completions = &mut self.completions;
            self.waiting.retain(|r| {
                let expired = r
                    .deadline_steps
                    .is_some_and(|d| clock.saturating_sub(r.arrival_step) >= d);
                if expired {
                    Self::evict_unadmitted(completions, r, clock, FinishReason::DeadlineExceeded);
                }
                !expired
            });
        }

        // 3. Evict resident sequences whose deadline lapsed before this
        //    step — the same pre-step rule as the waiting queue, so an
        //    expired sequence never joins another batched model step.
        {
            let clock = self.clock;
            let pool = &mut self.pool;
            let completions = &mut self.completions;
            self.active.retain_mut(|seq| {
                let expired = seq
                    .req
                    .deadline_steps
                    .is_some_and(|d| clock.saturating_sub(seq.req.arrival_step) >= d);
                if !expired {
                    return true;
                }
                pool.release(seq.slot);
                completions.push(Completion {
                    id: seq.req.id,
                    model: seq.req.model,
                    priority: seq.req.priority,
                    tokens: std::mem::take(&mut seq.generated),
                    finish: FinishReason::DeadlineExceeded,
                    arrival_step: seq.req.arrival_step,
                    deadline_steps: seq.req.deadline_steps,
                    admitted_step: Some(seq.admitted_step),
                    first_token_step: seq.first_token_step,
                    finished_step: clock,
                    preemptions: seq.preemptions,
                    paused_steps: seq.paused_steps,
                    paused_steps_before_first_token: seq.paused_steps_pre_first,
                    retry_after_steps: None,
                });
                false
            });
        }

        // 3b. The same expiry rule for paused sequences: a lapsed
        //     deadline ends the request even while it holds no slot.
        {
            let clock = self.clock;
            let completions = &mut self.completions;
            self.paused.retain_mut(|p| {
                let expired = p
                    .req
                    .deadline_steps
                    .is_some_and(|d| clock.saturating_sub(p.req.arrival_step) >= d);
                if expired {
                    completions.push(p.finish_paused(clock, FinishReason::DeadlineExceeded));
                }
                !expired
            });
        }
        self.obs_end();
        self.obs_begin("doom", cat);

        // 4. Doomed eviction (deadline-aware policies only): a waiting
        //    or paused request whose minimal completion no longer fits
        //    its budget is a guaranteed miss — drop it *before*
        //    admission instead of wasting slot steps discovering that
        //    at expiry. Paused sequences are judged on their *remaining*
        //    work: partial progress buys real slack.
        if policy.evicts_doomed() {
            let clock = self.clock;
            let chunk = self.cfg.prefill_chunk;
            let completions = &mut self.completions;
            self.waiting.retain(|r| {
                let doomed = r
                    .absolute_deadline()
                    .is_some_and(|abs| clock + r.min_steps_to_complete(chunk) > abs);
                if doomed {
                    Self::evict_unadmitted(completions, r, clock, FinishReason::DeadlineExceeded);
                }
                !doomed
            });
            self.paused.retain_mut(|p| {
                let doomed = p.req.absolute_deadline().is_some_and(|abs| {
                    clock + p.req.min_steps_remaining(p.pos, p.generated.len(), chunk) > abs
                });
                if doomed {
                    completions.push(p.finish_paused(clock, FinishReason::DeadlineExceeded));
                }
                !doomed
            });
        }
        self.obs_end();

        // 5. Preemption: the policy may pause residents so that more
        //    urgent candidates can take their slots this very step. A
        //    victim's fixed-size state is snapshotted via its backend,
        //    the slot is released, and the sequence joins the paused
        //    queue (it re-enters through admission as a candidate). The
        //    engine enforces index validity, mirroring admission.
        let chunk = self.effective_prefill_chunk();
        self.health.fill_mask(&mut self.quarantine_mask);
        let mut active_per_model = vec![0usize; self.registry.len()];
        for seq in &self.active {
            active_per_model[seq.req.model] += 1;
        }
        let mut preempted_this_step = 0usize;
        let mut resumed_this_step = 0usize;
        let mut admitted_this_step = 0usize;
        let mut sub_state_moves = vec![0usize; self.registry.len()];
        let mut resident_views = self.resident_views();
        let mut paused_views = self.paused_views();
        self.obs_begin("preempt", cat);
        {
            let mut victims = policy.preempt(&AdmissionCtx {
                waiting: &self.waiting,
                paused: &paused_views,
                residents: &resident_views,
                clock: self.clock,
                free_slots: self.pool.free_count(),
                active: self.active.len(),
                active_per_model: &active_per_model,
                prefill_chunk: chunk,
                quarantined: &self.quarantine_mask,
            });
            let mut seen = vec![false; self.active.len()];
            victims.retain(|&i| i < seen.len() && !std::mem::replace(&mut seen[i], true));
            victims.sort_unstable();
            for &i in victims.iter().rev() {
                let seq = self.active.remove(i);
                let backend = self
                    .registry
                    .get(seq.req.model)
                    .expect("resident implies registered");
                let state = backend.save_state(&self.pool.states()[seq.slot]);
                self.pool.release(seq.slot);
                active_per_model[seq.req.model] -= 1;
                sub_state_moves[seq.req.model] += 1;
                preempted_this_step += 1;
                self.total_preemptions += 1;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.lifecycle(seq.req.id, self.clock, LifecyclePhase::Preempted);
                }
                self.paused.push(PausedSeq {
                    state,
                    pos: seq.pos,
                    generated: seq.generated,
                    rng: seq.rng,
                    admitted_step: seq.admitted_step,
                    first_token_step: seq.first_token_step,
                    paused_at: self.clock,
                    preemptions: seq.preemptions + 1,
                    paused_steps: seq.paused_steps,
                    paused_steps_pre_first: seq.paused_steps_pre_first,
                    harvest: seq.harvest,
                    req: seq.req,
                });
            }
            // The views only change when someone was actually paused —
            // the common (non-preempting) step reuses them for select.
            if !victims.is_empty() {
                resident_views = self.resident_views();
                paused_views = self.paused_views();
            }
        }
        self.obs_end();
        self.obs_begin("admit", cat);

        // 6. Admission: the policy selects *which* candidates — fresh
        //    arrivals and paused sequences alike — take the free slots,
        //    in what order. Picking a paused candidate restores its
        //    saved state into the newly claimed slot (a resume). The
        //    engine enforces the invariants (bounds, uniqueness, free
        //    slots) so policies stay simple.
        let mut picks = policy.select(&AdmissionCtx {
            waiting: &self.waiting,
            paused: &paused_views,
            residents: &resident_views,
            clock: self.clock,
            free_slots: self.pool.free_count(),
            active: self.active.len(),
            active_per_model: &active_per_model,
            prefill_chunk: chunk,
            quarantined: &self.quarantine_mask,
        });
        let n_waiting = self.waiting.len();
        {
            let mut seen = vec![false; n_waiting + self.paused.len()];
            picks.retain(|&i| i < seen.len() && !std::mem::replace(&mut seen[i], true));
            // Quarantine gate, enforced by the engine so no policy can
            // leak work into a faulted domain: picks naming a
            // quarantined model are dropped; a half-open model admits
            // exactly one canary to probe it. (Cold path — the vec
            // allocates only on steps where some backend is unhealthy.)
            if self.health.any_unhealthy() {
                let health = &self.health;
                let waiting = &self.waiting;
                let paused = &self.paused;
                let mut canary_used = vec![false; self.registry.len()];
                picks.retain(|&i| {
                    let model = if i < n_waiting {
                        waiting[i].model
                    } else {
                        paused[i - n_waiting].req.model
                    };
                    match health.get(model) {
                        BackendHealth::Healthy => true,
                        BackendHealth::Quarantined { .. } => false,
                        BackendHealth::HalfOpen { .. } => {
                            !std::mem::replace(&mut canary_used[model], true)
                        }
                    }
                });
            }
            picks.truncate(self.pool.free_count());
        }
        // 6a. Token-budget gate ([`TokenBudget`]), layered under every
        //     policy: walk the surviving picks in policy order and defer
        //     any that would push this step's prefill feed past
        //     `max_prefill_tokens_per_step` or the resident footprint
        //     past `max_total_tokens`. Deferred picks stay queued (or
        //     paused) — admission pressure, never a drop. All accounting
        //     uses the *configured* chunk, not the degradation ladder's
        //     effective chunk, so a ladder recovering mid-run can never
        //     invalidate an admission the budget already granted.
        let mut budget_deferred_this_step = 0u64;
        if let Some(budget) = self.cfg.token_budget {
            let full_chunk = self.cfg.prefill_chunk;
            // Running totals start from what the residents already
            // commit this step: each prefilling sequence's next chunk,
            // and every slot-holder's worst-case footprint.
            let mut prefill_run: usize = self
                .active
                .iter()
                .filter(|s| s.pos < s.req.prompt.len())
                .map(|s| (s.req.prompt.len() - s.pos).min(full_chunk))
                .sum();
            let mut total_run: usize = self
                .active
                .iter()
                .map(|s| s.req.prompt.len() + s.req.max_new_tokens)
                .sum();
            let waiting = &self.waiting;
            let paused = &self.paused;
            picks.retain(|&i| {
                let (first_feed, footprint) = if i < n_waiting {
                    let r = &waiting[i];
                    // A fresh admission prefills from position 0; a
                    // prefix-cache hit would feed less, but the gate
                    // runs before the lookup, so it charges the
                    // worst case (the invariant stays an upper bound).
                    (
                        r.prompt.len().min(full_chunk),
                        r.prompt.len() + r.max_new_tokens,
                    )
                } else {
                    let p = &paused[i - n_waiting];
                    let feed = if p.pos < p.req.prompt.len() {
                        (p.req.prompt.len() - p.pos).min(full_chunk)
                    } else {
                        0
                    };
                    (feed, p.req.prompt.len() + p.req.max_new_tokens)
                };
                // Liveness valve: with nothing resident and nothing yet
                // admitted, the first pick runs even if it alone busts a
                // cap — an oversized request executes solo instead of
                // starving behind a budget it can never fit.
                let valve = prefill_run == 0 && total_run == 0;
                let fits = prefill_run + first_feed <= budget.max_prefill_tokens_per_step
                    && total_run + footprint <= budget.max_total_tokens;
                if fits || valve {
                    prefill_run += first_feed;
                    total_run += footprint;
                    true
                } else {
                    budget_deferred_this_step += 1;
                    false
                }
            });
        }
        self.total_budget_deferrals += budget_deferred_this_step;
        if !picks.is_empty() {
            let mut drained: Vec<Option<GenRequest>> = self.waiting.drain(..).map(Some).collect();
            let mut drained_paused: Vec<Option<PausedSeq>> =
                self.paused.drain(..).map(Some).collect();
            for &i in &picks {
                let slot = self.pool.alloc().expect("picks bounded by free slots");
                if i < n_waiting {
                    let req = drained[i].take().expect("picks are unique and in range");
                    let mut start_pos = 0usize;
                    let mut harvest = None;
                    // A session resume: restore the prior turn's saved
                    // state into the fresh slot (one state-transfer
                    // move, priced like a preemption resume) instead of
                    // starting from zeros.
                    if let Some(prior) = self.resume_states.remove(&req.id) {
                        let backend = self.registry.get(req.model).expect("validated at submit");
                        backend.restore_state(&prior, &mut self.pool.states_mut()[slot]);
                        sub_state_moves[req.model] += 1;
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.session_restore();
                        }
                    } else if let Some(cache) = self.prefix.as_mut() {
                        // A shared-prefix marker (validated: at least
                        // one token must remain to feed). A cache hit
                        // restores the post-prefix snapshot — one
                        // state-transfer move, priced exactly like a
                        // resume — and prefill starts *after* the
                        // prefix. A miss marks the sequence for harvest
                        // in phase 8b.
                        if let Some(k) =
                            req.shared_prefix.filter(|&k| k > 0 && k < req.prompt.len())
                        {
                            if let Some(snap) = cache.lookup(req.model, &req.prompt[..k]) {
                                let backend =
                                    self.registry.get(req.model).expect("validated at submit");
                                backend.restore_state(snap, &mut self.pool.states_mut()[slot]);
                                sub_state_moves[req.model] += 1;
                                start_pos = k;
                                if let Some(o) = self.obs.as_deref_mut() {
                                    o.prefix_hit();
                                }
                            } else {
                                harvest = Some(k);
                                if let Some(o) = self.obs.as_deref_mut() {
                                    o.prefix_miss();
                                }
                            }
                        }
                    }
                    admitted_this_step += 1;
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.lifecycle(req.id, self.clock, LifecyclePhase::Admitted);
                    }
                    if self.events_enabled {
                        self.events.push(StepEvent::Started {
                            id: req.id,
                            step: self.clock,
                        });
                    }
                    let rng = StdRng::seed_from_u64(req.seed);
                    self.active.push(ActiveSeq {
                        slot,
                        pos: start_pos,
                        generated: Vec::with_capacity(req.max_new_tokens),
                        rng,
                        admitted_step: self.clock,
                        first_token_step: None,
                        preemptions: 0,
                        paused_steps: 0,
                        paused_steps_pre_first: 0,
                        harvest,
                        req,
                    });
                } else {
                    let p = drained_paused[i - n_waiting]
                        .take()
                        .expect("picks are unique and in range");
                    let backend = self
                        .registry
                        .get(p.req.model)
                        .expect("resident implies registered");
                    backend.restore_state(&p.state, &mut self.pool.states_mut()[slot]);
                    let (pause_len, paused_steps, pre_first) = p.end_episode(self.clock);
                    sub_state_moves[p.req.model] += 1;
                    resumed_this_step += 1;
                    self.total_resumes += 1;
                    self.resume_latency.push(pause_len as f64);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.lifecycle(p.req.id, self.clock, LifecyclePhase::Resumed);
                    }
                    self.active.push(ActiveSeq {
                        slot,
                        pos: p.pos,
                        generated: p.generated,
                        rng: p.rng,
                        admitted_step: p.admitted_step,
                        first_token_step: p.first_token_step,
                        preemptions: p.preemptions,
                        paused_steps,
                        paused_steps_pre_first: pre_first,
                        harvest: p.harvest,
                        req: p.req,
                    });
                }
            }
            self.waiting = drained.into_iter().flatten().collect();
            self.paused = drained_paused.into_iter().flatten().collect();
        }
        // Resident-token footprint at its per-step peak
        // (post-admission, pre-retirement) — the quantity
        // [`TokenBudget::max_total_tokens`] bounds, recorded whether or
        // not a budget is set so utilization is always reportable.
        let resident_tokens_this_step: usize = self
            .active
            .iter()
            .map(|s| s.req.prompt.len() + s.req.max_new_tokens)
            .sum();
        self.peak_resident_tokens = self.peak_resident_tokens.max(resident_tokens_this_step);
        self.obs_end();
        self.obs_begin("advance", cat);

        // 7. One batched advance per model: sequences are grouped into
        //    per-model sub-batches (each is one shared weight stream on
        //    the accelerator); a prefilling sequence feeds its next
        //    prompt chunk, a decoding one its previous sample. Outputs
        //    land per active sequence, so downstream bookkeeping is
        //    multiplexing- and chunking-agnostic.
        let total_batch = self.active.len();
        let mut sub_batches = vec![0usize; self.registry.len()];
        let mut sub_processed = vec![0usize; self.registry.len()];
        let mut step_shards = 0u64;
        // Each backend is one fault domain: its advance runs under a
        // panic catch, so an error return or a panic fails only that
        // model's sub-batch this step — every other domain's results
        // land normally and the engine survives. At most one fault per
        // model per step; `true` marks a caught panic.
        let mut faulted: Vec<Option<bool>> = vec![None; self.registry.len()];
        self.logit_rows.clear();
        self.logit_rows.resize(self.active.len(), 0);
        let mut items = recycle_items(std::mem::take(&mut self.items));
        for (mid, _, backend) in self.registry.iter() {
            items.clear();
            for (i, seq) in self.active.iter().enumerate() {
                if seq.req.model == mid {
                    self.logit_rows[i] = items.len();
                    items.push((seq.slot, seq.feed(chunk)));
                }
            }
            if items.is_empty() {
                continue;
            }
            let fed: usize = items.iter().map(|(_, toks)| toks.len()).sum();
            if let Some(o) = self.obs.as_deref_mut() {
                o.spans.begin("sub_batch", cat, self.clock);
            }
            // `AssertUnwindSafe` is justified the same way the worker
            // pool's is: on unwind the sub-batch's outputs are
            // discarded, its sequences retire as Failed with their
            // slots released, and `SlotPool::alloc` re-zeroes states on
            // reuse — torn state cannot reach a later request.
            let states = self.pool.states_mut();
            let (workers, out) = (&self.workers, &mut self.logits[mid]);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                backend.advance_into(&items, states, workers, out)
            }));
            if let Some(o) = self.obs.as_deref_mut() {
                o.spans
                    .end_with([("model", mid as f64), ("tokens", fed as f64)]);
            }
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(_)) => {
                    faulted[mid] = Some(false);
                    continue;
                }
                Err(payload) => {
                    // The message is reconstructed for assertions only;
                    // the payload itself stops here.
                    let _ = panic_message(payload.as_ref());
                    faulted[mid] = Some(true);
                    continue;
                }
            }
            sub_batches[mid] = items.len();
            sub_processed[mid] = fed;
            self.processed_per_model[mid] += fed as u64;
            // Worker shards this sub-batch ran on: the advance never
            // uses more shards than sequences; 1 on a one-thread pool.
            step_shards += self.workers.threads().min(items.len()) as u64;
            // A half-open backend whose canary advanced cleanly is
            // readmitted for full service.
            if self.health.on_clean_advance(mid) {
                self.total_quarantine_recoveries += 1;
                let clock = self.clock;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.fault_event(clock, mid as u32, FaultKind::Recovered);
                }
            }
        }
        self.items = recycle_items(items);
        let worker_threads = self.worker_threads();
        if let Some(o) = self.obs.as_deref_mut() {
            o.pool_activity(worker_threads, step_shards);
        }

        // 7b. Fault containment: quarantine each faulted backend (with
        //     deterministic exponential backoff) and retire its
        //     residents as Failed — matching `logit_rows` entries
        //     removed in tandem so the sampling loop below stays
        //     index-aligned. Paused sequences of the domain keep their
        //     pre-fault (intact) saved states and resume once the
        //     quarantine lifts; tokens generated before the fault ride
        //     out in the completion record.
        if faulted.iter().any(Option::is_some) {
            for (mid, fault) in faulted.iter().enumerate() {
                let Some(&was_panic) = fault.as_ref() else {
                    continue;
                };
                self.total_backend_faults += 1;
                // The unwound (or erroring) backend may hold torn
                // internal scratch: have it rebuild before it is ever
                // called again. The recovery hook is fault-isolated
                // too — a panic here stays contained.
                if let Some(backend) = self.registry.get(mid) {
                    let _ = catch_unwind(AssertUnwindSafe(|| backend.reset_after_fault()));
                }
                let clock = self.clock;
                let kind = if was_panic {
                    FaultKind::BackendPanic
                } else {
                    FaultKind::BackendError
                };
                if let Some(o) = self.obs.as_deref_mut() {
                    o.fault_event(clock, mid as u32, kind);
                }
                if self.resilience.quarantine {
                    self.total_quarantine_entries += 1;
                    self.health.on_fault(mid, clock, &self.resilience);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.fault_event(clock, mid as u32, FaultKind::Quarantined);
                    }
                }
            }
            let clock = self.clock;
            let mut i = 0;
            while i < self.active.len() {
                if faulted[self.active[i].req.model].is_none() {
                    i += 1;
                    continue;
                }
                let mut seq = self.active.remove(i);
                self.logit_rows.remove(i);
                self.pool.release(seq.slot);
                self.total_failed += 1;
                // A failed request's pending session restore is dropped
                // by the step-close sweep below, like any other exit.
                self.completions.push(Completion {
                    id: seq.req.id,
                    model: seq.req.model,
                    priority: seq.req.priority,
                    tokens: std::mem::take(&mut seq.generated),
                    finish: FinishReason::Failed,
                    arrival_step: seq.req.arrival_step,
                    deadline_steps: seq.req.deadline_steps,
                    admitted_step: Some(seq.admitted_step),
                    first_token_step: seq.first_token_step,
                    finished_step: clock,
                    preemptions: seq.preemptions,
                    paused_steps: seq.paused_steps,
                    paused_steps_before_first_token: seq.paused_steps_pre_first,
                    retry_after_steps: None,
                });
            }
        }

        self.obs_end();
        self.obs_begin("sample", cat);

        // 8. Bookkeeping per sequence, in batch order. The step that
        //    consumes the final prompt chunk (or a decode step) yields
        //    the next sampled token.
        let mut prefill_tokens = 0usize;
        let mut decode_tokens = 0usize;
        for (seq, &row) in self.active.iter_mut().zip(&self.logit_rows) {
            let logits = self.logits[seq.req.model].row(row);
            if seq.pos < seq.req.prompt.len() {
                // Mirrors `feed` exactly (both derive from `feed_len`),
                // including the clip at a pending harvest boundary.
                let fed = seq.feed_len(chunk);
                prefill_tokens += fed;
                seq.pos += fed;
            } else {
                seq.pos += 1;
            }
            if seq.pos >= seq.req.prompt.len() {
                let token = seq.req.sampler.sample(logits, &mut seq.rng);
                if seq.first_token_step.is_none() {
                    seq.first_token_step = Some(self.clock);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.lifecycle(seq.req.id, self.clock, LifecyclePhase::FirstToken);
                    }
                }
                seq.generated.push(token);
                decode_tokens += 1;
                if self.events_enabled {
                    self.events.push(StepEvent::Token {
                        id: seq.req.id,
                        token,
                        step: self.clock,
                    });
                }
            }
        }

        // 8b. Prefix harvest: a sequence whose prefill just crossed its
        //     cache-miss prefix boundary has, in its slot, *exactly* the
        //     state of a run that prefilled the prefix alone — feeding
        //     clips there ([`ActiveSeq::feed_len`]). Snapshot it into
        //     the cache (one state save on the shared stream, counted
        //     with the step's other state moves) unless a concurrent
        //     miss already harvested the same prefix this wave.
        if let Some(cache) = self.prefix.as_mut() {
            for seq in &mut self.active {
                let Some(h) = seq.harvest else { continue };
                if seq.pos < h {
                    continue;
                }
                debug_assert_eq!(seq.pos, h, "feeding clips at the harvest boundary");
                seq.harvest = None;
                if !cache.contains(seq.req.model, &seq.req.prompt[..h]) {
                    let backend = self
                        .registry
                        .get(seq.req.model)
                        .expect("resident implies registered");
                    cache.insert(
                        seq.req.model,
                        &seq.req.prompt[..h],
                        backend.save_state(&self.pool.states()[seq.slot]),
                    );
                    sub_state_moves[seq.req.model] += 1;
                }
            }
        }

        self.obs_end();
        self.obs_begin("retire", cat);

        // 9. Retire finished sequences (deadline expiry is handled
        //    pre-step, in 3).
        let clock = self.clock;
        let pool = &mut self.pool;
        let completions = &mut self.completions;
        let registry = &self.registry;
        let session_snapshots = &mut self.session_snapshots;
        self.active.retain_mut(|seq| {
            let hit_eos = seq
                .req
                .eos_token
                .is_some_and(|eos| seq.generated.last() == Some(&eos));
            let done = seq.generated.len() >= seq.req.max_new_tokens || hit_eos;
            if !done {
                return true;
            }
            let finish = if hit_eos {
                FinishReason::Eos
            } else {
                FinishReason::MaxTokens
            };
            // Session turns keep their final state for the next turn —
            // one state save on the shared stream, counted with the
            // step's other state moves. The last sampled token rides
            // along: it was never fed through the model, so the resume
            // feeds it first (see [`SessionSnapshot`]).
            if let Some(sid) = seq.req.session {
                let backend = registry
                    .get(seq.req.model)
                    .expect("resident implies registered");
                session_snapshots.push((
                    sid,
                    SessionSnapshot {
                        state: backend.save_state(&pool.states()[seq.slot]),
                        pending_token: *seq
                            .generated
                            .last()
                            .expect("finished implies a sampled token"),
                        consumed_tokens: seq.pos,
                    },
                ));
                sub_state_moves[seq.req.model] += 1;
            }
            pool.release(seq.slot);
            completions.push(Completion {
                id: seq.req.id,
                model: seq.req.model,
                priority: seq.req.priority,
                tokens: std::mem::take(&mut seq.generated),
                finish,
                arrival_step: seq.req.arrival_step,
                deadline_steps: seq.req.deadline_steps,
                admitted_step: Some(seq.admitted_step),
                first_token_step: seq.first_token_step,
                finished_step: clock,
                preemptions: seq.preemptions,
                paused_steps: seq.paused_steps,
                paused_steps_before_first_token: seq.paused_steps_pre_first,
                retry_after_steps: None,
            });
            false
        });
        self.obs_end();

        // 9b. Graceful degradation: fold this step's closing queue
        //     depth into the breach/recovery counters and walk the
        //     ladder on a sustained breach (or sustained recovery).
        //     Inert unless configured.
        if let Some(dcfg) = self.resilience.degradation {
            if let Some(level) = self.degradation.observe(self.waiting.len(), &dcfg) {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.degradation(level);
                }
            }
        }

        // 10. Trace for the cost models. `batch_per_step` is residency
        //    (what URAM bounds); `processed_per_step` is token-advances
        //    (what the weight stream is shared across, hence what a
        //    step costs); `tokens_per_step` counts sampled outputs;
        //    `state_moves_per_step` is pause/resume traffic (each move
        //    is one fixed-size state on the shared memory stream).
        let processed: usize = sub_processed.iter().sum();
        self.total_prefill_tokens += prefill_tokens as u64;
        self.total_decode_tokens += decode_tokens as u64;
        self.trace.batch_per_step.push(total_batch);
        self.trace.processed_per_step.push(processed);
        self.trace.sub_batches_per_step.push(sub_batches);
        self.trace.sub_processed_per_step.push(sub_processed);
        self.trace.tokens_per_step.push(decode_tokens);
        self.trace.queue_depth_per_step.push(self.waiting.len());
        self.trace.preemptions_per_step.push(preempted_this_step);
        self.trace.resumes_per_step.push(resumed_this_step);
        self.trace.paused_depth_per_step.push(self.paused.len());
        self.trace
            .state_moves_per_step
            .push(sub_state_moves.iter().sum());
        self.trace.sub_state_moves_per_step.push(sub_state_moves);
        self.trace.cancellations_per_step.push(cancelled_this_step);
        self.trace.prefill_per_step.push(prefill_tokens);
        self.trace
            .resident_tokens_per_step
            .push(resident_tokens_this_step);
        self.trace
            .budget_deferred_per_step
            .push(budget_deferred_this_step as usize);
        self.budget_deferred_last_step = budget_deferred_this_step;

        // 10b. Observability close: end the step span with the step's
        //      headline numbers, then fold the step — its record, the
        //      requests that left the engine, its session parks, its
        //      per-model work — into metrics and the flight recorder.
        //      All of it is allocation-free in steady state.
        if let Some(o) = self.obs.as_deref_mut() {
            o.spans.end_with([
                ("batch", total_batch as f64),
                ("processed", processed as f64),
            ]);
            let wall_ns = wall_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let sub_processed_step = self
                .trace
                .sub_processed_per_step
                .last()
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let sub_moves_step = self
                .trace
                .sub_state_moves_per_step
                .last()
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let rec = StepRecord {
                step: self.clock,
                batch: total_batch as u32,
                processed: processed as u32,
                decode_tokens: decode_tokens as u32,
                prefill_tokens: prefill_tokens as u32,
                admitted: admitted_this_step as u32,
                preempted: preempted_this_step as u32,
                resumed: resumed_this_step as u32,
                // Filled by `close_step` from the completion delta.
                cancelled: 0,
                expired: 0,
                queue_depth: self.waiting.len() as u32,
                paused_depth: self.paused.len() as u32,
                free_slots: self.pool.free_count() as u32,
                state_moves: sub_moves_step.iter().sum::<usize>() as u32,
                wall_ns,
            };
            o.close_step(
                rec,
                &self.completions[completions_at_entry..],
                &self.session_snapshots[snapshots_at_entry..],
                sub_processed_step,
                sub_moves_step,
            );
            o.budget_deferred(budget_deferred_this_step);
        }

        // A request that left the engine this step (completed, expired,
        // or cancelled) can no longer claim its pending session
        // restore — drop the saved state so nothing leaks.
        if !self.resume_states.is_empty() {
            for c in &self.completions[completions_at_entry..] {
                self.resume_states.remove(&c.id);
            }
        }

        debug_assert_eq!(
            self.pool.free_count() + self.active.len(),
            self.pool.capacity(),
            "slot conservation violated"
        );

        self.clock += 1;
        Ok(())
    }

    /// Builds the aggregate report for the run so far. The policy names
    /// itself ([`Policy::name`]); no stringly-typed tag.
    pub fn report(&self, policy: &dyn Policy) -> ServeReport {
        let finished: Vec<&Completion> = self
            .completions
            .iter()
            .filter(|c| matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos))
            .collect();
        let evicted = self
            .completions
            .iter()
            .filter(|c| c.finish == FinishReason::DeadlineExceeded)
            .count();
        let ttft: Vec<f64> = finished
            .iter()
            .filter_map(|c| c.ttft_steps().map(|t| t as f64))
            .collect();
        let e2e: Vec<f64> = finished
            .iter()
            .filter_map(|c| c.e2e_steps().map(|e| e as f64))
            .collect();
        let queue: Vec<f64> = finished
            .iter()
            .filter_map(|c| c.queue_steps().map(|q| q as f64))
            .collect();
        // Cancelled requests are excluded from deadline accounting even
        // when they carried a budget: the client withdrew them, so they
        // neither hit nor missed (see [`Completion::deadline_hit`]).
        // Failed and rejected requests are excluded the same way — an
        // infrastructure fault or admission shed is not a scheduling
        // outcome.
        let deadline_total = self
            .completions
            .iter()
            .filter(|c| {
                c.deadline_steps.is_some()
                    && !matches!(
                        c.finish,
                        FinishReason::Cancelled | FinishReason::Failed | FinishReason::Rejected
                    )
            })
            .count();
        let deadline_hits = self
            .completions
            .iter()
            .filter(|c| c.deadline_hit() == Some(true))
            .count();
        // Requests touched by preemption at least once: finished ones
        // carry the count in their completion; in-flight (resident or
        // paused) ones are counted live so mid-run reports are honest.
        let preempted_requests = self
            .completions
            .iter()
            .filter(|c| c.preemptions > 0)
            .count()
            + self.active.iter().filter(|s| s.preemptions > 0).count()
            + self.paused.len();

        let per_model = self
            .registry
            .iter()
            .map(|(mid, name, _)| {
                let mine: Vec<&&Completion> = finished.iter().filter(|c| c.model == mid).collect();
                let ttft: Vec<f64> = mine
                    .iter()
                    .filter_map(|c| c.ttft_steps().map(|t| t as f64))
                    .collect();
                let e2e: Vec<f64> = mine
                    .iter()
                    .filter_map(|c| c.e2e_steps().map(|e| e as f64))
                    .collect();
                ModelBreakdown {
                    model: mid,
                    name: name.to_string(),
                    completed: mine.len(),
                    evicted: self
                        .completions
                        .iter()
                        .filter(|c| c.model == mid && c.finish == FinishReason::DeadlineExceeded)
                        .count(),
                    generated_tokens: mine.iter().map(|c| c.tokens.len() as u64).sum(),
                    processed_tokens: self.processed_per_model[mid],
                    ttft_steps: Percentiles::of(&ttft),
                    e2e_steps: Percentiles::of(&e2e),
                }
            })
            .collect();

        let per_class = Priority::ALL
            .iter()
            .map(|&priority| {
                let mine: Vec<&Completion> = self
                    .completions
                    .iter()
                    .filter(|c| c.priority == priority)
                    .collect();
                let fin: Vec<&&Completion> = mine
                    .iter()
                    .filter(|c| matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos))
                    .collect();
                let ttft: Vec<f64> = fin
                    .iter()
                    .filter_map(|c| c.ttft_steps().map(|t| t as f64))
                    .collect();
                let e2e: Vec<f64> = fin
                    .iter()
                    .filter_map(|c| c.e2e_steps().map(|e| e as f64))
                    .collect();
                let queue: Vec<f64> = fin
                    .iter()
                    .filter_map(|c| c.queue_steps().map(|q| q as f64))
                    .collect();
                ClassBreakdown {
                    priority,
                    completed: fin.len(),
                    evicted: mine
                        .iter()
                        .filter(|c| c.finish == FinishReason::DeadlineExceeded)
                        .count(),
                    deadline_total: mine
                        .iter()
                        .filter(|c| {
                            c.deadline_steps.is_some()
                                && !matches!(
                                    c.finish,
                                    FinishReason::Cancelled
                                        | FinishReason::Failed
                                        | FinishReason::Rejected
                                )
                        })
                        .count(),
                    deadline_hits: mine
                        .iter()
                        .filter(|c| c.deadline_hit() == Some(true))
                        .count(),
                    ttft_steps: Percentiles::of(&ttft),
                    e2e_steps: Percentiles::of(&e2e),
                    queue_steps: Percentiles::of(&queue),
                }
            })
            .collect();

        ServeReport {
            policy: policy.name(),
            completed: finished.len(),
            evicted,
            failed: self.total_failed,
            rejected: self.total_rejected,
            backend_faults: self.total_backend_faults,
            quarantine_entries: self.total_quarantine_entries,
            quarantine_recoveries: self.total_quarantine_recoveries,
            cancellations: self.total_cancellations,
            wasted_token_advances: self.total_wasted_advances,
            reclaimed_slot_steps: self.total_reclaimed_slot_steps,
            steps: self.clock,
            generated_tokens: self.total_decode_tokens,
            prefill_tokens: self.total_prefill_tokens,
            deadline_total,
            deadline_hits,
            preemptions: self.total_preemptions,
            resumes: self.total_resumes,
            preempted_requests,
            resume_latency_steps: Percentiles::of(&self.resume_latency),
            ttft_steps: Percentiles::of(&ttft),
            e2e_steps: Percentiles::of(&e2e),
            queue_steps: Percentiles::of(&queue),
            mean_occupancy: self.trace.mean_batch() / self.pool.capacity() as f64,
            budget_deferrals: self.total_budget_deferrals,
            budget_prefill_utilization: self.cfg.token_budget.map(|b| {
                let steps = self.trace.prefill_per_step.len();
                if steps == 0 {
                    0.0
                } else {
                    let fed: u64 = self.trace.prefill_per_step.iter().map(|&p| p as u64).sum();
                    fed as f64 / (steps as u64 * b.max_prefill_tokens_per_step as u64) as f64
                }
            }),
            budget_resident_utilization: self
                .cfg
                .token_budget
                .map(|b| self.peak_resident_tokens as f64 / b.max_total_tokens as f64),
            prefix_hits: self.prefix.as_ref().map_or(0, PrefixCache::hits),
            prefix_misses: self.prefix.as_ref().map_or(0, PrefixCache::misses),
            per_model,
            per_class,
            trace: self.trace.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Edf, Fifo, PriorityClasses, StaticBatching, WeightedFair};
    use lightmamba_model::MambaConfig;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    fn burst_requests(n: u64, prompt_len: usize, gen_len: usize) -> Vec<GenRequest> {
        (0..n)
            .map(|id| GenRequest::greedy(id, vec![(id % 200) as u32 + 1; prompt_len], gen_len))
            .collect()
    }

    fn sequential_reference(model: &MambaModel, req: &GenRequest) -> Vec<u32> {
        let mut state = model.new_state();
        let mut rng = StdRng::seed_from_u64(req.seed);
        let mut logits = model.prefill(&req.prompt, &mut state).unwrap();
        let mut expect = Vec::new();
        for _ in 0..req.max_new_tokens {
            let t = req.sampler.sample(&logits, &mut rng);
            expect.push(t);
            logits = model.forward_step(t, &mut state).unwrap();
        }
        expect
    }

    #[test]
    fn thread_knob_is_validated_and_reported() {
        let model = tiny_model();
        let cfg = |threads| EngineConfig {
            slots: 2,
            max_steps: 100,
            prefill_chunk: 1,
            threads,
            ..Default::default()
        };
        let err = ServeEngine::new(&model, cfg(0)).map(|_| ()).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        assert_eq!(
            ServeEngine::new(&model, cfg(1)).unwrap().worker_threads(),
            1
        );
        assert_eq!(
            ServeEngine::new(&model, cfg(4)).unwrap().worker_threads(),
            4
        );
    }

    #[test]
    fn threaded_engine_matches_single_thread_outputs() {
        // The same burst through a 1-thread and a 4-thread engine:
        // every completion's token stream must be bit-identical, because
        // sharding only partitions each step's batch.
        let model = tiny_model();
        let reqs = burst_requests(8, 5, 6);
        let run = |threads: usize| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 4,
                    max_steps: 10_000,
                    prefill_chunk: 2,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            engine.run(&mut Fifo).unwrap();
            let mut done = engine.completions().to_vec();
            done.sort_by_key(|c| c.id);
            done.into_iter().map(|c| c.tokens).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn drains_a_burst_and_matches_sequential_outputs() {
        let model = tiny_model();
        let reqs = burst_requests(6, 4, 5);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 3,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs.clone()).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 6);
        assert_eq!(report.evicted, 0);

        for req in &reqs {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .unwrap();
            assert_eq!(
                done.tokens,
                sequential_reference(&model, req),
                "request {} diverged",
                req.id
            );
        }
    }

    #[test]
    fn chunked_prefill_is_bit_identical_and_cuts_steps() {
        // The pinned invariant: per-request outputs do not depend on
        // the prefill chunk size — and chunking actually speeds the
        // run up in steps on prompt-heavy work.
        let model = tiny_model();
        let reqs = burst_requests(6, 24, 4);
        let run = |chunk: usize| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 3,
                    max_steps: 10_000,
                    prefill_chunk: chunk,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            let report = engine.run(&mut Fifo).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            (report, out)
        };
        let (r1, out1) = run(1);
        let (r8, out8) = run(8);
        assert_eq!(out1, out8, "outputs depend on prefill chunk");
        for req in &reqs {
            let got = &out8.iter().find(|(id, _)| *id == req.id).unwrap().1;
            assert_eq!(got, &sequential_reference(&model, req));
        }
        assert!(
            r8.steps < r1.steps,
            "chunk 8 took {} steps vs {} with chunk 1",
            r8.steps,
            r1.steps
        );
        // Same total work, fewer steps: the per-step processed counts
        // must sum to the same token total.
        let p1: usize = r1.trace.processed_per_step.iter().sum();
        let p8: usize = r8.trace.processed_per_step.iter().sum();
        assert_eq!(p1, p8);
        assert_eq!(r1.prefill_tokens, r8.prefill_tokens);
        // And chunked steps really do carry more than one token per
        // resident sequence.
        assert!(r8
            .trace
            .processed_per_step
            .iter()
            .zip(&r8.trace.batch_per_step)
            .any(|(&p, &b)| p > b));
    }

    #[test]
    fn continuous_beats_static_on_ttft() {
        let model = tiny_model();
        // Mixed lengths: static batching strands short requests behind
        // long batch-mates and late arrivals behind the whole batch.
        let mut reqs = Vec::new();
        for id in 0..12u64 {
            let gen_len = if id % 3 == 0 { 24 } else { 4 };
            let mut r = GenRequest::greedy(id, vec![3; 4], gen_len);
            r.arrival_step = id; // staggered arrivals
            reqs.push(r);
        }
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 4,
                    max_steps: 10_000,
                    prefill_chunk: 1,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            engine.run(policy).unwrap()
        };
        let cont = run(&mut Fifo);
        let stat = run(&mut StaticBatching);
        assert_eq!(cont.completed, 12);
        assert_eq!(stat.completed, 12);
        assert!(
            cont.ttft_steps.mean < stat.ttft_steps.mean,
            "continuous {:?} vs static {:?}",
            cont.ttft_steps,
            stat.ttft_steps
        );
        assert!(cont.steps <= stat.steps);
    }

    #[test]
    fn outputs_do_not_depend_on_policy() {
        let model = tiny_model();
        let reqs = burst_requests(5, 3, 6);
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 2,
                    max_steps: 10_000,
                    prefill_chunk: 2,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            engine.run(policy).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            out
        };
        let fifo = run(&mut Fifo);
        assert_eq!(fifo, run(&mut StaticBatching));
        assert_eq!(fifo, run(&mut Edf::default()));
        assert_eq!(fifo, run(&mut PriorityClasses::default()));
        assert_eq!(fifo, run(&mut WeightedFair::equal()));
    }

    #[test]
    fn fifo_admission_order_holds() {
        let model = tiny_model();
        let reqs = burst_requests(9, 2, 3);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        engine.run(&mut Fifo).unwrap();
        let mut admissions: Vec<(u64, u64)> = engine
            .completions()
            .iter()
            .map(|c| (c.admitted_step.expect("completed implies admitted"), c.id))
            .collect();
        admissions.sort();
        let ids: Vec<u64> = admissions.iter().map(|&(_, id)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "later requests admitted before earlier ones");
    }

    #[test]
    fn priority_classes_jump_the_queue() {
        let model = tiny_model();
        // One slot, a burst: FIFO would admit in id order; the priority
        // policy admits the interactive stragglers first.
        let reqs: Vec<GenRequest> = (0..6u64)
            .map(|id| {
                let prio = if id >= 4 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                GenRequest::greedy(id, vec![2; 2], 2).with_priority(prio)
            })
            .collect();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut PriorityClasses::default()).unwrap();
        assert_eq!(report.completed, 6);
        let mut admissions: Vec<(u64, u64)> = engine
            .completions()
            .iter()
            .map(|c| (c.admitted_step.unwrap(), c.id))
            .collect();
        admissions.sort();
        let ids: Vec<u64> = admissions.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![4, 5, 0, 1, 2, 3]);
        // The report slices by class.
        let interactive = &report.per_class[0];
        assert_eq!(interactive.priority, Priority::Interactive);
        assert_eq!(interactive.completed, 2);
        assert!(
            interactive.queue_steps.mean < report.per_class[2].queue_steps.mean,
            "interactive {:?} vs batch {:?}",
            interactive.queue_steps,
            report.per_class[2].queue_steps
        );
    }

    #[test]
    fn edf_beats_fifo_on_deadline_hits() {
        // The acceptance scenario in miniature: a deadline-free hog
        // arrives first, then tight-deadline requests. FIFO admits in
        // arrival order and lets the deadlines starve; EDF reorders the
        // queue and strictly wins on hit rate — outputs unchanged.
        let model = tiny_model();
        let mut reqs = vec![GenRequest::greedy(0, vec![1; 4], 30)];
        for id in 1..5u64 {
            reqs.push(GenRequest::greedy(id, vec![2; 2], 3).with_deadline(10));
        }
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 2,
                    max_steps: 10_000,
                    prefill_chunk: 1,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            engine.run(policy).unwrap()
        };
        let fifo = run(&mut Fifo);
        let edf = run(&mut Edf::default());
        assert_eq!(fifo.deadline_total, 4);
        assert_eq!(edf.deadline_total, 4);
        assert!(
            edf.deadline_hits > fifo.deadline_hits,
            "edf {}/{} vs fifo {}/{}",
            edf.deadline_hits,
            edf.deadline_total,
            fifo.deadline_hits,
            fifo.deadline_total
        );
        assert!(edf.deadline_hit_rate() > fifo.deadline_hit_rate());
    }

    #[test]
    fn doomed_requests_are_evicted_before_admission() {
        let model = tiny_model();
        // Needs 2 prefill + 9 decode steps but only has a 5-step budget:
        // under EDF it must be dropped at arrival, not at expiry, and
        // never occupy the (free!) slot.
        let doomed = GenRequest::greedy(0, vec![1; 2], 10).with_deadline(5);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 100,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![doomed.clone()]).unwrap();
        let report = engine.run(&mut Edf::default()).unwrap();
        assert_eq!(report.evicted, 1);
        let c = &engine.completions()[0];
        assert_eq!(c.finish, FinishReason::DeadlineExceeded);
        assert_eq!(c.admitted_step, None);
        assert_eq!(c.finished_step, 0, "evicted at arrival, not at expiry");
        // FIFO admits it and burns 5 steps discovering the miss.
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 100,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![doomed]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(engine.completions()[0].admitted_step, Some(0));
        assert_eq!(engine.completions()[0].finished_step, 5);
    }

    #[test]
    fn a_feasible_deadline_survives_doomed_eviction() {
        let model = tiny_model();
        // 2 prefill + 2 decode steps in a 10-step budget: feasible, and
        // EDF must serve it to completion.
        let req = GenRequest::greedy(0, vec![1; 2], 3).with_deadline(10);
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        engine.submit(vec![req]).unwrap();
        let report = engine.run(&mut Edf::default()).unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(report.deadline_hits, 1);
    }

    #[test]
    fn wfq_shares_one_pool_by_weight() {
        use crate::backend::FpBackend;
        use crate::registry::ModelRegistry;

        let model = tiny_model();
        let mut reg = ModelRegistry::new();
        reg.register("a", Box::new(FpBackend::new(&model))).unwrap();
        reg.register("b", Box::new(FpBackend::new(&model))).unwrap();

        // Saturation: far more equal-shape work per model than the step
        // budget can finish, so shares reflect policy, not drain order.
        let reqs: Vec<GenRequest> = (0..400u64)
            .map(|id| GenRequest::greedy(id, vec![3; 2], 8).on_model((id % 2) as usize))
            .collect();
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 8,
                max_steps: 150,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let mut wfq = WeightedFair::new(vec![3.0, 1.0]);
        let report = engine.run(&mut wfq).unwrap();
        assert!(engine.has_work(), "pool must stay saturated");
        let a = report.per_model[0].processed_tokens as f64;
        let b = report.per_model[1].processed_tokens as f64;
        let share = a / (a + b);
        assert!(
            (0.65..0.85).contains(&share),
            "weight-3 model took {share:.2} of the pool (want ≈ 0.75)"
        );
    }

    #[test]
    fn invalid_policy_picks_are_ignored() {
        struct Rogue;
        impl Policy for Rogue {
            fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
                // Out-of-range, duplicated, and over-subscribed picks.
                let mut v: Vec<usize> = (0..ctx.waiting.len() + 4).collect();
                v.extend(0..ctx.waiting.len());
                v
            }
            fn name(&self) -> &'static str {
                "rogue"
            }
        }
        let model = tiny_model();
        let reqs = burst_requests(6, 2, 2);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut Rogue).unwrap();
        // The engine clamps to free slots and unique indices: all six
        // requests complete exactly once.
        assert_eq!(report.completed, 6);
        assert_eq!(report.trace.peak_batch(), 2);
    }

    #[test]
    fn preemptive_priority_pauses_a_low_class_hog_and_resumes_it_bit_identically() {
        let model = tiny_model();
        // One slot: a long batch-class hog holds it, then an
        // interactive request arrives. Non-preemptive priority must
        // wait; preemptive priority pauses the hog, serves the
        // interactive request, then resumes the hog to completion with
        // exactly the tokens an undisturbed run produces.
        let hog = GenRequest::greedy(0, vec![1; 3], 12).with_priority(Priority::Batch);
        let mut urgent = GenRequest::greedy(1, vec![2; 2], 3).with_priority(Priority::Interactive);
        urgent.arrival_step = 5;
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 1,
                    max_steps: 10_000,
                    prefill_chunk: 1,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(vec![hog.clone(), urgent.clone()]).unwrap();
            let report = engine.run(policy).unwrap();
            let done: Vec<Completion> = engine.completions().to_vec();
            (report, done)
        };
        let (plain, plain_done) = run(&mut PriorityClasses::default());
        let (pre, pre_done) = run(&mut PriorityClasses::preemptive());
        assert_eq!(plain.preemptions, 0);
        assert_eq!(pre.preemptions, 1);
        assert_eq!(pre.resumes, 1);
        assert_eq!(pre.preempted_requests, 1);
        assert!(pre.resume_latency_steps.n == 1 && pre.resume_latency_steps.mean > 0.0);

        // Bit-identity: pausing changed *when* the hog ran, not *what*
        // it generated.
        let tokens_of =
            |done: &[Completion], id: u64| done.iter().find(|c| c.id == id).unwrap().tokens.clone();
        assert_eq!(tokens_of(&pre_done, 0), tokens_of(&plain_done, 0));
        assert_eq!(tokens_of(&pre_done, 1), tokens_of(&plain_done, 1));

        // The interactive request's first token no longer waits for the
        // hog to drain.
        let urgent_fin =
            |done: &[Completion]| done.iter().find(|c| c.id == 1).unwrap().finished_step;
        assert!(
            urgent_fin(&pre_done) < urgent_fin(&plain_done),
            "preemption must serve the interactive request earlier ({} vs {})",
            urgent_fin(&pre_done),
            urgent_fin(&plain_done)
        );

        // Timestamp semantics: the hog's completion records its bench
        // time; paused steps count toward e2e but never toward TTFT.
        let hog_done = pre_done.iter().find(|c| c.id == 0).unwrap();
        assert_eq!(hog_done.preemptions, 1);
        assert!(hog_done.paused_steps > 0);
        // The hog had sampled its first token before being paused, so
        // its TTFT is untouched by the pause.
        assert_eq!(hog_done.paused_steps_before_first_token, 0);
        let plain_hog = plain_done.iter().find(|c| c.id == 0).unwrap();
        assert_eq!(hog_done.ttft_steps(), plain_hog.ttft_steps());
        assert!(hog_done.e2e_steps().unwrap() > plain_hog.e2e_steps().unwrap());
    }

    #[test]
    fn preemptive_edf_rescues_a_deadline_from_a_deadline_free_hog() {
        let model = tiny_model();
        // One slot again: a deadline-free hog is resident when a
        // tight-deadline request arrives. Plain EDF dooms the arrival
        // (the hog cannot be displaced); preemptive EDF pauses the hog
        // on the arrival's last feasible step and hits the deadline.
        let hog = GenRequest::greedy(0, vec![1; 3], 30);
        let mut urgent = GenRequest::greedy(1, vec![2; 2], 3).with_deadline(8);
        urgent.arrival_step = 2;
        let run = |policy: &mut dyn Policy| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 1,
                    max_steps: 10_000,
                    prefill_chunk: 1,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(vec![hog.clone(), urgent.clone()]).unwrap();
            engine.run(policy).unwrap()
        };
        let plain = run(&mut Edf::default());
        let pre = run(&mut Edf::preemptive());
        assert_eq!(plain.deadline_hits, 0);
        assert_eq!(pre.deadline_hits, 1);
        assert_eq!(pre.preemptions, 1);
        assert_eq!(pre.completed, 2, "the paused hog still finishes");
    }

    #[test]
    fn invalid_preempt_picks_are_ignored() {
        // A policy returning garbage victim indices (out of range,
        // duplicated) must not crash the engine or lose sequences.
        struct RoguePreempt;
        impl Policy for RoguePreempt {
            fn select(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
                (0..ctx.n_candidates().min(ctx.free_slots)).collect()
            }
            fn preempt(&mut self, ctx: &AdmissionCtx<'_>) -> Vec<usize> {
                let mut v: Vec<usize> = (0..ctx.residents.len() + 3).collect();
                v.extend(0..ctx.residents.len());
                v
            }
            fn name(&self) -> &'static str {
                "rogue-preempt"
            }
        }
        let model = tiny_model();
        let reqs = burst_requests(5, 2, 3);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs.clone()).unwrap();
        let report = engine.run(&mut RoguePreempt).unwrap();
        // Everything completes exactly once, with the usual outputs —
        // pause/resume churn (all residents, every step) is harmless.
        assert_eq!(report.completed, 5);
        for req in &reqs {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .unwrap();
            assert_eq!(done.tokens, sequential_reference(&model, req));
        }
        // The trace accounts every pause and resume symmetrically.
        assert_eq!(report.preemptions, report.resumes);
        let moves: usize = report.trace.state_moves_per_step.iter().sum();
        assert_eq!(moves as u64, report.preemptions + report.resumes);
    }

    #[test]
    fn deadline_eviction_frees_the_slot() {
        let model = tiny_model();
        let mut hog = GenRequest::greedy(0, vec![1; 4], 500);
        hog.deadline_steps = Some(10);
        let quick = GenRequest::greedy(1, vec![2; 2], 2);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 1_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog, quick]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.completed, 1);
        let evicted = &engine.completions()[0];
        assert_eq!(evicted.id, 0);
        assert_eq!(evicted.finish, FinishReason::DeadlineExceeded);
    }

    #[test]
    fn queued_expiry_is_evicted_without_burning_a_slot_or_step() {
        let model = tiny_model();
        // One hog holds the only slot far past the quick request's
        // deadline; the quick request must expire in the queue, never
        // occupying the slot or joining a batched step.
        let hog = GenRequest::greedy(0, vec![1; 4], 40);
        let mut quick = GenRequest::greedy(1, vec![2; 2], 2);
        quick.deadline_steps = Some(5);
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 1_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog, quick]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.completed, 1);
        let evicted = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .expect("quick request recorded");
        assert_eq!(evicted.finish, FinishReason::DeadlineExceeded);
        assert!(evicted.tokens.is_empty());
        assert_eq!(evicted.first_token_step, None);
        assert_eq!(evicted.finished_step, 5);
        // Every executed step ran batch 1 (the hog alone): the expired
        // request never inflated a batch.
        assert!(report.trace.batch_per_step.iter().all(|&b| b <= 1));
    }

    #[test]
    fn eos_token_stops_generation_early() {
        let model = tiny_model();
        // Find the greedy first token, then make it the EOS.
        let mut state = model.new_state();
        let logits = model.prefill(&[5, 6], &mut state).unwrap();
        let eos = MambaModel::argmax(&logits) as u32;
        let mut req = GenRequest::greedy(0, vec![5, 6], 50);
        req.eos_token = Some(eos);
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        engine.submit(vec![req]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 1);
        let c = &engine.completions()[0];
        assert_eq!(c.finish, FinishReason::Eos);
        assert_eq!(c.tokens, vec![eos]);
    }

    #[test]
    fn step_budget_stops_the_run() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 5,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(burst_requests(4, 8, 50)).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.steps, 5);
        assert!(engine.has_work());
    }

    #[test]
    fn multiplexed_outputs_match_single_model_runs() {
        use crate::backend::{FpBackend, W4A4Backend};
        use crate::registry::ModelRegistry;
        use lightmamba_model::eval::StepModel;
        use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};

        let model = tiny_model();
        let quantized =
            quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        reg.register("w4a4", Box::new(W4A4Backend::new(quantized.clone())))
            .unwrap();

        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 3,
                max_steps: 10_000,
                prefill_chunk: 2,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<GenRequest> = (0..8u64)
            .map(|id| {
                GenRequest::greedy(id, vec![(id % 200) as u32 + 1; 4], 5)
                    .on_model((id % 2) as usize)
            })
            .collect();
        engine.submit(reqs.clone()).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 8);
        assert_eq!(report.per_model.len(), 2);
        assert_eq!(report.per_model[0].completed, 4);
        assert_eq!(report.per_model[1].completed, 4);
        // Sub-batches are recorded per model and sum to the step batch;
        // per-model processed tokens sum to the step's token-advances.
        for (sub, &total) in report
            .trace
            .sub_batches_per_step
            .iter()
            .zip(&report.trace.batch_per_step)
        {
            assert_eq!(sub.iter().sum::<usize>(), total);
        }
        for (sub, &total) in report
            .trace
            .sub_processed_per_step
            .iter()
            .zip(&report.trace.processed_per_step)
        {
            assert_eq!(sub.iter().sum::<usize>(), total);
        }

        // Every request's output equals its model's sequential decode,
        // no matter what the other backend's sequences were doing.
        let mut q = quantized;
        for req in &reqs {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .unwrap();
            assert_eq!(done.model, req.model);
            let mut rng = StdRng::seed_from_u64(req.seed);
            let expect = if req.model == 0 {
                sequential_reference(&model, req)
            } else {
                q.reset();
                let mut logits = Vec::new();
                for &t in &req.prompt {
                    logits = q.step(t).unwrap();
                }
                let mut out = Vec::new();
                for _ in 0..req.max_new_tokens {
                    let t = req.sampler.sample(&logits, &mut rng);
                    out.push(t);
                    logits = q.step(t).unwrap();
                }
                out
            };
            assert_eq!(done.tokens, expect, "request {} diverged", req.id);
        }
    }

    #[test]
    fn unknown_model_id_is_rejected_at_submit() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        let err = engine
            .submit(vec![GenRequest::greedy(0, vec![1, 2], 3).on_model(5)])
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(_)), "{err:?}");
    }

    #[test]
    fn rejects_empty_prompt_zero_slots_and_zero_chunk() {
        let model = tiny_model();
        assert!(ServeEngine::new(
            &model,
            EngineConfig {
                slots: 0,
                max_steps: 1,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 1,
                prefill_chunk: 0,
                threads: 1,
                ..Default::default()
            }
        )
        .is_err());
        let mut engine = ServeEngine::new(&model, EngineConfig::default()).unwrap();
        assert!(engine
            .submit(vec![GenRequest::greedy(0, vec![], 4)])
            .is_err());
    }

    #[test]
    fn out_of_vocab_prompt_is_rejected_at_submit_without_a_fault() {
        // A token past the vocabulary must never reach a backend: there
        // it would fault the sub-batch, fail its batch-mates and
        // quarantine the model.
        let model = tiny_model();
        let vocab = model.config().vocab_size as u32;
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 4,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let good = [
            GenRequest::greedy(0, vec![1, 2, 3, 4, 5, 6], 4),
            GenRequest::greedy(2, vec![7, 8], 4),
        ];
        engine.submit(vec![good[0].clone()]).unwrap();
        let err = engine
            .submit(vec![GenRequest::greedy(1, vec![1, 2, vocab + 5], 4)])
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err:?}");
        // The session-resume path checks the prepended pending token.
        let snapshot = SessionSnapshot {
            state: PausedState::new(model.new_state()),
            pending_token: vocab,
            consumed_tokens: 0,
        };
        let err = engine
            .submit_with_state(GenRequest::greedy(3, vec![1], 4), snapshot)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err:?}");
        engine.submit(vec![good[1].clone()]).unwrap();

        engine.run(&mut Fifo).unwrap();
        let done = engine.completions();
        assert_eq!(done.len(), 2, "only the valid requests ran");
        for c in done {
            let req = good.iter().find(|r| r.id == c.id).unwrap();
            assert_eq!(c.finish, FinishReason::MaxTokens, "request {}", c.id);
            assert_eq!(c.tokens, sequential_reference(&model, req));
        }
        assert_eq!(engine.backend_fault_count(), 0);
    }

    #[test]
    fn cancelling_a_resident_frees_its_slot_within_one_step() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // The hog holds the only slot; the waiter queues behind it.
        engine
            .submit(vec![
                GenRequest::greedy(0, vec![1, 2], 50),
                GenRequest::greedy(1, vec![3, 4], 3),
            ])
            .unwrap();
        let mut policy = Fifo;
        for _ in 0..5 {
            engine.step(&mut policy).unwrap();
        }
        assert_eq!(engine.active_count(), 1);
        assert_eq!(engine.free_slots(), 0);
        engine.cancel(0);
        engine.step(&mut policy).unwrap();
        // One step later the hog is out and the waiter holds the slot:
        // the freed capacity was re-offered within the same step.
        let hog = engine
            .completions()
            .iter()
            .find(|c| c.id == 0)
            .expect("cancelled hog retires immediately")
            .clone();
        assert_eq!(hog.finish, FinishReason::Cancelled);
        assert!(!hog.tokens.is_empty(), "pre-cancel tokens are kept");
        assert!(hog.tokens.len() < 50);
        assert_eq!(engine.active_count(), 1);
        let report = engine.run(&mut policy).unwrap();
        let waiter = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .expect("waiter runs after the cancel");
        assert_eq!(waiter.finish, FinishReason::MaxTokens);
        assert_eq!(
            waiter.admitted_step,
            Some(hog.finished_step),
            "waiter admitted in the very step the cancel landed"
        );
        assert_eq!(report.cancellations, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.evicted, 0, "a cancel is not a deadline eviction");
        assert!(report.wasted_token_advances >= 3);
        assert!(report.reclaimed_slot_steps > 0);
        assert_eq!(report.trace.cancellations_per_step.iter().sum::<usize>(), 1);
        assert!(hog.deadline_hit().is_none());
    }

    #[test]
    fn cancelling_unadmitted_and_paused_requests_also_retires_them() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // A batch hog that the preemptive policy will pause, an urgent
        // arrival to force the pause, and a waiter that never gets in
        // before its cancel.
        let hog = GenRequest::greedy(0, vec![1; 3], 30).with_priority(Priority::Batch);
        let mut urgent = GenRequest::greedy(1, vec![2; 2], 20).with_priority(Priority::Interactive);
        urgent.arrival_step = 5;
        let waiter = GenRequest::greedy(2, vec![3; 2], 4).with_priority(Priority::Batch);
        engine.submit(vec![hog, waiter, urgent]).unwrap();
        let mut policy = PriorityClasses::preemptive();
        for _ in 0..8 {
            engine.step(&mut policy).unwrap();
        }
        assert_eq!(engine.paused_count(), 1, "the hog was preempted");
        engine.cancel(0); // paused
        engine.cancel(2); // waiting, never admitted
        engine.step(&mut policy).unwrap();
        let by_id = |id: u64| {
            engine
                .completions()
                .iter()
                .find(|c| c.id == id)
                .cloned()
                .unwrap_or_else(|| panic!("request {id} retired"))
        };
        assert_eq!(by_id(0).finish, FinishReason::Cancelled);
        assert_eq!(by_id(2).finish, FinishReason::Cancelled);
        assert!(by_id(2).tokens.is_empty(), "never admitted, no tokens");
        assert_eq!(engine.paused_count(), 0, "paused state is released");
        let report = engine.run(&mut policy).unwrap();
        assert_eq!(report.cancellations, 2);
        assert_eq!(report.completed, 1, "only the urgent request finished");
    }

    #[test]
    fn session_resume_matches_reprefill_and_strictly_beats_its_ttft() {
        let model = tiny_model();
        let p1: Vec<u32> = (1..=12).collect();
        let p2: Vec<u32> = (30..36).collect();
        let cfg = EngineConfig {
            slots: 1,
            max_steps: 10_000,
            prefill_chunk: 1,
            threads: 1,
            ..Default::default()
        };

        // Turn 1 completes into a snapshot; turn 2 resumes it.
        let mut engine = ServeEngine::new(&model, cfg).unwrap();
        engine
            .submit(vec![GenRequest::greedy(0, p1.clone(), 8).with_session(1)])
            .unwrap();
        let mut policy = Fifo;
        engine.run(&mut policy).unwrap();
        let turn1 = engine.completions()[0].clone();
        let (sid, snap) = engine
            .take_session_snapshots()
            .pop()
            .expect("turn 1 parked its state");
        assert_eq!(sid, 1);
        assert_eq!(
            snap.consumed_tokens,
            p1.len() + 8 - 1,
            "everything but the pending token is baked into the state"
        );
        assert_eq!(snap.pending_token, *turn1.tokens.last().unwrap());
        let mut turn2 = GenRequest::greedy(1, p2.clone(), 6).with_session(1);
        turn2.arrival_step = engine.clock();
        engine.submit_with_state(turn2, snap).unwrap();
        engine.run(&mut policy).unwrap();
        let resumed = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .unwrap()
            .clone();

        // Reference: the same turn 2 as a cold request re-prefilling
        // the entire conversation history.
        let mut full_prompt = p1.clone();
        full_prompt.extend_from_slice(&turn1.tokens);
        full_prompt.extend_from_slice(&p2);
        let mut ref_engine = ServeEngine::new(&model, cfg).unwrap();
        ref_engine
            .submit(vec![GenRequest::greedy(1, full_prompt, 6)])
            .unwrap();
        ref_engine.run(&mut policy).unwrap();
        let reprefill = ref_engine.completions()[0].clone();

        // Same generation, bit for bit — the resume is exact.
        assert_eq!(resumed.tokens, reprefill.tokens);
        // The pinned win: TTFT drops by exactly the consumed tokens the
        // resume did not have to re-prefill.
        let resumed_ttft = resumed.ttft_steps().unwrap();
        let reprefill_ttft = reprefill.ttft_steps().unwrap();
        assert!(
            resumed_ttft < reprefill_ttft,
            "resume TTFT {resumed_ttft} must strictly beat re-prefill {reprefill_ttft}"
        );
        assert_eq!(
            reprefill_ttft - resumed_ttft,
            (p1.len() + 8 - 1) as u64,
            "the saved prefill is exactly the snapshot's consumed tokens"
        );
    }

    #[test]
    fn second_turn_timing_uses_its_own_arrival_stamps() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 100_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine
            .submit(vec![GenRequest::greedy(0, vec![1; 4], 4).with_session(9)])
            .unwrap();
        let mut policy = Fifo;
        engine.run(&mut policy).unwrap();
        let turn1_finished = engine.completions()[0].finished_step;
        let (_, snap) = engine.take_session_snapshots().pop().unwrap();
        // The user reads the reply and types: the next turn arrives
        // long after the first finished. Its stamps must all be its
        // own — inheriting turn 1's would make TTFT/queue look 100
        // steps long (or trip the checked_sub debug audits).
        let mut turn2 = GenRequest::greedy(1, vec![5, 6, 7], 4).with_session(9);
        turn2.arrival_step = turn1_finished + 100;
        engine.submit_with_state(turn2, snap).unwrap();
        engine.run(&mut policy).unwrap();
        let c2 = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .unwrap()
            .clone();
        assert_eq!(c2.arrival_step, turn1_finished + 100);
        assert!(c2.admitted_step.unwrap() >= c2.arrival_step);
        assert!(
            c2.queue_steps().unwrap() <= 1,
            "an idle engine admits the turn immediately"
        );
        let ttft = c2.ttft_steps().expect("turn 2 produced tokens");
        assert!(
            ttft <= 5,
            "TTFT is measured from turn 2's own arrival, not turn 1's: {ttft}"
        );
        assert!(c2.e2e_steps().unwrap() < 100);
    }

    #[test]
    fn mismatched_session_state_is_rejected_at_submit() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine
            .submit(vec![GenRequest::greedy(0, vec![1, 2], 3).with_session(4)])
            .unwrap();
        engine.run(&mut Fifo).unwrap();
        let (_, snap) = engine.take_session_snapshots().pop().unwrap();

        // A differently-shaped engine must refuse the snapshot.
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.d_model *= 2;
        let other = MambaModel::synthetic(other_cfg, &mut StdRng::seed_from_u64(1)).unwrap();
        let mut wrong = ServeEngine::new(
            &other,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let err = wrong
            .submit_with_state(GenRequest::greedy(1, vec![3], 2).with_session(4), snap)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err:?}");
        assert_eq!(
            wrong.pending_resumes(),
            0,
            "rejected resume leaves no state"
        );
    }

    // ---- fault tolerance -------------------------------------------------

    use crate::chaos::{ChaosBackend, FaultKind as ChaosFault, FaultPlan, FaultWindow};
    use crate::resilience::DegradationConfig;

    fn chaos_registry<'m>(model: &'m MambaModel, plan: FaultPlan) -> ModelRegistry<'m> {
        use crate::backend::FpBackend;
        let mut reg = ModelRegistry::new();
        reg.register(
            "chaos-fp",
            Box::new(ChaosBackend::new(Box::new(FpBackend::new(model)), plan)),
        )
        .unwrap();
        reg
    }

    #[test]
    fn a_faulting_backend_is_contained_and_the_healthy_model_completes() {
        use crate::backend::FpBackend;

        let model = tiny_model();
        let mut reg = ModelRegistry::new();
        reg.register("healthy", Box::new(FpBackend::new(&model)))
            .unwrap();
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            start: 1,
            len: 2,
            kind: ChaosFault::StepError,
        }]);
        reg.register(
            "flaky",
            Box::new(ChaosBackend::new(Box::new(FpBackend::new(&model)), plan)),
        )
        .unwrap();

        // Even ids run on the healthy model, odd ids on the flaky one;
        // all four are resident when the fault window opens.
        let reqs: Vec<GenRequest> = (0..4u64)
            .map(|id| GenRequest::greedy(id, vec![id as u32 + 1; 2], 4).on_model((id % 2) as usize))
            .collect();
        let expect: Vec<Vec<u32>> = reqs
            .iter()
            .map(|r| sequential_reference(&model, r))
            .collect();
        let mut engine = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 4,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // The fault stayed inside its domain: the healthy model's
        // requests finished bit-identically, the flaky one's residents
        // were retired as Failed, and the engine itself survived.
        assert_eq!(report.completed, 2);
        assert_eq!(report.failed, 2);
        assert!(report.backend_faults >= 1);
        for c in engine.completions() {
            match c.finish {
                FinishReason::MaxTokens | FinishReason::Eos => {
                    assert_eq!(c.tokens, expect[c.id as usize], "healthy output unchanged");
                }
                FinishReason::Failed => {
                    assert_eq!(c.id % 2, 1, "only the flaky model's requests failed");
                }
                other => panic!("unexpected finish {other:?}"),
            }
        }
        // Every slot the failed residents held was reclaimed.
        assert_eq!(engine.free_slots(), 4);
        assert!(!engine.has_work());
        assert_eq!(report.availability(), Some(0.5));
    }

    #[test]
    fn quarantine_backs_off_then_readmits_through_a_canary() {
        let model = tiny_model();
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            start: 2,
            len: 2,
            kind: ChaosFault::StepError,
        }]);
        let reqs: Vec<GenRequest> = (0..4u64)
            .map(|id| GenRequest::greedy(id, vec![id as u32 + 1; 2], 3))
            .collect();
        let expect: Vec<Vec<u32>> = reqs
            .iter()
            .map(|r| sequential_reference(&model, r))
            .collect();
        let mut engine = ServeEngine::with_registry(
            chaos_registry(&model, plan),
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(reqs).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // The step-2 fault kills the two residents and quarantines the
        // backend; the backoff window (4 steps) outlives the fault
        // window, the half-open canary advances cleanly, and the two
        // waiting requests then complete bit-identically.
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(engine.quarantine_transitions(), (1, 1));
        assert_eq!(engine.backend_health(0), Some(BackendHealth::Healthy));
        for c in engine.completions() {
            if matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos) {
                assert_eq!(c.tokens, expect[c.id as usize], "survivor is bit-identical");
            }
        }
        assert_eq!(engine.free_slots(), 2);
    }

    #[test]
    fn a_bounded_queue_sheds_overload_with_a_retry_hint() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.set_resilience(ResilienceConfig {
            queue_limit: Some(2),
            ..ResilienceConfig::default()
        });
        engine.submit(burst_requests(6, 1, 2)).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // The first two arrivals fill the bounded queue; the remaining
        // four are shed at intake with a resubmission hint.
        assert_eq!(report.rejected, 4);
        assert_eq!(report.completed, 2);
        assert!((report.availability().unwrap() - 2.0 / 6.0).abs() < 1e-12);
        for c in engine.completions() {
            if c.finish == FinishReason::Rejected {
                assert!(c.tokens.is_empty(), "shed requests never ran");
                assert!(c.retry_after_steps.unwrap() >= 1);
            } else {
                assert!(c.retry_after_steps.is_none());
            }
        }
    }

    #[test]
    fn sustained_overload_walks_the_degradation_ladder() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.set_resilience(ResilienceConfig {
            degradation: Some(DegradationConfig {
                queue_slo: 2,
                breach_steps: 2,
                recover_steps: 2,
            }),
            ..ResilienceConfig::default()
        });
        // One slot, ten long requests: the queue sits far over the SLO.
        engine.submit(burst_requests(10, 1, 40)).unwrap();
        assert_eq!(engine.degradation_level(), 0);
        assert_eq!(engine.effective_prefill_chunk(), 4);
        for _ in 0..4 {
            engine.step(&mut Fifo).unwrap();
        }
        // Two breached steps per rung: level 2 after four steps.
        assert_eq!(engine.degradation_level(), 2);
        assert_eq!(engine.effective_prefill_chunk(), 2, "L1 halves the chunk");

        // At level 2, Batch-class arrivals are shed; Interactive ones
        // still get in.
        let shed = GenRequest::greedy(100, vec![1], 2).with_priority(Priority::Batch);
        let kept = GenRequest::greedy(101, vec![1], 2).with_priority(Priority::Interactive);
        engine.submit(vec![shed, kept]).unwrap();
        engine.step(&mut Fifo).unwrap();
        assert_eq!(engine.rejected_count(), 1);
        assert!(engine
            .completions()
            .iter()
            .any(|c| c.id == 100 && c.finish == FinishReason::Rejected));

        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 11, "everything admitted still finishes");
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn fault_free_runs_are_bit_identical_with_the_chaos_layer_armed() {
        let model = tiny_model();
        let reqs = burst_requests(5, 3, 4);

        let mut plain = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 2,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        plain.submit(reqs.clone()).unwrap();
        let plain_report = plain.run(&mut Fifo).unwrap();

        // Same engine, but every call routed through a ChaosBackend
        // with an empty plan and the resilience layer armed.
        let mut wrapped = ServeEngine::with_registry(
            chaos_registry(&model, FaultPlan::none()),
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 2,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        wrapped.set_resilience(ResilienceConfig::default());
        wrapped.submit(reqs).unwrap();
        let wrapped_report = wrapped.run(&mut Fifo).unwrap();

        assert_eq!(plain_report.completed, wrapped_report.completed);
        assert_eq!(wrapped_report.backend_faults, 0);
        let tokens = |e: &ServeEngine<'_>| {
            let mut v: Vec<(RequestId, Vec<u32>)> = e
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        assert_eq!(
            tokens(&plain),
            tokens(&wrapped),
            "outputs are bit-identical"
        );
    }

    #[test]
    fn quarantine_strictly_beats_no_mitigation_on_the_same_fault_schedule() {
        let model = tiny_model();
        let plan = FaultPlan::seeded(7, 300, 0.25);
        assert!(!plan.is_empty());

        let run = |resilience: ResilienceConfig| {
            let mut engine = ServeEngine::with_registry(
                chaos_registry(&model, plan.clone()),
                EngineConfig {
                    slots: 4,
                    max_steps: 300,
                    prefill_chunk: 4,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.set_resilience(resilience);
            let reqs: Vec<GenRequest> = (0..30u64)
                .map(|id| {
                    let mut r = GenRequest::greedy(id, vec![(id % 7) as u32 + 1; 2], 4);
                    r.arrival_step = id * 3;
                    r
                })
                .collect();
            engine.submit(reqs).unwrap();
            engine.run(&mut Fifo).unwrap()
        };

        let mitigated = run(ResilienceConfig::default());
        let exposed = run(ResilienceConfig::none());

        // Identical fault schedule, identical workload: backing off the
        // faulting backend converts failures into completions. This pin
        // is the PR's headline claim — do not weaken it to >=.
        assert!(
            mitigated.completed > exposed.completed,
            "quarantine goodput {} must strictly beat no-mitigation {}",
            mitigated.completed,
            exposed.completed
        );
        assert!(
            mitigated.failed < exposed.failed,
            "quarantine failures {} must stay under no-mitigation {}",
            mitigated.failed,
            exposed.failed
        );
        assert!(mitigated.availability().unwrap() > exposed.availability().unwrap());
        assert!(mitigated.quarantine_entries >= 1);
    }

    #[test]
    fn an_injected_panic_is_contained_and_quarantined() {
        let model = tiny_model();
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            start: 1,
            len: 1,
            kind: ChaosFault::Panic,
        }]);
        let mut engine = ServeEngine::with_registry(
            chaos_registry(&model, plan),
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(burst_requests(3, 2, 3)).unwrap();
        let report = engine.run(&mut Fifo).unwrap();

        // The panic unwound out of the backend, was caught at the
        // domain boundary, and the engine went on to serve the queue.
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 1);
        assert!(report.backend_faults >= 1);
        assert_eq!(engine.free_slots(), 2);
        assert!(!engine.has_work());
    }

    #[test]
    fn prefix_cache_hit_skips_prefill_and_pins_the_ttft_win() {
        let model = tiny_model();
        let prefix: Vec<u32> = (1..=10).collect();
        let k = prefix.len();
        let mut warm_prompt = prefix.clone();
        warm_prompt.extend_from_slice(&[40, 41, 42]);
        let mut hot_prompt = prefix.clone();
        hot_prompt.extend_from_slice(&[50, 51, 52, 53]);
        let cfg = EngineConfig {
            slots: 1,
            max_steps: 10_000,
            prefill_chunk: 1,
            threads: 1,
            prefix_cache: Some(4),
            ..Default::default()
        };

        // Warm the cache: the first bearer of the prefix misses and
        // harvests the post-prefix state at the boundary.
        let mut engine = ServeEngine::new(&model, cfg).unwrap();
        engine
            .submit(vec![
                GenRequest::greedy(0, warm_prompt, 4).with_shared_prefix(k)
            ])
            .unwrap();
        let mut policy = Fifo;
        engine.run(&mut policy).unwrap();
        {
            let cache = engine.prefix_cache().unwrap();
            assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        }

        // The measured request arrives after the warmup drained, hits,
        // and restores the snapshot instead of re-prefilling the prefix.
        let mut hot = GenRequest::greedy(1, hot_prompt.clone(), 6).with_shared_prefix(k);
        hot.arrival_step = engine.clock();
        engine.submit(vec![hot]).unwrap();
        let report = engine.run(&mut policy).unwrap();
        assert_eq!(engine.prefix_cache().unwrap().hits(), 1);
        let hot_done = engine
            .completions()
            .iter()
            .find(|c| c.id == 1)
            .unwrap()
            .clone();

        // Cold reference: the identical request through a cache-less
        // engine re-prefills the whole prompt.
        let mut cold_engine = ServeEngine::new(
            &model,
            EngineConfig {
                prefix_cache: None,
                ..cfg
            },
        )
        .unwrap();
        cold_engine
            .submit(vec![
                GenRequest::greedy(1, hot_prompt, 6).with_shared_prefix(k)
            ])
            .unwrap();
        cold_engine.run(&mut policy).unwrap();
        let cold = cold_engine.completions()[0].clone();

        // The restored state is exact: decode is bit-identical.
        assert_eq!(hot_done.tokens, cold.tokens);
        // The pinned win: at chunk 1 the TTFT drops by exactly the k
        // prefill steps the restore skipped (the state move itself is
        // priced in accelerator seconds, not engine steps — see the
        // accel_cost test pinning `k*step_seconds(1) - state_move`).
        let hot_ttft = hot_done.ttft_steps().unwrap();
        let cold_ttft = cold.ttft_steps().unwrap();
        assert!(
            hot_ttft < cold_ttft,
            "cache-hit TTFT {hot_ttft} must strictly beat re-prefill {cold_ttft}"
        );
        assert_eq!(
            cold_ttft - hot_ttft,
            k as u64,
            "the win is exactly the skipped prefill steps"
        );
        // State accounting across both cached runs: one harvest save
        // plus one hit restore, each a fixed-size state move.
        let moves: usize = report.trace.state_moves_per_step.iter().sum();
        assert_eq!(moves, 2, "one harvest save + one hit restore");
        assert_eq!(report.prefix_hits, 1);
        assert_eq!(report.prefix_misses, 1);
    }

    #[test]
    fn prefix_markers_are_inert_with_the_cache_off_and_exact_with_it_on() {
        let model = tiny_model();
        let plain = burst_requests(6, 8, 5);
        let marked: Vec<GenRequest> = plain
            .iter()
            .cloned()
            .map(|r| r.with_shared_prefix(4))
            .collect();
        let run = |reqs: Vec<GenRequest>, cache: Option<usize>| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 3,
                    max_steps: 10_000,
                    prefill_chunk: 2,
                    threads: 1,
                    prefix_cache: cache,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs).unwrap();
            let report = engine.run(&mut Fifo).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            (report.steps, out)
        };
        // With the cache off, shared-prefix markers change nothing:
        // same outputs, same step count, token for token.
        let baseline = run(plain, None);
        assert_eq!(run(marked.clone(), None), baseline);
        // With the cache on, outputs stay bit-identical — harvests and
        // restores never alter what a request generates.
        let (_, out_on) = run(marked, Some(8));
        assert_eq!(out_on, baseline.1);
    }

    #[test]
    fn out_of_range_prefix_markers_never_touch_the_cache() {
        let model = tiny_model();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                prefix_cache: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        // k == prompt.len() would leave nothing to decode from; k == 0
        // is an empty prefix. Both are ignored, not errors.
        let whole = GenRequest::greedy(0, vec![7; 5], 4).with_shared_prefix(5);
        let zero = GenRequest::greedy(1, vec![8; 5], 4).with_shared_prefix(0);
        engine.submit(vec![whole.clone(), zero.clone()]).unwrap();
        engine.run(&mut Fifo).unwrap();
        let cache = engine.prefix_cache().unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
        for req in [&whole, &zero] {
            let done = engine
                .completions()
                .iter()
                .find(|c| c.id == req.id)
                .unwrap();
            assert_eq!(done.tokens, sequential_reference(&model, req));
        }
    }

    #[test]
    fn harvest_survives_preemption_and_later_requests_hit() {
        let model = tiny_model();
        let prefix: Vec<u32> = (10..22).collect();
        let k = prefix.len();
        let mut hog_prompt = prefix.clone();
        hog_prompt.extend_from_slice(&[1, 2]);
        let hog = GenRequest::greedy(0, hog_prompt.clone(), 6)
            .with_priority(Priority::Batch)
            .with_shared_prefix(k);
        // Arrives mid-prefill of the hog, well before the prefix
        // boundary: the pause must carry the pending harvest marker.
        let mut urgent = GenRequest::greedy(1, vec![90; 2], 3).with_priority(Priority::Interactive);
        urgent.arrival_step = 3;
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 10_000,
                prefill_chunk: 1,
                threads: 1,
                prefix_cache: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit(vec![hog.clone(), urgent]).unwrap();
        let mut policy = PriorityClasses::preemptive();
        let report = engine.run(&mut policy).unwrap();
        assert!(report.preemptions >= 1, "the hog was never paused");
        assert_eq!(
            engine.prefix_cache().unwrap().len(),
            1,
            "the resumed hog still harvested its prefix"
        );
        let hog_done = engine
            .completions()
            .iter()
            .find(|c| c.id == 0)
            .unwrap()
            .clone();
        assert_eq!(hog_done.tokens, sequential_reference(&model, &hog));

        // A later bearer of the same prefix restores instead of
        // prefilling — and still decodes bit-identically.
        let mut third_prompt = prefix.clone();
        third_prompt.extend_from_slice(&[5, 6, 7]);
        let mut third = GenRequest::greedy(2, third_prompt, 4).with_shared_prefix(k);
        third.arrival_step = engine.clock();
        engine.submit(vec![third.clone()]).unwrap();
        engine.run(&mut policy).unwrap();
        assert_eq!(engine.prefix_cache().unwrap().hits(), 1);
        let done = engine
            .completions()
            .iter()
            .find(|c| c.id == 2)
            .unwrap()
            .clone();
        assert_eq!(done.tokens, sequential_reference(&model, &third));
    }

    #[test]
    fn token_budget_defers_but_every_request_completes() {
        let model = tiny_model();
        let budget = TokenBudget::new(6, 30).unwrap();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 4,
                max_steps: 100_000,
                prefill_chunk: 4,
                threads: 1,
                token_budget: Some(budget),
                ..Default::default()
            },
        )
        .unwrap();
        // Footprint 6+5 = 11 tokens each: the 30-token residency cap
        // holds two at a time even though four slots are free, and the
        // 6-token prefill cap admits at most one fresh 4-token chunk
        // alongside an in-flight prefill.
        engine.submit(burst_requests(8, 6, 5)).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 8, "deferral is never starvation");
        assert!(report.budget_deferrals > 0, "the caps never bound");
        for (t, &fed) in report.trace.prefill_per_step.iter().enumerate() {
            assert!(fed <= 6, "step {t} fed {fed} prefill tokens past the cap");
        }
        for (t, &resident) in report.trace.resident_tokens_per_step.iter().enumerate() {
            assert!(resident <= 30, "step {t} held {resident} resident tokens");
        }
        assert_eq!(
            report.budget_deferrals,
            report
                .trace
                .budget_deferred_per_step
                .iter()
                .map(|&d| d as u64)
                .sum::<u64>()
        );
        assert!(engine.peak_resident_tokens() <= 30);
        let prefill_util = report.budget_prefill_utilization.unwrap();
        assert!(prefill_util > 0.0 && prefill_util <= 1.0);
        let resident_util = report.budget_resident_utilization.unwrap();
        assert!(resident_util > 0.0 && resident_util <= 1.0);
    }

    #[test]
    fn budget_valve_admits_an_oversized_request_alone() {
        let model = tiny_model();
        // Footprint 10+4 = 14 > 8 and first chunk 4 > 2: no cap ever
        // fits this request, so without the liveness valve it would
        // wait forever.
        let budget = TokenBudget::new(2, 8).unwrap();
        let mut engine = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 2,
                max_steps: 100_000,
                prefill_chunk: 4,
                threads: 1,
                token_budget: Some(budget),
                ..Default::default()
            },
        )
        .unwrap();
        let req = GenRequest::greedy(0, vec![3; 10], 4);
        engine.submit(vec![req.clone()]).unwrap();
        let report = engine.run(&mut Fifo).unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(
            engine.completions()[0].tokens,
            sequential_reference(&model, &req)
        );
    }

    #[test]
    fn token_budget_is_inert_when_generous() {
        // A budget wide enough for the whole workload admits exactly
        // what the unbudgeted engine admits: same outputs, same steps,
        // zero deferrals.
        let model = tiny_model();
        let reqs = burst_requests(6, 5, 4);
        let run = |budget: Option<TokenBudget>| {
            let mut engine = ServeEngine::new(
                &model,
                EngineConfig {
                    slots: 3,
                    max_steps: 10_000,
                    prefill_chunk: 2,
                    threads: 1,
                    token_budget: budget,
                    ..Default::default()
                },
            )
            .unwrap();
            engine.submit(reqs.clone()).unwrap();
            let report = engine.run(&mut Fifo).unwrap();
            let mut out: Vec<(u64, Vec<u32>)> = engine
                .completions()
                .iter()
                .map(|c| (c.id, c.tokens.clone()))
                .collect();
            out.sort();
            (report.steps, report.budget_deferrals, out)
        };
        let (steps_off, _, out_off) = run(None);
        let generous = TokenBudget::new(10_000, 100_000).unwrap();
        let (steps_on, deferrals, out_on) = run(Some(generous));
        assert_eq!(deferrals, 0);
        assert_eq!(steps_on, steps_off);
        assert_eq!(out_on, out_off);
    }
}
