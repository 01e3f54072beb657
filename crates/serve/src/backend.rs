//! Pluggable execution backends for the serving engine.
//!
//! A [`DecodeBackend`] is the seam that lets the engine drive *any*
//! model with the Mamba2 decode contract. It provides exactly what one
//! engine step needs — state allocation, the preemption primitives, and
//! one batched ragged advance ([`DecodeBackend::advance_into`]) — plus
//! a [`CostProfile`] so the accelerator cost model can price each
//! backend's steps with its own weight-stream bytes. Two
//! implementations ship, both thin wrappers over
//! [`lightmamba_model::advance`]:
//!
//! * [`FpBackend`] — the FP16 reference path over [`MambaModel`];
//! * [`W4A4Backend`] — quantized execution over [`QuantizedMamba`],
//!   closing the loop between the paper's W4A4 quantization stack and
//!   the serving engine. For the W4A4 recipe the model serves from
//!   **packed 4-bit weights** on the true-integer kernel path, so the
//!   host really streams ~4× fewer weight bytes per step than FP16 (0.5
//!   bytes per weight vs the dequantized path's 4) — the headline the
//!   paper's Fig. 9a makes for single-stream decode, extended to
//!   multi-tenant serving and measured on the host by the
//!   `bench_decode` bin.
//!
//! The engine owns one [`WorkerPool`] and passes it to every advance;
//! the advance shards its batch across the pool's threads (one thread
//! runs one shard inline on the same path). Each backend keeps one
//! reusable advance workspace, and the engine owns the logits buffers,
//! so the batched forward allocates nothing in steady state (pinned by
//! counting-allocator tests in the model, quant and serve crates).
//! Output is **bit-identical** for any thread count: per-sequence
//! arithmetic is independent and sharding only partitions the batch.
//!
//! Backends are multiplexed over one slot pool by
//! [`crate::registry::ModelRegistry`]. To add a third backend (say a GPU
//! or sparse path), implement this trait and register it — the engine,
//! scheduler, and cost model need no changes.

use std::cell::RefCell;

use lightmamba_accel::arch::{AcceleratorConfig, HwPrecision};
use lightmamba_accel::platform::Platform;
use lightmamba_model::{
    advance, AdvanceWorkspace, BlockScratch, LogitsBuf, MambaConfig, MambaModel, ModelState,
};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::qmodel::QuantScratch;
use lightmamba_quant::QuantizedMamba;

use crate::error::ServeError;

/// How one backend's engine steps map onto accelerator hardware.
///
/// The decode cost model (`lightmamba_accel::batch`) prices a step as
/// `max(batch · compute, weight-stream DMA)` per layer; both terms depend
/// on the datapath precision, so this profile is all the cost model needs
/// to price a backend's sub-batches. Those same per-step prices feed the
/// *virtual-time* lane of the observability trace
/// ([`crate::observe::EngineObs::chrome_trace_with_virtual`]): the wall
/// lane shows what the host simulation spent, the virtual lane shows
/// what the modeled accelerator would have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Datapath precision the backend's arithmetic maps to.
    pub precision: HwPrecision,
    /// Mean stored bits per weight parameter (quantization scales
    /// included) — the weight-stream traffic per parameter per step.
    pub weight_bits: f64,
}

impl CostProfile {
    /// FP16 execution (the reference model's pricing).
    pub fn fp16() -> Self {
        CostProfile {
            precision: HwPrecision::Fp16,
            weight_bits: 16.0,
        }
    }

    /// The paper's W4A4 recipe (group-128 scale overhead ≈ 3%).
    pub fn w4a4() -> Self {
        CostProfile {
            precision: HwPrecision::W4A4,
            weight_bits: 4.0 * (1.0 + 16.0 / (128.0 * 4.0)),
        }
    }

    /// The paper's W8A8 recipe.
    pub fn w8a8() -> Self {
        CostProfile {
            precision: HwPrecision::W8A8,
            weight_bits: 8.0 * (1.0 + 16.0 / (128.0 * 8.0)),
        }
    }

    /// Weight-stream bytes per engine step for a `params`-parameter
    /// design-point model (streamed once per step, shared by the batch).
    pub fn weight_stream_bytes(&self, params: u64) -> f64 {
        params as f64 * self.weight_bits / 8.0
    }

    /// Accelerator configuration pricing this backend on `platform` for
    /// the `design_model` checkpoint: the paper's VCK190/U280 datapath
    /// geometry with this profile's precision swapped in, so FP and
    /// quantized backends are compared on the *same device* and differ
    /// only in stream width and per-DSP MAC packing.
    pub fn accelerator_config(
        &self,
        platform: &Platform,
        model: &MambaConfig,
    ) -> AcceleratorConfig {
        let mut cfg = AcceleratorConfig::lightmamba_w4a4(platform, model);
        cfg.precision = self.precision;
        if self.precision == HwPrecision::Fp16 {
            // No integer re-quantization stage exists on the FP path.
            cfg.pot_requant = false;
        }
        cfg
    }
}

/// The complete resident footprint of one paused sequence: Mamba2's
/// fixed-size recurrent state (per-layer conv windows plus SSM hidden
/// state), detached from the slot pool.
///
/// Because the state never grows with sequence length, this snapshot is
/// the *entire* cost of preempting a sequence — a few tens of KB moved
/// once, not a KV cache spilled page by page. The engine keeps paused
/// sequences in a side queue of these and the cost models price each
/// pause/resume as one state transfer on the shared DMA stream.
#[derive(Debug, Clone)]
pub struct PausedState {
    state: ModelState,
}

impl PausedState {
    /// Wraps a snapshot of a sequence's decode state.
    pub fn new(state: ModelState) -> Self {
        PausedState { state }
    }

    /// The saved decode state.
    pub fn state(&self) -> &ModelState {
        &self.state
    }

    /// Bytes this paused sequence occupies off-chip at `bits` bits per
    /// state element — what one pause (or resume) moves across the
    /// memory stream.
    pub fn state_bytes(&self, bits: f64) -> f64 {
        self.state.total_state_bytes(bits)
    }
}

/// A model execution backend the serving engine can drive.
///
/// The contract mirrors the engine's step loop: every resident sequence
/// owns one fixed-size [`ModelState`] slot, and one engine step advances
/// a chosen subset of slots ([`DecodeBackend::advance_into`]) — one
/// token for a decoding sequence, a prompt chunk for a prefilling one.
/// Implementations must keep batched advance bit-identical to their
/// sequential decode so request outputs are independent of batch
/// composition, chunk size and thread count — the invariant all engine
/// equivalence tests pin.
///
/// Backends also supply the preemption primitive pair
/// [`DecodeBackend::save_state`] / [`DecodeBackend::restore_state`]: a
/// paused sequence's slot state is snapshotted into a [`PausedState`],
/// the slot is handed to more urgent work, and restoring the snapshot
/// later continues the sequence **bit-identically** — pinned by the
/// pause/resume proptests for both shipped backends.
///
/// # Example
///
/// Pause a sequence mid-decode, reuse its slot, then resume it — the
/// continuation matches the uninterrupted run exactly:
///
/// ```
/// use lightmamba_model::{LogitsBuf, MambaConfig, MambaModel};
/// use lightmamba_pool::WorkerPool;
/// use lightmamba_serve::backend::{DecodeBackend, FpBackend};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), lightmamba_serve::ServeError> {
/// let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(1))?;
/// let backend = FpBackend::new(&model);
/// let pool = WorkerPool::new(1);
/// let mut out = LogitsBuf::new();
/// let mut states = vec![backend.new_state()];
/// backend.advance_into(&[(0, &[1, 2, 3])], &mut states, &pool, &mut out)?;
///
/// // Preempt: snapshot the state, let another sequence rewind the slot.
/// let paused = backend.save_state(&states[0]);
/// backend.reset_state(&mut states[0]);
/// backend.advance_into(&[(0, &[9, 9])], &mut states, &pool, &mut out)?;
///
/// // Resume: restore the snapshot and continue where we left off.
/// backend.restore_state(&paused, &mut states[0]);
/// backend.advance_into(&[(0, &[4])], &mut states, &pool, &mut out)?;
/// let resumed = out.row(0).to_vec();
///
/// // Reference: the same decode with no preemption in between.
/// let mut uninterrupted = vec![backend.new_state()];
/// backend.advance_into(&[(0, &[1, 2, 3, 4])], &mut uninterrupted, &pool, &mut out)?;
/// assert_eq!(resumed, out.row(0));
/// # Ok(())
/// # }
/// ```
///
/// Backends are `Send` so an engine (and its registry) can move onto a
/// dedicated serving thread — the streaming frontend
/// ([`crate::frontend`]) drives steps off the caller's thread. They
/// need not be `Sync`: the engine serializes all backend calls.
pub trait DecodeBackend: Send {
    /// Short backend name (`"fp"`, `"w4a4"`, …) used in reports.
    fn name(&self) -> &str;

    /// The model configuration this backend executes.
    fn config(&self) -> &MambaConfig;

    /// Fresh zeroed decode state shaped for this backend's model.
    fn new_state(&self) -> ModelState;

    /// Resets a state for a new sequence (slot reuse).
    fn reset_state(&self, state: &mut ModelState) {
        state.reset();
    }

    /// Snapshots a resident sequence's state for preemption. The
    /// default clones the fixed-size [`ModelState`] — already the right
    /// implementation for any backend whose whole per-sequence residue
    /// lives in the slot (both shipped backends qualify; a backend with
    /// auxiliary per-sequence caches would fold them in here).
    fn save_state(&self, state: &ModelState) -> PausedState {
        PausedState::new(state.clone())
    }

    /// Restores a paused sequence into a (re)claimed slot,
    /// allocation-free ([`ModelState::copy_from`]). After this, feeding
    /// the sequence's next token continues decode bit-identically to a
    /// run that was never preempted.
    fn restore_state(&self, paused: &PausedState, into: &mut ModelState) {
        into.copy_from(paused.state());
    }

    /// One batched ragged advance: each `items[k] = (state_index,
    /// tokens)` feeds `tokens` (one or more) into
    /// `states[state_index]` and writes the logits after the *final*
    /// fed token into row `k` of `out`. A decode step is the one-token
    /// case; a prefill chunk feeds several prompt tokens without
    /// sampling in between. The batch is sharded across `pool`'s
    /// threads; states not named in `items` are untouched.
    ///
    /// # Errors
    ///
    /// Empty token slices, invalid tokens, out-of-range or duplicated
    /// indices, and foreign-config states are rejected without
    /// advancing any state.
    fn advance_into(
        &self,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
        pool: &WorkerPool,
        out: &mut LogitsBuf,
    ) -> Result<(), ServeError>;

    /// Engine-step heartbeat: called once per [`crate::engine::ServeEngine::step`]
    /// for *every* registered backend, whether or not the backend has
    /// work this step (quarantined backends included). The default is a
    /// no-op. Fault injectors ([`crate::chaos::ChaosBackend`]) use it to
    /// key their deterministic fault schedules to engine virtual time,
    /// so a quarantined backend's fault window still elapses while the
    /// engine routes around it.
    fn on_step(&self, _clock: u64) {}

    /// Post-fault recovery hook: called by the engine after an advance
    /// on this backend returned an error or panicked, before the
    /// backend is quarantined. Implementations discard any internal
    /// scratch that an unwind may have left torn (the shipped backends
    /// rebuild their `RefCell` workspace — a `RefMut` releases its
    /// borrow during unwind, so the borrow itself is clean, but the
    /// workspace *contents* may hold a half-written step). This is the
    /// cold path; allocating here is fine.
    fn reset_after_fault(&self) {}

    /// Pricing profile for the accelerator cost model.
    fn cost_profile(&self) -> CostProfile;
}

/// The FP reference backend over [`MambaModel`]'s batched advance.
///
/// The backend owns one reusable advance workspace (behind a `RefCell`
/// since the trait takes `&self`; the engine serializes all backend
/// calls, so the borrow is never contended), so every engine step runs
/// allocation-free. On a multi-thread pool the workspace's per-shard
/// buffers are handed out as disjoint `&mut`s by `WorkerPool::run_over`
/// — the `RefCell` itself never crosses a thread boundary.
#[derive(Debug, Clone)]
pub struct FpBackend<'m> {
    model: &'m MambaModel,
    ws: RefCell<AdvanceWorkspace<BlockScratch>>,
}

impl<'m> FpBackend<'m> {
    /// Wraps a reference model.
    pub fn new(model: &'m MambaModel) -> Self {
        FpBackend {
            model,
            ws: RefCell::default(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &'m MambaModel {
        self.model
    }
}

impl DecodeBackend for FpBackend<'_> {
    fn name(&self) -> &str {
        "fp"
    }

    fn config(&self) -> &MambaConfig {
        self.model.config()
    }

    fn new_state(&self) -> ModelState {
        self.model.new_state()
    }

    fn advance_into(
        &self,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
        pool: &WorkerPool,
        out: &mut LogitsBuf,
    ) -> Result<(), ServeError> {
        let mut ws = self.ws.borrow_mut();
        Ok(advance(self.model, items, states, pool, &mut ws, out)?)
    }

    fn reset_after_fault(&self) {
        // A panic mid-step may have left half-written residual streams
        // in the reusable workspace; rebuild it from scratch (cold path,
        // re-grown lazily by the next step).
        self.ws.take();
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::fp16()
    }
}

/// Quantized execution backend over [`QuantizedMamba`]'s batched advance.
///
/// For packable precisions (the W4A4 recipe) the wrapped model serves
/// from **packed 4-bit weights** on the true-integer kernel path
/// ([`lightmamba_quant::kernels`]), not from dequantized f32 tensors,
/// and the backend reuses one advance workspace across steps so the
/// decode hot path is allocation-free. Despite the name (the paper's
/// headline W4A4 recipe), any [`lightmamba_quant::qmodel::Precision`]
/// works; the cost profile is derived from the wrapped model:
/// `weight_bits` is its actual mean stored bits per parameter
/// ([`QuantizedMamba::mean_weight_bits`] — for the packed path, the
/// packed nibble bytes plus scales actually held), and the datapath maps
/// to the narrowest [`HwPrecision`] that hosts the declared widths
/// (≤4-bit weights on the W4A4/W4A16 path, 5–8-bit on W8A8, FP weights
/// on FP16).
#[derive(Debug, Clone)]
pub struct W4A4Backend {
    model: QuantizedMamba,
    name: String,
    profile: CostProfile,
    ws: RefCell<AdvanceWorkspace<QuantScratch>>,
}

impl W4A4Backend {
    /// Wraps a quantized model, deriving name and cost profile from its
    /// precision.
    pub fn new(model: QuantizedMamba) -> Self {
        let precision = model.precision();
        let act_bits = precision.act.map_or(16, |s| s.bits);
        let (name, hw) = match precision.weight.map(|s| s.bits) {
            None => ("quant-fp".to_string(), HwPrecision::Fp16),
            Some(w) if w <= 4 && act_bits <= 4 => (format!("w{w}a{act_bits}"), HwPrecision::W4A4),
            Some(w) if w <= 4 => (format!("w{w}a{act_bits}"), HwPrecision::W4A16),
            Some(w) => (format!("w{w}a{act_bits}"), HwPrecision::W8A8),
        };
        let profile = CostProfile {
            precision: hw,
            weight_bits: model.mean_weight_bits(),
        };
        W4A4Backend {
            model,
            name,
            profile,
            ws: RefCell::default(),
        }
    }

    /// The wrapped quantized model.
    pub fn model(&self) -> &QuantizedMamba {
        &self.model
    }
}

impl DecodeBackend for W4A4Backend {
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> &MambaConfig {
        self.model.config()
    }

    fn new_state(&self) -> ModelState {
        self.model.new_state()
    }

    fn advance_into(
        &self,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
        pool: &WorkerPool,
        out: &mut LogitsBuf,
    ) -> Result<(), ServeError> {
        let mut ws = self.ws.borrow_mut();
        Ok(advance(&self.model, items, states, pool, &mut ws, out)?)
    }

    fn reset_after_fault(&self) {
        // Same recovery as the FP backend: discard possibly-torn
        // scratch; the next step re-grows it.
        self.ws.take();
    }

    fn cost_profile(&self) -> CostProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::ModelError;
    use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    /// One advance on `pool`, logits copied out per item.
    fn run(
        backend: &dyn DecodeBackend,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
        pool: &WorkerPool,
    ) -> Result<Vec<Vec<f32>>, ServeError> {
        let mut out = LogitsBuf::new();
        backend.advance_into(items, states, pool, &mut out)?;
        Ok(out.iter().map(<[f32]>::to_vec).collect())
    }

    #[test]
    fn fp_backend_delegates_to_reference_model() {
        let model = tiny_model();
        let backend = FpBackend::new(&model);
        let pool = WorkerPool::new(1);
        assert_eq!(backend.name(), "fp");
        let mut states = vec![backend.new_state(), backend.new_state()];
        let batched = run(&backend, &[(0, &[1, 2, 3]), (1, &[9])], &mut states, &pool).unwrap();
        let mut direct = model.new_state();
        let expect = model.prefill(&[1, 2, 3], &mut direct).unwrap();
        assert_eq!(batched[0], expect);
        let out = run(&backend, &[(0, &[4])], &mut states, &pool).unwrap();
        assert_eq!(out[0], model.forward_step(4, &mut direct).unwrap());
    }

    #[test]
    fn ragged_advance_matches_whole_prompt_prefill() {
        // Feeding a prompt in uneven chunks through advance_into lands
        // on exactly the logits one-shot prefill produces.
        let model = tiny_model();
        let backend = FpBackend::new(&model);
        let pool = WorkerPool::new(1);
        let prompt: Vec<u32> = vec![4, 9, 1, 7, 3, 2, 8];
        let mut chunked = vec![backend.new_state(), backend.new_state()];
        // Sequence 0 takes the prompt in chunks of 3/3/1; sequence 1
        // (a shorter prompt) rides the same ragged batches.
        let out1 = run(
            &backend,
            &[(0, &prompt[..3]), (1, &[5u32, 6][..])],
            &mut chunked,
            &pool,
        )
        .unwrap();
        assert_eq!(out1.len(), 2);
        let out2 = run(&backend, &[(0, &prompt[3..6])], &mut chunked, &pool).unwrap();
        assert_eq!(out2.len(), 1);
        let out3 = run(&backend, &[(0, &prompt[6..])], &mut chunked, &pool).unwrap();

        let mut reference = model.new_state();
        let expect = model.prefill(&prompt, &mut reference).unwrap();
        assert_eq!(out3[0], expect);
        let mut ref1 = model.new_state();
        let expect1 = model.prefill(&[5, 6], &mut ref1).unwrap();
        assert_eq!(out1[1], expect1);
    }

    #[test]
    fn save_restore_round_trips_on_both_backends() {
        // Pause after a prefill, trash the slot with another sequence,
        // resume, and decode: logits must match the uninterrupted run
        // bit-for-bit on the FP and the quantized backend alike.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let fp = FpBackend::new(&model);
        let w4 = W4A4Backend::new(q);
        let pool = WorkerPool::new(1);
        for backend in [&fp as &dyn DecodeBackend, &w4 as &dyn DecodeBackend] {
            let mut states = vec![backend.new_state()];
            run(backend, &[(0, &[3, 1, 4])], &mut states, &pool).unwrap();
            let paused = backend.save_state(&states[0]);
            backend.reset_state(&mut states[0]);
            run(backend, &[(0, &[200, 200, 200, 200])], &mut states, &pool).unwrap();
            backend.restore_state(&paused, &mut states[0]);
            let resumed = run(backend, &[(0, &[7])], &mut states, &pool).unwrap();

            let mut reference = vec![backend.new_state()];
            run(backend, &[(0, &[3, 1, 4])], &mut reference, &pool).unwrap();
            let expect = run(backend, &[(0, &[7])], &mut reference, &pool).unwrap();
            assert_eq!(resumed, expect, "{} diverged after resume", backend.name());
        }
    }

    #[test]
    fn pooled_backends_match_sequential_bitwise() {
        // Drive the same multi-sequence prefill + decode through each
        // backend on a 4-thread pool and on a 1-thread pool: outputs
        // and final states must be bit-identical, because sharding
        // only partitions the batch.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let (pooled, seq) = (WorkerPool::new(4), WorkerPool::new(1));
        let fp = FpBackend::new(&model);
        let w4 = W4A4Backend::new(q);
        for backend in [&fp as &dyn DecodeBackend, &w4 as &dyn DecodeBackend] {
            let prompts: Vec<Vec<u32>> = (0..5).map(|k| vec![1 + k, 2 + k, 3]).collect();
            let items: Vec<(usize, &[u32])> = prompts
                .iter()
                .enumerate()
                .map(|(k, p)| (k, &p[..]))
                .collect();
            let mut sp = vec![backend.new_state(); 5];
            let mut ss = vec![backend.new_state(); 5];
            let pre_p = run(backend, &items, &mut sp, &pooled).unwrap();
            let pre_s = run(backend, &items, &mut ss, &seq).unwrap();
            assert_eq!(pre_p, pre_s, "{} prefill diverged", backend.name());
            for t in 0..4u32 {
                let tok = [10 + t];
                let items: Vec<(usize, &[u32])> = (0..5).map(|k| (k, &tok[..])).collect();
                let out_p = run(backend, &items, &mut sp, &pooled).unwrap();
                let out_s = run(backend, &items, &mut ss, &seq).unwrap();
                assert_eq!(out_p, out_s, "{} step {t} diverged", backend.name());
            }
            assert_eq!(sp, ss, "{} states diverged", backend.name());
        }
    }

    #[test]
    fn reset_after_fault_preserves_decode_outputs() {
        // The recovery hook discards reusable scratch, never model or
        // sequence state: decode after a reset must stay bit-identical.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let fp = FpBackend::new(&model);
        let w4 = W4A4Backend::new(q);
        let pool = WorkerPool::new(1);
        for backend in [&fp as &dyn DecodeBackend, &w4 as &dyn DecodeBackend] {
            let mut states = vec![backend.new_state()];
            run(backend, &[(0, &[3, 1, 4])], &mut states, &pool).unwrap();
            backend.reset_after_fault();
            let after = run(backend, &[(0, &[7])], &mut states, &pool).unwrap();

            let mut reference = vec![backend.new_state()];
            run(backend, &[(0, &[3, 1, 4])], &mut reference, &pool).unwrap();
            let expect = run(backend, &[(0, &[7])], &mut reference, &pool).unwrap();
            assert_eq!(after, expect, "{} diverged after reset", backend.name());
        }
    }

    #[test]
    fn bad_token_leaves_every_state_untouched() {
        // The second item's out-of-vocab token sits at position 2 of a
        // chunk: the whole advance must fail before any position runs,
        // on either backend and thread count.
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let fp = FpBackend::new(&model);
        let w4 = W4A4Backend::new(q);
        let bad = model.config().vocab_size as u32;
        for backend in [&fp as &dyn DecodeBackend, &w4 as &dyn DecodeBackend] {
            for threads in [1, 4] {
                let pool = WorkerPool::new(threads);
                let mut states = vec![backend.new_state(); 3];
                run(
                    backend,
                    &[(0, &[5, 6]), (1, &[7]), (2, &[8])],
                    &mut states,
                    &pool,
                )
                .unwrap();
                let before = states.clone();
                let err = run(
                    backend,
                    &[(0, &[1, 2, 3]), (1, &[4, 5, bad, 6]), (2, &[9])],
                    &mut states,
                    &pool,
                );
                assert!(
                    matches!(
                        err,
                        Err(ServeError::Model(ModelError::TokenOutOfRange { .. }))
                    ),
                    "{} on {threads} thread(s): {err:?}",
                    backend.name()
                );
                assert_eq!(states, before, "{} advanced a state", backend.name());
            }
        }
    }

    #[test]
    fn paused_state_reports_its_transfer_bytes() {
        let model = tiny_model();
        let backend = FpBackend::new(&model);
        let state = backend.new_state();
        let paused = backend.save_state(&state);
        assert_eq!(
            paused.state_bytes(16.0),
            state.total_state_bytes(16.0),
            "pause must move exactly the resident state"
        );
        assert!(paused.state_bytes(16.0) > 0.0);
    }

    #[test]
    fn advance_rejects_empty_token_slices() {
        let model = tiny_model();
        let backend = FpBackend::new(&model);
        let mut states = vec![backend.new_state()];
        let err = run(&backend, &[(0, &[])], &mut states, &WorkerPool::new(1)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn w4a4_backend_names_and_prices_by_precision() {
        let model = tiny_model();
        let q4 = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let b4 = W4A4Backend::new(q4);
        assert_eq!(b4.name(), "w4a4");
        assert_eq!(b4.cost_profile().precision, HwPrecision::W4A4);
        // weight_bits is the model's *actual* stored width: 4-bit codes
        // plus one 16-bit scale per group of 16 ≈ 5 bits/param, so the
        // stream is ~3.2× narrower than FP16's — not the idealized 4×.
        let wb = b4.cost_profile().weight_bits;
        assert!((4.5..5.5).contains(&wb), "stored bits/param {wb}");
        let params = 1_000_000u64;
        let ratio = CostProfile::fp16().weight_stream_bytes(params)
            / b4.cost_profile().weight_stream_bytes(params);
        assert!((2.9..4.1).contains(&ratio), "stream ratio {ratio}");
    }

    #[test]
    fn odd_precisions_map_to_hosting_datapath_not_fp16() {
        use lightmamba_quant::qmodel::Precision;
        use lightmamba_quant::quantizer::QuantScheme;
        use lightmamba_quant::{PreparedModel, QuantizedMamba};

        let model = tiny_model();
        let build = |wbits, abits| {
            let precision = Precision {
                weight: Some(QuantScheme::weight_per_group(wbits, 16)),
                act: Some(QuantScheme::act_per_token(abits)),
                ssm: None,
            };
            let prepared = PreparedModel::from_reference(&model).unwrap();
            W4A4Backend::new(QuantizedMamba::new(prepared, precision).unwrap())
        };
        // A 2-bit model rides the 4-bit datapath with its own (narrower)
        // stream width — it must not silently price as FP16.
        let b2 = build(2, 4);
        assert_eq!(b2.name(), "w2a4");
        assert_eq!(b2.cost_profile().precision, HwPrecision::W4A4);
        assert!(b2.cost_profile().weight_bits < 4.0);
        // 5–8-bit weights host on the W8A8 path.
        let b6 = build(6, 8);
        assert_eq!(b6.name(), "w6a8");
        assert_eq!(b6.cost_profile().precision, HwPrecision::W8A8);
        let wb = b6.cost_profile().weight_bits;
        assert!((6.0..8.0).contains(&wb), "stored bits/param {wb}");
    }

    #[test]
    fn backend_states_are_interchangeable_when_configs_match() {
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let fp = FpBackend::new(&model);
        let w4 = W4A4Backend::new(q);
        let sf = fp.new_state();
        let sq = w4.new_state();
        assert_eq!(sf.layers.len(), sq.layers.len());
        assert_eq!(sf.layers[0].h.len(), sq.layers[0].h.len());
        assert_eq!(sf.layers[0].conv.channels(), sq.layers[0].conv.channels());
    }

    #[test]
    fn accelerator_config_swaps_precision_only() {
        let platform = Platform::vck190();
        let model = MambaConfig::tiny();
        let w4 = CostProfile::w4a4().accelerator_config(&platform, &model);
        let fp = CostProfile::fp16().accelerator_config(&platform, &model);
        assert_eq!(w4.precision, HwPrecision::W4A4);
        assert_eq!(fp.precision, HwPrecision::Fp16);
        assert!(!fp.pot_requant);
        assert_eq!(w4.mmu_din, fp.mmu_din);
        assert_eq!(w4.tiling, fp.tiling);
    }
}
