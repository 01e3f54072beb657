//! The batched advance: the one seam every execution path reaches
//! batched decode and chunked prefill through.
//!
//! Mamba2 sequences share no cross-sequence state, so a batched step is
//! semantically just N independent [`MambaModel::forward_step`] calls.
//! [`advance`] reorders the work so each projection's weights are
//! streamed once per token position however many sequences are
//! resident — the software analogue of the accelerator's shared weight
//! stream (`lightmamba_accel::batch`) and the hot path
//! `lightmamba_serve`'s continuous batcher drives.
//!
//! One call advances a *ragged* batch: `items[k] = (state_index,
//! tokens)` feeds one token (a decode step) or several (a prefill
//! chunk) into `states[state_index]`, and row `k` of the caller's
//! [`LogitsBuf`] receives the logits after that item's last token.
//!
//! # The active-row gather
//!
//! Each shard orders its items by token count, longest first, so at
//! every token position the items that still have a token form a prefix
//! of that order and their residual streams a contiguous `rows ×
//! d_model` block. Per position the shard embeds those rows, gathers
//! their layer states, and makes one [`StepKernels::block`] call per
//! layer for all of them; the items whose last token this is sit at the
//! end of the prefix and get one [`StepKernels::head`] call. A batch of
//! one takes the same path with one row.
//!
//! The guarantees, identical for every execution path because each one
//! only supplies [`StepKernels`]:
//!
//! * **No half-advanced state.** The whole batch — indices, duplicates,
//!   state shapes, every token of every item, empty slices — is
//!   validated before any state is touched.
//! * **Bit-identical to sequential decode.** The row kernels keep every
//!   output's summation order, so each row's arithmetic is exactly the
//!   single-stream order and batched logits match sequential ones bit
//!   for bit — for any batch composition, chunking and thread count.
//! * **One path for any thread count.** The batch is sharded into
//!   contiguous ranges on the [`WorkerPool`]; a one-thread pool runs
//!   one shard inline through the same code.
//! * **Zero steady-state allocations.** Residual streams, the row order,
//!   the state gather and kernel scratch live in an
//!   [`AdvanceWorkspace`], logits in the caller's [`LogitsBuf`]; both
//!   grow to the largest batch seen and are then reused (pinned by
//!   counting-allocator tests).

use std::cmp::Reverse;
use std::sync::{Mutex, PoisonError};

use lightmamba_pool::WorkerPool;

use crate::block::BlockScratch;
use crate::par::{shard_range, StateShards};
use crate::ssm::SsmDims;
use crate::state::{LayerState, ModelState};
use crate::{MambaConfig, MambaModel, ModelError};

/// The row kernels of one execution path — everything [`advance`]
/// needs to move a batch of sequences through one token position. The
/// FP model and the quantized model each implement it once.
///
/// Row arguments are flat: `xs` holds `rows` residual streams of
/// `d_model` back to back, `logits` `rows` rows of `vocab_size`. Each
/// row's result must be bit-identical to running that row alone.
pub trait StepKernels: Sync {
    /// Reusable kernel temporaries, one per shard.
    type Scratch: Default + Send;
    /// The path's error type; it must carry batch-validation errors.
    type Error: From<ModelError> + Send;

    /// The model configuration (shapes, vocabulary, depth).
    fn config(&self) -> &MambaConfig;

    /// Writes the embedding of `token` (already validated in range)
    /// into the residual stream `x` (`d_model` long).
    ///
    /// # Errors
    ///
    /// Whatever the path's embedding lookup raises.
    fn embed(&self, token: u32, x: &mut [f32]) -> Result<(), Self::Error>;

    /// Advances every row through block `layer`: row `r` of `xs` is
    /// updated in place together with its layer state `states[r]`.
    ///
    /// # Errors
    ///
    /// Whatever the path's block kernels raise.
    fn block(
        &self,
        layer: usize,
        xs: &mut [f32],
        states: &mut [&mut LayerState],
        scratch: &mut Self::Scratch,
    ) -> Result<(), Self::Error>;

    /// Final norm and LM head: turns each row of `xs` (which it may
    /// overwrite) into the same row of `logits`.
    ///
    /// # Errors
    ///
    /// Whatever the path's head kernels raise.
    fn head(
        &self,
        xs: &mut [f32],
        logits: &mut [f32],
        scratch: &mut Self::Scratch,
    ) -> Result<(), Self::Error>;
}

/// Caller-owned logits of one [`advance`]: one flat buffer, row `k`
/// holding item `k`'s logits. It grows to the largest batch seen and is
/// then reused, so reading logits out of a step allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LogitsBuf {
    data: Vec<f32>,
    vocab: usize,
}

impl LogitsBuf {
    /// An empty buffer; it warms up on the first advance.
    pub fn new() -> Self {
        LogitsBuf::default()
    }

    /// Rows written by the latest advance (one per item).
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.vocab).unwrap_or(0)
    }

    /// Logits of item `k` of the latest advance.
    ///
    /// # Panics
    ///
    /// If `k` is not an item index of the latest advance.
    pub fn row(&self, k: usize) -> &[f32] {
        assert!(k < self.rows(), "logits row {k} out of range");
        &self.data[k * self.vocab..(k + 1) * self.vocab]
    }

    /// The rows of the latest advance, in item order.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> + '_ {
        (0..self.rows()).map(|k| self.row(k))
    }

    fn reshape(&mut self, rows: usize, vocab: usize) {
        self.vocab = vocab;
        self.data.resize(rows * vocab, 0.0);
    }
}

/// Reusable buffers of [`advance`]: the validation bitmap plus, per
/// shard, the residual streams, row order, state gather, head staging
/// and the path's kernel scratch. Grows to the largest batch and pool
/// width seen, then steady-state advances allocate nothing.
#[derive(Debug)]
pub struct AdvanceWorkspace<S> {
    seen: Vec<bool>,
    shards: Vec<Shard<S>>,
}

impl<S> Default for AdvanceWorkspace<S> {
    fn default() -> Self {
        AdvanceWorkspace {
            seen: Vec::new(),
            shards: Vec::new(),
        }
    }
}

/// A workspace holds only scratch, so a clone starts empty and warms up
/// on its own first advance.
impl<S> Clone for AdvanceWorkspace<S> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<S> AdvanceWorkspace<S> {
    /// An empty workspace; it warms up on the first advance.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One shard's private buffers.
#[derive(Debug, Default)]
struct Shard<S> {
    /// Residual streams in `order` (`d_model` per item).
    xs: Vec<f32>,
    /// Item indices, longest token run first (ties in item order).
    order: Vec<usize>,
    /// Per-layer gather of the active rows' states; empty between
    /// calls, only its capacity is kept.
    states: Vec<&'static mut LayerState>,
    /// Logits of the rows finishing at one position, in `order`; copied
    /// out to their items' rows.
    staged: Vec<f32>,
    scratch: S,
}

/// Advances a ragged batch: `items[k] = (state_index, tokens)` feeds
/// `tokens` into `states[state_index]` and writes the logits after the
/// last of them into row `k` of `out`. States not named in `items` are
/// untouched. The batch is split into `pool.threads().min(items.len())`
/// contiguous shards, each running the position-major active-row sweep
/// (module docs) over its items on its own thread.
///
/// # Errors
///
/// [`ModelError::StateMismatch`] for an out-of-range or repeated index
/// or a state shaped for another config, [`ModelError::TokenOutOfRange`]
/// for any token outside the vocabulary, and [`ModelError::InvalidConfig`]
/// for an item with no tokens — all raised before any state changes.
/// Kernel errors propagate; when several shards fail, the lowest
/// shard's error is returned so the result does not depend on thread
/// scheduling.
///
/// # Panics
///
/// A panic inside the kernels is re-raised after every shard finished
/// (see `WorkerPool::run_over`).
pub fn advance<K: StepKernels>(
    kernels: &K,
    items: &[(usize, &[u32])],
    states: &mut [ModelState],
    pool: &WorkerPool,
    ws: &mut AdvanceWorkspace<K::Scratch>,
    out: &mut LogitsBuf,
) -> Result<(), K::Error> {
    let cfg = kernels.config();
    validate(cfg, items, states, &mut ws.seen)?;
    let vocab = cfg.vocab_size;
    out.reshape(items.len(), vocab);
    let shards = pool.threads().min(items.len());
    if shards == 0 {
        return Ok(());
    }
    if ws.shards.len() < shards {
        ws.shards.resize_with(shards, Shard::default);
    }
    let states = StateShards::new(states);
    let rows = StateShards::new(&mut out.data[..]);
    let first_err: Mutex<Option<(usize, K::Error)>> = Mutex::new(None);
    pool.run_over(&mut ws.shards[..shards], |k, shard| {
        let range = shard_range(k, shards, items.len());
        // SAFETY: validation checked every state index is in bounds
        // and unique, `out` was just sized to `items.len() * vocab`,
        // and the shard ranges partition the items, so this shard
        // alone touches its items' states and logits rows.
        let result = unsafe {
            let logits = rows.range_mut(range.start * vocab..range.end * vocab);
            shard.run(kernels, &items[range], &states, logits)
        };
        if let Err(e) = result {
            let mut slot = first_err.lock().unwrap_or_else(PoisonError::into_inner);
            // Keep the lowest-shard error (MSRV 1.75: no `is_none_or`).
            if !matches!(slot.as_ref(), Some(&(j, _)) if j < k) {
                *slot = Some((k, e));
            }
        }
    });
    match first_err
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

impl<S> Shard<S> {
    /// The position-major sweep over one shard's items: per token
    /// position, one embed per active row, one row-batched block call
    /// per layer and one head call for the rows that finish there.
    ///
    /// # Safety
    ///
    /// Every state index in `items` must be in bounds of `states`, and no
    /// concurrent caller may touch those states.
    unsafe fn run<K: StepKernels<Scratch = S>>(
        &mut self,
        kernels: &K,
        items: &[(usize, &[u32])],
        states: &StateShards<'_>,
        logits: &mut [f32],
    ) -> Result<(), K::Error> {
        let Shard {
            xs,
            order,
            states: spare,
            staged,
            scratch,
        } = self;
        let cfg = kernels.config();
        let (d, vocab) = (cfg.d_model, cfg.vocab_size);
        let len = |k: usize| items[k].1.len();
        order.clear();
        order.extend(0..items.len());
        order.sort_unstable_by_key(|&k| (Reverse(len(k)), k));
        xs.resize(items.len() * d, 0.0);
        // Sized for every item at once, so it grows only with the shard.
        staged.resize(items.len() * vocab, 0.0);
        let mut gather = recycle(std::mem::take(spare));
        let positions = order.first().map_or(0, |&k| len(k));
        let mut active = items.len();
        let mut result = Ok(());
        for pos in 0..positions {
            active = order[..active].partition_point(|&k| len(k) > pos);
            let rows = &order[..active];
            let xs = &mut xs[..active * d];
            // SAFETY: forwarded from this function's contract.
            result = unsafe { layers(kernels, items, states, rows, pos, xs, &mut gather, scratch) };
            if result.is_err() {
                break;
            }
            // The rows whose last token this is close the active prefix.
            let done = rows.partition_point(|&k| len(k) > pos + 1);
            let finishing = &rows[done..];
            if finishing.is_empty() {
                continue;
            }
            let staged = &mut staged[..finishing.len() * vocab];
            result = kernels.head(&mut xs[done * d..], staged, scratch);
            if result.is_err() {
                break;
            }
            for (&k, row) in finishing.iter().zip(staged.chunks_exact(vocab)) {
                logits[k * vocab..(k + 1) * vocab].copy_from_slice(row);
            }
        }
        *spare = recycle(gather);
        result
    }
}

/// Embeds the active rows' tokens at `pos` (row `j` is item `rows[j]`)
/// and runs them through every layer, gathering the rows' layer states
/// into `gather` for each block call.
///
/// # Safety
///
/// As [`Shard::run`].
#[allow(clippy::too_many_arguments)]
unsafe fn layers<'s, K: StepKernels>(
    kernels: &K,
    items: &[(usize, &[u32])],
    states: &'s StateShards<'_>,
    rows: &[usize],
    pos: usize,
    xs: &mut [f32],
    gather: &mut Vec<&'s mut LayerState>,
    scratch: &mut K::Scratch,
) -> Result<(), K::Error> {
    let cfg = kernels.config();
    for (&k, x) in rows.iter().zip(xs.chunks_exact_mut(cfg.d_model)) {
        kernels.embed(items[k].1[pos], x)?;
    }
    for layer in 0..cfg.n_layer {
        gather.clear();
        for &k in rows {
            // SAFETY: forwarded from this function's contract; the
            // previous layer's borrows of the same states were dropped
            // by `clear`.
            let state = unsafe { states.state_mut(items[k].0) };
            gather.push(&mut state.layers[layer]);
        }
        kernels.block(layer, xs, gather, scratch)?;
    }
    gather.clear();
    Ok(())
}

/// Empties `v` and hands back its allocation re-typed for another
/// borrow lifetime: the in-place `collect` reuses the buffer because the
/// element layout is unchanged, so the per-layer gather costs no
/// allocation once it has grown.
// `filter_map` changes the element lifetime, which `filter` cannot.
#[allow(clippy::unnecessary_filter_map)]
fn recycle<'b, T>(mut v: Vec<&mut T>) -> Vec<&'b mut T> {
    v.clear();
    v.into_iter().filter_map(|_| None).collect()
}

/// Checks the whole batch against `cfg` before anything runs: indices
/// in bounds and unique, states shaped for `cfg`, at least one token per
/// item, every token inside the vocabulary. `seen` is the reusable
/// uniqueness bitmap.
fn validate(
    cfg: &MambaConfig,
    items: &[(usize, &[u32])],
    states: &[ModelState],
    seen: &mut Vec<bool>,
) -> Result<(), ModelError> {
    let state_len = SsmDims::new(cfg).state_len();
    seen.clear();
    seen.resize(states.len(), false);
    for &(slot, tokens) in items {
        let state = states.get(slot).ok_or_else(|| {
            ModelError::StateMismatch(format!(
                "batch references state {slot}, only {} exist",
                states.len()
            ))
        })?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(ModelError::StateMismatch(format!(
                "state {slot} appears twice in one batch"
            )));
        }
        if state.layers.len() != cfg.n_layer {
            return Err(ModelError::StateMismatch(format!(
                "state {slot} has {} layers, model has {}",
                state.layers.len(),
                cfg.n_layer
            )));
        }
        for (li, layer) in state.layers.iter().enumerate() {
            if layer.h.len() != state_len
                || layer.conv.channels() != cfg.conv_dim()
                || layer.conv.kernel() != cfg.d_conv
            {
                return Err(ModelError::StateMismatch(format!(
                    "state {slot} layer {li} shaped for a different config"
                )));
            }
        }
        if tokens.is_empty() {
            return Err(ModelError::InvalidConfig(format!(
                "advance of state {slot} was given no tokens"
            )));
        }
        if let Some(&token) = tokens.iter().find(|&&t| t as usize >= cfg.vocab_size) {
            return Err(ModelError::TokenOutOfRange {
                token,
                vocab: cfg.vocab_size,
            });
        }
    }
    Ok(())
}

impl StepKernels for MambaModel {
    type Scratch = BlockScratch;
    type Error = ModelError;

    fn config(&self) -> &MambaConfig {
        MambaModel::config(self)
    }

    fn embed(&self, token: u32, x: &mut [f32]) -> Result<(), ModelError> {
        x.copy_from_slice(self.embedding().row(token as usize)?);
        Ok(())
    }

    fn block(
        &self,
        layer: usize,
        xs: &mut [f32],
        states: &mut [&mut LayerState],
        scratch: &mut BlockScratch,
    ) -> Result<(), ModelError> {
        self.blocks()[layer].forward_rows(xs, states, scratch)
    }

    fn head(
        &self,
        xs: &mut [f32],
        logits: &mut [f32],
        _scratch: &mut BlockScratch,
    ) -> Result<(), ModelError> {
        self.head_rows(xs, logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MambaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    /// One single-thread advance, logits copied out per item.
    fn run(
        m: &MambaModel,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
    ) -> Result<Vec<Vec<f32>>, ModelError> {
        let mut out = LogitsBuf::new();
        let pool = WorkerPool::new(1);
        advance(
            m,
            items,
            states,
            &pool,
            &mut AdvanceWorkspace::new(),
            &mut out,
        )?;
        Ok(out.iter().map(<[f32]>::to_vec).collect())
    }

    #[test]
    fn batch_step_matches_sequential_bitwise() {
        let m = tiny_model();
        let prompts: [&[u32]; 3] = [&[5, 9, 2], &[40, 1], &[7, 7, 7, 7]];

        // Sequential reference.
        let mut seq_states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let mut seq_logits = Vec::new();
        for (k, p) in prompts.iter().enumerate() {
            m.prefill(p, &mut seq_states[k]).unwrap();
            seq_logits.push(m.forward_step(0, &mut seq_states[k]).unwrap());
        }

        // Batched path: one ragged prefill advance, one decode advance.
        let mut states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let prefill: Vec<(usize, &[u32])> = prompts.iter().copied().enumerate().collect();
        run(&m, &prefill, &mut states).unwrap();
        let batched = run(&m, &[(0, &[0]), (1, &[0]), (2, &[0])], &mut states).unwrap();

        for k in 0..3 {
            assert_eq!(batched[k], seq_logits[k], "sequence {k} diverged");
            assert_eq!(states[k], seq_states[k], "state {k} diverged");
        }
    }

    #[test]
    fn ragged_prefill_matches_prefill() {
        let m = tiny_model();
        let prompts: [&[u32]; 2] = [&[1, 2, 3, 4], &[200, 100]];
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let items: Vec<(usize, &[u32])> = prompts.iter().copied().enumerate().collect();
        let batched = run(&m, &items, &mut states).unwrap();
        for (k, p) in prompts.iter().enumerate() {
            let mut st = m.new_state();
            let single = m.prefill(p, &mut st).unwrap();
            assert_eq!(batched[k], single);
        }
    }

    #[test]
    fn chunk_amid_decodes_matches_sequential_bitwise() {
        // The chunk sorts first, so at position 0 the finishing decode
        // rows are items 0, 2 and 3: not adjacent in the output.
        let m = tiny_model();
        let items: [(usize, &[u32]); 4] = [(0, &[1]), (1, &[5, 6, 7, 8]), (2, &[3]), (3, &[9])];
        let mut states: Vec<_> = (0..4).map(|_| m.new_state()).collect();
        let batched = run(&m, &items, &mut states).unwrap();
        for (k, &(slot, tokens)) in items.iter().enumerate() {
            let mut solo = m.new_state();
            assert_eq!(
                batched[k],
                m.prefill(tokens, &mut solo).unwrap(),
                "item {k}"
            );
            assert_eq!(states[slot], solo, "state {slot}");
        }
    }

    #[test]
    fn indexed_step_advances_only_selected_slots() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let untouched = states[1].clone();
        let out = run(&m, &[(2, &[4]), (0, &[9])], &mut states).unwrap();
        assert_eq!(out.len(), 2);
        let mut solo = m.new_state();
        assert_eq!(out[0], m.forward_step(4, &mut solo).unwrap());
        assert_eq!(states[2], solo);
        assert_eq!(states[1], untouched);
        assert_ne!(states[0], untouched);
    }

    #[test]
    fn duplicate_slot_is_rejected_before_any_advance() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let before = states.clone();
        let err = run(&m, &[(0, &[1]), (0, &[2])], &mut states);
        assert!(matches!(err, Err(ModelError::StateMismatch(_))));
        assert_eq!(states, before, "states must be untouched on error");
    }

    #[test]
    fn foreign_config_state_rejected_before_any_advance() {
        let m = tiny_model();
        // Same layer count as tiny(), different inner shapes.
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.d_state = 32;
        let other = MambaModel::synthetic(other_cfg, &mut StdRng::seed_from_u64(2)).unwrap();
        let mut states = vec![m.new_state(), other.new_state()];
        let before = states.clone();
        let err = run(&m, &[(0, &[1]), (1, &[2])], &mut states);
        assert!(matches!(err, Err(ModelError::StateMismatch(_))));
        assert_eq!(states, before, "states must be untouched on error");
    }

    #[test]
    fn out_of_range_token_rejected_before_any_advance() {
        let m = tiny_model();
        let bad = m.config().vocab_size as u32;
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let before = states.clone();
        let err = run(&m, &[(0, &[1]), (1, &[bad])], &mut states);
        assert!(matches!(err, Err(ModelError::TokenOutOfRange { .. })));
        assert_eq!(states, before);
        // A bad token deep inside a chunk is caught up front too.
        let err = run(&m, &[(0, &[1, 2, 3]), (1, &[4, 5, bad])], &mut states);
        assert!(matches!(err, Err(ModelError::TokenOutOfRange { .. })));
        assert_eq!(states, before);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let m = tiny_model();
        let mut states: Vec<ModelState> = Vec::new();
        let out = run(&m, &[], &mut states).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn empty_prompt_in_batch_rejected() {
        let m = tiny_model();
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let before = states.clone();
        let err = run(&m, &[(0, &[1]), (1, &[])], &mut states);
        assert!(matches!(err, Err(ModelError::InvalidConfig(_))));
        assert_eq!(states, before);
    }
}
