//! Sharding one batched advance across a worker pool.
//!
//! Mamba2 sequences share no cross-sequence state, so after the up-front
//! batch validation (indices in bounds and *unique*, shapes checked) a
//! batched advance decomposes into independent per-sequence work.
//! [`advance`](crate::batch::advance) splits the validated batch into
//! contiguous ranges (`shard_range`) — one per pool thread — and runs
//! each shard's position-major sweep (one row-batched kernel call per
//! layer and token position over the shard's active rows) on its own
//! thread with its own workspace.
//!
//! # Determinism
//!
//! Per-sequence arithmetic does not depend on the batch: the row
//! kernels keep every output's summation order, so a row computes the
//! same bits whether it shares a kernel call with other rows or runs
//! alone. Shard boundaries only decide which rows share a call (never
//! split a sequence), and every sequence writes its own state and
//! logits row. Logits and states are therefore **bit-identical for any
//! thread count**, regardless of how the OS schedules the workers —
//! pinned by the tests below and proptests in `lightmamba_serve`.
//!
//! # Send/Sync boundaries
//!
//! Shards need `&mut` access to *disjoint* elements of one `&mut [T]` —
//! the decode states, and the rows of the caller's logits buffer — which
//! the borrow checker cannot express across threads. [`StateShards`] is
//! the one escape hatch: a raw-pointer view whose accessors are `unsafe`
//! with the contract that concurrent callers touch disjoint elements.
//! `advance` upholds it by construction — batch validation rejects
//! duplicate slots, and the contiguous shard ranges partition the item
//! list.

use std::ops::Range;

use crate::state::ModelState;

/// A shared view of a `&mut [T]` — decode states by default, or a flat
/// logits buffer — that hands out `&mut` access to disjoint elements
/// across threads.
///
/// This exists because one batched advance mutates many states through
/// one exclusive borrow, but disjoint access from multiple threads is
/// sound. Exclusivity is guaranteed by the caller (see
/// [`state_mut`](Self::state_mut)), not the type system.
pub struct StateShards<'a, T = ModelState> {
    base: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: the view only yields references through the `unsafe`
// accessors, whose contract (disjoint elements across concurrent
// callers) is exactly what makes cross-thread sharing sound for `Send`
// elements.
unsafe impl<T: Send> Send for StateShards<'_, T> {}
unsafe impl<T: Send> Sync for StateShards<'_, T> {}

impl<'a, T> StateShards<'a, T> {
    /// Wraps a slice for sharded access. The borrow is held for the
    /// view's lifetime, so no other access to `items` can race it.
    pub fn new(items: &'a mut [T]) -> Self {
        StateShards {
            base: items.as_mut_ptr(),
            len: items.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements in the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive access to one element (one state slot).
    ///
    /// # Safety
    ///
    /// `slot` must be in bounds, and for the lifetime of the returned
    /// reference no other call (on any thread) may borrow the same
    /// element.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn state_mut(&self, slot: usize) -> &mut T {
        debug_assert!(slot < self.len, "slot {slot} out of bounds");
        // SAFETY: bounds and exclusivity per the function contract.
        unsafe { &mut *self.base.add(slot) }
    }

    /// Exclusive access to a contiguous run of elements.
    ///
    /// # Safety
    ///
    /// `range` must be in bounds, and for the lifetime of the returned
    /// slice no other call (on any thread) may borrow an element of it.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: bounds and exclusivity per the function contract.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(range.start), range.len()) }
    }
}

/// Item range of shard `k` when `items` are split into `shards`
/// balanced contiguous ranges (sizes differ by at most one, larger
/// ranges first).
pub(crate) fn shard_range(k: usize, shards: usize, items: usize) -> Range<usize> {
    let base = items / shards;
    let rem = items % shards;
    let lo = k * base + k.min(rem);
    lo..lo + base + usize::from(k < rem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{advance, AdvanceWorkspace, LogitsBuf};
    use crate::{MambaConfig, MambaModel, ModelError};
    use lightmamba_pool::WorkerPool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    #[test]
    fn shard_plan_is_balanced_and_contiguous() {
        for items in 0..40 {
            for threads in 1..9 {
                let shards = threads.min(items);
                let ranges: Vec<Range<usize>> =
                    (0..shards).map(|k| shard_range(k, shards, items)).collect();
                let mut lo = 0;
                for r in &ranges {
                    assert_eq!(r.start, lo, "ranges are contiguous from zero");
                    assert!(r.end > r.start, "no empty shard");
                    lo = r.end;
                }
                assert_eq!(lo, items, "ranges cover all items");
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(Range::len).min(),
                    ranges.iter().map(Range::len).max(),
                ) {
                    assert!(max - min <= 1, "balanced to within one item");
                }
            }
        }
    }

    #[test]
    fn parallel_step_matches_sequential_bitwise() {
        let m = tiny_model();
        let (seq_pool, par_pool) = (WorkerPool::new(1), WorkerPool::new(4));
        let n = 7;

        let mut seq_states: Vec<_> = (0..n).map(|_| m.new_state()).collect();
        let mut par_states = seq_states.clone();
        let (mut seq_ws, mut par_ws) = (AdvanceWorkspace::new(), AdvanceWorkspace::new());
        let (mut seq_out, mut par_out) = (LogitsBuf::new(), LogitsBuf::new());

        for step in 0..5u32 {
            let tokens: Vec<u32> = (0..n as u32).map(|k| step * 31 + k).collect();
            let items: Vec<(usize, &[u32])> = tokens
                .iter()
                .enumerate()
                .map(|(k, t)| (k, std::slice::from_ref(t)))
                .collect();
            advance(
                &m,
                &items,
                &mut seq_states,
                &seq_pool,
                &mut seq_ws,
                &mut seq_out,
            )
            .unwrap();
            advance(
                &m,
                &items,
                &mut par_states,
                &par_pool,
                &mut par_ws,
                &mut par_out,
            )
            .unwrap();
            assert_eq!(par_out.rows(), n);
            for k in 0..n {
                assert_eq!(
                    par_out.row(k),
                    seq_out.row(k),
                    "sequence {k} diverged at {step}"
                );
            }
        }
        assert_eq!(par_states, seq_states, "states diverged");
    }

    #[test]
    fn parallel_prefill_matches_sequential() {
        let m = tiny_model();
        let pool = WorkerPool::new(3);
        let prompts: [&[u32]; 3] = [&[5, 9, 2], &[40, 1], &[7, 7, 7, 7]];

        let mut seq_states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let seq: Vec<Vec<f32>> = prompts
            .iter()
            .zip(&mut seq_states)
            .map(|(p, st)| m.prefill(p, st).unwrap())
            .collect();

        let mut par_states: Vec<_> = (0..3).map(|_| m.new_state()).collect();
        let items: Vec<(usize, &[u32])> = prompts.iter().copied().enumerate().collect();
        let mut out = LogitsBuf::new();
        advance(
            &m,
            &items,
            &mut par_states,
            &pool,
            &mut AdvanceWorkspace::new(),
            &mut out,
        )
        .unwrap();

        for (k, expect) in seq.iter().enumerate() {
            assert_eq!(out.row(k), &expect[..]);
        }
        assert_eq!(par_states, seq_states);
    }

    #[test]
    fn parallel_step_rejects_duplicates_without_advancing() {
        let m = tiny_model();
        let pool = WorkerPool::new(2);
        let mut states: Vec<_> = (0..2).map(|_| m.new_state()).collect();
        let before = states.clone();
        let err = advance(
            &m,
            &[(0, &[1]), (0, &[2])],
            &mut states,
            &pool,
            &mut AdvanceWorkspace::new(),
            &mut LogitsBuf::new(),
        );
        assert!(matches!(err, Err(ModelError::StateMismatch(_))));
        assert_eq!(states, before);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let m = tiny_model();
        let pool = WorkerPool::new(2);
        let mut states: Vec<ModelState> = Vec::new();
        let mut out = LogitsBuf::new();
        advance(
            &m,
            &[],
            &mut states,
            &pool,
            &mut AdvanceWorkspace::new(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.rows(), 0);
    }
}
