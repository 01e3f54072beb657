//! One Mamba2 block: pre-norm, input projection, conv1d, SSM, gated norm,
//! output projection, residual add.

use lightmamba_tensor::{activation, norm};

use crate::ssm::{ssm_step_into, SsmDims};
use crate::state::LayerState;
use crate::weights::{BlockWeights, InProjSplit};
use crate::{MambaConfig, Result};

/// Reusable temporaries of [`MambaBlock::forward_rows`].
///
/// One scratch serves every block of a model (all blocks share shapes)
/// and every row batch: buffers are resized on use and keep their
/// capacity, so once they have grown to the largest batch seen,
/// decode performs no heap allocation. The default value is empty; it
/// warms up on the first step.
///
/// Buffers are public so other execution paths with the same block
/// pipeline (the quantized model in `lightmamba_quant`) can drive their
/// own kernels through one scratch instead of duplicating it.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    /// Pre-norm copies of the residual streams (`rows × d_model`).
    pub normed: Vec<f32>,
    /// Input-projection outputs `z | x | B | C | Δ` (`rows × d_in_proj`).
    pub proj: Vec<f32>,
    /// Concatenated `(x, B, C)` conv input of one row (`conv_dim`).
    pub conv_in: Vec<f32>,
    /// Conv output of one row, SiLU'd in place (`conv_dim`).
    pub conv_out: Vec<f32>,
    /// SSM outputs / gated-norm buffers (`rows × d_inner`).
    pub y: Vec<f32>,
    /// Output-projection results (`rows × d_model`).
    pub out: Vec<f32>,
}

impl BlockScratch {
    /// Sizes every buffer for `rows` rows of `cfg`'s shapes (allocates
    /// only when capacity grows: the first step, a larger batch, or a
    /// config change).
    pub fn prepare(&mut self, cfg: &MambaConfig, rows: usize) {
        self.normed.resize(rows * cfg.d_model, 0.0);
        self.proj.resize(rows * cfg.d_in_proj(), 0.0);
        self.conv_in.resize(cfg.conv_dim(), 0.0);
        self.conv_out.resize(cfg.conv_dim(), 0.0);
        self.y.resize(rows * cfg.d_inner(), 0.0);
        self.out.resize(rows * cfg.d_model, 0.0);
    }
}

/// Optional per-step activation taps used by quantization calibration and
/// the Fig. 2 distribution study.
#[derive(Debug, Clone, Default)]
pub struct BlockCapture {
    /// Input of the input projection (post pre-norm residual stream).
    pub in_proj_input: Option<Vec<f32>>,
    /// Input of the output projection (post gated norm) — the activation
    /// whose scattered outliers motivate the paper (Fig. 2).
    pub out_proj_input: Option<Vec<f32>>,
    /// Raw SSM output `y` before the gate.
    pub ssm_output: Option<Vec<f32>>,
}

/// A Mamba2 block bound to its weights.
///
/// The block borrows nothing at rest; [`MambaBlock::forward_step`] takes
/// the residual-stream vector and the layer state and returns the updated
/// residual vector.
#[derive(Debug, Clone, PartialEq)]
pub struct MambaBlock {
    cfg: MambaConfig,
    split: InProjSplit,
    dims: SsmDims,
    weights: BlockWeights,
}

impl MambaBlock {
    /// Binds validated weights to a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidConfig`] when the weights do not
    /// match `cfg`.
    pub fn new(cfg: MambaConfig, weights: BlockWeights) -> Result<Self> {
        weights.validate(&cfg)?;
        let split = InProjSplit::new(&cfg);
        let dims = SsmDims::new(&cfg);
        Ok(MambaBlock {
            cfg,
            split,
            dims,
            weights,
        })
    }

    /// The block's weights.
    pub fn weights(&self) -> &BlockWeights {
        &self.weights
    }

    /// Mutable access to the block's weights (used by the quantizer's
    /// fusion passes, which rewrite projections in place).
    pub fn weights_mut(&mut self) -> &mut BlockWeights {
        &mut self.weights
    }

    /// The configuration the block was built for.
    pub fn config(&self) -> &MambaConfig {
        &self.cfg
    }

    /// One decode step: consumes the residual-stream vector `x_resid`
    /// (length `d_model`) and returns the new residual vector.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernels; these indicate
    /// a state object built for a different configuration.
    pub fn forward_step(&self, x_resid: &[f32], state: &mut LayerState) -> Result<Vec<f32>> {
        self.forward_step_captured(x_resid, state, &mut BlockCapture::default())
    }

    /// Advances a batch of sequences through the block: row `r` of
    /// `xs` (`rows × d_model`, updated in place) is the residual stream
    /// of the sequence whose layer state is `states[r]`. The input and
    /// output projections stream their weights once for all rows; the
    /// per-row middle (conv → SiLU → SSM → gated norm) and every row's arithmetic
    /// are those of [`MambaBlock::forward_step`], so each row is
    /// bit-identical to a solo step — the batched advance
    /// ([`crate::batch::advance`]) relies on this. Allocation-free once
    /// `scratch` has grown to the batch.
    ///
    /// # Errors
    ///
    /// [`crate::ModelError::StateMismatch`] when `xs` does not hold one
    /// `d_model` row per state, plus the conditions of
    /// [`MambaBlock::forward_step`].
    pub fn forward_rows(
        &self,
        xs: &mut [f32],
        states: &mut [&mut LayerState],
        scratch: &mut BlockScratch,
    ) -> Result<()> {
        self.rows_core(xs, states, scratch, None)
    }

    /// The one block pipeline: pre-norm → in-proj → per-row middle →
    /// out-proj → residual add, with optional activation taps (only the
    /// taps allocate; the capturing path passes a single row).
    fn rows_core(
        &self,
        xs: &mut [f32],
        states: &mut [&mut LayerState],
        scratch: &mut BlockScratch,
        mut capture: Option<&mut BlockCapture>,
    ) -> Result<()> {
        let w = &self.weights;
        let cfg = &self.cfg;
        if xs.len() != states.len() * cfg.d_model {
            return Err(crate::ModelError::StateMismatch(format!(
                "{} residual values for {} rows of width {}",
                xs.len(),
                states.len(),
                cfg.d_model
            )));
        }
        scratch.prepare(cfg, states.len());

        // Pre-norm on a copy of the residual streams.
        scratch.normed.copy_from_slice(xs);
        for row in scratch.normed.chunks_exact_mut(cfg.d_model) {
            norm::rms_norm(row, &w.norm_gamma, 1e-5);
        }
        if let Some(cap) = capture.as_deref_mut() {
            cap.in_proj_input = Some(scratch.normed.clone());
        }

        // Input projection: z | x | B | C | Δ.
        w.w_in
            .vecmat_rows_into(&scratch.normed, &mut scratch.proj)?;

        let rows = scratch
            .proj
            .chunks_exact(cfg.d_in_proj())
            .zip(scratch.y.chunks_exact_mut(cfg.d_inner()))
            .zip(states.iter_mut());
        for ((proj, y), state) in rows {
            self.mix(
                proj,
                state,
                &mut scratch.conv_in,
                &mut scratch.conv_out,
                y,
                capture.as_deref_mut(),
            )?;
        }
        if let Some(cap) = capture {
            cap.out_proj_input = Some(scratch.y.clone());
        }

        // Output projection and the residual add.
        w.w_out.vecmat_rows_into(&scratch.y, &mut scratch.out)?;
        for (xi, &oi) in xs.iter_mut().zip(scratch.out.iter()) {
            *xi += oi;
        }
        Ok(())
    }

    /// The per-row middle of the block: causal conv over `(x, B, C)`,
    /// SiLU, the SSM recurrence and the gated norm, from one row's
    /// projection `proj` into its `d_inner` output `y`. `conv_in` /
    /// `conv_out` are `conv_dim` temporaries.
    fn mix(
        &self,
        proj: &[f32],
        state: &mut LayerState,
        conv_in: &mut [f32],
        conv_out: &mut [f32],
        y: &mut [f32],
        capture: Option<&mut BlockCapture>,
    ) -> Result<()> {
        let w = &self.weights;
        let s = &self.split;
        let di = self.cfg.d_inner();
        let g = self.cfg.ngroups * self.cfg.d_state;
        conv_in[0..di].copy_from_slice(&proj[s.x.0..s.x.1]);
        conv_in[di..di + g].copy_from_slice(&proj[s.b.0..s.b.1]);
        conv_in[di + g..di + 2 * g].copy_from_slice(&proj[s.c.0..s.c.1]);
        state
            .conv
            .step_into(conv_in, &w.conv_weight, &w.conv_bias, conv_out)?;
        activation::silu_slice(conv_out);

        ssm_step_into(
            self.dims,
            &conv_out[0..di],
            &conv_out[di..di + g],
            &conv_out[di + g..di + 2 * g],
            &proj[s.dt.0..s.dt.1],
            &w.a_log,
            &w.dt_bias,
            &w.d_skip,
            &mut state.h,
            y,
        )?;
        if let Some(cap) = capture {
            cap.ssm_output = Some(y.to_vec());
        }
        norm::gated_rms_norm(y, &proj[s.z.0..s.z.1], &w.gate_norm_gamma, 1e-5);
        Ok(())
    }

    /// [`MambaBlock::forward_step`] with activation taps recorded into
    /// `capture` (calibration / outlier-study path). Runs the same
    /// single pipeline as [`MambaBlock::forward_rows`], cloning the
    /// three taps out of the scratch buffers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MambaBlock::forward_step`].
    pub fn forward_step_captured(
        &self,
        x_resid: &[f32],
        state: &mut LayerState,
        capture: &mut BlockCapture,
    ) -> Result<Vec<f32>> {
        let mut x = x_resid.to_vec();
        self.rows_core(
            &mut x,
            &mut [state],
            &mut BlockScratch::default(),
            Some(capture),
        )?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_block() -> (MambaBlock, LayerState) {
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let w = synth::synthetic_block(&cfg, &mut rng);
        let state = LayerState::new(&cfg);
        (MambaBlock::new(cfg, w).unwrap(), state)
    }

    #[test]
    fn forward_preserves_dimension() {
        let (block, mut state) = test_block();
        let x = vec![0.1f32; block.config().d_model];
        let y = block.forward_step(&x, &mut state).unwrap();
        assert_eq!(y.len(), block.config().d_model);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_is_deterministic() {
        let (block, mut s1) = test_block();
        let mut s2 = s1.clone();
        let x = vec![0.3f32; block.config().d_model];
        let y1 = block.forward_step(&x, &mut s1).unwrap();
        let y2 = block.forward_step(&x, &mut s2).unwrap();
        assert_eq!(y1, y2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn state_carries_history() {
        let (block, mut state) = test_block();
        let x = vec![0.5f32; block.config().d_model];
        let y1 = block.forward_step(&x, &mut state).unwrap();
        let y2 = block.forward_step(&x, &mut state).unwrap();
        // Same input, different state → different output.
        assert_ne!(y1, y2);
    }

    #[test]
    fn capture_records_taps() {
        let (block, mut state) = test_block();
        let x = vec![0.2f32; block.config().d_model];
        let mut cap = BlockCapture::default();
        block
            .forward_step_captured(&x, &mut state, &mut cap)
            .unwrap();
        assert_eq!(
            cap.in_proj_input.as_ref().unwrap().len(),
            block.config().d_model
        );
        assert_eq!(
            cap.out_proj_input.as_ref().unwrap().len(),
            block.config().d_inner()
        );
        assert_eq!(
            cap.ssm_output.as_ref().unwrap().len(),
            block.config().d_inner()
        );
    }

    #[test]
    fn residual_passes_through_zero_block() {
        // With a zero output projection the block must be the identity.
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(2);
        let mut w = synth::synthetic_block(&cfg, &mut rng);
        w.w_out = lightmamba_tensor::Tensor::zeros(&[cfg.d_inner(), cfg.d_model]);
        let block = MambaBlock::new(cfg.clone(), w).unwrap();
        let mut state = LayerState::new(&cfg);
        let x: Vec<f32> = (0..cfg.d_model).map(|i| i as f32 * 0.01).collect();
        let y = block.forward_step(&x, &mut state).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn new_rejects_mismatched_weights() {
        let cfg = MambaConfig::tiny();
        let mut rng = StdRng::seed_from_u64(3);
        let w = synth::synthetic_block(&MambaConfig::small(), &mut rng);
        assert!(MambaBlock::new(cfg, w).is_err());
    }
}
