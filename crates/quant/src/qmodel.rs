//! Quantized Mamba2 execution: a true-integer W4A4 path over packed
//! weights, with the fake-quantized path kept as the reference oracle.
//!
//! Two execution modes share one set of weights:
//!
//! * [`ExecMode::Integer`] — the serving hot path. Linear layers hold
//!   packed 4-bit weights ([`crate::kernels::PackedW4`], two nibbles per
//!   byte, per-group scales); each step quantizes the activation to i8
//!   codes in a reusable scratch and runs the integer GEMV (i32
//!   accumulate, one f32 rescale per group). This is the arithmetic the
//!   paper's MMU performs and it streams 8× fewer weight bytes than the
//!   dequantized-f32 path, which is what makes host decode fast.
//! * [`ExecMode::FakeQuant`] — the auditable reference: weights are
//!   dequantized to f32 **on the same quantization grid as the packed
//!   codes** and every step computes in f32 with activations passed
//!   through quantize→dequantize. Agreement between the two modes is
//!   pinned by proptests (bit-exact under power-of-two scales,
//!   tight-tolerance otherwise — see [`crate::kernels`]).
//!
//! The integer mode engages automatically when the precision is
//! packable (per-group weights ≤ 4 bits and per-group activations with
//! the same group size — the paper's W4A4 recipe); other precisions
//! (W8A8's per-channel/per-token, FP) run fake-quantized as before.
//!
//! Weights are **immutable and shared**: one `Arc` holds every tensor,
//! so cloning the model (e.g. registering the same checkpoint in several
//! serving registries) duplicates no weight memory, and construction
//! *moves* the prepared tensors instead of cloning them.
//!
//! The SSM stays on the fake-quant path in both modes (the paper
//! executes it on the SSMU's INT8 PoT datapath, not the MMU), so
//! `LightMamba*`'s `ssm` scheme behaves identically in either mode.

use std::sync::Arc;

use lightmamba_model::eval::StepModel;
use lightmamba_model::ssm::{ssm_step_into, SsmDims};
use lightmamba_model::weights::InProjSplit;
use lightmamba_model::{
    BlockScratch, LayerState, MambaConfig, ModelError, ModelState, StepKernels,
};
use lightmamba_tensor::{activation, norm, Tensor};

use crate::kernels::{gemv_packed, ActQuant, GemvScratch, PackedW4};
use crate::prepared::{PreparedBlock, PreparedModel};
use crate::quantizer::{fake_quant, fake_quant_slice, Granularity, QuantScheme, QuantizedTensor};
use crate::Result;

/// Precision configuration for quantized execution.
///
/// Each field is optional: `None` keeps that tensor class in floating
/// point. [`Precision::fp`] (all `None`) executes the prepared model
/// exactly, which is how the rotation-invariance tests verify that the
/// weight rewrites preserve the FP function.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Precision {
    /// Weight quantization scheme (`None` = FP weights).
    pub weight: Option<QuantScheme>,
    /// Activation quantization scheme applied at linear inputs
    /// (`None` = FP activations).
    pub act: Option<QuantScheme>,
    /// SSM quantization scheme (`None` leaves the SSM in FP, as the
    /// baselines do; `Some` is the paper's `LightMamba*`).
    pub ssm: Option<QuantScheme>,
}

impl Precision {
    /// Full floating-point execution (exact prepared-model semantics).
    pub fn fp() -> Self {
        Precision::default()
    }

    /// The paper's W8A8 recipe: per-channel weights, per-token activations.
    pub fn w8a8() -> Self {
        Precision {
            weight: Some(QuantScheme::weight_per_channel(8)),
            act: Some(QuantScheme::act_per_token(8)),
            ssm: None,
        }
    }

    /// The paper's W4A4 recipe: per-group weights and activations.
    pub fn w4a4(group: usize) -> Self {
        Precision {
            weight: Some(QuantScheme::weight_per_group(4, group)),
            act: Some(QuantScheme::act_per_group(4, group)),
            ssm: None,
        }
    }

    /// Adds the PoT INT8 SSM quantization (`LightMamba*`).
    pub fn with_ssm_pot(mut self, group: usize) -> Self {
        self.ssm = Some(QuantScheme::ssm_pot(group));
        self
    }

    /// Mean weight bits per parameter implied by this precision (16 when
    /// weights stay FP) — used by the bandwidth model.
    pub fn weight_bits(&self) -> f64 {
        self.weight.map_or(16.0, |s| s.bits as f64)
    }

    /// Whether this precision supports the packed-integer execution
    /// path: per-group weights of ≤ 4 bits and per-group activations
    /// with the same group size (the W4A4 recipe shape).
    pub fn is_packable(&self) -> bool {
        match (self.weight, self.act) {
            (Some(w), Some(a)) => match (w.granularity, a.granularity) {
                (Granularity::PerGroup(gw), Granularity::PerGroup(ga)) => w.bits <= 4 && gw == ga,
                _ => false,
            },
            _ => false,
        }
    }
}

/// How [`QuantizedMamba`] executes its linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Integer GEMV over packed 4-bit weights (the serving hot path).
    Integer,
    /// f32 compute on dequantized weights (the reference oracle).
    FakeQuant,
}

/// One quantized block: dequantized oracle weights, optional packed
/// integer weights, and the method's conditioning vectors.
#[derive(Debug)]
struct QBlock {
    norm_gamma: Vec<f32>,
    /// Dequantized f32 weight on the same grid as `w_in_packed` —
    /// the fake-quant oracle computes with this.
    w_in: Tensor,
    w_in_packed: Option<PackedW4>,
    w_in_bias: Option<Vec<f32>>,
    in_act_scale: Option<Vec<f32>>,
    in_act_shift: Option<Vec<f32>>,
    conv_weight: Tensor,
    conv_bias: Vec<f32>,
    a_log: Vec<f32>,
    dt_bias: Vec<f32>,
    d_skip: Vec<f32>,
    gate_norm_gamma: Vec<f32>,
    online_hadamard: Option<lightmamba_hadamard::FactoredHadamard>,
    out_act_scale: Option<Vec<f32>>,
    out_act_shift: Option<Vec<f32>>,
    w_out: Tensor,
    w_out_packed: Option<PackedW4>,
    w_out_bias: Option<Vec<f32>>,
}

/// The immutable weight set of a quantized model, shared via `Arc` so
/// clones (and multi-registry serving setups) duplicate no weight
/// memory.
#[derive(Debug)]
struct SharedWeights {
    embedding: Tensor,
    lm_head: Tensor,
    lm_head_packed: Option<PackedW4>,
    final_norm_gamma: Vec<f32>,
    blocks: Vec<QBlock>,
}

/// Kernel scratch of the quantized forward: the shared FP block
/// buffers ([`lightmamba_model::BlockScratch`] — one `prepare` keeps the
/// shapes in sync with the FP path) plus the quantization-only pieces.
/// Every temporary of a batched [`lightmamba_model::advance`] over this
/// model lives here (one per shard, inside the advance workspace), so
/// steady-state decode allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    block: BlockScratch,
    act: ActQuant,
    /// Integer accumulator planes for the packed GEMV.
    iacc: GemvScratch,
}

/// A quantized Mamba2 model implementing [`StepModel`].
///
/// Cloning is cheap: weights are held in a shared [`Arc`], so clones
/// share weight memory and differ only in their private decode state and
/// execution mode.
#[derive(Debug, Clone)]
pub struct QuantizedMamba {
    cfg: MambaConfig,
    split: InProjSplit,
    dims: SsmDims,
    precision: Precision,
    exec: ExecMode,
    weights: Arc<SharedWeights>,
    state: ModelState,
    /// Total weight storage in bits after quantization (drives the DMA
    /// traffic model in `lightmamba-accel`). For the packed path this is
    /// the bits of the representation actually held: packed nibble bytes
    /// plus FP16 scales.
    weight_storage_bits: usize,
    /// Parameters passing through weight quantization (the denominator
    /// of [`QuantizedMamba::mean_weight_bits`]).
    weight_params: usize,
}

impl QuantizedMamba {
    /// Quantizes a prepared model's weights under `precision`.
    ///
    /// Parameter tensors are **moved** out of `prepared`, not cloned;
    /// everything immutable lands behind one shared `Arc`. When the
    /// precision is packable ([`Precision::is_packable`]) the linear
    /// weights are additionally packed for integer execution and the
    /// dequantized oracle tensors are rebuilt from the packed grid, so
    /// the two modes quantize identically.
    ///
    /// # Errors
    ///
    /// Propagates scheme validation and shape errors.
    pub fn new(prepared: PreparedModel, precision: Precision) -> Result<Self> {
        if let Some(s) = precision.weight {
            s.validate()?;
        }
        if let Some(s) = precision.act {
            s.validate()?;
        }
        if let Some(s) = precision.ssm {
            s.validate()?;
        }
        let packable = precision.is_packable();
        let mut storage_bits = 0usize;
        let mut weight_params = 0usize;
        // Quantizes one linear weight, moving it when it stays FP.
        // Returns the dequantized oracle tensor plus the packed form.
        let mut quant_weight = |t: Tensor| -> Result<(Tensor, Option<PackedW4>)> {
            weight_params += t.len();
            match precision.weight {
                Some(scheme) if packable => {
                    let packed = PackedW4::quantize(&t, scheme)?;
                    storage_bits += packed.storage_bits();
                    Ok((packed.dequantized_weight(), Some(packed)))
                }
                Some(scheme) => {
                    let q = QuantizedTensor::quantize(&t, scheme)?;
                    storage_bits += q.storage_bits();
                    Ok((q.dequantize(), None))
                }
                None => {
                    storage_bits += t.len() * 16;
                    Ok((t, None))
                }
            }
        };

        let PreparedModel {
            cfg,
            embedding,
            lm_head,
            final_norm_gamma,
            blocks: prepared_blocks,
            rewrites: _,
        } = prepared;

        let mut blocks = Vec::with_capacity(prepared_blocks.len());
        for b in prepared_blocks {
            let PreparedBlock {
                norm_gamma,
                w_in,
                w_in_bias,
                in_act_scale,
                in_act_shift,
                conv_weight,
                conv_bias,
                a_log,
                dt_bias,
                d_skip,
                gate_norm_gamma,
                online_hadamard,
                out_act_scale,
                out_act_shift,
                w_out,
                w_out_bias,
            } = b;
            let (w_in, w_in_packed) = quant_weight(w_in)?;
            let (w_out, w_out_packed) = quant_weight(w_out)?;
            blocks.push(QBlock {
                norm_gamma,
                w_in,
                w_in_packed,
                w_in_bias,
                in_act_scale,
                in_act_shift,
                conv_weight,
                conv_bias,
                a_log,
                dt_bias,
                d_skip,
                gate_norm_gamma,
                online_hadamard,
                out_act_scale,
                out_act_shift,
                w_out,
                w_out_packed,
                w_out_bias,
            });
        }
        let (lm_head, lm_head_packed) = quant_weight(lm_head)?;
        let state = ModelState::new(&cfg);
        Ok(QuantizedMamba {
            split: InProjSplit::new(&cfg),
            dims: SsmDims::new(&cfg),
            precision,
            exec: if packable {
                ExecMode::Integer
            } else {
                ExecMode::FakeQuant
            },
            weights: Arc::new(SharedWeights {
                embedding,
                lm_head,
                lm_head_packed,
                final_norm_gamma,
                blocks,
            }),
            cfg,
            state,
            weight_storage_bits: storage_bits,
            weight_params,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &MambaConfig {
        &self.cfg
    }

    /// The precision this model runs at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The execution mode of the linear layers.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// Selects the execution mode. [`ExecMode::FakeQuant`] is always
    /// available (it is the reference oracle); [`ExecMode::Integer`]
    /// requires a packable precision.
    ///
    /// # Errors
    ///
    /// Returns [`crate::QuantError::InvalidScheme`] when integer
    /// execution is requested for an unpackable precision.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Result<Self> {
        if mode == ExecMode::Integer && self.weights.lm_head_packed.is_none() {
            return Err(crate::QuantError::InvalidScheme(format!(
                "precision {:?} has no packed integer path (needs per-group \
                 weights ≤ 4 bits and per-group activations with the same group)",
                self.precision
            )));
        }
        self.exec = mode;
        Ok(self)
    }

    /// Whether two models share one weight `Arc` (no duplicated weight
    /// memory) — true for clones of the same construction.
    pub fn shares_weights_with(&self, other: &QuantizedMamba) -> bool {
        Arc::ptr_eq(&self.weights, &other.weights)
    }

    /// Quantized weight storage in bits (codes + scales; for the packed
    /// path, the packed nibble bytes actually held).
    pub fn weight_storage_bits(&self) -> usize {
        self.weight_storage_bits
    }

    /// Mean *stored* bits per quantized weight parameter, scales
    /// included — e.g. ~5.0 for 4-bit group-16, ~4.125 for the paper's
    /// group-128 recipe, 16.0 for FP weights. This is the honest
    /// weight-stream width per parameter for bandwidth models, derived
    /// from the packed representation when one exists.
    pub fn mean_weight_bits(&self) -> f64 {
        if self.weight_params == 0 {
            16.0
        } else {
            self.weight_storage_bits as f64 / self.weight_params as f64
        }
    }

    /// Fresh zeroed decode state shaped for this model — the external
    /// counterpart of the private [`StepModel`] state, used by the
    /// serving slot pool.
    pub fn new_state(&self) -> ModelState {
        ModelState::new(&self.cfg)
    }

    /// Whether the integer path executes this step's linear layers.
    fn integer(&self) -> bool {
        self.exec == ExecMode::Integer
    }

    /// Advances a batch of rows through one block: row `r` of `xs`
    /// (`rows × d_model`, updated in place) is the residual stream of
    /// the sequence whose layer state is `states[r]`, with every
    /// temporary in `scratch`. The sequential and batched paths both
    /// run this (the sequential one with a single row) and the row
    /// kernels keep each output's summation order, so the two are
    /// bit-identical per sequence.
    fn block_rows(
        &self,
        block: &QBlock,
        xs: &mut [f32],
        states: &mut [&mut LayerState],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        let d = self.cfg.d_model;
        if xs.len() != states.len() * d {
            return Err(ModelError::StateMismatch(format!(
                "{} residual values for {} rows of width {d}",
                xs.len(),
                states.len()
            ))
            .into());
        }
        let QuantScratch {
            block: buf,
            act,
            iacc,
        } = scratch;
        buf.prepare(&self.cfg, states.len());

        // Pre-norm + method-specific activation conditioning.
        buf.normed.copy_from_slice(xs);
        for row in buf.normed.chunks_exact_mut(d) {
            norm::rms_norm(row, &block.norm_gamma, 1e-5);
            condition(row, &block.in_act_shift, &block.in_act_scale);
        }

        // Input projection, then the per-row middle.
        let (w_in, w_in_packed) = (&block.w_in, block.w_in_packed.as_ref());
        self.project(
            w_in,
            w_in_packed,
            &mut buf.normed,
            d,
            &mut buf.proj,
            act,
            iacc,
        )?;
        let rows = buf
            .proj
            .chunks_exact_mut(self.cfg.d_in_proj())
            .zip(buf.y.chunks_exact_mut(self.cfg.d_inner()))
            .zip(states.iter_mut());
        for ((proj, y), state) in rows {
            if let Some(bias) = &block.w_in_bias {
                for (p, b) in proj.iter_mut().zip(bias.iter()) {
                    *p += b;
                }
            }
            self.mix(block, proj, state, &mut buf.conv_in, &mut buf.conv_out, y)?;
        }

        // Output projection, then the residual add.
        let (w_out, w_out_packed) = (&block.w_out, block.w_out_packed.as_ref());
        let di = self.cfg.d_inner();
        self.project(w_out, w_out_packed, &mut buf.y, di, &mut buf.out, act, iacc)?;
        for (x, out) in xs.chunks_exact_mut(d).zip(buf.out.chunks_exact_mut(d)) {
            if let Some(bias) = &block.w_out_bias {
                for (o, b) in out.iter_mut().zip(bias.iter()) {
                    *o += b;
                }
            }
            for (xi, oi) in x.iter_mut().zip(out.iter()) {
                *xi += oi;
            }
        }
        Ok(())
    }

    /// The per-row middle of a quantized block, from one row's
    /// projection `proj` to its out-projection input `y`: causal conv
    /// over `(x, B, C)`, SiLU, the (optionally PoT-quantized) SSM, the
    /// gated norm, the online rotation and the method's conditioning.
    /// `conv_in` / `conv_out` are `conv_dim` temporaries.
    fn mix(
        &self,
        block: &QBlock,
        proj: &[f32],
        lstate: &mut LayerState,
        conv_in: &mut [f32],
        conv_out: &mut [f32],
        y: &mut [f32],
    ) -> Result<()> {
        let ssm_scheme = self.precision.ssm;
        let di = self.cfg.d_inner();
        let g = self.cfg.ngroups * self.cfg.d_state;
        let s = &self.split;

        // Causal conv over (x, B, C), then SiLU on the conv output.
        conv_in[0..di].copy_from_slice(&proj[s.x.0..s.x.1]);
        conv_in[di..di + g].copy_from_slice(&proj[s.b.0..s.b.1]);
        conv_in[di + g..di + 2 * g].copy_from_slice(&proj[s.c.0..s.c.1]);
        lstate
            .conv
            .step_into(conv_in, &block.conv_weight, &block.conv_bias, conv_out)?;
        activation::silu_slice(conv_out);

        // SSM quantization (LightMamba*): quantize the element-wise
        // chain's operands and re-quantize state and output, modelling
        // the INT8 per-group PoT dataflow of the SSMU (identical in both
        // execution modes — the SSM never runs on the MMU).
        if let Some(sq) = ssm_scheme {
            fake_quant_slice(&mut conv_out[0..di], sq)?;
            fake_quant_slice(&mut conv_out[di..di + g], sq)?;
            fake_quant_slice(&mut conv_out[di + g..di + 2 * g], sq)?;
        }
        ssm_step_into(
            self.dims,
            &conv_out[0..di],
            &conv_out[di..di + g],
            &conv_out[di + g..di + 2 * g],
            &proj[s.dt.0..s.dt.1],
            &block.a_log,
            &block.dt_bias,
            &block.d_skip,
            &mut lstate.h,
            y,
        )?;
        if let Some(sq) = ssm_scheme {
            fake_quant_slice(&mut lstate.h, sq)?;
            fake_quant_slice(y, sq)?;
        }

        // Gated norm (scale kept unfused per Fig. 4b), online rotation,
        // method-specific conditioning.
        norm::gated_rms_norm(y, &proj[s.z.0..s.z.1], &block.gate_norm_gamma, 1e-5);
        if let Some(h) = &block.online_hadamard {
            h.apply(y);
        }
        condition(y, &block.out_act_shift, &block.out_act_scale);
        Ok(())
    }

    /// One linear layer over `rows` rows of `width` inputs in `xs` into
    /// `out`: integer GEMV over packed nibbles on the hot path (weights
    /// streamed once for all rows), fake-quant + f32 row `vecmat` on the
    /// oracle path (which quantizes `xs` in place).
    #[allow(clippy::too_many_arguments)]
    fn project(
        &self,
        dense: &Tensor,
        packed: Option<&PackedW4>,
        xs: &mut [f32],
        width: usize,
        out: &mut [f32],
        act: &mut ActQuant,
        iacc: &mut GemvScratch,
    ) -> Result<()> {
        match (packed, self.precision.act) {
            (Some(packed), Some(scheme)) if self.integer() => {
                act.quantize_rows(xs, width, scheme)?;
                gemv_packed(packed, act, iacc, out)
            }
            (_, scheme) => {
                if let Some(s) = scheme {
                    for row in xs.chunks_exact_mut(width) {
                        fake_quant_slice(row, s)?;
                    }
                }
                Ok(dense.vecmat_rows_into(xs, out)?)
            }
        }
    }

    /// Final norm + optional activation quantization + LM head, turning
    /// each `d_model` row of `xs` into a `vocab_size` row of `logits`.
    fn head_rows(
        &self,
        xs: &mut [f32],
        logits: &mut [f32],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        let d = self.cfg.d_model;
        for x in xs.chunks_exact_mut(d) {
            norm::rms_norm(x, &self.weights.final_norm_gamma, 1e-5);
        }
        let w = &self.weights;
        let QuantScratch { act, iacc, .. } = scratch;
        self.project(
            &w.lm_head,
            w.lm_head_packed.as_ref(),
            xs,
            d,
            logits,
            act,
            iacc,
        )
    }

    /// One decode step against an external state (the internal
    /// [`StepModel`] state is untouched): the sequential oracle that
    /// batched [`lightmamba_model::advance`] is pinned bit-identical
    /// against.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TokenOutOfRange`] / [`ModelError::StateMismatch`]
    /// wrapped in [`crate::QuantError`] for invalid inputs.
    pub fn forward_step_with(&self, token: u32, state: &mut ModelState) -> Result<Vec<f32>> {
        if token as usize >= self.cfg.vocab_size {
            return Err(ModelError::TokenOutOfRange {
                token,
                vocab: self.cfg.vocab_size,
            }
            .into());
        }
        if state.layers.len() != self.cfg.n_layer {
            return Err(ModelError::StateMismatch(format!(
                "state has {} layers, model has {}",
                state.layers.len(),
                self.cfg.n_layer
            ))
            .into());
        }
        let mut scratch = QuantScratch::default();
        let mut x = self.weights.embedding.row(token as usize)?.to_vec();
        for (block, lstate) in self.weights.blocks.iter().zip(&mut state.layers) {
            self.block_rows(block, &mut x, &mut [lstate], &mut scratch)?;
        }
        let mut logits = vec![0.0; self.cfg.vocab_size];
        self.head_rows(&mut x, &mut logits, &mut scratch)?;
        Ok(logits)
    }

    fn step_inner(&mut self, token: u32) -> Result<Vec<f32>> {
        // Swap the private state out so the shared stateless core can
        // borrow `self` immutably (no per-step allocation: the
        // placeholder is an empty layer list).
        let mut state = std::mem::replace(&mut self.state, ModelState { layers: Vec::new() });
        let out = self.forward_step_with(token, &mut state);
        self.state = state;
        out
    }
}

/// The quantized row kernels behind batched
/// [`lightmamba_model::advance`]: the same block and head as the
/// sequential [`StepModel`] decode, so the two are bit-identical per
/// sequence.
impl StepKernels for QuantizedMamba {
    type Scratch = QuantScratch;
    type Error = crate::QuantError;

    fn config(&self) -> &MambaConfig {
        &self.cfg
    }

    fn embed(&self, token: u32, x: &mut [f32]) -> Result<()> {
        x.copy_from_slice(self.weights.embedding.row(token as usize)?);
        Ok(())
    }

    fn block(
        &self,
        layer: usize,
        xs: &mut [f32],
        states: &mut [&mut LayerState],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        self.block_rows(&self.weights.blocks[layer], xs, states, scratch)
    }

    fn head(&self, xs: &mut [f32], logits: &mut [f32], scratch: &mut QuantScratch) -> Result<()> {
        self.head_rows(xs, logits, scratch)
    }
}

/// Applies a method's activation conditioning to one row: subtract the
/// channel shift, then divide by the channel scale.
fn condition(row: &mut [f32], shift: &Option<Vec<f32>>, scale: &Option<Vec<f32>>) {
    if let Some(shift) = shift {
        for (v, s) in row.iter_mut().zip(shift.iter()) {
            *v -= s;
        }
    }
    if let Some(scale) = scale {
        for (v, s) in row.iter_mut().zip(scale.iter()) {
            *v /= s;
        }
    }
}

impl StepModel for QuantizedMamba {
    fn reset(&mut self) {
        self.state.reset();
    }

    fn step(&mut self, token: u32) -> lightmamba_model::Result<Vec<f32>> {
        self.step_inner(token).map_err(|e| match e {
            crate::QuantError::Model(m) => m,
            crate::QuantError::Tensor(t) => ModelError::Tensor(t),
            other => ModelError::InvalidConfig(other.to_string()),
        })
    }
}

/// Quantizes a single weight tensor and reports the fake-quant result —
/// convenience used by the error-metric experiments.
///
/// # Errors
///
/// Propagates scheme validation errors.
pub fn fake_quant_weight(t: &Tensor, scheme: QuantScheme) -> Result<Tensor> {
    fake_quant(t, scheme)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::eval::{compare_models, ReferenceRunner};
    use lightmamba_model::{advance, AdvanceWorkspace, LogitsBuf};
    use lightmamba_model::{corpus::SyntheticCorpus, MambaModel};
    use lightmamba_pool::WorkerPool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(11)).unwrap()
    }

    fn precision(wbits: u8, abits: u8) -> Precision {
        Precision {
            weight: Some(QuantScheme::weight_per_channel(wbits)),
            act: Some(QuantScheme::act_per_token(abits)),
            ssm: None,
        }
    }

    fn sequences() -> Vec<Vec<u32>> {
        SyntheticCorpus::for_vocab(256).calibration_set(&mut StdRng::seed_from_u64(5), 2, 10)
    }

    /// One advance over `items`, logits copied out per item.
    fn run(
        q: &QuantizedMamba,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
        pool: &WorkerPool,
    ) -> Result<Vec<Vec<f32>>> {
        let mut out = LogitsBuf::new();
        advance(
            q,
            items,
            states,
            pool,
            &mut AdvanceWorkspace::new(),
            &mut out,
        )?;
        Ok(out.iter().map(<[f32]>::to_vec).collect())
    }

    #[test]
    fn parallel_integer_step_matches_sequential_bitwise() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q = QuantizedMamba::new(prepared, Precision::w4a4(32)).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::Integer);
        let (seq_pool, par_pool) = (WorkerPool::new(1), WorkerPool::new(4));
        let n = 6;

        let mut seq_states: Vec<_> = (0..n).map(|_| q.new_state()).collect();
        let mut par_states = seq_states.clone();

        for step in 0..4u32 {
            let tokens: Vec<u32> = (0..n as u32).map(|k| step * 17 + k).collect();
            let items: Vec<(usize, &[u32])> = tokens
                .iter()
                .enumerate()
                .map(|(k, t)| (k, std::slice::from_ref(t)))
                .collect();
            let seq = run(&q, &items, &mut seq_states, &seq_pool).unwrap();
            let par = run(&q, &items, &mut par_states, &par_pool).unwrap();
            assert_eq!(par.len(), n);
            for (k, seq_logits) in seq.iter().enumerate() {
                assert_eq!(&par[k], seq_logits, "sequence {k} diverged at {step}");
            }
        }
        assert_eq!(par_states, seq_states, "states diverged");
    }

    #[test]
    fn w8a8_is_near_lossless() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::FakeQuant);
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut q, &sequences()).unwrap();
        assert!(rep.mean_kl < 0.1, "W8A8 KL too high: {}", rep.mean_kl);
        assert!(rep.agreement > 0.8, "W8A8 agreement {}", rep.agreement);
    }

    #[test]
    fn lower_precision_is_worse() {
        let model = reference();
        let seqs = sequences();
        let kl_at = |wbits, abits| {
            let prepared = PreparedModel::from_reference(&model).unwrap();
            let mut q = QuantizedMamba::new(prepared, precision(wbits, abits)).unwrap();
            let mut r = ReferenceRunner::new(model.clone());
            compare_models(&mut r, &mut q, &seqs).unwrap().mean_kl
        };
        let kl8 = kl_at(8, 8);
        let kl4 = kl_at(4, 4);
        let kl2 = kl_at(2, 2);
        assert!(kl4 > kl8, "kl4 {kl4} vs kl8 {kl8}");
        assert!(kl2 > kl4, "kl2 {kl2} vs kl4 {kl4}");
    }

    #[test]
    fn ssm_quantization_adds_bounded_error() {
        let model = reference();
        let seqs = sequences();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut with_ssm = QuantizedMamba::new(
            prepared.clone(),
            Precision {
                ssm: Some(QuantScheme::ssm_pot(16)),
                ..precision(8, 8)
            },
        )
        .unwrap();
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut with_ssm, &seqs).unwrap();
        // INT8 PoT SSM should stay usable (paper: LightMamba* W8A8 ≈ FP16).
        assert!(rep.mean_kl < 0.5, "SSM-quantized KL {}", rep.mean_kl);
    }

    #[test]
    fn storage_bits_track_precision() {
        let model = reference();
        let p4 = QuantizedMamba::new(
            PreparedModel::from_reference(&model).unwrap(),
            Precision::w4a4(16),
        )
        .unwrap();
        let p8 = QuantizedMamba::new(
            PreparedModel::from_reference(&model).unwrap(),
            precision(8, 8),
        )
        .unwrap();
        assert!(p4.weight_storage_bits() < p8.weight_storage_bits());
        // Packed group-16: 4-bit codes + one FP16 scale per 16 ≈ 5 b/param.
        let wb = p4.mean_weight_bits();
        assert!((4.9..5.2).contains(&wb), "packed bits/param {wb}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        let first = q.step(3).unwrap();
        q.step(4).unwrap();
        q.reset();
        let again = q.step(3).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn rejects_bad_token() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        assert!(q.step(100_000).is_err());
    }

    #[test]
    fn batched_decode_matches_sequential_bitwise() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::Integer);
        let prompts: [&[u32]; 3] = [&[5, 9, 2], &[40, 1], &[7, 7, 7, 7]];

        // Sequential reference through the StepModel interface.
        let mut seq_logits = Vec::new();
        for p in &prompts {
            q.reset();
            let mut last = Vec::new();
            for &t in *p {
                last = q.step(t).unwrap();
            }
            last = {
                let next = lightmamba_model::MambaModel::argmax(&last) as u32;
                q.step(next).unwrap()
            };
            seq_logits.push(last);
        }

        // Batched path over external states: one ragged prefill
        // advance, then one decode advance.
        let pool = WorkerPool::new(1);
        let mut states: Vec<_> = (0..3).map(|_| q.new_state()).collect();
        let items: Vec<(usize, &[u32])> = prompts.iter().copied().enumerate().collect();
        let finals = run(&q, &items, &mut states, &pool).unwrap();
        let tokens: Vec<u32> = finals
            .iter()
            .map(|l| lightmamba_model::MambaModel::argmax(l) as u32)
            .collect();
        let items: Vec<(usize, &[u32])> = tokens
            .iter()
            .enumerate()
            .map(|(k, t)| (k, std::slice::from_ref(t)))
            .collect();
        let batched = run(&q, &items, &mut states, &pool).unwrap();
        for (k, logits) in batched.iter().enumerate() {
            assert_eq!(logits, &seq_logits[k], "sequence {k} diverged");
        }
    }

    #[test]
    fn external_step_leaves_internal_state_untouched() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        let first = q.step(3).unwrap();
        let mut external = q.new_state();
        q.forward_step_with(7, &mut external).unwrap();
        q.forward_step_with(9, &mut external).unwrap();
        // The private StepModel state must still reflect only `step(3)`.
        q.reset();
        assert_eq!(q.step(3).unwrap(), first);
    }

    #[test]
    fn batched_rejects_duplicate_slot_and_foreign_state() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        let pool = WorkerPool::new(1);
        let mut states: Vec<_> = (0..2).map(|_| q.new_state()).collect();
        let before = states.clone();
        assert!(run(&q, &[(0, &[1]), (0, &[2])], &mut states, &pool).is_err());
        assert_eq!(states, before, "states must be untouched on error");
        // A state shaped for a different config is rejected up front.
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.d_state = 32;
        let mut states = vec![q.new_state(), ModelState::new(&other_cfg)];
        let before = states.clone();
        assert!(run(&q, &[(0, &[1]), (1, &[2])], &mut states, &pool).is_err());
        assert_eq!(states, before, "states must be untouched on error");
    }

    #[test]
    fn integer_and_fake_quant_modes_agree_closely() {
        // The tentpole invariant at model scale: the packed integer path
        // and the fake-quant oracle share one quantization grid and
        // differ only in accumulation rounding, so full-model logits
        // stay within a tight relative tolerance (the kernel-level
        // agreement including the PoT bit-exact case is proptested in
        // tests/kernel_props.rs).
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q_int = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
        let q_fake = q_int.clone().with_exec_mode(ExecMode::FakeQuant).unwrap();
        assert!(q_int.shares_weights_with(&q_fake));
        let mut s_int = q_int.new_state();
        let mut s_fake = q_fake.new_state();
        for &t in &[5u32, 9, 2, 40, 1, 7] {
            let li = q_int.forward_step_with(t, &mut s_int).unwrap();
            let lf = q_fake.forward_step_with(t, &mut s_fake).unwrap();
            let scale = lf.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
            for (a, b) in li.iter().zip(lf.iter()) {
                assert!((a - b).abs() <= 1e-4 * scale, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn integer_mode_requires_packable_precision() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        // Per-channel/per-token W8A8 has no packed path.
        let q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::FakeQuant);
        assert!(q.with_exec_mode(ExecMode::Integer).is_err());
        // W4A8 with matching groups is packable.
        let prepared = PreparedModel::from_reference(&reference()).unwrap();
        let p = Precision {
            weight: Some(QuantScheme::weight_per_group(4, 16)),
            act: Some(QuantScheme::act_per_group(8, 16)),
            ssm: None,
        };
        assert!(p.is_packable());
        let q = QuantizedMamba::new(prepared, p).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::Integer);
        // Mismatched groups fall back to fake quantization.
        let p = Precision {
            weight: Some(QuantScheme::weight_per_group(4, 16)),
            act: Some(QuantScheme::act_per_group(4, 32)),
            ssm: None,
        };
        assert!(!p.is_packable());
        let prepared = PreparedModel::from_reference(&reference()).unwrap();
        let q = QuantizedMamba::new(prepared, p).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::FakeQuant);
    }

    #[test]
    fn construction_moves_fp_tensors_instead_of_cloning() {
        // With FP weights the prepared tensors must be moved into the
        // shared weight set — same heap buffers, no copy.
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let embedding_ptr = prepared.embedding.data().as_ptr();
        let conv_ptr = prepared.blocks[0].conv_weight.data().as_ptr();
        let w_in_ptr = prepared.blocks[0].w_in.data().as_ptr();
        let q = QuantizedMamba::new(prepared, Precision::fp()).unwrap();
        assert_eq!(q.weights.embedding.data().as_ptr(), embedding_ptr);
        assert_eq!(q.weights.blocks[0].conv_weight.data().as_ptr(), conv_ptr);
        assert_eq!(q.weights.blocks[0].w_in.data().as_ptr(), w_in_ptr);
    }

    #[test]
    fn clones_share_weight_memory() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
        let clone = q.clone();
        assert!(q.shares_weights_with(&clone));
        assert_eq!(Arc::strong_count(&q.weights), 2);
        // A separately constructed model does not share.
        let other = QuantizedMamba::new(
            PreparedModel::from_reference(&model).unwrap(),
            Precision::w4a4(16),
        )
        .unwrap();
        assert!(!q.shares_weights_with(&other));
    }
}
