//! The serving stack under test: the synthetic model, its W4A4
//! quantization, the per-workload registry and engine, and the solo
//! re-decode used to check outputs.

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_quant::qmodel::Precision;
use lightmamba_quant::{PreparedModel, QuantizedMamba};
use lightmamba_serve::backend::{FpBackend, W4A4Backend};
use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::registry::ModelRegistry;
use lightmamba_serve::request::{FinishReason, GenRequest};
use lightmamba_serve::scheduler::Fifo;
use lightmamba_serve::ServeError;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workload::{ReqSpec, Workload, VOCAB};

/// W4A4 quantization group size.
pub const GROUP: usize = 128;

/// Slot-pool capacity of every workload's engine.
pub const SLOTS: usize = 16;

/// Prompt tokens a prefilling sequence consumes per step.
pub const PREFILL_CHUNK: usize = 4;

/// Snapshots the `prefix_open` prefix cache holds.
pub const PREFIX_CACHE: usize = 4;

/// The model shape: `bench_decode`'s host model.
pub fn model_config() -> MambaConfig {
    MambaConfig {
        d_model: 256,
        n_layer: 4,
        d_state: 64,
        d_conv: 4,
        expand: 2,
        headdim: 64,
        ngroups: 1,
        vocab_size: VOCAB as usize,
    }
}

/// The reference model and its W4A4 quantization. Weights are fixed
/// (seed 7); only the traffic depends on `--seed`.
pub struct Models {
    /// FP reference model.
    pub fp: MambaModel,
    /// Integer W4A4 model over packed weights.
    pub w4a4: QuantizedMamba,
}

impl Models {
    /// Synthesizes and quantizes the benchmark model.
    pub fn build() -> Result<Models, String> {
        let mut rng = StdRng::seed_from_u64(7);
        let fp = MambaModel::synthetic(model_config(), &mut rng).map_err(|e| e.to_string())?;
        let prepared = PreparedModel::from_reference(&fp).map_err(|e| e.to_string())?;
        let w4a4 =
            QuantizedMamba::new(prepared, Precision::w4a4(GROUP)).map_err(|e| e.to_string())?;
        Ok(Models { fp, w4a4 })
    }

    /// The workload's backends, registered in [`Workload::backends`]
    /// order.
    fn registry(&self, w: Workload) -> Result<ModelRegistry<'_>, ServeError> {
        let mut r = ModelRegistry::new();
        for &name in w.backends() {
            match name {
                "fp" => r.register(name, Box::new(FpBackend::new(&self.fp)))?,
                _ => r.register(name, Box::new(W4A4Backend::new(self.w4a4.clone())))?,
            };
        }
        Ok(r)
    }

    /// The workload's serving engine: 16 slots, chunk 4, and one
    /// thread (two for the frontend burst: the engine thread plus one
    /// pool worker). Admission is FIFO, chosen at each `step` call.
    pub fn engine(&self, w: Workload) -> Result<ServeEngine<'_>, ServeError> {
        ServeEngine::with_registry(
            self.registry(w)?,
            EngineConfig {
                slots: SLOTS,
                max_steps: u64::MAX,
                prefill_chunk: PREFILL_CHUNK,
                threads: if w == Workload::BatchFrontend { 2 } else { 1 },
                token_budget: None,
                prefix_cache: (w == Workload::PrefixOpen).then_some(PREFIX_CACHE),
            },
        )
    }

    /// Decodes each of `picks` alone on a fresh one-slot engine with no
    /// prefix cache, returning the tokens of each.
    pub fn solo_decode(
        &self,
        w: Workload,
        reqs: &[ReqSpec],
        picks: &[usize],
    ) -> Result<Vec<Vec<u32>>, ServeError> {
        picks
            .iter()
            .map(|&i| {
                let mut engine = ServeEngine::with_registry(
                    self.registry(w)?,
                    EngineConfig {
                        slots: 1,
                        max_steps: u64::MAX,
                        prefill_chunk: PREFILL_CHUNK,
                        threads: 1,
                        token_budget: None,
                        prefix_cache: None,
                    },
                )?;
                engine.submit(vec![gen_request(i, &reqs[i])])?;
                engine.run(&mut Fifo)?;
                let c = &engine.completions()[0];
                Ok(if c.finish == FinishReason::MaxTokens {
                    c.tokens.clone()
                } else {
                    Vec::new()
                })
            })
            .collect()
    }
}

/// The engine request for generated request `i`: greedy, id `i`,
/// arriving at step 0 (the traffic loops restamp arrival).
pub fn gen_request(i: usize, spec: &ReqSpec) -> GenRequest {
    let mut r =
        GenRequest::greedy(i as u64, spec.prompt.clone(), spec.max_new).on_model(spec.model);
    if let Some(len) = spec.shared_prefix {
        r = r.with_shared_prefix(len);
    }
    r
}
