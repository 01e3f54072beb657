//! LightMamba post-training quantization (paper Sec. IV).
//!
//! The stack has three layers:
//!
//! 1. **Quantizer core** ([`quantizer`], [`pot`]) — symmetric integer
//!    quantization at per-tensor/channel/token/group granularity, with
//!    optional power-of-two (PoT) scale constraint for shift-only
//!    re-quantization on the FPGA.
//! 2. **Outlier-handling methods** — the baselines RTN ([`rtn`]),
//!    SmoothQuant ([`smoothquant`]), OutlierSuppression+
//!    ([`outlier_suppression`]), and the paper's contribution:
//!    rotation-assisted quantization ([`rotation`]) with the five weight
//!    fusions of Fig. 4a and one online Hadamard before out_proj.
//! 3. **Quantized execution** ([`qmodel`]) — a fake-quantized Mamba2
//!    forward pass (weights and activations pass through
//!    quantize→dequantize at every tensor boundary, and optionally through
//!    the SSM's element-wise chain) implementing
//!    [`lightmamba_model::eval::StepModel`] so fidelity is measured
//!    against the FP reference.
//!
//! # Example
//!
//! ```
//! use lightmamba_model::{MambaConfig, MambaModel};
//! use lightmamba_quant::{PreparedModel, pipeline::{Method, QuantSpec}};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = MambaModel::synthetic(MambaConfig::tiny(), &mut rng)?;
//! let prepared = PreparedModel::from_reference(&model)?;
//! let spec = QuantSpec::w4a4();
//! let _quantized = lightmamba_quant::pipeline::quantize(prepared, Method::Rtn, &spec, &[])?;
//! # Ok(())
//! # }
//! ```

mod error;
mod prepared;

pub mod calib;
pub mod int_linear;
pub mod kernels;
pub mod metrics;
pub mod outlier_suppression;
pub mod pipeline;
pub mod pot;
pub mod qmodel;
pub mod quantizer;
pub mod rotation;
pub mod rtn;
pub mod simd;
pub mod smoothquant;

pub use error::QuantError;
pub use kernels::{ActQuant, PackedW4};
pub use prepared::{PreparedBlock, PreparedModel};
pub use qmodel::QuantizedMamba;
pub use quantizer::{Granularity, QuantScheme, QuantizedTensor};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, QuantError>;
