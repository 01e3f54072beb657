//! Error type of the serving subsystem.

use lightmamba_model::ModelError;
use lightmamba_quant::QuantError;

/// Errors produced by the serving engine.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying model rejected a step.
    Model(ModelError),
    /// The engine was configured inconsistently.
    InvalidConfig(String),
    /// A request or lookup named a model the registry does not hold.
    UnknownModel(String),
    /// A backend faulted mid-step: an error return or a caught panic
    /// from one model's batched advance. The engine *contains* these
    /// per fault domain (retiring the domain's residents as
    /// [`crate::request::FinishReason::Failed`] and quarantining the
    /// backend) rather than propagating them out of
    /// [`crate::engine::ServeEngine::step`]; the variant exists so
    /// fault injectors and backends have a typed way to signal one.
    BackendFault {
        /// Registered name of the faulting backend.
        model: String,
        /// Error or panic payload description.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::UnknownModel(name) => write!(f, "unknown model: {name}"),
            ServeError::BackendFault { model, message } => {
                write!(f, "backend fault in model '{model}': {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            ServeError::InvalidConfig(_)
            | ServeError::UnknownModel(_)
            | ServeError::BackendFault { .. } => None,
        }
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        match e {
            // Malformed input (an empty token slice) is a caller error
            // at the serving layer, not a model fault.
            ModelError::InvalidConfig(msg) => ServeError::InvalidConfig(msg),
            other => ServeError::Model(other),
        }
    }
}

impl From<QuantError> for ServeError {
    fn from(e: QuantError) -> Self {
        match e {
            QuantError::Model(m) => m.into(),
            other => ServeError::InvalidConfig(format!("quantized backend: {other}")),
        }
    }
}
