//! # pp-stream
//!
//! The paper's primary contribution: a distributed stream-processing
//! system for high-performance privacy-preserving neural-network
//! inference (ICDE 2024).
//!
//! PP-Stream runs collaborative inference between a **model provider**
//! (holds the weights, executes linear layers under Paillier homomorphic
//! encryption) and a **data provider** (holds the inputs, executes
//! non-linear layers in the clear on permutation-obfuscated tensors).
//! The crate assembles every substrate in this workspace:
//!
//! * hybrid privacy preservation — [`pp_paillier`] for linear operations
//!   (paper Sec. III-B), [`pp_obfuscate`] for non-linear operations
//!   (Sec. III-C), composed in the three-round workflow of Fig. 3
//!   ([`protocol`]);
//! * **operation encapsulation** ([`encapsulate`]) — merging adjacent
//!   primitive layers of the same type into alternating pipelined stages
//!   (Sec. IV-B);
//! * **load-balanced resource allocation** — offline stage profiling plus
//!   the [`pp_allocate`] branch-and-bound ILP (Sec. IV-C);
//! * **tensor partitioning** ([`protocol`]) — sending each stage thread
//!   only the input sub-tensor its output range needs (Sec. IV-D);
//! * the pipelined execution itself on [`pp_stream_runtime`].
//!
//! ## Quick start
//!
//! ```
//! use pp_nn::{zoo, ScaledModel};
//! use pp_stream::{PpStream, PpStreamConfig};
//! use pp_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let model = zoo::mlp("demo", &[4, 6, 2], &mut rng).unwrap();
//! let scaled = ScaledModel::from_model(&model, 100);
//!
//! let config = PpStreamConfig::small_test(128);
//! let session = PpStream::new(scaled, config).unwrap();
//! let input = Tensor::from_flat(vec![0.5, -0.5, 0.25, 0.0]);
//! let (classes, report) = session.classify_stream(&[input.clone()]).unwrap();
//! assert_eq!(classes[0], model.classify(&input).unwrap());
//! assert!(report.mean_latency > std::time::Duration::ZERO);
//! ```

pub mod baseline;
pub mod encapsulate;
mod encctx;
pub mod evloop;
pub mod governor;
pub mod journal;
pub mod messages;
pub mod net;
pub mod packed;
pub mod plan;
pub mod protocol;
mod session;
pub mod simulate;

pub use encapsulate::{encapsulate, MergedStage, StageRole};
pub use encctx::EncCtx;
pub use governor::{Governor, GovernorConfig};
pub use journal::{FsyncPolicy, Journal, JournalConfig, JournalRecord};
pub use messages::{ItemErrorKind, RejectCode};
#[cfg(unix)]
pub use net::ServerHandle;
pub use net::{
    ItemOutcome, ModelProvider, NetConfig, NetworkedSession, ServeOptions, ServeReport,
    TransportReport,
};
pub use packed::{required_budget, PackedEncCtx};
#[cfg(feature = "fault-injection")]
pub use pp_stream_runtime::fault::FaultPlan;
pub use plan::{AllocationPlan, PlanSource};
pub use session::{PpStream, PpStreamConfig, RunReport};

/// Errors from PP-Stream session construction or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The model violates the protocol's structural assumptions.
    Model(String),
    /// Resource allocation failed.
    Allocate(String),
    /// A pipeline or wire error.
    Runtime(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Model(s) => write!(f, "model error: {s}"),
            CoreError::Allocate(s) => write!(f, "allocation error: {s}"),
            CoreError::Runtime(s) => write!(f, "runtime error: {s}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<pp_allocate::AllocateError> for CoreError {
    fn from(e: pp_allocate::AllocateError) -> Self {
        CoreError::Allocate(e.to_string())
    }
}

impl From<pp_stream_runtime::StreamError> for CoreError {
    fn from(e: pp_stream_runtime::StreamError) -> Self {
        CoreError::Runtime(e.to_string())
    }
}

impl From<pp_nn::NnError> for CoreError {
    fn from(e: pp_nn::NnError) -> Self {
        CoreError::Model(e.to_string())
    }
}

pub use encapsulate::encapsulate_with;
