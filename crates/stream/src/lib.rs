//! # pp-stream-runtime
//!
//! A from-scratch distributed stream-processing substrate — the
//! workspace's substitute for AF-Stream [36], on which the paper's C++
//! prototype is built.
//!
//! The runtime models PP-Stream's execution architecture (paper Fig. 4):
//!
//! * a [`pipeline::TypedPipeline`] is an ordered chain of typed
//!   [`stage::Stage`]s (one per AF-Stream worker / merged primitive
//!   layer), each running on its own OS thread and connected by bounded
//!   channels;
//! * co-located stages hand **owned messages** straight across the hop;
//!   hops marked with [`pipeline::PipelineBuilder::link`] are **wire
//!   boundaries** that serialize through the [`wire`] codec — bytes
//!   counted per hop, as they would be over the testbed's 10 Gbps NICs;
//! * inside a stage, a [`pool::WorkerPool`] provides the `y_i` threads
//!   that PP-Stream's load-balanced resource allocation assigns to the
//!   stage (Sec. IV-C), over which tensor partitions are parallelized
//!   (Sec. IV-D); the pool plus per-stage metrics reach the stage via a
//!   [`stage::StageContext`].
//!
//! Pipelining is where the performance comes from: with `k` stages,
//! request `j+1` occupies stage 1 while request `j` is in stage 2 —
//! the Exp#2 speed-up over the centralized `CipherBase`.
//!
//! ```
//! use pp_stream_runtime::{stage_fn, StageContext, TypedPipeline};
//!
//! let p = TypedPipeline::<u64, u64>::builder()
//!     .stage("double", 2, stage_fn(|v: u64, _: &mut StageContext| Ok(v * 2)))
//!     .link() // wire boundary: serialize, count bytes, deserialize
//!     .stage("inc", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v + 1)))
//!     .build()
//!     .unwrap();
//! let (out, stats) = p.process_stream(vec![20u64]).unwrap();
//! assert_eq!(out, vec![41]);
//! assert_eq!(stats.link_bytes, vec![0, 8, 0]);
//! assert_eq!(stats.stages.len(), 2);
//! ```

pub mod chan;
#[cfg(feature = "fault-injection")]
pub mod fault;
#[cfg(feature = "fault-injection")]
pub mod fuzz;
pub mod link;
pub mod pipeline;
pub mod pool;
pub mod stage;
pub mod tcp;
pub mod wire;

#[cfg(feature = "fault-injection")]
pub use fault::{FaultPlan, FaultReceiver, FaultSender, FaultState};
#[cfg(feature = "fault-injection")]
pub use fuzz::{Mutation, RawFrame, WireFuzzer};
pub use link::{Link, LinkStats, SeqValidator};
pub use pipeline::{BoxMsg, PipelineBuilder, PipelineStats, TypedPipeline};
pub use pool::WorkerPool;
pub use stage::{stage_fn, FnStage, Stage, StageContext, StageMetrics, StageReport};
pub use tcp::{FrameReceiver, FrameSender, RetryPolicy, TcpConfig, TcpFrameReceiver, TcpFrameSender};
pub use wire::{Decoder, Encoder, WireDecode, WireEncode};

/// What failed at the transport layer. Distinguishing the operation lets
/// an operator tell a refused connection from a dead peer from a stalled
/// network, without parsing message strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// Binding the listening socket failed.
    Bind,
    /// Accepting an inbound connection failed.
    Accept,
    /// Connecting to the peer failed (after all retries).
    Connect,
    /// Post-connect socket configuration (nodelay, timeouts, clone) failed.
    Setup,
    /// A socket write failed.
    Send,
    /// A socket read failed.
    Recv,
    /// A configured read/write deadline expired.
    Timeout,
    /// The peer disconnected in the middle of a frame (a clean shutdown
    /// only ever closes *between* frames).
    Eof,
    /// A received frame violated sequence monotonicity (reordered,
    /// duplicated, or replayed).
    Seq,
    /// The deployment handshake failed (version, key, or topology
    /// mismatch).
    Handshake,
    /// A frame's length prefix exceeded the receiver's frame-size
    /// ceiling (the resource governor's negotiated limit, or the
    /// pre-handshake cap). Rejected *before* any payload allocation —
    /// an adversarial prefix can never force the process to reserve
    /// memory it hasn't received.
    FrameLimit,
}

impl std::fmt::Display for TransportErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TransportErrorKind::Bind => "bind",
            TransportErrorKind::Accept => "accept",
            TransportErrorKind::Connect => "connect",
            TransportErrorKind::Setup => "setup",
            TransportErrorKind::Send => "send",
            TransportErrorKind::Recv => "recv",
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::Eof => "eof",
            TransportErrorKind::Seq => "seq",
            TransportErrorKind::Handshake => "handshake",
            TransportErrorKind::FrameLimit => "frame-limit",
        };
        f.write_str(s)
    }
}

/// Errors from the stream runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A frame failed to decode. Strictly for malformed *bytes* — socket
    /// and connection failures are [`StreamError::Transport`].
    Decode(String),
    /// A link was disconnected unexpectedly.
    Disconnected,
    /// Pipeline construction error.
    Config(String),
    /// A stage failed while processing a message.
    Stage(String),
    /// A transport (socket) operation failed: I/O errors, timeouts,
    /// mid-frame disconnects, sequence violations, handshake failures.
    Transport {
        /// Which transport operation failed.
        kind: TransportErrorKind,
        /// Human-readable context naming the failing protocol stage.
        context: String,
    },
    /// An item's end-to-end deadline expired before a stage started its
    /// expensive work. Per-item, never fatal to the session: overloaded
    /// pipelines shed the item and keep draining.
    DeadlineExceeded(String),
    /// The watchdog observed a stage with input queued but no progress
    /// for longer than the configured window. Unlike a dead socket this
    /// is an *alive-but-stuck* diagnosis, so it names the stage.
    Stalled {
        /// Name of the stage that stopped making progress.
        stage: String,
    },
}

impl StreamError {
    /// Convenience constructor for transport failures.
    pub fn transport(kind: TransportErrorKind, context: impl Into<String>) -> Self {
        StreamError::Transport { kind, context: context.into() }
    }

    /// Prefixes a transport error's context with the protocol stage that
    /// observed it (e.g. `"linear round 2 reply"`); other variants pass
    /// through unchanged.
    pub fn at_stage(self, stage: &str) -> Self {
        match self {
            StreamError::Transport { kind, context } => StreamError::Transport {
                kind,
                context: format!("{stage}: {context}"),
            },
            other => other,
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Decode(s) => write!(f, "decode error: {s}"),
            StreamError::Disconnected => write!(f, "link disconnected"),
            StreamError::Config(s) => write!(f, "pipeline config error: {s}"),
            StreamError::Stage(s) => write!(f, "stage error: {s}"),
            StreamError::Transport { kind, context } => {
                write!(f, "transport error ({kind}): {context}")
            }
            StreamError::DeadlineExceeded(s) => write!(f, "deadline exceeded: {s}"),
            StreamError::Stalled { stage } => {
                write!(f, "pipeline stalled: stage {stage:?} has input queued but made no progress")
            }
        }
    }
}

impl std::error::Error for StreamError {}
