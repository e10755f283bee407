//! Two-process networked deployment: the model provider and data
//! provider as separate processes exchanging [`pp_stream_runtime::link::Frame`]s
//! over real TCP sockets — the paper's testbed topology (model and data
//! providers on separate hosts), versus the in-process pipeline of
//! [`crate::PpStream`].
//!
//! ## Roles
//!
//! * [`ModelProvider`] — the server. Holds the scaled weights, executes
//!   the **linear** stages homomorphically under the data provider's
//!   public key, and manages obfuscation (permutation draw/invert),
//!   exactly as [`crate::protocol::LinearStage`] does in-process.
//! * [`NetworkedSession`] — the client (data provider). Holds the
//!   Paillier keypair and the inputs, runs the encrypt stage and the
//!   **non-linear** stages locally, and round-trips every linear stage
//!   through the server.
//!
//! ## Handshake and sessions
//!
//! Before any ciphertext flows the client sends a
//! [`HelloMsg`](crate::messages::HelloMsg): protocol version, public-key
//! bytes + fingerprint, and a digest of the merged-stage topology. The
//! server answers [`AcceptMsg`](crate::messages::AcceptMsg) (echoing the
//! agreed parameters plus a server-assigned **session ID**) or
//! [`RejectMsg`](crate::messages::RejectMsg) naming the mismatch, so a
//! client built against a different model layout fails fast with
//! `Transport { kind: Handshake, .. }` instead of corrupting an
//! inference mid-stream.
//!
//! ## Fault tolerance (DESIGN.md §5)
//!
//! The server keeps a bounded, TTL-evicting session table. When a
//! connection dies mid-stream the client transparently reconnects (with
//! the configured [`RetryPolicy`](pp_stream_runtime::RetryPolicy)),
//! presents [`ResumeMsg`](crate::messages::ResumeMsg) with its count of
//! fully completed items, and replays only the in-flight item. After
//! each completed item the client sends a fire-and-forget
//! [`AckMsg`](crate::messages::AckMsg) raising the server's exactly-once
//! floor: a round-0 request below the floor is a protocol violation, so
//! a delivered item's Paillier evaluations are never silently repeated.
//! A deliberate [`ByeMsg`](crate::messages::ByeMsg) ends the session;
//! a bare EOF leaves it resumable until the TTL expires.
//!
//! Replay is sound because every stage derives its randomness
//! deterministically from `(seed, seq)` — re-running an item from round
//! 0 regenerates bit-identical ciphertexts and permutations, which the
//! chaos tests assert.
//!
//! ## Frame exchange
//!
//! Each inference request runs the in-process protocol's rounds over the
//! socket: the client serializes the current
//! [`EncTensorMsg`](crate::messages::EncTensorMsg) through the wire
//! codec and ships it in a frame whose transport `seq` is stamped by
//! [`TcpFrameSender::send_payload`] (strictly increasing per direction,
//! validated by the receiving side); the request's own `seq` travels
//! inside the message, decoupled from transport framing. Requests are
//! processed sequentially in this version — cross-request pipelining
//! over the socket is future work; the in-process pipeline remains the
//! throughput path.

#[cfg(doc)]
use pp_stream_runtime::TcpFrameSender;

mod client;
mod config;
mod conn;
#[cfg(unix)]
mod driver;
mod report;
mod server;
mod sessions;

pub use client::{ItemOutcome, NetworkedSession};
pub use config::{NetConfig, ServeOptions};
pub use conn::{pk_fingerprint, topology_digest};
#[cfg(unix)]
pub use driver::ServerHandle;
pub use report::{ServeReport, TransportReport};
pub use server::ModelProvider;
