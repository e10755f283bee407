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

use crate::encapsulate::{encapsulate_with, MergedStage, StageRole};
use crate::journal::{Journal, JournalConfig, JournalRecord, Replay};
use crate::messages::{
    AcceptMsg, AckMsg, ByeMsg, EncTensorMsg, HelloMsg, ItemErrorKind, ItemErrorMsg, MsgTag,
    PackedTensorMsg, PlainTensorMsg, RejectCode, RejectMsg, ResumeMsg, PROTOCOL_VERSION,
};
use crate::packed::{self, PACKED_PERM_BIT};
use crate::protocol::{EncryptStage, LinearStage, NonLinearStage, PartitionMode, PermStore};
use crate::governor::{Governor, GovernorConfig};
use crate::session::RunReport;
use crate::CoreError;
use bytes::Bytes;
use parking_lot::Mutex;
use pp_bigint::BigUint;
use pp_nn::scaling::{ScaledModel, ScaledOp};
use pp_paillier::packing::PackingSpec;
use pp_paillier::{Keypair, PublicKey, RandomnessPool};
#[cfg(feature = "fault-injection")]
use pp_stream_runtime::fault::{FaultPlan, FaultReceiver, FaultSender, FaultState};
use pp_stream_runtime::link::Frame;
use pp_stream_runtime::wire::{from_frame, to_frame, WireEncode};
use pp_stream_runtime::{
    tcp, FrameReceiver, FrameSender, StreamError, TcpConfig, TcpFrameReceiver, TcpFrameSender,
    TransportErrorKind, WorkerPool,
};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[cfg(unix)]
pub use ev::ServerHandle;

/// Configuration shared by both ends of a deployment.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Paillier key size in bits (client-side keygen).
    pub key_bits: usize,
    /// Determinism seed for keys, permutations, and encryption
    /// randomness.
    pub seed: u64,
    /// Worker threads per side.
    pub threads: usize,
    /// Merge adjacent same-type primitive layers (Sec. IV-B). Must match
    /// between peers — it shapes the topology digest.
    pub merge_stages: bool,
    /// Socket knobs: connect retry/backoff, read/write timeouts, seq
    /// validation.
    pub tcp: TcpConfig,
    /// How many reconnect-and-resume cycles a client survives per
    /// request before giving up with the underlying transport error.
    pub max_resumes: u32,
    /// Server-side: how long a dropped session stays resumable.
    pub session_ttl: Duration,
    /// Server-side: resumable-session table bound; beyond it the
    /// least-recently-seen session is evicted.
    pub session_capacity: usize,
    /// Server-side: per-session cap on items with linear rounds in
    /// flight. An item whose round 0 arrives while the session is at the
    /// cap is **shed** with a per-item [`ItemErrorKind::Shed`] reply
    /// instead of queueing unboundedly. A zero cap sheds every item —
    /// a drain mode useful for overload drills.
    pub max_inflight_items: usize,
    /// Client-side: per-item end-to-end deadline budget. Stamped into
    /// every linear-round frame as the *remaining* budget in
    /// milliseconds (relative durations, never wall timestamps, so
    /// client/server clock skew is irrelevant); the server sheds an item
    /// whose budget has run out with an
    /// [`ItemErrorKind::DeadlineExpired`] reply. `None` disables
    /// deadlines entirely.
    pub item_deadline: Option<Duration>,
    /// Client-side stall watchdog: if a linear-round reply takes longer
    /// than this window, the item is treated as stalled
    /// ([`StreamError::Stalled`]) and recovered by reconnect-and-resume,
    /// instead of waiting out the full TCP read timeout. `None` disables
    /// the watchdog.
    pub stall_window: Option<Duration>,
    /// Client-side deterministic fault injection (tests and chaos
    /// drills); `None` leaves the transport untouched. The server reads
    /// [`FaultPlan::poison_seq`] from its own config to drive the
    /// poison-item quarantine boundary.
    #[cfg(feature = "fault-injection")]
    pub fault: Option<FaultPlan>,
    /// Client-side: slot width (bits) for **batch-packed ciphertexts**
    /// (DESIGN.md §8). Non-zero proposes packing in the handshake; the
    /// server accepts only when the layout fits its model's op budget,
    /// and either side's `0` keeps the stream on the per-item protocol.
    /// The `data_provider` example exposes this as `PP_PACK_BITS`.
    pub pack_slot_bits: usize,
    /// Client-side: requests gathered per packed batch. `0` means "fill
    /// every slot the negotiated layout offers"; values above the slot
    /// count are clamped to it. The `data_provider` example exposes this
    /// as `PP_PACK_BATCH`.
    pub pack_batch: usize,
    /// Server-side resource limits for adversarial peers (frame
    /// ceilings, write-backlog cap, global memory budget — DESIGN.md
    /// §10). `None` reads `PP_MAX_FRAME` / `PP_WRITE_BACKLOG` /
    /// `PP_MEM_BUDGET` at provider construction; tests pin explicit
    /// values to avoid env races.
    pub governor: Option<GovernorConfig>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            key_bits: 512,
            seed: 0x9950_57EA,
            threads: 2,
            merge_stages: true,
            tcp: TcpConfig::new(),
            max_resumes: 8,
            session_ttl: Duration::from_secs(300),
            session_capacity: 1024,
            max_inflight_items: 256,
            item_deadline: None,
            stall_window: None,
            #[cfg(feature = "fault-injection")]
            fault: None,
            pack_slot_bits: 0,
            pack_batch: 0,
            governor: None,
        }
    }
}

impl NetConfig {
    /// A fast configuration for tests: tiny key, bounded timeouts, quick
    /// reconnect backoff.
    pub fn small_test(key_bits: usize) -> Self {
        NetConfig {
            key_bits,
            seed: 42,
            tcp: TcpConfig::new()
                .with_timeouts(Duration::from_secs(30), Duration::from_secs(30))
                .with_retry(pp_stream_runtime::RetryPolicy {
                    max_attempts: 3,
                    base_delay: Duration::from_millis(5),
                    max_delay: Duration::from_millis(40),
                    jitter: true,
                }),
            ..Default::default()
        }
    }
}

/// Client-side transport statistics, surfaced through
/// [`RunReport::transport`] and returned by
/// [`NetworkedSession::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct TransportReport {
    /// Frames sent to the model provider.
    pub frames_sent: u64,
    /// Frames received from the model provider.
    pub frames_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Connection attempts the retry loops used (1 = first try, with no
    /// reconnects).
    pub connect_attempts: u32,
    /// Successful reconnect-and-resume cycles after a mid-stream
    /// transport failure.
    pub reconnects: u64,
    /// Times the active provider address changed: a connect or resume
    /// failed against the current address and the client moved on to
    /// the next one in its ordered list
    /// ([`NetworkedSession::connect_any`]).
    pub failovers: u64,
    /// Items whose linear rounds had partially run before a failure and
    /// were replayed from round 0 after a resume.
    pub items_replayed: u64,
    /// Faults the injection layer fired (0 without a
    /// [`NetConfig::fault`] plan).
    pub faults_injected: u64,
    /// Busy rejections absorbed by the admission-control backoff loops
    /// (at connect and at resume).
    pub rejected_busy: u64,
    /// Linear-round replies that arrived later than
    /// [`NetConfig::stall_window`] and were recovered by
    /// reconnect-and-resume.
    pub stalls: u64,
    /// Items that failed with an expired end-to-end deadline — shed
    /// client-side before a send, or reported by the server via
    /// [`ItemErrorKind::DeadlineExpired`].
    pub deadline_expired: u64,
    /// Items the server quarantined after a poison panic
    /// ([`ItemErrorKind::Quarantined`] replies received).
    pub quarantined: u64,
    /// Items the server shed at its per-session in-flight cap
    /// ([`ItemErrorKind::Shed`] replies received).
    pub shed: u64,
    /// Packed linear rounds completed (one per batch per linear stage).
    pub packed_rounds: u64,
    /// Items served inside packed batches end-to-end (no fallback).
    pub packed_items: u64,
    /// Packed batches that fell back to per-item requests — a server
    /// [`ItemErrorKind::PackedAbort`], a transport failure mid-batch, or
    /// a client-side packing error. Each member is then replayed
    /// unpacked, so fallbacks cost latency, never results.
    pub packed_fallbacks: u64,
    /// Whether the connection ended without a transport error.
    pub clean_shutdown: bool,
}

/// Server-side statistics, aggregated over every connection a
/// [`ModelProvider::serve_listener`] or [`ModelProvider::serve_forever`]
/// call handled.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Inference request streams completed (a replayed item counts each
    /// time its last linear round finishes).
    pub requests: u64,
    /// Frames received from data providers (handshakes included).
    pub frames_in: u64,
    /// Frames sent to data providers.
    pub frames_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Connections accepted (handshaken or not).
    pub connections: u64,
    /// Connections that opened with a valid [`ResumeMsg`].
    pub resumed_sessions: u64,
    /// Handshakes rejected or never completed (bad hello, unknown
    /// session, EOF before the first frame). The server keeps serving.
    pub rejected_handshakes: u64,
    /// Connections that died with a transport/protocol error after the
    /// handshake. The session stays resumable; the server keeps serving.
    pub failed_connections: u64,
    /// Worker threads that panicked while serving a connection
    /// (isolated; the server keeps serving).
    pub panicked_connections: u64,
    /// Items whose round 0 arrived again after a resume (the client
    /// replaying in-flight work — never below the acked floor).
    pub replayed_items: u64,
    /// Connections refused at the admission-control session cap with a
    /// [`RejectCode::Busy`] reply ([`ServeOptions::max_sessions`]).
    pub rejected_busy: u64,
    /// Items answered with [`ItemErrorKind::DeadlineExpired`]: their
    /// end-to-end budget ran out before the linear stage started.
    pub deadline_expired: u64,
    /// [`ItemErrorKind::Quarantined`] replies sent: a poison item's
    /// first panic plus every refused replay of it.
    pub quarantined: u64,
    /// Items answered with [`ItemErrorKind::Shed`] at the per-session
    /// in-flight cap ([`NetConfig::max_inflight_items`]).
    pub shed: u64,
    /// Packed linear rounds executed (one per batch per linear stage).
    pub packed_rounds: u64,
    /// Packed batches aborted with [`ItemErrorKind::PackedAbort`]
    /// (deadline, shed, quarantined member, panic, or a packing error);
    /// the client replays the members unpacked.
    pub packed_aborts: u64,
    /// Cross-session fused dispatches executed by the event loop's
    /// batcher (one per gather window that closed with work;
    /// [`ServeOptions::gather_window`]).
    pub batched_rounds: u64,
    /// Linear-round items coalesced into those fused dispatches. Equal
    /// to `batched_rounds` when every window gathered a single item —
    /// higher means cross-session amortization actually happened.
    pub batched_items: u64,
    /// Nanoseconds spent executing linear rounds (pool dispatch
    /// included) — per-item serving cost, comparable across
    /// per-session and cross-session-batched serving.
    pub exec_ns: u64,
    /// Frames refused at the resource governor's ceiling — the peer
    /// sent a length prefix above its pre-auth or negotiated frame
    /// limit (`Transport { kind: FrameLimit }`). The payload was never
    /// allocated; the connection fails, the session stays resumable.
    pub oversize_frames: u64,
    /// Connections evicted as slow consumers: their reply backlog
    /// crossed [`GovernorConfig::write_backlog`] because the peer
    /// stopped reading. The session entry survives for a journal-backed
    /// resume.
    pub evicted_slow: u64,
    /// Connections busy-rejected because the endpoint's buffered bytes
    /// exceeded the global [`GovernorConfig::mem_budget`] (the
    /// admission-control analogue of `rejected_busy`, driven by memory
    /// instead of session count).
    pub budget_rejected: u64,
    /// The most recent per-connection error, for operator visibility.
    pub last_error: Option<String>,
    /// True when at least one client ended its session deliberately
    /// ([`ByeMsg`]) rather than by dropping the connection.
    pub clean_shutdown: bool,
}

impl ServeReport {
    /// Folds another report (e.g. one worker's connection) into this one.
    pub fn merge(&mut self, other: &ServeReport) {
        self.requests += other.requests;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.connections += other.connections;
        self.resumed_sessions += other.resumed_sessions;
        self.rejected_handshakes += other.rejected_handshakes;
        self.failed_connections += other.failed_connections;
        self.panicked_connections += other.panicked_connections;
        self.replayed_items += other.replayed_items;
        self.rejected_busy += other.rejected_busy;
        self.deadline_expired += other.deadline_expired;
        self.quarantined += other.quarantined;
        self.shed += other.shed;
        self.packed_rounds += other.packed_rounds;
        self.packed_aborts += other.packed_aborts;
        self.batched_rounds += other.batched_rounds;
        self.batched_items += other.batched_items;
        self.exec_ns += other.exec_ns;
        self.oversize_frames += other.oversize_frames;
        self.evicted_slow += other.evicted_slow;
        self.budget_rejected += other.budget_rejected;
        if other.last_error.is_some() {
            self.last_error = other.last_error.clone();
        }
        self.clean_shutdown |= other.clean_shutdown;
    }
}

/// FNV-1a 64-bit — stable, dependency-free fingerprint for handshake
/// digests (not cryptographic; the handshake detects misconfiguration,
/// not adversaries).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a public key's modulus bytes.
pub fn pk_fingerprint(pk_n: &[u8]) -> u64 {
    fnv1a64(pk_n)
}

/// Digest of the merged-stage topology: stage roles, shapes, op kinds
/// and their cheap structural parameters (window sizes, rescales, weight
/// element counts) — **not** the weight values, which never leave the
/// model provider. Two peers agree on this digest iff they encapsulated
/// the same model architecture at the same scaling factor.
pub fn topology_digest(stages: &[MergedStage], factor: i64) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(&factor.to_le_bytes());
    buf.extend_from_slice(&(stages.len() as u64).to_le_bytes());
    for stage in stages {
        buf.push(match stage.role {
            StageRole::Linear => 1,
            StageRole::NonLinear => 2,
        });
        for shape in [&stage.input_shape, &stage.output_shape] {
            buf.extend_from_slice(&(shape.dims().len() as u64).to_le_bytes());
            for &d in shape.dims() {
                buf.extend_from_slice(&(d as u64).to_le_bytes());
            }
        }
        buf.extend_from_slice(&(stage.ops.len() as u64).to_le_bytes());
        for op in &stage.ops {
            match op {
                ScaledOp::Conv2d { weights, bias, .. } => {
                    buf.push(1);
                    buf.extend_from_slice(&(weights.len() as u64).to_le_bytes());
                    buf.extend_from_slice(&(bias.len() as u64).to_le_bytes());
                }
                ScaledOp::Dense { weights, bias } => {
                    buf.push(2);
                    buf.extend_from_slice(&(weights.len() as u64).to_le_bytes());
                    buf.extend_from_slice(&(bias.len() as u64).to_le_bytes());
                }
                ScaledOp::Affine { scale, .. } => {
                    buf.push(3);
                    buf.extend_from_slice(&(scale.len() as u64).to_le_bytes());
                }
                ScaledOp::ScaleMul { alpha } => {
                    buf.push(4);
                    buf.extend_from_slice(&alpha.to_le_bytes());
                }
                ScaledOp::ReLU { rescale } => {
                    buf.push(5);
                    buf.extend_from_slice(&rescale.to_le_bytes());
                }
                ScaledOp::Sigmoid { rescale } => {
                    buf.push(6);
                    buf.extend_from_slice(&rescale.to_le_bytes());
                }
                ScaledOp::SoftMax { rescale } => {
                    buf.push(7);
                    buf.extend_from_slice(&rescale.to_le_bytes());
                }
                ScaledOp::MaxPool { window, stride, rescale } => {
                    buf.push(8);
                    buf.extend_from_slice(&(*window as u64).to_le_bytes());
                    buf.extend_from_slice(&(*stride as u64).to_le_bytes());
                    buf.extend_from_slice(&rescale.to_le_bytes());
                }
                ScaledOp::SumPool { window, stride } => {
                    buf.push(9);
                    buf.extend_from_slice(&(*window as u64).to_le_bytes());
                    buf.extend_from_slice(&(*stride as u64).to_le_bytes());
                }
                ScaledOp::Flatten => buf.push(10),
            }
        }
    }
    fnv1a64(&buf)
}

fn handshake_err(context: impl Into<String>) -> StreamError {
    StreamError::transport(TransportErrorKind::Handshake, context)
}

/// Best-effort extraction of a panic payload's message for the
/// quarantine reply.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Fault-injection hook (compiled out without the feature)
// ---------------------------------------------------------------------------

/// Client-side handle on the shared fault state; `()` when the
/// `fault-injection` feature is off, so the session struct and the
/// reconnect path carry zero cost in release deployments.
#[cfg(feature = "fault-injection")]
type FaultHook = Option<Arc<Mutex<FaultState>>>;
#[cfg(not(feature = "fault-injection"))]
type FaultHook = ();

#[cfg(feature = "fault-injection")]
fn fault_hook(config: &NetConfig) -> FaultHook {
    config.fault.clone().filter(FaultPlan::is_active).map(FaultPlan::into_state)
}
#[cfg(not(feature = "fault-injection"))]
fn fault_hook(_config: &NetConfig) -> FaultHook {}

/// Boxes the freshly handshaken halves, wrapping them in the fault
/// injectors when a plan is active. Handshake and resume frames travel
/// on the raw halves *before* this call, so injected kills never starve
/// the recovery path itself.
#[cfg(feature = "fault-injection")]
fn wrap_transport(
    tx: TcpFrameSender,
    rx: TcpFrameReceiver,
    hook: &FaultHook,
) -> (Box<dyn FrameSender>, Box<dyn FrameReceiver>) {
    match hook {
        Some(state) => (
            Box::new(FaultSender::new(tx, Arc::clone(state))),
            Box::new(FaultReceiver::new(rx, Arc::clone(state))),
        ),
        None => (Box::new(tx), Box::new(rx)),
    }
}
#[cfg(not(feature = "fault-injection"))]
fn wrap_transport(
    tx: TcpFrameSender,
    rx: TcpFrameReceiver,
    _hook: &FaultHook,
) -> (Box<dyn FrameSender>, Box<dyn FrameReceiver>) {
    (Box::new(tx), Box::new(rx))
}

#[cfg(feature = "fault-injection")]
fn revive_fault(hook: &FaultHook) {
    if let Some(state) = hook {
        state.lock().revive();
    }
}
#[cfg(not(feature = "fault-injection"))]
fn revive_fault(_hook: &FaultHook) {}

#[cfg(feature = "fault-injection")]
fn fault_count(hook: &FaultHook) -> u64 {
    hook.as_ref().map(|s| s.lock().faults_injected()).unwrap_or(0)
}
#[cfg(not(feature = "fault-injection"))]
fn fault_count(_hook: &FaultHook) -> u64 {
    0
}

// ---------------------------------------------------------------------------
// Session table (server side)
// ---------------------------------------------------------------------------

/// Per-session resume state the server retains across connections.
#[derive(Clone, Debug)]
struct SessionEntry {
    pk_n: Vec<u8>,
    pk_fingerprint: u64,
    topology: u64,
    /// Items `0..acked` are client-confirmed delivered — the
    /// exactly-once floor. Round 0 below it is a protocol violation.
    acked: u64,
    /// Items `0..started` have begun round 0 at least once; round 0 in
    /// `acked..started` is a legitimate post-resume replay.
    started: u64,
    /// Seqs whose linear execution panicked. Outlives the connection:
    /// replaying a quarantined item after a resume is refused with a
    /// fresh [`ItemErrorKind::Quarantined`] reply, never re-executed.
    quarantined: HashSet<u64>,
    last_seen: Instant,
}

/// Bounded, TTL-evicting table of resumable sessions, shared by every
/// connection a provider serves.
struct SessionTable {
    ttl: Duration,
    capacity: usize,
    next_id: AtomicU64,
    inner: Mutex<HashMap<u64, SessionEntry>>,
    /// Crash journal: when armed, every mutation below appends its
    /// record *before* the mutator returns (and thus before any reply
    /// acknowledging the transition leaves the process). Locked after
    /// `inner`, never before.
    journal: Mutex<Option<Journal>>,
    /// Appends that failed with an I/O error. Serving continues — a
    /// full disk degrades durability, not availability — but the count
    /// is surfaced so operators can see the journal has gaps.
    journal_errors: AtomicU64,
}

impl SessionTable {
    fn new(ttl: Duration, capacity: usize) -> Self {
        SessionTable {
            ttl,
            capacity: capacity.max(1),
            // Session 0 is never issued, so a zeroed client can't
            // accidentally resume a real stream.
            next_id: AtomicU64::new(1),
            inner: Mutex::new(HashMap::new()),
            journal: Mutex::new(None),
            journal_errors: AtomicU64::new(0),
        }
    }

    /// Appends one record if the journal is armed, counting (not
    /// propagating) I/O failures.
    fn journal_append(&self, record: &JournalRecord) {
        let mut slot = self.journal.lock();
        if let Some(journal) = slot.as_mut() {
            if journal.append(record).is_err() {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Rebuilds the table from a journal replay and arms `journal` for
    /// every subsequent mutation. Returns the number of sessions alive
    /// at the crash point. Replay order is append order, and every
    /// record's application is monotone (floors only rise, quarantine
    /// only grows), so the end state is exactly the crash state.
    fn restore(&self, journal: Journal, replay: &Replay) -> usize {
        let mut map = self.inner.lock();
        let now = Instant::now();
        let mut max_id = 0u64;
        for record in &replay.records {
            match record {
                JournalRecord::Created { session, pk_n, pk_fingerprint, topology, .. } => {
                    max_id = max_id.max(*session);
                    map.insert(
                        *session,
                        SessionEntry {
                            pk_n: pk_n.clone(),
                            pk_fingerprint: *pk_fingerprint,
                            topology: *topology,
                            acked: 0,
                            started: 0,
                            quarantined: HashSet::new(),
                            // Restored sessions get a fresh TTL: their
                            // pre-crash `last_seen` was wall time in a
                            // dead process, and their clients are
                            // exactly the ones about to resume.
                            last_seen: now,
                        },
                    );
                }
                JournalRecord::Acked { session, acked } => {
                    if let Some(e) = map.get_mut(session) {
                        e.acked = e.acked.max(*acked);
                        e.started = e.started.max(e.acked);
                    }
                }
                JournalRecord::Started { session, started } => {
                    if let Some(e) = map.get_mut(session) {
                        e.started = e.started.max(*started);
                    }
                }
                JournalRecord::Quarantined { session, seq } => {
                    if let Some(e) = map.get_mut(session) {
                        e.quarantined.insert(*seq);
                    }
                }
                JournalRecord::Removed { session } => {
                    map.remove(session);
                }
            }
        }
        // New sessions are issued above every ID the journal mentions,
        // so a pre-crash client can never collide with a post-restart
        // one. (Every journaled session has a Created record: replay
        // only ever drops a *suffix*, and Created precedes all other
        // records of its session.)
        self.next_id.fetch_max(max_id + 1, Ordering::Relaxed);
        *self.journal.lock() = Some(journal);
        map.len()
    }

    fn evict_expired(&self, map: &mut HashMap<u64, SessionEntry>) {
        let now = Instant::now();
        let expired: Vec<u64> = map
            .iter()
            .filter(|(_, e)| now.duration_since(e.last_seen) > self.ttl)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            map.remove(&id);
            self.journal_append(&JournalRecord::Removed { session: id });
        }
    }

    /// Registers a fresh session, evicting expired entries and — at
    /// capacity — the least-recently-seen live one.
    fn create(
        &self,
        pk_n: Vec<u8>,
        pk_fingerprint: u64,
        topology: u64,
        pack: Option<PackingSpec>,
    ) -> u64 {
        let mut map = self.inner.lock();
        self.evict_expired(&mut map);
        if map.len() >= self.capacity {
            if let Some(oldest) = map.iter().min_by_key(|(_, e)| e.last_seen).map(|(&id, _)| id) {
                map.remove(&oldest);
                self.journal_append(&JournalRecord::Removed { session: oldest });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.journal_append(&JournalRecord::Created {
            session: id,
            pk_n: pk_n.clone(),
            pk_fingerprint,
            topology,
            pack: pack.map(|s| (s.slot_bits as u32, s.slots as u32, s.op_budget)),
        });
        map.insert(
            id,
            SessionEntry {
                pk_n,
                pk_fingerprint,
                topology,
                acked: 0,
                started: 0,
                quarantined: HashSet::new(),
                last_seen: Instant::now(),
            },
        );
        id
    }

    /// Validates a resume and syncs the ack floor to the client's count.
    fn resume(&self, session: u64, items_done: u64, topology: u64) -> Result<SessionEntry, String> {
        let mut map = self.inner.lock();
        self.evict_expired(&mut map);
        let entry = map
            .get_mut(&session)
            .ok_or_else(|| format!("resume rejected: session {session} is unknown or expired"))?;
        if entry.topology != topology {
            return Err(format!(
                "resume rejected: topology digest {topology:#018x} does not match session \
                 {session}'s {:#018x}",
                entry.topology
            ));
        }
        if items_done < entry.acked {
            return Err(format!(
                "resume rejected: client reports {items_done} items done but {} are already \
                 acked — replaying them would break exactly-once delivery",
                entry.acked
            ));
        }
        if items_done > entry.acked {
            self.journal_append(&JournalRecord::Acked { session, acked: items_done });
        }
        entry.acked = items_done;
        entry.started = entry.started.max(entry.acked);
        entry.last_seen = Instant::now();
        Ok(entry.clone())
    }

    /// Raises the exactly-once floor from a client ack.
    fn ack(&self, session: u64, items_done: u64) {
        let mut map = self.inner.lock();
        if let Some(e) = map.get_mut(&session) {
            if items_done > e.acked {
                e.acked = items_done;
                e.started = e.started.max(e.acked);
                self.journal_append(&JournalRecord::Acked { session, acked: items_done });
            }
            e.last_seen = Instant::now();
        }
    }

    /// Gate for an item's first linear round. `Ok(true)` means the item
    /// is a post-resume replay; `Err` means the floor was violated.
    fn on_round0(&self, session: u64, seq: u64) -> Result<bool, String> {
        let mut map = self.inner.lock();
        let e = map
            .get_mut(&session)
            .ok_or_else(|| format!("session {session} vanished mid-connection"))?;
        if seq < e.acked {
            return Err(format!(
                "exactly-once violation: request {seq} restarted below the acked floor {}",
                e.acked
            ));
        }
        let replayed = seq < e.started;
        if !replayed {
            e.started = seq + 1;
            self.journal_append(&JournalRecord::Started { session, started: e.started });
        }
        e.last_seen = Instant::now();
        Ok(replayed)
    }

    /// Marks an item as poison: its execution panicked, and no replay of
    /// it will ever be executed again.
    fn quarantine(&self, session: u64, seq: u64) {
        let mut map = self.inner.lock();
        if let Some(e) = map.get_mut(&session) {
            e.quarantined.insert(seq);
            e.last_seen = Instant::now();
            self.journal_append(&JournalRecord::Quarantined { session, seq });
        }
    }

    /// Whether an item is quarantined (its replay must be refused).
    fn is_quarantined(&self, session: u64, seq: u64) -> bool {
        self.inner.lock().get(&session).is_some_and(|e| e.quarantined.contains(&seq))
    }

    /// Refreshes a session's liveness clock without moving any floor.
    /// Called for *every* frame a connection delivers — including
    /// keepalive acks and mid-round tensor frames — so a session whose
    /// connection is open but idle past the TTL is never evicted out
    /// from under its own live connection.
    fn touch(&self, session: u64) {
        if let Some(e) = self.inner.lock().get_mut(&session) {
            e.last_seen = Instant::now();
        }
    }

    /// Ends a session deliberately (client Bye).
    fn remove(&self, session: u64) {
        let mut map = self.inner.lock();
        if map.remove(&session).is_some() {
            self.journal_append(&JournalRecord::Removed { session });
        }
    }

    /// Live (unexpired, unremoved) sessions. Soak tests use this to
    /// assert a drained server leaks no session state.
    fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

// ---------------------------------------------------------------------------
// Model provider (server)
// ---------------------------------------------------------------------------

/// How one served connection ended.
enum ConnOutcome {
    /// The client ended the session with [`ByeMsg`]; its state is gone.
    Clean,
    /// The socket closed without a Bye; the session stays resumable.
    Dropped,
    /// The handshake was rejected (or never arrived).
    Rejected,
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------
//
// One served connection is a state machine over decoded frames: opening
// frame -> `open_conn`, every later frame -> `on_frame`, and each
// linear-round execution -> `run_job` + `on_exec_done`. The blocking
// `handle_conn` shell and the readiness event loop both run this exact
// machine, so the two cannot drift apart semantically —
// the event loop only changes *when* frames arrive and *where* jobs
// execute (inline on a shard, or coalesced across sessions in the
// batcher), never what they mean.

/// An outbound reply produced by the state machine, queued by the
/// driver. Byte/frame counters are charged when the reply is built.
struct Reply {
    payload: Bytes,
    /// Stage context attached to a transport error if the send fails.
    context: String,
    /// Reject frames are fire-and-forget — the peer may already be gone
    /// and a send failure must not fail the server-side bookkeeping.
    best_effort: bool,
}

impl Reply {
    /// Encodes `msg` as a reply the peer must receive, and charges it
    /// to the byte/frame counters.
    fn new<T: WireEncode>(report: &mut ServeReport, msg: &T, context: String) -> Reply {
        let payload = to_frame(msg);
        report.bytes_out += payload.len() as u64;
        report.frames_out += 1;
        Reply { payload, context, best_effort: false }
    }
}

/// Per-connection serving state after an accepted Hello/Resume.
struct ConnState {
    session: u64,
    /// Negotiated packed layout (always `None` on resumed connections).
    packing: Option<PackingSpec>,
    /// Per-round linear executors, shared with in-flight jobs so a
    /// batched execution can outlive a borrow of the connection.
    execs: Arc<Vec<LinearStage>>,
    /// Each in-flight request's next linear round index (per
    /// connection: a replay after a reconnect restarts at round 0).
    next_round: HashMap<u64, usize>,
    /// Packed batches keyed by their first member's seq: the member
    /// list (pinned at round 0) and the next round index.
    next_packed: HashMap<u64, (Vec<u64>, usize)>,
    /// Governor-derived frame ceiling for this connection, computed
    /// from the handshake (key width × topology width × pack slots).
    /// The driver raises the receiver's limit from the pre-auth cap to
    /// this once the handshake is accepted.
    frame_ceiling: usize,
}

/// Outcome of absorbing a connection's opening frame.
enum Opened {
    Serving(Box<ConnState>),
    Rejected,
}

/// What the driver must do after the state machine absorbed one frame.
enum FrameDisposition {
    /// Send these replies (possibly none) and keep reading.
    Continue(Vec<Reply>),
    /// Run this linear-round job, then feed the outcome back through
    /// [`ModelProvider::on_exec_done`].
    Execute(ExecJob),
    /// The client said Bye; close cleanly.
    Clean,
}

/// A validated, admitted linear-round execution, detached from its
/// connection so it can run anywhere (inline, shard, or cross-session
/// batcher).
struct ExecJob {
    round: usize,
    kind: JobKind,
    execs: Arc<Vec<LinearStage>>,
    /// Chaos driver: this job panics inside execution.
    #[cfg(feature = "fault-injection")]
    poison: bool,
}

enum JobKind {
    Item { msg: EncTensorMsg },
    Packed { msg: PackedTensorMsg },
}

/// A stage's output, still wrapped in the stage's own error type; the
/// outer `Err` carries a trapped panic payload (the poison-item
/// boundary).
type Executed<T> = std::thread::Result<Result<T, StreamError>>;

/// A finished job: which request or batch it served, and what came out.
enum JobDone {
    Item { seq: u64, round: usize, out: Executed<EncTensorMsg> },
    Packed { key: u64, members: u64, round: usize, out: Executed<PackedTensorMsg> },
}

/// Runs one admitted job on `pool`, trapping panics. Pure compute: no
/// session or report state is touched, which is what makes the job safe
/// to ship to the cross-session batcher.
fn run_job(job: ExecJob, pool: &WorkerPool) -> JobDone {
    #[cfg(feature = "fault-injection")]
    let poison = job.poison;
    let ExecJob { round, kind, execs, .. } = job;
    let exec = &execs[round];
    match kind {
        JobKind::Item { msg } => {
            let seq = msg.seq;
            let out = catch_unwind(AssertUnwindSafe(move || {
                #[cfg(feature = "fault-injection")]
                if poison {
                    panic!("injected poison item {seq}");
                }
                exec.execute(msg, pool)
            }));
            JobDone::Item { seq, round, out }
        }
        JobKind::Packed { msg } => {
            let key = msg.seqs[0];
            let members = msg.seqs.len() as u64;
            let out = catch_unwind(AssertUnwindSafe(move || {
                #[cfg(feature = "fault-injection")]
                if poison {
                    panic!("injected poison item in packed batch {key}");
                }
                packed::execute_packed_linear(exec, msg)
            }));
            JobDone::Packed { key, members, round, out }
        }
    }
}

/// A socket set-up failure as this crate's error.
fn io_failure(kind: TransportErrorKind, what: &str, e: std::io::Error) -> CoreError {
    CoreError::from(StreamError::transport(kind, format!("{what}: {e}")))
}

/// Sends queued replies over the blocking transport. Best-effort
/// replies swallow send errors; the rest fail the connection with the
/// reply's stage context.
fn send_replies(tx: &mut TcpFrameSender, replies: Vec<Reply>) -> Result<(), CoreError> {
    for r in replies {
        match tx.send_payload(r.payload) {
            Ok(_) => {}
            Err(_) if r.best_effort => {}
            Err(e) => return Err(CoreError::from(e.at_stage(&r.context))),
        }
    }
    Ok(())
}

/// The model-provider server: serves the linear stages of one scaled
/// model over framed TCP connections, with resumable sessions.
pub struct ModelProvider {
    stages: Vec<MergedStage>,
    topology: u64,
    factor: i64,
    seed: u64,
    pool: WorkerPool,
    tcp: TcpConfig,
    sessions: SessionTable,
    /// Per-session cap on items with linear rounds in flight; round-0
    /// arrivals beyond it are shed ([`NetConfig::max_inflight_items`]).
    max_inflight: usize,
    /// Per-connection resource limits and global buffered-bytes
    /// accounting ([`NetConfig::governor`]).
    governor: Governor,
    /// Largest element count across stage input/output shapes — the
    /// topology width the governor's negotiated frame ceiling scales
    /// with.
    max_stage_elems: usize,
    /// Chaos driver: the linear execution of this seq panics once, so
    /// tests can exercise the quarantine boundary deterministically.
    #[cfg(feature = "fault-injection")]
    poison_seq: Option<u64>,
}

/// How long a busy rejection may wait for the client's hello before the
/// connection is abandoned — bounds slow-loris floods.
const REJECT_DRAIN_BOUND: Duration = Duration::from_secs(2);

impl ModelProvider {
    /// Encapsulates the model into merged stages and prepares the server.
    pub fn new(model: &ScaledModel, config: &NetConfig) -> Result<Self, CoreError> {
        let stages = encapsulate_with(model, config.merge_stages)?;
        let topology = topology_digest(&stages, model.factor());
        let max_stage_elems = stages
            .iter()
            .flat_map(|s| [s.input_shape.len(), s.output_shape.len()])
            .max()
            .unwrap_or(1)
            .max(1);
        Ok(ModelProvider {
            stages,
            topology,
            factor: model.factor(),
            seed: config.seed,
            pool: WorkerPool::new(config.threads.max(1)),
            tcp: config.tcp.clone(),
            sessions: SessionTable::new(config.session_ttl, config.session_capacity),
            max_inflight: config.max_inflight_items,
            governor: Governor::new(config.governor.unwrap_or_default()),
            max_stage_elems,
            #[cfg(feature = "fault-injection")]
            poison_seq: config.fault.as_ref().and_then(|f| f.poison_seq),
        })
    }

    /// The topology digest clients must present.
    pub fn topology(&self) -> u64 {
        self.topology
    }

    /// Live resumable sessions in the table right now. After every
    /// client has said Bye this must be zero — soak tests assert a
    /// drained server leaks no session state.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Opens (creating if absent) the crash journal under `config`,
    /// replays it into the session table — tolerating a truncated or
    /// corrupt tail, the normal shape of a SIGKILLed writer — and arms
    /// journaling for every subsequent session transition. Returns the
    /// number of sessions restored from the pre-crash journal.
    ///
    /// Call before serving. [`ModelProvider::serve_forever`] does this
    /// automatically when [`ServeOptions::journal`] is set; call it
    /// directly when serving via [`ModelProvider::serve_listener`].
    /// Opening a second journal on the same provider is refused.
    pub fn open_journal(&self, config: &JournalConfig) -> Result<usize, CoreError> {
        if self.sessions.journal.lock().is_some() {
            return Err(CoreError::Runtime("session journal is already open".into()));
        }
        let path = config.path();
        let (journal, replay) = Journal::open(&path, config.fsync).map_err(|e| {
            CoreError::Runtime(format!("session journal {}: {e}", path.display()))
        })?;
        Ok(self.sessions.restore(journal, &replay))
    }

    /// Journal appends that failed with an I/O error (0 without a
    /// journal, or while the disk behaves). Serving continues through
    /// append failures; a nonzero count means crash durability has gaps.
    pub fn journal_errors(&self) -> u64 {
        self.sessions.journal_errors.load(Ordering::Relaxed)
    }

    /// Binds `addr` and serves client connections until one ends its
    /// session cleanly (Bye). Returns the bound address alongside the
    /// report so `127.0.0.1:0` callers can learn the assigned port —
    /// though for that pattern [`ModelProvider::serve_listener`] with a
    /// pre-bound listener avoids the race entirely.
    pub fn serve_once(
        &self,
        addr: impl ToSocketAddrs,
    ) -> Result<(ServeReport, SocketAddr), CoreError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| io_failure(TransportErrorKind::Bind, "bind", e))?;
        let local = listener
            .local_addr()
            .map_err(|e| io_failure(TransportErrorKind::Bind, "local addr", e))?;
        let report = self.serve_listener(&listener)?;
        Ok((report, local))
    }

    /// Serves connections on a pre-bound listener, sequentially, until a
    /// client ends its session with a Bye. A dropped connection leaves
    /// its session resumable and the loop accepts the reconnect; a
    /// rejected or failed handshake is counted and the loop keeps
    /// serving — one misconfigured client cannot take the server down.
    pub fn serve_listener(&self, listener: &TcpListener) -> Result<ServeReport, CoreError> {
        let mut report = ServeReport::default();
        loop {
            let (mut tx, mut rx) = tcp::accept_on(listener, &self.tcp)?;
            report.connections += 1;
            match self.handle_conn(&mut tx, &mut rx, &mut report) {
                Ok(ConnOutcome::Clean) => {
                    report.clean_shutdown = true;
                    return Ok(report);
                }
                Ok(ConnOutcome::Dropped) | Ok(ConnOutcome::Rejected) => continue,
                Err(e) => {
                    report.failed_connections += 1;
                    report.last_error = Some(e.to_string());
                    continue;
                }
            }
        }
    }

    /// Counts governor-relevant receive failures before they propagate:
    /// a `FrameLimit` breach means a peer claimed a frame above its
    /// ceiling — an adversarial-peer event operators watch via
    /// [`ServeReport::oversize_frames`].
    fn classify_recv(&self, e: StreamError, report: &mut ServeReport) -> StreamError {
        if matches!(e, StreamError::Transport { kind: TransportErrorKind::FrameLimit, .. }) {
            report.oversize_frames += 1;
        }
        e
    }

    /// Serves one accepted connection on the blocking transport:
    /// opening Hello/Resume, then the EncTensor/Ack/Bye loop. This is a
    /// thin shell over the connection state machine ([`Self::open_conn`]
    /// / [`Self::on_frame`] / [`Self::on_exec_done`]) — the readiness
    /// event loop drives the *same* machine, so single-client and
    /// multi-client serving have identical protocol semantics by
    /// construction. Counts into
    /// `report`; transport and protocol failures return `Err` (the
    /// caller isolates them).
    fn handle_conn(
        &self,
        tx: &mut TcpFrameSender,
        rx: &mut TcpFrameReceiver,
        report: &mut ServeReport,
    ) -> Result<ConnOutcome, CoreError> {
        // --- Opening frame: Hello (fresh session) or Resume ----------------
        // Until the handshake is accepted the peer is unauthenticated:
        // cap its frames at the governor's small pre-auth ceiling so a
        // hostile Hello can never force a large allocation.
        rx.set_max_frame(self.governor.config.pre_auth_ceiling());
        let first = match rx.recv().map_err(|e| self.classify_recv(e, report).at_stage("handshake"))?
        {
            Some(f) => f,
            None => {
                report.rejected_handshakes += 1;
                return Ok(ConnOutcome::Rejected);
            }
        };
        report.frames_in += 1;
        report.bytes_in += first.payload.len() as u64;
        let (replies, opened) = self.open_conn(first.payload, report);
        send_replies(tx, replies)?;
        let mut conn = match opened {
            Opened::Serving(conn) => conn,
            Opened::Rejected => return Ok(ConnOutcome::Rejected),
        };
        // The handshake pinned key width, topology, and packing: raise
        // the ceiling to what this connection's frames can legitimately
        // need — and no further.
        rx.set_max_frame(conn.frame_ceiling);

        // --- Serve linear rounds ------------------------------------------
        loop {
            let frame = match rx
                .recv()
                .map_err(|e| self.classify_recv(e, report).at_stage("linear request"))?
            {
                Some(f) => f,
                None => return Ok(ConnOutcome::Dropped),
            };
            report.frames_in += 1;
            report.bytes_in += frame.payload.len() as u64;
            match self.on_frame(&mut conn, frame, report)? {
                FrameDisposition::Continue(replies) => send_replies(tx, replies)?,
                FrameDisposition::Execute(job) => {
                    let t0 = Instant::now();
                    let done = run_job(job, &self.pool);
                    report.exec_ns += t0.elapsed().as_nanos() as u64;
                    let replies = self.on_exec_done(&mut conn, done, report)?;
                    send_replies(tx, replies)?;
                }
                FrameDisposition::Clean => return Ok(ConnOutcome::Clean),
            }
        }
    }

    /// Absorbs a connection's opening frame: a valid Hello creates a
    /// session (packing negotiated, never assumed — the proposed layout
    /// must fit the key and cover this model's op budget, else the
    /// stream stays per-item), a valid Resume revives one (always
    /// unpacked: replay bookkeeping is per-item, and a resume already
    /// signals a degraded path). Anything else is rejected. The
    /// returned replies carry the Accept or Reject frame.
    fn open_conn(&self, payload: Bytes, report: &mut ServeReport) -> (Vec<Reply>, Opened) {
        match crate::messages::peek_tag(&payload) {
            Some(MsgTag::Hello) => {
                let hello: HelloMsg = match from_frame(payload) {
                    Ok(h) => h,
                    Err(_) => {
                        return (
                            vec![self.reject_reply(report, "malformed hello frame")],
                            Opened::Rejected,
                        )
                    }
                };
                if let Some(reason) = self.validate_hello(&hello) {
                    return (vec![self.reject_reply(report, &reason)], Opened::Rejected);
                }
                let pk = PublicKey::from_n(BigUint::from_bytes_be(&hello.pk_n));
                let packing = self.negotiate_packing(&hello, &pk);
                let pk_n_len = hello.pk_n.len();
                let session =
                    self.sessions.create(hello.pk_n, hello.pk_fingerprint, hello.topology, packing);
                let accept = self.accept_reply(
                    report,
                    hello.pk_fingerprint,
                    session,
                    packing.map_or(0, |s| s.slot_bits as u32),
                );
                let conn = self.conn_state(session, &pk, pk_n_len, packing);
                (vec![accept], Opened::Serving(Box::new(conn)))
            }
            Some(MsgTag::Resume) => {
                let resume: ResumeMsg = match from_frame(payload) {
                    Ok(r) => r,
                    Err(_) => {
                        return (
                            vec![self.reject_reply(report, "malformed resume frame")],
                            Opened::Rejected,
                        )
                    }
                };
                if resume.version != PROTOCOL_VERSION {
                    let reason = format!(
                        "protocol version mismatch: server speaks {PROTOCOL_VERSION}, \
                         client {}",
                        resume.version
                    );
                    return (vec![self.reject_reply(report, &reason)], Opened::Rejected);
                }
                let entry =
                    match self.sessions.resume(resume.session, resume.items_done, resume.topology)
                    {
                        Ok(entry) => entry,
                        Err(reason) => {
                            return (vec![self.reject_reply(report, &reason)], Opened::Rejected)
                        }
                    };
                report.resumed_sessions += 1;
                let pk = PublicKey::from_n(BigUint::from_bytes_be(&entry.pk_n));
                let accept = self.accept_reply(report, entry.pk_fingerprint, resume.session, 0);
                let conn = self.conn_state(resume.session, &pk, entry.pk_n.len(), None);
                (vec![accept], Opened::Serving(Box::new(conn)))
            }
            _ => (
                vec![self.reject_reply(report, "first frame was neither hello nor resume")],
                Opened::Rejected,
            ),
        }
    }

    /// Fresh serving state for a connection that handshook with `pk`
    /// (`pk_n_len` modulus bytes on the wire): its linear executors, and
    /// the governor's frame ceiling for that key width, this topology
    /// and the negotiated packing.
    fn conn_state(
        &self,
        session: u64,
        pk: &PublicKey,
        pk_n_len: usize,
        packing: Option<PackingSpec>,
    ) -> ConnState {
        ConnState {
            session,
            packing,
            execs: Arc::new(self.build_linear_execs(pk)),
            next_round: HashMap::new(),
            next_packed: HashMap::new(),
            frame_ceiling: self.governor.config.negotiated_ceiling(
                pk_n_len,
                self.max_stage_elems,
                packing.map_or(0, |s| s.slots),
            ),
        }
    }

    /// Absorbs one post-handshake frame and decides what happens next —
    /// replies to queue, a linear-round job to execute, or a clean end.
    /// Protocol violations return `Err` and fail the connection (the
    /// session stays resumable).
    fn on_frame(
        &self,
        conn: &mut ConnState,
        frame: Frame,
        report: &mut ServeReport,
    ) -> Result<FrameDisposition, CoreError> {
        // Any frame proves this session's client is alive: refresh the
        // TTL clock before dispatch, so an open connection streaming a
        // multi-round item (whose floors only move at round 0) cannot
        // be evicted mid-item by another client's create/resume sweep.
        self.sessions.touch(conn.session);
        match crate::messages::peek_tag(&frame.payload) {
            Some(MsgTag::Ack) => {
                let ack: AckMsg = from_frame(frame.payload).map_err(CoreError::from)?;
                self.sessions.ack(conn.session, ack.items_done);
                return Ok(FrameDisposition::Continue(Vec::new()));
            }
            Some(MsgTag::Bye) => {
                self.sessions.remove(conn.session);
                return Ok(FrameDisposition::Clean);
            }
            _ => {}
        }
        let budget_ms = frame.deadline_ms;
        let arrival = Instant::now();

        // Packed batches take their own serving path: one frame per
        // linear round serves every member at once, and any failure
        // aborts the batch (client falls back per-item) instead of
        // poisoning the connection.
        if crate::messages::peek_tag(&frame.payload) == Some(MsgTag::PackedTensor) {
            let msg: PackedTensorMsg = from_frame(frame.payload).map_err(CoreError::from)?;
            return self.packed_round_pre(conn, msg, budget_ms, arrival, report);
        }

        let msg: EncTensorMsg = from_frame(frame.payload).map_err(CoreError::from)?;
        let seq = msg.seq;
        let n_linear = conn.execs.len();

        // A quarantined item is refused before any bookkeeping: a
        // replay (e.g. after a resume) must never execute again.
        if self.sessions.is_quarantined(conn.session, seq) {
            report.quarantined += 1;
            return Ok(FrameDisposition::Continue(vec![self.item_error_reply(
                report,
                seq,
                ItemErrorKind::Quarantined,
                "replay refused: item is quarantined after a panic",
            )]));
        }

        let round = match conn.next_round.get(&seq) {
            Some(&r) => r,
            // Item-level admission control: at the in-flight cap,
            // shedding the newcomer beats queueing without bound.
            None if conn.next_round.len() >= self.max_inflight => {
                report.shed += 1;
                return Ok(FrameDisposition::Continue(vec![self.item_error_reply(
                    report,
                    seq,
                    ItemErrorKind::Shed,
                    &format!("session at its in-flight cap ({})", self.max_inflight),
                )]));
            }
            None => 0,
        };
        if round >= n_linear {
            let err = StreamError::Stage(format!(
                "request {seq} sent more linear rounds than the model has ({n_linear})"
            ));
            return Err(CoreError::from(err));
        }
        if round == 0 {
            match self.sessions.on_round0(conn.session, seq) {
                Ok(true) => report.replayed_items += 1,
                Ok(false) => {}
                Err(reason) => return Err(CoreError::from(StreamError::Stage(reason))),
            }
        }
        // The stage would panic on a shape/count mismatch; turn
        // attacker-reachable malformed input into an error instead.
        let elems = msg.shape.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d));
        if elems.map(|n| n as usize) != Some(msg.cts.len()) {
            let err = StreamError::Stage(format!(
                "request {seq} round {round}: shape {:?} does not match {} ciphertexts",
                msg.shape,
                msg.cts.len()
            ));
            return Err(CoreError::from(err));
        }
        // Deadline gate before the expensive Paillier work. The frame
        // carries the *remaining* budget in milliseconds relative to
        // its arrival, so clock skew between the hosts is irrelevant.
        if let Some(ms) = budget_ms {
            if arrival.elapsed() >= Duration::from_millis(ms) {
                report.deadline_expired += 1;
                conn.next_round.remove(&seq);
                return Ok(FrameDisposition::Continue(vec![self.item_error_reply(
                    report,
                    seq,
                    ItemErrorKind::DeadlineExpired,
                    &format!("budget of {ms} ms ran out before linear round {round}"),
                )]));
            }
        }
        Ok(FrameDisposition::Execute(ExecJob {
            round,
            #[cfg(feature = "fault-injection")]
            poison: self.poison_seq == Some(seq),
            kind: JobKind::Item { msg },
            execs: Arc::clone(&conn.execs),
        }))
    }

    /// Applies an executed job's outcome to its connection: advances the
    /// round bookkeeping and produces the reply — stage output, a
    /// quarantine refusal (panic trapped; the poison-item boundary), or
    /// a packed abort. A stage *error* (not panic) fails the connection,
    /// exactly as on the blocking path.
    fn on_exec_done(
        &self,
        conn: &mut ConnState,
        done: JobDone,
        report: &mut ServeReport,
    ) -> Result<Vec<Reply>, CoreError> {
        let n_linear = conn.execs.len();
        match done {
            JobDone::Item { seq, round, out: Ok(res) } => {
                let out = res.map_err(CoreError::from)?;
                if round + 1 == n_linear {
                    conn.next_round.remove(&seq);
                    report.requests += 1;
                } else {
                    conn.next_round.insert(seq, round + 1);
                }
                let context = format!("linear-{round} reply for request {seq}");
                Ok(vec![Reply::new(report, &out, context)])
            }
            JobDone::Item { seq, out: Err(panic_payload), .. } => {
                let detail = panic_message(panic_payload.as_ref());
                self.sessions.quarantine(conn.session, seq);
                conn.next_round.remove(&seq);
                report.quarantined += 1;
                Ok(vec![self.item_error_reply(
                    report,
                    seq,
                    ItemErrorKind::Quarantined,
                    &format!("item {seq} panicked: {detail}"),
                )])
            }
            JobDone::Packed { key, members, round, out: Ok(res) } => match res {
                Ok(out) => {
                    if round + 1 == n_linear {
                        conn.next_packed.remove(&key);
                        report.requests += members;
                    } else {
                        conn.next_packed.insert(key, (out.seqs.clone(), round + 1));
                    }
                    report.packed_rounds += 1;
                    let context = format!("packed linear-{round} reply for batch {key}");
                    Ok(vec![Reply::new(report, &out, context)])
                }
                Err(e) => Ok(vec![self.packed_abort_reply(
                    conn,
                    report,
                    key,
                    &format!("packed round {round} failed: {e}"),
                )]),
            },
            JobDone::Packed { key, round, out: Err(panic_payload), .. } => {
                let detail = panic_message(panic_payload.as_ref());
                Ok(vec![self.packed_abort_reply(
                    conn,
                    report,
                    key,
                    &format!("packed round {round} panicked: {detail}"),
                )])
            }
        }
    }

    /// Builds a Reject reply naming `reason` and counts the rejection.
    /// Best-effort delivery — the client may already be gone.
    fn reject_reply(&self, report: &mut ServeReport, reason: &str) -> Reply {
        report.rejected_handshakes += 1;
        report.last_error = Some(format!("rejected client: {reason}"));
        let reject = RejectMsg::mismatch(reason);
        Reply { best_effort: true, ..Reply::new(report, &reject, "handshake reject".into()) }
    }

    /// Builds a per-item error reply: the item fails, the session and
    /// the connection survive.
    fn item_error_reply(
        &self,
        report: &mut ServeReport,
        seq: u64,
        kind: ItemErrorKind,
        detail: &str,
    ) -> Reply {
        let error = ItemErrorMsg { seq, kind, detail: detail.to_string() };
        Reply::new(report, &error, format!("item-error reply for request {seq}"))
    }

    fn accept_reply(
        &self,
        report: &mut ServeReport,
        pk_fingerprint: u64,
        session: u64,
        pack_slot_bits: u32,
    ) -> Reply {
        let accept = AcceptMsg {
            version: PROTOCOL_VERSION,
            pk_fingerprint,
            topology: self.topology,
            session,
            pack_slot_bits,
        };
        Reply::new(report, &accept, "handshake accept".into())
    }

    /// Accepts the client's proposed packing layout only when it fits
    /// the key's capacity and covers this model's accumulated op budget
    /// (`None` declines — the stream stays on the per-item protocol).
    fn negotiate_packing(&self, hello: &HelloMsg, pk: &PublicKey) -> Option<PackingSpec> {
        if hello.pack_slot_bits == 0 || hello.pack_slots == 0 {
            return None;
        }
        let max = PackingSpec::for_key(pk, hello.pack_slot_bits as usize).ok()?;
        if hello.pack_slots as usize > max.slots {
            return None;
        }
        let spec = PackingSpec {
            slot_bits: hello.pack_slot_bits as usize,
            slots: hello.pack_slots as usize,
            op_budget: hello.pack_budget,
        };
        spec.check().ok()?;
        if hello.pack_budget < packed::required_budget(&self.stages) {
            return None;
        }
        Some(spec)
    }

    /// Validation and admission for one linear round of a packed batch,
    /// up to (but not including) the expensive execution. All failure
    /// modes short of a dead socket answer with a single
    /// [`ItemErrorKind::PackedAbort`] (batch state dropped, perms
    /// released) so the client can replay the members unpacked over the
    /// same connection.
    fn packed_round_pre(
        &self,
        conn: &mut ConnState,
        msg: PackedTensorMsg,
        budget_ms: Option<u64>,
        arrival: Instant,
        report: &mut ServeReport,
    ) -> Result<FrameDisposition, CoreError> {
        let n_linear = conn.execs.len();
        let Some(&key) = msg.seqs.first() else {
            return Err(CoreError::from(StreamError::Stage(
                "packed frame with an empty batch".into(),
            )));
        };
        macro_rules! abort {
            ($detail:expr) => {
                return Ok(FrameDisposition::Continue(vec![
                    self.packed_abort_reply(conn, report, key, $detail)
                ]))
            };
        }
        let Some(spec) = conn.packing else {
            abort!("packing was not negotiated for this connection");
        };
        if msg.slot_bits as usize != spec.slot_bits
            || msg.slots as usize != spec.slots
            || msg.op_budget != spec.op_budget
            || msg.seqs.len() > spec.slots
        {
            abort!("packed layout differs from the negotiated spec");
        }
        let elems = msg.shape.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d));
        if elems.map(|n| n as usize) != Some(msg.cts.len()) {
            abort!("packed shape does not match the ciphertext count");
        }

        let round = match conn.next_packed.get(&key) {
            Some((seqs, round)) => {
                if *seqs != msg.seqs {
                    abort!("packed batch membership changed between rounds");
                }
                *round
            }
            None => {
                // Round 0: admission control and per-member exactly-once
                // bookkeeping, mirroring the unpacked path.
                if msg.seqs.iter().any(|&s| self.sessions.is_quarantined(conn.session, s)) {
                    abort!("batch contains a quarantined item");
                }
                let packed_inflight: usize =
                    conn.next_packed.values().map(|(seqs, _)| seqs.len()).sum();
                if conn.next_round.len() + packed_inflight + msg.seqs.len() > self.max_inflight {
                    report.shed += 1;
                    abort!(&format!("session at its in-flight cap ({})", self.max_inflight));
                }
                for &s in &msg.seqs {
                    match self.sessions.on_round0(conn.session, s) {
                        Ok(true) => report.replayed_items += 1,
                        Ok(false) => {}
                        Err(reason) => {
                            return Err(CoreError::from(StreamError::Stage(reason)))
                        }
                    }
                }
                0
            }
        };
        if round >= n_linear {
            return Err(CoreError::from(StreamError::Stage(format!(
                "packed batch {key} sent more linear rounds than the model has ({n_linear})"
            ))));
        }
        if let Some(ms) = budget_ms {
            if arrival.elapsed() >= Duration::from_millis(ms) {
                report.deadline_expired += 1;
                abort!(&format!("budget of {ms} ms ran out before packed linear round {round}"));
            }
        }
        // A panic during execution (op-budget violation, poison member)
        // aborts the batch; the per-item replay re-establishes
        // item-level quarantine.
        Ok(FrameDisposition::Execute(ExecJob {
            round,
            #[cfg(feature = "fault-injection")]
            poison: self.poison_seq.is_some_and(|p| msg.seqs.contains(&p)),
            kind: JobKind::Packed { msg },
            execs: Arc::clone(&conn.execs),
        }))
    }

    /// Aborts a packed batch: drops its round tracking and any stored
    /// permutations, and answers with one [`ItemErrorKind::PackedAbort`]
    /// keyed by the batch's first member. The connection survives; the
    /// client replays every unresolved member unpacked.
    fn packed_abort_reply(
        &self,
        conn: &mut ConnState,
        report: &mut ServeReport,
        key: u64,
        detail: &str,
    ) -> Reply {
        conn.next_packed.remove(&key);
        if let Some(exec0) = conn.execs.first() {
            let packed_key = key | PACKED_PERM_BIT;
            for idx in 0..conn.execs.len() {
                let _ = exec0.perms.take(packed_key, idx);
            }
        }
        report.packed_aborts += 1;
        self.item_error_reply(report, key, ItemErrorKind::PackedAbort, detail)
    }

    /// `None` when the hello is acceptable, otherwise the rejection
    /// reason sent back to the client.
    fn validate_hello(&self, hello: &HelloMsg) -> Option<String> {
        if hello.version != PROTOCOL_VERSION {
            return Some(format!(
                "protocol version mismatch: server speaks {PROTOCOL_VERSION}, client {}",
                hello.version
            ));
        }
        if hello.pk_n.is_empty() || hello.pk_n.len() > 4096 {
            return Some(format!(
                "public key size {} bytes is outside the accepted range (1..=4096)",
                hello.pk_n.len()
            ));
        }
        if pk_fingerprint(&hello.pk_n) != hello.pk_fingerprint {
            return Some("public-key fingerprint does not match the key bytes".into());
        }
        if hello.factor != self.factor {
            return Some(format!(
                "scaling factor mismatch: server {}, client {}",
                self.factor, hello.factor
            ));
        }
        if hello.n_stages as usize != self.stages.len() || hello.topology != self.topology {
            return Some(format!(
                "model topology mismatch: server digest {:#018x} ({} stages), \
                 client digest {:#018x} ({} stages)",
                self.topology,
                self.stages.len(),
                hello.topology,
                hello.n_stages
            ));
        }
        None
    }

    fn build_linear_execs(&self, pk: &PublicKey) -> Vec<LinearStage> {
        let perms = Arc::new(PermStore::default());
        let n_linear = self.stages.iter().filter(|s| s.role == StageRole::Linear).count();
        let mut linear_idx = 0usize;
        let mut execs = Vec::with_capacity(n_linear);
        for (i, stage) in self.stages.iter().enumerate() {
            if stage.role != StageRole::Linear {
                continue;
            }
            execs.push(LinearStage {
                pk: pk.clone(),
                stage: stage.clone(),
                linear_idx,
                is_first: linear_idx == 0,
                is_last: linear_idx == n_linear - 1,
                perms: Arc::clone(&perms),
                mode: PartitionMode::Partitioned,
                seed: self.seed ^ 0x11AE ^ (i as u64) << 8,
                intra_bytes: Arc::new(AtomicU64::new(0)),
            });
            linear_idx += 1;
        }
        execs
    }
}

/// Knobs for [`ModelProvider::serve_forever`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Shard threads: each multiplexes its share of the connections, so
    /// this bounds the serving threads, not the sessions served.
    pub max_workers: usize,
    /// Admission control: with `Some(cap)`, a connection arriving while
    /// `cap` sessions are already being served is answered with a
    /// [`RejectCode::Busy`] reply (carrying [`retry_after`] as the
    /// backoff hint) and closed. `None` means no cap.
    ///
    /// [`retry_after`]: ServeOptions::retry_after
    pub max_sessions: Option<usize>,
    /// Backoff hint sent with every busy rejection.
    pub retry_after: Duration,
    /// Cross-session batching window: linear-round jobs from different
    /// sessions arriving within this window are coalesced into one
    /// fused pool dispatch. `Duration::ZERO` (default) disables
    /// coalescing — every job executes inline on its shard, which
    /// preserves strict per-session serving order and is the right
    /// choice below ~a few dozen concurrent sessions.
    pub gather_window: Duration,
    /// Crash journal for the session table
    /// ([`ModelProvider::open_journal`] is called at serve start).
    /// `None` (default) keeps the table purely in-memory.
    /// [`JournalConfig::from_env`] reads `PP_JOURNAL_DIR` /
    /// `PP_JOURNAL_FSYNC` for the binaries.
    pub journal: Option<JournalConfig>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_workers: 4,
            max_sessions: None,
            retry_after: Duration::from_millis(25),
            gather_window: Duration::ZERO,
            journal: None,
        }
    }
}

// ---------------------------------------------------------------------------
// The multi-client serving driver
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod ev {
    //! The serving event loop of DESIGN.md §9: one acceptor thread plus
    //! `max_workers` shard threads, each multiplexing its share of
    //! nonblocking connections over a [`Poller`]. Every connection runs
    //! the same state machine as the blocking `handle_conn` shell
    //! (`open_conn`/`on_frame`/`on_exec_done`); the loop only decides
    //! *when* frames are absorbed and *where* admitted jobs execute —
    //! inline on the shard, or coalesced with other sessions' jobs by
    //! the gather-window batcher.

    use super::*;
    use crate::evloop::{FrameReader, Poller, Waker, WriteBuf};
    use std::io::Read;
    use std::os::fd::AsRawFd;

    /// Pause after a failed `accept` (fd exhaustion, typically) so a
    /// persistent failure cannot spin the acceptor.
    const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

    /// Token 0 is a loop's waker; the acceptor's listener and the
    /// shards' connections start above it.
    const WAKER_TOKEN: u64 = 0;
    const LISTENER_TOKEN: u64 = 1;

    /// Handle on a running [`ModelProvider::serve_forever`] loop.
    pub struct ServerHandle {
        stop: Arc<AtomicBool>,
        addr: SocketAddr,
        thread: std::thread::JoinHandle<ServeReport>,
        /// The acceptor's and the shards' wakers: `shutdown` fires them
        /// so every loop observes the stop flag immediately.
        wakers: Vec<Waker>,
    }

    impl ServerHandle {
        /// The bound listening address (useful with `127.0.0.1:0`).
        pub fn addr(&self) -> SocketAddr {
            self.addr
        }

        /// Stops accepting, drains in-flight connections, and returns the
        /// aggregated report.
        pub fn shutdown(self) -> ServeReport {
            self.stop.store(true, Ordering::Relaxed);
            for waker in &self.wakers {
                waker.wake();
            }
            self.thread.join().unwrap_or_else(|_| ServeReport {
                last_error: Some("serve_forever supervisor panicked".into()),
                ..Default::default()
            })
        }
    }

    /// Work handed from the acceptor to a shard (always followed by a
    /// wakeup on the shard's waker).
    enum ShardCmd {
        /// Serve this connection; it holds an admission slot.
        Serve(TcpStream),
        /// Drain one frame, answer Busy, close. No slot held.
        RejectBusy { stream: TcpStream, active: usize },
    }

    /// A linear-round job on its way to the cross-session batcher.
    struct BatchJob {
        shard: usize,
        conn: u64,
        job: ExecJob,
    }

    /// A finished batched execution routed back to its owning shard.
    struct ExecDone {
        conn: u64,
        done: JobDone,
    }

    /// What a shard-owned connection is currently doing.
    enum EvPhase {
        /// Waiting for the opening Hello/Resume frame.
        AwaitFirst,
        /// Serving the session's linear rounds.
        Serving(Box<ConnState>),
        /// Admission-control refusal: drain the hello, reply Busy, close.
        RejectBusy { active: usize },
    }

    /// One nonblocking connection multiplexed by a shard.
    struct EvConn {
        stream: TcpStream,
        reader: FrameReader,
        wbuf: WriteBuf,
        phase: EvPhase,
        /// Write interest currently registered with the poller.
        want_write: bool,
        /// Whether this connection holds an admission slot.
        holds_slot: bool,
        /// Close once the write buffer drains (reject / Bye paths).
        close_after_flush: bool,
        /// The peer half-closed; resolve buffered work, then close.
        read_eof: bool,
        /// A linear round is at the batcher; later frames stay buffered
        /// so per-session ordering is untouched by batching.
        exec_inflight: bool,
        /// The connection is dropped if its peer has sent nothing by
        /// this instant. Busy rejections get [`REJECT_DRAIN_BOUND`] in
        /// total, so a slow-loris flood of silent hellos occupies fds
        /// only briefly; served connections get
        /// [`TcpConfig::read_timeout`] (`None` = wait forever), re-armed
        /// by every byte read and every finished execution, and not
        /// enforced while a round is at the batcher.
        read_deadline: Option<Instant>,
        /// Buffered bytes (decode buffer + reply backlog) currently
        /// charged against the governor's global memory budget.
        charged: usize,
    }

    impl EvConn {
        fn queue(&mut self, replies: &[Reply]) {
            for r in replies {
                self.wbuf.queue(&r.payload);
            }
        }

        /// The read deadline, unless a round is at the batcher: the
        /// peer is then waiting on us, not the other way round.
        fn enforced_deadline(&self) -> Option<Instant> {
            if self.exec_inflight {
                None
            } else {
                self.read_deadline
            }
        }
    }

    struct Shard {
        provider: Arc<ModelProvider>,
        poller: Poller,
        waker: Waker,
        cmd_rx: mpsc::Receiver<ShardCmd>,
        done_rx: mpsc::Receiver<ExecDone>,
        /// `Some` only when a gather window (and thus a batcher) exists.
        job_tx: Option<mpsc::Sender<BatchJob>>,
        id: usize,
        active: Arc<AtomicUsize>,
        stop: Arc<AtomicBool>,
        retry_after: Duration,
        conns: HashMap<u64, EvConn>,
        next_token: u64,
        report: ServeReport,
    }

    impl Shard {
        fn run(mut self) -> ServeReport {
            let mut events = Vec::new();
            loop {
                while let Ok(cmd) = self.cmd_rx.try_recv() {
                    self.admit(cmd);
                }
                while let Ok(done) = self.done_rx.try_recv() {
                    self.finish_exec(done);
                }
                if self.stop.load(Ordering::Relaxed) && self.conns.is_empty() {
                    return self.report;
                }
                let timeout = self
                    .conns
                    .values()
                    .filter_map(EvConn::enforced_deadline)
                    .min()
                    .map(|d| d.saturating_duration_since(Instant::now()));
                if self.poller.wait(&mut events, timeout).is_err() {
                    self.report.last_error = Some("shard: event wait failed".into());
                    return self.report;
                }
                for &ev in &events {
                    if ev.token == WAKER_TOKEN {
                        self.waker.drain();
                        continue;
                    }
                    if ev.writable {
                        self.flush_now(ev.token);
                    }
                    if ev.readable {
                        self.read_conn(ev.token);
                    }
                    self.enforce_budgets(ev.token);
                }
                self.sweep_read_deadlines();
            }
        }

        fn admit(&mut self, cmd: ShardCmd) {
            let (stream, phase, holds_slot, read_deadline) = match cmd {
                ShardCmd::Serve(stream) => {
                    (stream, EvPhase::AwaitFirst, true, self.provider.read_deadline())
                }
                ShardCmd::RejectBusy { stream, active } => (
                    stream,
                    EvPhase::RejectBusy { active },
                    false,
                    Some(Instant::now() + REJECT_DRAIN_BOUND),
                ),
            };
            let token = self.next_token;
            self.next_token += 1;
            let registered = stream
                .set_nonblocking(true)
                .and_then(|()| stream.set_nodelay(true))
                .and_then(|()| self.poller.add(stream.as_raw_fd(), token, false));
            if let Err(e) = registered {
                if holds_slot {
                    self.active.fetch_sub(1, Ordering::Relaxed);
                }
                self.report.failed_connections += 1;
                self.report.last_error = Some(format!("setup: nonblocking connection: {e}"));
                return;
            }
            // Unauthenticated connections read under the governor's
            // small pre-auth frame cap; the ceiling rises to the
            // negotiated limit once the handshake is accepted.
            let mut reader = FrameReader::new(self.provider.tcp.validate_seq);
            reader.set_max_frame(self.provider.governor.config.pre_auth_ceiling());
            self.conns.insert(
                token,
                EvConn {
                    stream,
                    reader,
                    wbuf: WriteBuf::new(),
                    phase,
                    want_write: false,
                    holds_slot,
                    close_after_flush: false,
                    read_eof: false,
                    exec_inflight: false,
                    read_deadline,
                    charged: 0,
                },
            );
        }

        /// Reads until `WouldBlock` (or a short read — the level-triggered
        /// poller re-reports leftovers), then advances the state machine
        /// over every complete buffered frame.
        fn read_conn(&mut self, token: u64) {
            let mut scratch = [0u8; 16 * 1024];
            loop {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if conn.read_eof || conn.close_after_flush {
                    break;
                }
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.read_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.reader.extend_from(&scratch[..n]);
                        // A busy rejection's drain bound is total: a
                        // dribbled hello must not extend it.
                        if !matches!(conn.phase, EvPhase::RejectBusy { .. }) {
                            conn.read_deadline = self.provider.read_deadline();
                        }
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => {
                        let e = StreamError::transport(
                            TransportErrorKind::Recv,
                            format!("tcp recv: {e}"),
                        );
                        return self.fail_stream(token, e);
                    }
                }
            }
            self.advance(token);
        }

        /// Feeds buffered frames through the state machine until it
        /// needs more bytes, a job goes in flight, or the connection is
        /// closing; then resolves EOF and flushes.
        fn advance(&mut self, token: u64) {
            loop {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if conn.exec_inflight || conn.close_after_flush {
                    break;
                }
                match conn.reader.next_frame() {
                    Ok(Some(frame)) => {
                        if !self.absorb_frame(token, frame) {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let e = self.provider.classify_recv(e, &mut self.report);
                        return self.fail_stream(token, e);
                    }
                }
            }
            self.after_read(token);
        }

        /// Runs one decoded frame through the connection state machine.
        /// Returns `false` when the connection was torn down.
        fn absorb_frame(&mut self, token: u64, frame: Frame) -> bool {
            let Some(conn) = self.conns.get_mut(&token) else { return false };
            if let EvPhase::RejectBusy { active } = conn.phase {
                // The drained hello and the Busy reply stay uncounted
                // (the acceptor already counted the rejection), so busy
                // floods don't skew frame/byte accounting.
                conn.wbuf.queue(&to_frame(&RejectMsg::busy(
                    format!("server at capacity ({active} active sessions)"),
                    self.retry_after.as_millis() as u64,
                )));
                conn.close_after_flush = true;
                return true;
            }
            self.report.frames_in += 1;
            self.report.bytes_in += frame.payload.len() as u64;
            let EvPhase::Serving(state) = &mut conn.phase else {
                let (replies, opened) = self.provider.open_conn(frame.payload, &mut self.report);
                conn.queue(&replies);
                match opened {
                    Opened::Serving(state) => {
                        // Handshake accepted: raise the frame ceiling
                        // from the pre-auth cap to what this connection
                        // legitimately negotiated.
                        conn.reader.set_max_frame(state.frame_ceiling);
                        conn.phase = EvPhase::Serving(state);
                    }
                    Opened::Rejected => conn.close_after_flush = true,
                }
                return true;
            };
            let done = match self.provider.on_frame(state, frame, &mut self.report) {
                Ok(FrameDisposition::Continue(replies)) => Ok(replies),
                Ok(FrameDisposition::Clean) => {
                    self.report.clean_shutdown = true;
                    conn.close_after_flush = true;
                    Ok(Vec::new())
                }
                Ok(FrameDisposition::Execute(job)) => match &self.job_tx {
                    // Cross-session batching: park the connection and
                    // ship the job; the batcher wakes us with the outcome.
                    Some(job_tx) => {
                        conn.exec_inflight = true;
                        job_tx
                            .send(BatchJob { shard: self.id, conn: token, job })
                            .map(|()| Vec::new())
                            .map_err(|_| {
                                CoreError::Runtime("batcher unavailable for linear round".into())
                            })
                    }
                    // No gather window: execute inline on the provider
                    // pool, exactly like the blocking shell.
                    None => {
                        let t0 = Instant::now();
                        let done = run_job(job, &self.provider.pool);
                        self.report.exec_ns += t0.elapsed().as_nanos() as u64;
                        conn.read_deadline = self.provider.read_deadline();
                        self.provider.on_exec_done(state, done, &mut self.report)
                    }
                },
                Err(e) => Err(e),
            };
            match done {
                Ok(replies) => {
                    conn.queue(&replies);
                    true
                }
                Err(e) => {
                    self.fail_conn(token, e.to_string());
                    false
                }
            }
        }

        /// Applies a batched execution's outcome, then resumes parsing
        /// the frames that queued behind it.
        fn finish_exec(&mut self, done: ExecDone) {
            let token = done.conn;
            let Some(conn) = self.conns.get_mut(&token) else {
                // The connection failed while its job was in flight.
                return;
            };
            conn.exec_inflight = false;
            conn.read_deadline = self.provider.read_deadline();
            let EvPhase::Serving(state) = &mut conn.phase else { return };
            match self.provider.on_exec_done(state, done.done, &mut self.report) {
                Ok(replies) => conn.queue(&replies),
                Err(e) => return self.fail_conn(token, e.to_string()),
            }
            self.advance(token);
            self.enforce_budgets(token);
        }

        /// Resolves a half-closed peer once nothing is pending, then
        /// flushes. EOF at a frame boundary mirrors the blocking
        /// shell: before the first frame it's a refused handshake,
        /// mid-session it's a silent drop (session stays resumable),
        /// and mid-frame it's a failed connection.
        fn after_read(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.read_eof && !conn.exec_inflight && !conn.close_after_flush {
                if conn.reader.has_partial() {
                    let e = StreamError::transport(
                        TransportErrorKind::Eof,
                        "connection closed mid-frame",
                    );
                    return self.fail_stream(token, e);
                }
                if matches!(conn.phase, EvPhase::AwaitFirst) {
                    self.report.rejected_handshakes += 1;
                }
                conn.close_after_flush = true;
            }
            self.flush_now(token);
        }

        /// Drains the write buffer as far as the socket allows and
        /// keeps the poller's write interest in sync with whether bytes
        /// remain.
        fn flush_now(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            match conn.wbuf.flush(&mut conn.stream) {
                Ok(true) if conn.close_after_flush => self.close_conn(token),
                Ok(drained) => {
                    // Write interest is on exactly while bytes remain.
                    if conn.want_write == drained {
                        conn.want_write = !drained;
                        let _ = self.poller.modify(conn.stream.as_raw_fd(), token, !drained);
                    }
                }
                Err(e) => {
                    let e =
                        StreamError::transport(TransportErrorKind::Send, format!("tcp send: {e}"));
                    self.fail_stream(token, e);
                }
            }
        }

        /// Closes every connection whose peer stayed silent past its
        /// read deadline — for a served connection, what the blocking
        /// shell's `recv` timeout is.
        fn sweep_read_deadlines(&mut self) {
            let now = Instant::now();
            let expired: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.enforced_deadline().is_some_and(|d| d <= now))
                .map(|(&t, _)| t)
                .collect();
            for token in expired {
                let e = StreamError::transport(
                    TransportErrorKind::Timeout,
                    "tcp recv: nothing received within the read timeout",
                );
                self.fail_stream(token, e);
            }
        }

        /// Ends a connection on a transport error. A served connection
        /// fails, the error labelled like the blocking shell's
        /// `at_stage` contexts by what the connection was waiting for
        /// (its session stays resumable); a busy rejection, or one only
        /// waiting to flush a farewell, is best-effort and closes
        /// silently.
        fn fail_stream(&mut self, token: u64, e: StreamError) {
            let stage = match self.conns.get(&token) {
                None => return,
                Some(c) if c.close_after_flush => return self.close_conn(token),
                Some(c) => match c.phase {
                    EvPhase::RejectBusy { .. } => return self.close_conn(token),
                    EvPhase::AwaitFirst => "handshake",
                    EvPhase::Serving(_) => "linear request",
                },
            };
            self.fail_conn(token, CoreError::from(e.at_stage(stage)).to_string());
        }

        /// Re-states this connection's buffered footprint against the
        /// governor's global budget and evicts it as a slow consumer
        /// when its reply backlog crossed the per-connection cap — the
        /// peer completed a handshake but stopped reading replies. The
        /// eviction is *clean*: the connection closes, the session
        /// entry survives, and a journal-backed resume picks the work
        /// back up ([`ServeReport::evicted_slow`]).
        fn enforce_budgets(&mut self, token: u64) {
            let (old, footprint, backlog, serving) = {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                let backlog = conn.wbuf.pending_len();
                let footprint = conn.reader.buffered_len() + backlog;
                let old = conn.charged;
                conn.charged = footprint;
                (old, footprint, backlog, matches!(conn.phase, EvPhase::Serving(_)))
            };
            self.provider.governor.recharge(old, footprint);
            if serving && backlog > self.provider.governor.config.write_backlog {
                self.report.evicted_slow += 1;
                self.report.last_error = Some(format!(
                    "slow consumer evicted: {backlog} reply bytes backlogged \
                     (cap {})",
                    self.provider.governor.config.write_backlog
                ));
                self.close_conn(token);
            }
        }

        fn fail_conn(&mut self, token: u64, detail: String) {
            self.report.failed_connections += 1;
            self.report.last_error = Some(detail);
            self.close_conn(token);
        }

        fn close_conn(&mut self, token: u64) {
            if let Some(conn) = self.conns.remove(&token) {
                self.provider.governor.release(conn.charged);
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                if conn.holds_slot {
                    self.active.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The cross-session batcher: gathers jobs arriving within
    /// `window` of the first, executes them as **one** pool dispatch
    /// (each item runs on an inline pool — a nested dispatch onto the
    /// shared pool would deadlock), and routes outcomes back to their
    /// shards. Coalescing changes only *scheduling*: each item still
    /// runs its own deterministic per-element execution, so replies are
    /// bit-identical to per-session serving.
    fn run_batcher(
        provider: Arc<ModelProvider>,
        job_rx: mpsc::Receiver<BatchJob>,
        done_txs: Vec<(mpsc::Sender<ExecDone>, Waker)>,
        window: Duration,
    ) -> ServeReport {
        let mut report = ServeReport::default();
        while let Ok(first) = job_rx.recv() {
            let mut jobs = vec![first];
            let deadline = Instant::now() + window;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match job_rx.recv_timeout(deadline - now) {
                    Ok(j) => jobs.push(j),
                    Err(_) => break,
                }
            }
            let n = jobs.len();
            let mut routes = Vec::with_capacity(n);
            let slots: Arc<Vec<Mutex<Option<ExecJob>>>> = Arc::new(
                jobs.into_iter()
                    .map(|b| {
                        routes.push((b.shard, b.conn));
                        Mutex::new(Some(b.job))
                    })
                    .collect(),
            );
            let taken = Arc::clone(&slots);
            let t0 = Instant::now();
            let outs: Vec<JobDone> = provider.pool.map_ranges(n, move |range| {
                let inline = WorkerPool::inline();
                // Poison-audit: this `expect` cannot fire — `map_ranges`
                // partitions `0..n` disjointly, so each slot is taken
                // exactly once — and replacing it with a skip would
                // silently misalign `outs` against `routes` below
                // (outcomes routed to the wrong connections). The slot
                // mutex is parking_lot, so a panicked worker can't
                // poison it for the others either.
                range
                    .map(|i| run_job(taken[i].lock().take().expect("each job taken once"), &inline))
                    .collect()
            });
            report.exec_ns += t0.elapsed().as_nanos() as u64;
            report.batched_rounds += 1;
            report.batched_items += n as u64;
            let mut woken: HashSet<usize> = HashSet::new();
            for ((shard, conn), done) in routes.into_iter().zip(outs) {
                if done_txs[shard].0.send(ExecDone { conn, done }).is_ok() {
                    woken.insert(shard);
                }
            }
            for s in woken {
                done_txs[s].1.wake();
            }
        }
        report
    }

    impl ModelProvider {
        /// Supervised multi-client serving: accepts connections on
        /// `listener` until [`ServerHandle::shutdown`].
        ///
        /// Runs the readiness-driven event loop of DESIGN.md §9: one
        /// acceptor plus [`ServeOptions::max_workers`] shard threads
        /// multiplexing nonblocking sockets over `poll(2)`, so an idle
        /// session costs a registered fd instead of a parked thread and
        /// shutdown is a wakeup. [`ServeOptions::gather_window`]
        /// additionally coalesces linear rounds from *different*
        /// sessions into fused dispatches.
        ///
        /// A per-connection panic or error is isolated and counted. A
        /// connection that sends nothing for [`TcpConfig::read_timeout`]
        /// is dropped (its session stays resumable), and shutdown stops
        /// accepting then drains in-flight connections — so with no read
        /// timeout configured it waits for every client to close.
        pub fn serve_forever(
            self: &Arc<Self>,
            listener: TcpListener,
            options: ServeOptions,
        ) -> Result<ServerHandle, CoreError> {
            let setup = |what: &str, e| io_failure(TransportErrorKind::Setup, what, e);
            let addr = listener
                .local_addr()
                .map_err(|e| io_failure(TransportErrorKind::Bind, "local addr", e))?;
            listener.set_nonblocking(true).map_err(|e| setup("nonblocking listener", e))?;
            if let Some(cfg) = &options.journal {
                // A journal opened directly via `open_journal` (e.g. to
                // inspect the restored-session count first) stays armed;
                // only open here if nobody did.
                if self.sessions.journal.lock().is_none() {
                    self.open_journal(cfg)?;
                }
            }
            // Every waker and registration exists before the supervisor
            // thread spawns, so a set-up failure is this call's error and
            // `ServerHandle::shutdown` can interrupt the waits at once:
            // one waker for the acceptor, one per shard.
            let n_shards = options.max_workers.max(1);
            let wakers = (0..=n_shards)
                .map(|_| Waker::new())
                .collect::<std::io::Result<Vec<Waker>>>()
                .map_err(|e| setup("event-loop waker", e))?;
            let mut pollers = Vec::with_capacity(wakers.len());
            for waker in &wakers {
                let poller = Poller::new();
                poller
                    .add(waker.raw_fd(), WAKER_TOKEN, false)
                    .map_err(|e| setup("register waker", e))?;
                pollers.push(poller);
            }
            pollers[0]
                .add(listener.as_raw_fd(), LISTENER_TOKEN, false)
                .map_err(|e| setup("register listener", e))?;

            let stop = Arc::new(AtomicBool::new(false));
            let thread = {
                let provider = Arc::clone(self);
                let (stop, wakers) = (Arc::clone(&stop), wakers.clone());
                std::thread::spawn(move || {
                    provider.run_acceptor(listener, options, stop, wakers, pollers)
                })
            };
            Ok(ServerHandle { stop, addr, thread, wakers })
        }

        /// A fresh read deadline for a served connection
        /// ([`TcpConfig::read_timeout`] from now; `None` = no deadline).
        fn read_deadline(&self) -> Option<Instant> {
            self.tcp.read_timeout.map(|t| Instant::now() + t)
        }

        /// The supervisor behind `serve_forever`: acceptor here, shards
        /// and batcher on their own threads. `wakers[0]`/`pollers[0]`
        /// are the acceptor's, the rest one per shard.
        fn run_acceptor(
            self: Arc<Self>,
            listener: TcpListener,
            options: ServeOptions,
            stop: Arc<AtomicBool>,
            wakers: Vec<Waker>,
            mut pollers: Vec<Poller>,
        ) -> ServeReport {
            let shard_pollers = pollers.split_off(1);
            let n_shards = shard_pollers.len();
            let poller = pollers.remove(0);

            let active = Arc::new(AtomicUsize::new(0));
            let gather = options.gather_window;
            let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
            let mut cmd_txs = Vec::with_capacity(n_shards);
            let mut done_txs = Vec::with_capacity(n_shards);
            let mut shards = Vec::with_capacity(n_shards);
            for (id, shard_poller) in shard_pollers.into_iter().enumerate() {
                let (cmd_tx, cmd_rx) = mpsc::channel();
                let (done_tx, done_rx) = mpsc::channel();
                cmd_txs.push(cmd_tx);
                done_txs.push((done_tx, wakers[id + 1].clone()));
                let shard = Shard {
                    provider: Arc::clone(&self),
                    poller: shard_poller,
                    waker: wakers[id + 1].clone(),
                    cmd_rx,
                    done_rx,
                    job_tx: (gather > Duration::ZERO).then(|| job_tx.clone()),
                    id,
                    active: Arc::clone(&active),
                    stop: Arc::clone(&stop),
                    retry_after: options.retry_after,
                    conns: HashMap::new(),
                    next_token: 1,
                    report: ServeReport::default(),
                };
                shards.push(std::thread::spawn(move || shard.run()));
            }
            drop(job_tx);
            let batcher = (gather > Duration::ZERO).then(|| {
                let provider = Arc::clone(&self);
                std::thread::spawn(move || run_batcher(provider, job_rx, done_txs, gather))
            });

            let mut report = ServeReport::default();
            let mut events = Vec::new();
            let mut rr = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if poller.wait(&mut events, None).is_err() {
                    report.last_error = Some("acceptor: event wait failed".into());
                    break;
                }
                if events.iter().any(|e| e.token == WAKER_TOKEN) {
                    wakers[0].drain();
                }
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            report.connections += 1;
                            // Admission control: the session cap and the
                            // governor's global memory budget both
                            // busy-reject — clients retry/fail over the
                            // same way for either.
                            let over_budget = self.governor.over_budget();
                            let at_cap = options
                                .max_sessions
                                .is_some_and(|cap| active.load(Ordering::Relaxed) >= cap)
                                || over_budget;
                            let holds_slot = !at_cap;
                            let cmd = if at_cap {
                                if over_budget {
                                    report.budget_rejected += 1;
                                } else {
                                    report.rejected_busy += 1;
                                }
                                ShardCmd::RejectBusy {
                                    stream,
                                    active: active.load(Ordering::Relaxed),
                                }
                            } else {
                                active.fetch_add(1, Ordering::Relaxed);
                                ShardCmd::Serve(stream)
                            };
                            let shard = rr % n_shards;
                            rr += 1;
                            if cmd_txs[shard].send(cmd).is_ok() {
                                wakers[shard + 1].wake();
                            } else {
                                if holds_slot {
                                    active.fetch_sub(1, Ordering::Relaxed);
                                }
                                report.failed_connections += 1;
                                report.last_error = Some("shard unavailable for accept".into());
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => {
                            report.failed_connections += 1;
                            report.last_error = Some(format!("accept: {e}"));
                            // Readiness is level-triggered, so nothing
                            // is lost by pausing.
                            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                            break;
                        }
                    }
                }
            }

            // Drain: closing the command channels plus one wakeup per
            // shard lets each shard observe the stop flag immediately,
            // finish its live connections, and return its counters.
            drop(cmd_txs);
            for w in &wakers[1..] {
                w.wake();
            }
            for handle in shards {
                match handle.join() {
                    Ok(shard_report) => report.merge(&shard_report),
                    Err(_) => report.panicked_connections += 1,
                }
            }
            if let Some(handle) = batcher {
                if let Ok(batch_report) = handle.join() {
                    report.merge(&batch_report);
                }
            }
            report
        }
    }
}

// ---------------------------------------------------------------------------
// Data provider (client)
// ---------------------------------------------------------------------------

/// One protocol step as seen from the client: a socket round trip to the
/// server's next linear stage, or a local non-linear stage.
enum ClientStep {
    Linear { round: usize },
    NonLinear(Box<NonLinearStage>),
}

/// Transient transport failures the resume loop recovers from; protocol
/// violations (handshake, seq, decode, stage) stay fatal.
fn is_transient(e: &StreamError) -> bool {
    matches!(
        e,
        StreamError::Transport {
            kind: TransportErrorKind::Send
                | TransportErrorKind::Recv
                | TransportErrorKind::Timeout
                | TransportErrorKind::Eof
                | TransportErrorKind::Connect,
            ..
        }
    )
}

/// Backoff before retrying a Busy-rejected connect: the server's
/// `retry_after_ms` hint, clamped into the retry policy's delay range.
fn busy_backoff(retry: &pp_stream_runtime::RetryPolicy, hint_ms: u64) -> Duration {
    let floor = retry.base_delay.min(retry.max_delay);
    Duration::from_millis(hint_ms).clamp(floor, retry.max_delay.max(floor))
}

/// Connects to the first reachable provider address, sweeping the
/// ordered list starting at `preferred` (wrapping). One bare attempt
/// per address per sweep, with the retry policy's backoff *between*
/// sweeps — so a down primary costs one refused connect before the next
/// replica is tried, and `retry.max_attempts` bounds whole-list sweeps
/// exactly as it bounds single-address attempts today. Returns the
/// framed halves, the index that answered, and the individual connect
/// attempts spent.
fn connect_sweep(
    addrs: &[SocketAddr],
    preferred: usize,
    config: &TcpConfig,
) -> Result<(TcpFrameSender, TcpFrameReceiver, usize, u32), StreamError> {
    let sweeps = config.retry.max_attempts.max(1);
    // Jitter seed: decorrelate processes without pulling in a rand dep.
    let seed = std::process::id() as u64 ^ 0x5bd1_e995_9950_57ea;
    let single = TcpConfig {
        retry: pp_stream_runtime::RetryPolicy::no_retry(),
        ..config.clone()
    };
    let mut attempts = 0u32;
    let mut last_err = None;
    for sweep in 1..=sweeps {
        let delay = config.retry.delay_before(sweep, seed);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        for offset in 0..addrs.len() {
            let idx = (preferred + offset) % addrs.len();
            attempts += 1;
            match tcp::connect_with(addrs[idx], &single) {
                Ok(c) => return Ok((c.tx, c.rx, idx, attempts)),
                Err(e) => last_err = Some(e),
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        StreamError::transport(TransportErrorKind::Connect, "no provider addresses")
    }))
}

/// Placeholder halves installed while a reconnect is in flight, so the
/// dead socket drops (and the server sees its EOF) *before* the resume
/// handshake waits on a reply.
struct DeadHalf;

fn dead_err() -> StreamError {
    StreamError::transport(TransportErrorKind::Eof, "connection torn down for reconnect")
}

impl FrameSender for DeadHalf {
    fn send(&mut self, _frame: &Frame) -> Result<(), StreamError> {
        Err(dead_err())
    }
    fn send_payload(&mut self, _payload: Bytes) -> Result<u64, StreamError> {
        Err(dead_err())
    }
    fn send_payload_deadline(
        &mut self,
        _payload: Bytes,
        _deadline_ms: Option<u64>,
    ) -> Result<u64, StreamError> {
        Err(dead_err())
    }
}

impl FrameReceiver for DeadHalf {
    fn recv(&mut self) -> Result<Option<Frame>, StreamError> {
        Err(dead_err())
    }
}

/// The data-provider client: a connected, handshaken session against a
/// [`ModelProvider`], with transparent reconnect-and-resume.
pub struct NetworkedSession {
    tx: Box<dyn FrameSender>,
    rx: Box<dyn FrameReceiver>,
    /// Ordered provider addresses; `addrs[addr_idx]` is serving now.
    addrs: Vec<SocketAddr>,
    addr_idx: usize,
    tcp: TcpConfig,
    scaled: ScaledModel,
    steps: Vec<ClientStep>,
    encrypt: EncryptStage,
    /// Precomputed `r^n` blinding factors, refilled per stream off the
    /// request path (shared with `encrypt`).
    rand_pool: Arc<Mutex<RandomnessPool>>,
    pool: WorkerPool,
    transport: TransportReport,
    session: u64,
    /// Items fully delivered to the caller; doubles as the next item's
    /// request seq, so a second `infer_stream` call keeps seqs unique
    /// and the exactly-once floor intact.
    items_done: u64,
    topology: u64,
    fingerprint: u64,
    max_resumes: u32,
    /// Per-item end-to-end budget ([`NetConfig::item_deadline`]).
    item_deadline: Option<Duration>,
    /// Stall-watchdog window on linear replies
    /// ([`NetConfig::stall_window`]).
    stall_window: Option<Duration>,
    /// The packed-ciphertext layout negotiated at connect, or `None`
    /// when the stream runs per-item (declined, disabled, or dropped
    /// after a resume — resumed connections are always unpacked).
    packing: Option<PackingSpec>,
    /// Requested members per packed batch ([`NetConfig::pack_batch`];
    /// 0 fills every slot the negotiated layout offers).
    pack_batch: usize,
    fault: FaultHook,
}

/// How one item of a partial stream ended — see
/// [`NetworkedSession::infer_stream_partial`].
#[derive(Clone, Debug)]
pub enum ItemOutcome {
    /// The item completed; the scaled output tensor.
    Done(Tensor<i64>),
    /// The item failed individually (shed, expired, or quarantined)
    /// while the session survived. The item was **resolved**: its seq is
    /// acked and it will never be retried by this session.
    Failed {
        /// Which overload outcome failed the item.
        kind: ItemErrorKind,
        /// Human-readable detail from the failing side.
        detail: String,
    },
}

impl ItemOutcome {
    /// The output tensor, if the item completed.
    pub fn output(&self) -> Option<&Tensor<i64>> {
        match self {
            ItemOutcome::Done(t) => Some(t),
            ItemOutcome::Failed { .. } => None,
        }
    }
}

/// Internal per-item result: completed output, or a per-item failure
/// that resolves the item without failing the session.
enum ItemResult {
    Output(PlainTensorMsg),
    Failed { kind: ItemErrorKind, detail: String },
}

/// How one packed round set ended: every member's plaintext output, or
/// an instruction to replay the members unpacked. `reset` asks for a
/// reconnect first — the server may still hold batch round state (and
/// stored permutations) that only a connection teardown releases.
enum PackedRoundOutcome {
    Done(Vec<PlainTensorMsg>),
    Fallback { reset: bool },
}

/// Converts a resolved item into the caller-facing outcome. In strict
/// mode a per-item failure errors the whole call.
fn outcome_from(result: ItemResult, seq: u64, strict: bool) -> Result<ItemOutcome, CoreError> {
    match result {
        ItemResult::Output(out) => {
            let shape: Vec<usize> = out.shape.iter().map(|&d| d as usize).collect();
            let values = out
                .values
                .iter()
                .map(|&v| {
                    i64::try_from(v).map_err(|_| {
                        CoreError::Runtime(format!(
                            "final logit {v} for request {seq} does not fit i64"
                        ))
                    })
                })
                .collect::<Result<Vec<i64>, CoreError>>()?;
            Ok(ItemOutcome::Done(
                Tensor::from_vec(shape, values).map_err(|e| CoreError::Runtime(e.to_string()))?,
            ))
        }
        ItemResult::Failed { kind, detail } => {
            if strict {
                return Err(CoreError::Runtime(format!(
                    "request {seq} failed ({kind:?}): {detail}"
                )));
            }
            Ok(ItemOutcome::Failed { kind, detail })
        }
    }
}

impl NetworkedSession {
    /// Connects (with the configured retry/backoff), generates the
    /// Paillier keypair, and performs the deployment handshake. A server
    /// rejection or a version/echo mismatch surfaces as
    /// `Transport { kind: Handshake, .. }`.
    pub fn connect(
        addr: impl ToSocketAddrs,
        scaled: ScaledModel,
        config: &NetConfig,
    ) -> Result<Self, CoreError> {
        Self::connect_any(&[addr], scaled, config)
    }

    /// As [`connect`](NetworkedSession::connect), but with an *ordered*
    /// list of provider addresses: the first is preferred, and every
    /// connect or resume failure against the current address fails over
    /// to the next (wrapping), so a restarted provider — or a warm
    /// replica sharing its journal directory — picks the stream up
    /// mid-item. Each failover is counted in
    /// [`TransportReport::failovers`]. The binaries read the list from
    /// comma-separated `PP_PROVIDER_ADDRS`.
    pub fn connect_any<A: ToSocketAddrs>(
        providers: &[A],
        scaled: ScaledModel,
        config: &NetConfig,
    ) -> Result<Self, CoreError> {
        // Resolve once so reconnects don't depend on the generic addrs;
        // list order (= failover priority) is preserved.
        let mut addrs: Vec<SocketAddr> = Vec::new();
        for provider in providers {
            addrs.extend(provider.to_socket_addrs().map_err(|e| {
                CoreError::from(StreamError::transport(
                    TransportErrorKind::Connect,
                    format!("resolve peer address: {e}"),
                ))
            })?);
        }
        if addrs.is_empty() {
            return Err(CoreError::from(StreamError::transport(
                TransportErrorKind::Connect,
                "no provider addresses resolved",
            )));
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let keypair = Keypair::generate(config.key_bits, &mut rng);
        let stages = encapsulate_with(&scaled, config.merge_stages)?;
        let topology = topology_digest(&stages, scaled.factor());

        let pk_n = keypair.public().n().to_bytes_be();
        let fingerprint = pk_fingerprint(&pk_n);
        // Propose a packed-ciphertext layout sized for this key and
        // model (the op budget covers the worst linear stage). An
        // infeasible proposal silently degrades to per-item streaming.
        let packing = if config.pack_slot_bits > 0 {
            PackingSpec::for_key(&keypair.public(), config.pack_slot_bits)
                .map(|s| s.with_budget(packed::required_budget(&stages)))
                .and_then(|s| s.check().map(|()| s))
                .ok()
        } else {
            None
        };
        let hello = to_frame(&HelloMsg {
            version: PROTOCOL_VERSION,
            pk_n,
            pk_fingerprint: fingerprint,
            topology,
            n_stages: stages.len() as u32,
            factor: scaled.factor(),
            pack_slot_bits: packing.map_or(0, |s| s.slot_bits as u32),
            pack_slots: packing.map_or(0, |s| s.slots as u32),
            pack_budget: packing.map_or(0, |s| s.op_budget),
        });

        let mut transport = TransportReport::default();
        // Busy-rejection backoff: an admission-controlled server answers
        // the hello with `Reject { code: Busy, retry_after_ms }`. Honor
        // the hint and retry within the connect retry budget instead of
        // treating the rejection as fatal.
        let mut attempt = 0u32;
        let mut addr_idx = 0usize;
        let (tx, rx, session, accepted_slot_bits) = loop {
            attempt += 1;
            let (mut tx, mut rx, idx, attempts) =
                connect_sweep(&addrs, addr_idx, &config.tcp).map_err(CoreError::from)?;
            transport.connect_attempts += attempts;
            if idx != addr_idx {
                // The preferred provider was unreachable; a lower-
                // priority address answered instead.
                transport.failovers += 1;
                addr_idx = idx;
            }
            transport.bytes_sent += hello.len() as u64;
            transport.frames_sent += 1;
            tx.send_payload(hello.clone()).map_err(|e| e.at_stage("handshake hello"))?;

            let reply = rx
                .recv()
                .map_err(|e| e.at_stage("handshake reply"))?
                .ok_or_else(|| handshake_err("server closed without answering hello"))?;
            transport.bytes_received += reply.payload.len() as u64;
            transport.frames_received += 1;
            match crate::messages::peek_tag(&reply.payload) {
                Some(MsgTag::Accept) => {
                    let accept: AcceptMsg = from_frame(reply.payload).map_err(CoreError::from)?;
                    if accept.version != PROTOCOL_VERSION
                        || accept.pk_fingerprint != fingerprint
                        || accept.topology != topology
                    {
                        return Err(CoreError::from(handshake_err(
                            "server accept did not echo the agreed parameters",
                        )));
                    }
                    break (tx, rx, accept.session, accept.pack_slot_bits);
                }
                Some(MsgTag::Reject) => {
                    let reject: RejectMsg = from_frame(reply.payload).map_err(CoreError::from)?;
                    if reject.code == RejectCode::Busy
                        && attempt < config.tcp.retry.max_attempts.max(1)
                    {
                        transport.rejected_busy += 1;
                        std::thread::sleep(busy_backoff(
                            &config.tcp.retry,
                            reject.retry_after_ms,
                        ));
                        continue;
                    }
                    return Err(CoreError::from(handshake_err(format!(
                        "server rejected handshake: {}",
                        reject.reason
                    ))));
                }
                _ => {
                    return Err(CoreError::from(handshake_err(
                        "unexpected reply to hello (neither accept nor reject)",
                    )));
                }
            }
        };

        // The proposal stands only if the server echoed its slot width;
        // an echo of 0 (or anything else) declines packing.
        let packing = packing.filter(|s| accepted_slot_bits as usize == s.slot_bits);

        // Client-side execution plan: socket round trips for linear
        // stages, local executors for the rest (same construction as the
        // in-process session, so results match bit-for-bit).
        let n = stages.len();
        let mut round = 0usize;
        let steps = stages
            .iter()
            .enumerate()
            .map(|(i, stage)| match stage.role {
                StageRole::Linear => {
                    let step = ClientStep::Linear { round };
                    round += 1;
                    step
                }
                StageRole::NonLinear => ClientStep::NonLinear(Box::new(NonLinearStage {
                    keypair: keypair.clone(),
                    stage: stage.clone(),
                    factor: scaled.factor(),
                    is_last: i == n - 1,
                    seed: config.seed ^ 0x2020 ^ (i as u64) << 8,
                })),
            })
            .collect();

        // Fault injection (when configured) wraps only the post-handshake
        // traffic — the recovery path itself stays un-faulted.
        let fault = fault_hook(config);
        let (tx, rx) = wrap_transport(tx, rx, &fault);

        // Seed the blinding-factor pool with the process-wide fixed-base
        // table for this key: reconnects and sibling sessions under the
        // same keypair reuse one comb table instead of rebuilding it.
        let refill_base = pp_paillier::shared_refill_cache().get(&keypair.public());
        let rand_pool =
            Arc::new(Mutex::new(RandomnessPool::with_base(keypair.public(), refill_base)));
        Ok(NetworkedSession {
            tx,
            rx,
            addrs,
            addr_idx,
            tcp: config.tcp.clone(),
            scaled,
            steps,
            encrypt: EncryptStage {
                pk: keypair.public(),
                seed: config.seed ^ 0x0E2C,
                rand_pool: Some(Arc::clone(&rand_pool)),
            },
            rand_pool,
            pool: WorkerPool::new(config.threads.max(1)),
            transport,
            session,
            items_done: 0,
            topology,
            fingerprint,
            max_resumes: config.max_resumes,
            item_deadline: config.item_deadline,
            stall_window: config.stall_window,
            packing,
            pack_batch: config.pack_batch,
            fault,
        })
    }

    /// Transport statistics so far.
    pub fn transport(&self) -> &TransportReport {
        &self.transport
    }

    /// The server-assigned session ID.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Streams inference requests through the deployment (sequentially,
    /// one socket round trip per linear stage), returning the scaled
    /// output tensors and a run report whose
    /// [`transport`](RunReport::transport) field carries the socket-level
    /// statistics. Transient transport failures are absorbed by the
    /// reconnect-and-resume loop; only exhausted retries or protocol
    /// violations surface as errors.
    pub fn infer_stream(
        &mut self,
        inputs: &[Tensor<f64>],
    ) -> Result<(Vec<Tensor<i64>>, RunReport), CoreError> {
        let (outcomes, report) = self.run_stream(inputs, true)?;
        let outputs = outcomes
            .into_iter()
            .map(|o| match o {
                ItemOutcome::Done(t) => t,
                ItemOutcome::Failed { .. } => unreachable!("strict mode errors on failed items"),
            })
            .collect();
        Ok((outputs, report))
    }

    /// As [`infer_stream`](NetworkedSession::infer_stream), but per-item
    /// overload failures (shed, deadline-expired, quarantined) are
    /// returned as [`ItemOutcome::Failed`] entries instead of failing
    /// the whole call — the session keeps streaming the remaining items.
    /// Every item, failed or not, is resolved and acked: a failed item
    /// is never silently retried (a quarantined one must not be).
    pub fn infer_stream_partial(
        &mut self,
        inputs: &[Tensor<f64>],
    ) -> Result<(Vec<ItemOutcome>, RunReport), CoreError> {
        self.run_stream(inputs, false)
    }

    /// Partial-tolerant classification: `None` for items that failed
    /// individually, the predicted class otherwise.
    pub fn classify_stream_partial(
        &mut self,
        inputs: &[Tensor<f64>],
    ) -> Result<(Vec<Option<usize>>, RunReport), CoreError> {
        let (outcomes, report) = self.run_stream(inputs, false)?;
        let classes =
            outcomes.iter().map(|o| o.output().map(pp_nn::activation::argmax_i64)).collect();
        Ok((classes, report))
    }

    /// The shared per-item loop behind the strict and partial streaming
    /// APIs. In strict mode the first per-item failure errors the call;
    /// in partial mode it becomes an [`ItemOutcome::Failed`] entry.
    fn run_stream(
        &mut self,
        inputs: &[Tensor<f64>],
        strict: bool,
    ) -> Result<(Vec<ItemOutcome>, RunReport), CoreError> {
        let t_run = Instant::now();
        // Precompute the stream's worth of `r^n` blinding factors in
        // parallel before the first request, so per-item encryption is a
        // cheap multiply on the request path.
        {
            let need = inputs.len() * self.scaled.input_shape().len();
            self.rand_pool.lock().refill_parallel(need, &self.pool, self.encrypt.seed ^ 0x5EED);
        }
        let mut latencies = Vec::with_capacity(inputs.len());
        let mut outcomes = Vec::with_capacity(inputs.len());

        let mut idx = 0usize;
        while idx < inputs.len() {
            let remaining = inputs.len() - idx;
            // Chunk size under the negotiated packing (1 = per-item): a
            // lone trailing item always travels unpacked — packing it
            // would cost the batch protocol for no amortization.
            let batch = match self.packing {
                Some(spec) => {
                    let want =
                        if self.pack_batch == 0 { spec.slots } else { self.pack_batch.min(spec.slots) };
                    want.min(remaining)
                }
                None => 1,
            };
            if batch >= 2 {
                let t0 = Instant::now();
                let base = self.items_done;
                let plains: Vec<PlainTensorMsg> = inputs[idx..idx + batch]
                    .iter()
                    .enumerate()
                    .map(|(j, input)| {
                        let scaled_in = self.scaled.scale_input(input);
                        PlainTensorMsg {
                            seq: base + j as u64,
                            shape: input.shape().dims().iter().map(|&d| d as u64).collect(),
                            values: scaled_in.data().iter().map(|&v| v as i128).collect(),
                        }
                    })
                    .collect();
                // One budget spans the whole batch: its members travel
                // together, so they expire together.
                let deadline = self.item_deadline.map(|budget| Instant::now() + budget);
                match self.run_packed_batch(&plains, deadline) {
                    PackedRoundOutcome::Done(results) => {
                        self.items_done += batch as u64;
                        self.send_ack();
                        let per_item = t0.elapsed();
                        self.transport.packed_items += batch as u64;
                        for out in results {
                            let seq = out.seq;
                            latencies.push(per_item);
                            outcomes.push(outcome_from(ItemResult::Output(out), seq, strict)?);
                        }
                        idx += batch;
                        continue;
                    }
                    PackedRoundOutcome::Fallback { reset } => {
                        self.transport.packed_fallbacks += 1;
                        if reset {
                            // The server may still track this batch (and
                            // its stored permutations); reconnecting
                            // clears both, and drops packing for the
                            // rest of the stream (resumed connections
                            // run unpacked).
                            self.reconnect_and_resume().map_err(CoreError::from)?;
                        }
                        // Fall through: replay every member per-item.
                    }
                }
            }
            for input in &inputs[idx..idx + batch] {
                let t0 = Instant::now();
                let seq = self.items_done;
                let scaled_in = self.scaled.scale_input(input);
                let plain = PlainTensorMsg {
                    seq,
                    shape: input.shape().dims().iter().map(|&d| d as u64).collect(),
                    values: scaled_in.data().iter().map(|&v| v as i128).collect(),
                };
                // The end-to-end budget is stamped once per item and spans
                // every hop, resume, and replay of it.
                let deadline = self.item_deadline.map(|budget| Instant::now() + budget);
                let result = self.run_request(plain, deadline)?;
                // Success and per-item failure both *resolve* the item: the
                // seq is consumed and acked, so a failed item is never
                // retried (a quarantined one must not be).
                self.items_done += 1;
                self.send_ack();
                latencies.push(t0.elapsed());
                outcomes.push(outcome_from(result, seq, strict)?);
            }
            idx += batch;
        }

        let makespan = t_run.elapsed();
        // A stream can legitimately resolve zero items (empty input
        // slice); dividing by `latencies.len()` would panic, so an empty
        // stream reports a zero mean instead.
        let mean_latency = if latencies.is_empty() {
            Duration::ZERO
        } else {
            latencies.iter().sum::<Duration>() / latencies.len() as u32
        };
        self.transport.faults_injected = fault_count(&self.fault);
        let mut transport = self.transport.clone();
        transport.clean_shutdown = true; // no transport error reached here
        let report = RunReport {
            latencies,
            makespan,
            mean_latency,
            // One physical link: request and reply directions.
            link_bytes: vec![transport.bytes_sent, transport.bytes_received],
            intra_stage_bytes: 0, // linear dispatch happens server-side
            stage_names: self.stage_names(),
            stage_busy: vec![],
            stage_threads: vec![],
            stages: vec![],
            transport: Some(transport),
            pool_misses: self.rand_pool.lock().misses(),
        };
        Ok((outcomes, report))
    }

    /// Streams requests and returns the predicted class per input.
    pub fn classify_stream(
        &mut self,
        inputs: &[Tensor<f64>],
    ) -> Result<(Vec<usize>, RunReport), CoreError> {
        let (outputs, report) = self.infer_stream(inputs)?;
        let classes = outputs.iter().map(pp_nn::activation::argmax_i64).collect();
        Ok((classes, report))
    }

    /// Ends the session deliberately (Bye, so the server frees its
    /// resume state and observes a clean shutdown) and returns the final
    /// transport statistics. Best-effort: if the connection is dead, one
    /// reconnect is attempted to deliver the Bye.
    pub fn shutdown(mut self) -> TransportReport {
        let bye = to_frame(&ByeMsg);
        let len = bye.len() as u64;
        let mut sent = self.tx.send_payload(bye.clone()).is_ok();
        if !sent && self.reconnect_and_resume().is_ok() {
            sent = self.tx.send_payload(bye).is_ok();
        }
        if sent {
            self.transport.bytes_sent += len;
            self.transport.frames_sent += 1;
        }
        self.transport.clean_shutdown = sent;
        self.transport.faults_injected = fault_count(&self.fault);
        self.transport
    }

    /// Runs one item to completion (or a per-item failure), absorbing
    /// transient transport failures and watchdog-diagnosed stalls via
    /// reconnect-and-resume (up to `max_resumes` cycles).
    fn run_request(
        &mut self,
        plain: PlainTensorMsg,
        deadline: Option<Instant>,
    ) -> Result<ItemResult, CoreError> {
        let mut resumes = 0u32;
        loop {
            let mut progressed = false;
            let err = match self.try_request(&plain, deadline, &mut progressed) {
                Ok(out) => return Ok(out),
                Err(e) => e,
            };
            let recoverable = is_transient(&err) || matches!(err, StreamError::Stalled { .. });
            if !recoverable || resumes >= self.max_resumes {
                return Err(CoreError::from(err));
            }
            resumes += 1;
            match self.reconnect_and_resume() {
                Ok(()) => {
                    if progressed {
                        // The server saw at least round 0 of this
                        // attempt; the retry is a true replay.
                        self.transport.items_replayed += 1;
                    }
                }
                Err(resume_err) => {
                    // Surface the original failure; the failed recovery
                    // is context, not the headline.
                    return Err(CoreError::from(
                        err.at_stage(&format!("after failed resume ({resume_err})")),
                    ));
                }
            }
        }
    }

    /// One attempt at a whole batch's round set as packed ciphertexts.
    /// Never fails the call: anything short of full success asks the
    /// caller to fall back to per-item replay (`reset` when the server
    /// may still hold batch state that a reconnect must clear).
    fn run_packed_batch(
        &mut self,
        plains: &[PlainTensorMsg],
        deadline: Option<Instant>,
    ) -> PackedRoundOutcome {
        let Some(spec) = self.packing else {
            return PackedRoundOutcome::Fallback { reset: false };
        };
        let Some(first) = plains.first() else {
            return PackedRoundOutcome::Fallback { reset: false };
        };
        let key = first.seq;
        let expected: Vec<u64> = plains.iter().map(|p| p.seq).collect();
        let packed = {
            let mut pool = self.rand_pool.lock();
            packed::pack_plain_batch(&self.encrypt.pk, spec, plains, &mut pool, self.encrypt.seed)
        };
        let mut msg = match packed {
            Ok(m) => m,
            Err(_) => return PackedRoundOutcome::Fallback { reset: false },
        };
        let last = self.steps.len() - 1;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                ClientStep::Linear { round } => {
                    let budget_ms = match deadline {
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                // Expired mid-flight: replay unpacked
                                // (with fresh per-item budgets). Past
                                // round 0 the server tracks the batch,
                                // so the fallback must reconnect.
                                return PackedRoundOutcome::Fallback { reset: *round > 0 };
                            }
                            Some((d - now).as_millis() as u64)
                        }
                        None => None,
                    };
                    let payload = to_frame(&msg);
                    let len = payload.len() as u64;
                    if self.tx.send_payload_deadline(payload, budget_ms).is_err() {
                        // Dead socket: the per-item replay reconnects.
                        return PackedRoundOutcome::Fallback { reset: false };
                    }
                    self.transport.bytes_sent += len;
                    self.transport.frames_sent += 1;
                    let t_recv = Instant::now();
                    let frame = match self.rx.recv() {
                        Ok(Some(frame)) => frame,
                        Ok(None) | Err(_) => {
                            return PackedRoundOutcome::Fallback { reset: false };
                        }
                    };
                    self.transport.bytes_received += frame.payload.len() as u64;
                    self.transport.frames_received += 1;
                    if let Some(window) = self.stall_window {
                        if t_recv.elapsed() > window {
                            self.transport.stalls += 1;
                            return PackedRoundOutcome::Fallback { reset: true };
                        }
                    }
                    match crate::messages::peek_tag(&frame.payload) {
                        Some(MsgTag::ItemError) => {
                            // A PackedAbort already released the server's
                            // batch state; any other error reply is a
                            // protocol surprise worth a clean slate.
                            let reset = match from_frame::<ItemErrorMsg>(frame.payload) {
                                Ok(ie) => ie.kind != ItemErrorKind::PackedAbort || ie.seq != key,
                                Err(_) => true,
                            };
                            return PackedRoundOutcome::Fallback { reset };
                        }
                        Some(MsgTag::PackedTensor) => {
                            msg = match from_frame(frame.payload) {
                                Ok(m) => m,
                                Err(_) => return PackedRoundOutcome::Fallback { reset: true },
                            };
                            let elems =
                                msg.shape.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d));
                            if msg.seqs != expected
                                || elems.map(|n| n as usize) != Some(msg.cts.len())
                            {
                                return PackedRoundOutcome::Fallback { reset: true };
                            }
                            self.transport.packed_rounds += 1;
                        }
                        _ => return PackedRoundOutcome::Fallback { reset: true },
                    }
                }
                ClientStep::NonLinear(nl) => {
                    if i == last {
                        return match packed::unpack_final(nl, msg, &self.pool) {
                            Ok(outputs) => PackedRoundOutcome::Done(outputs),
                            Err(_) => PackedRoundOutcome::Fallback { reset: true },
                        };
                    }
                    msg = match packed::repack_nonlinear(nl, msg, &self.pool) {
                        Ok(m) => m,
                        Err(_) => return PackedRoundOutcome::Fallback { reset: true },
                    };
                }
            }
        }
        PackedRoundOutcome::Fallback { reset: true }
    }

    /// One attempt at an item's full round set over the current
    /// connection. `progressed` flips once the server has seen round 0,
    /// so the caller can count true replays.
    fn try_request(
        &mut self,
        plain: &PlainTensorMsg,
        deadline: Option<Instant>,
        progressed: &mut bool,
    ) -> Result<ItemResult, StreamError> {
        let seq = plain.seq;
        let mut msg = self.encrypt.encrypt(plain.clone(), &self.pool);
        let last = self.steps.len() - 1;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                ClientStep::Linear { round } => {
                    let stage_name = format!("linear-{round}@model (request {seq})");
                    // Remaining budget for this hop, re-stamped as a
                    // relative duration (never a wall timestamp, so the
                    // peers' clocks need not agree). An exhausted budget
                    // sheds the item client-side before the send.
                    let budget_ms = match deadline {
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                self.transport.deadline_expired += 1;
                                return Ok(ItemResult::Failed {
                                    kind: ItemErrorKind::DeadlineExpired,
                                    detail: format!(
                                        "budget exhausted before the {stage_name} send"
                                    ),
                                });
                            }
                            Some((d - now).as_millis() as u64)
                        }
                        None => None,
                    };
                    let payload = to_frame(&msg);
                    let len = payload.len() as u64;
                    self.tx
                        .send_payload_deadline(payload, budget_ms)
                        .map_err(|e| e.at_stage(&format!("{stage_name} send")))?;
                    *progressed = true;
                    self.transport.bytes_sent += len;
                    self.transport.frames_sent += 1;
                    let t_recv = Instant::now();
                    let frame = self
                        .rx
                        .recv()
                        .map_err(|e| e.at_stage(&format!("{stage_name} reply")))?
                        .ok_or_else(|| {
                            StreamError::transport(
                                TransportErrorKind::Eof,
                                format!("server closed before the {stage_name} reply"),
                            )
                        })?;
                    self.transport.bytes_received += frame.payload.len() as u64;
                    self.transport.frames_received += 1;
                    // Stall watchdog: a reply that took longer than the
                    // window marks the connection as alive-but-stuck.
                    // The late frame is discarded and the item recovered
                    // by reconnect-and-resume — replay is bit-identical,
                    // so dropping a valid reply is safe.
                    if let Some(window) = self.stall_window {
                        if t_recv.elapsed() > window {
                            self.transport.stalls += 1;
                            return Err(StreamError::Stalled { stage: stage_name });
                        }
                    }
                    // A per-item error reply fails this item and leaves
                    // the session streaming.
                    if matches!(
                        crate::messages::peek_tag(&frame.payload),
                        Some(MsgTag::ItemError)
                    ) {
                        let ie: ItemErrorMsg = from_frame(frame.payload)?;
                        if ie.seq != seq {
                            return Err(StreamError::Stage(format!(
                                "{stage_name}: item-error reply carries seq {} (misrouted)",
                                ie.seq
                            )));
                        }
                        match ie.kind {
                            ItemErrorKind::DeadlineExpired => {
                                self.transport.deadline_expired += 1
                            }
                            ItemErrorKind::Quarantined => self.transport.quarantined += 1,
                            ItemErrorKind::Shed => self.transport.shed += 1,
                            // Only packed rounds are answered with an
                            // abort; for an unpacked item it still
                            // resolves the item like any other failure.
                            ItemErrorKind::PackedAbort => {}
                            // CorruptReply is raised client-side; an
                            // honest server never sends it, but a wire
                            // message carrying it still just fails the
                            // one item.
                            ItemErrorKind::CorruptReply => {}
                        }
                        return Ok(ItemResult::Failed { kind: ie.kind, detail: ie.detail });
                    }
                    msg = from_frame(frame.payload)?;
                    // A corrupted-but-decodable reply must die here, not
                    // flow into a stage that would panic on it.
                    if msg.seq != seq {
                        return Err(StreamError::Stage(format!(
                            "{stage_name}: reply carries seq {} (corrupt or misrouted)",
                            msg.seq
                        )));
                    }
                    let elems = msg.shape.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d));
                    if elems.map(|n| n as usize) != Some(msg.cts.len()) {
                        return Err(StreamError::Stage(format!(
                            "{stage_name}: reply shape {:?} does not match {} ciphertexts",
                            msg.shape,
                            msg.cts.len()
                        )));
                    }
                }
                ClientStep::NonLinear(nl) => {
                    // Stage failures here mean the reply decoded as a
                    // frame but its ciphertexts decrypt to garbage (or
                    // out-of-range values). The connection is fine —
                    // fail the one item instead of tearing down.
                    if i == last {
                        return match nl.execute_final(msg, &self.pool) {
                            Ok(out) => Ok(ItemResult::Output(out)),
                            Err(e) => Ok(ItemResult::Failed {
                                kind: ItemErrorKind::CorruptReply,
                                detail: e.to_string(),
                            }),
                        };
                    }
                    msg = match nl.execute(msg, &self.pool) {
                        Ok(m) => m,
                        Err(e) => {
                            return Ok(ItemResult::Failed {
                                kind: ItemErrorKind::CorruptReply,
                                detail: e.to_string(),
                            })
                        }
                    };
                }
            }
        }
        Err(StreamError::Stage("pipeline must end with a final non-linear stage".into()))
    }

    /// Tears down the dead connection, reconnects with the configured
    /// retry policy, and re-syncs the session via Resume. On success the
    /// new (fault-wrapped) halves are installed.
    fn reconnect_and_resume(&mut self) -> Result<(), StreamError> {
        // Drop the dead socket *first*: a sequential server is still
        // blocked reading it and will only accept the new connection
        // after seeing its EOF.
        self.tx = Box::new(DeadHalf);
        self.rx = Box::new(DeadHalf);
        revive_fault(&self.fault);

        let resume = to_frame(&ResumeMsg {
            version: PROTOCOL_VERSION,
            session: self.session,
            items_done: self.items_done,
            topology: self.topology,
        });

        // Busy rejections of the resume are backed off and retried, like
        // at connect: an at-capacity server has *not* forgotten the
        // session — giving up would orphan its resumable state. Any
        // *other* rejection fails over to the next provider address —
        // a restarted process (same journal) or a warm replica may hold
        // the session even when this one does not — and only after
        // every address has refused does the resume give up.
        let mut attempt = 0u32;
        let mut rejected = 0usize;
        loop {
            attempt += 1;
            let (mut tx, mut rx, idx, attempts) =
                connect_sweep(&self.addrs, self.addr_idx, &self.tcp)
                    .map_err(|e| e.at_stage("reconnect"))?;
            self.transport.connect_attempts += attempts;
            if idx != self.addr_idx {
                self.transport.failovers += 1;
                self.addr_idx = idx;
            }

            self.transport.bytes_sent += resume.len() as u64;
            self.transport.frames_sent += 1;
            tx.send_payload(resume.clone()).map_err(|e| e.at_stage("resume"))?;

            let reply = rx
                .recv()
                .map_err(|e| e.at_stage("resume reply"))?
                .ok_or_else(|| handshake_err("server closed without answering resume"))?;
            self.transport.bytes_received += reply.payload.len() as u64;
            self.transport.frames_received += 1;
            match crate::messages::peek_tag(&reply.payload) {
                Some(MsgTag::Accept) => {
                    let accept: AcceptMsg = from_frame(reply.payload)?;
                    if accept.version != PROTOCOL_VERSION
                        || accept.pk_fingerprint != self.fingerprint
                        || accept.session != self.session
                    {
                        return Err(handshake_err(
                            "server resume-accept did not echo the session parameters",
                        ));
                    }
                }
                Some(MsgTag::Reject) => {
                    let reject: RejectMsg = from_frame(reply.payload)?;
                    if reject.code == RejectCode::Busy
                        && attempt < self.tcp.retry.max_attempts.max(1)
                    {
                        self.transport.rejected_busy += 1;
                        std::thread::sleep(busy_backoff(&self.tcp.retry, reject.retry_after_ms));
                        continue;
                    }
                    rejected += 1;
                    if rejected < self.addrs.len() {
                        // This provider refused the session; fail over.
                        self.addr_idx = (idx + 1) % self.addrs.len();
                        self.transport.failovers += 1;
                        continue;
                    }
                    return Err(handshake_err(format!(
                        "server rejected resume: {}",
                        reject.reason
                    )));
                }
                _ => {
                    return Err(handshake_err(
                        "unexpected reply to resume (neither accept nor reject)",
                    ));
                }
            }

            let (tx, rx) = wrap_transport(tx, rx, &self.fault);
            self.tx = tx;
            self.rx = rx;
            self.transport.reconnects += 1;
            // Resumed connections run unpacked: the replacement server
            // connection negotiated no packing (Resume has no proposal)
            // and its fresh PermStore has no packed permutations.
            self.packing = None;
            return Ok(());
        }
    }

    /// Fire-and-forget delivery confirmation after a completed item. A
    /// lost ack is harmless: the next operation's failure triggers a
    /// resume, which re-syncs the floor from `items_done`.
    fn send_ack(&mut self) {
        let payload = to_frame(&AckMsg { items_done: self.items_done });
        let len = payload.len() as u64;
        if self.tx.send_payload(payload).is_ok() {
            self.transport.bytes_sent += len;
            self.transport.frames_sent += 1;
        }
    }

    fn stage_names(&self) -> Vec<String> {
        let mut names = vec!["encrypt@data".to_string()];
        let mut ni = 0;
        for step in &self.steps {
            match step {
                ClientStep::Linear { round } => names.push(format!("linear-{round}@model")),
                ClientStep::NonLinear(_) => {
                    names.push(format!("nonlinear-{ni}@data"));
                    ni += 1;
                }
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_nn::zoo;

    fn model(seed: u64) -> ScaledModel {
        let mut rng = StdRng::seed_from_u64(seed);
        ScaledModel::from_model(&zoo::mlp("m", &[4, 6, 3], &mut rng).unwrap(), 100)
    }

    #[test]
    fn topology_digest_is_stable_and_discriminating() {
        let m = model(1);
        let stages = encapsulate_with(&m, true).unwrap();
        let d1 = topology_digest(&stages, m.factor());
        let d2 = topology_digest(&stages, m.factor());
        assert_eq!(d1, d2, "digest must be deterministic");
        assert_ne!(d1, topology_digest(&stages, m.factor() + 1), "factor changes digest");

        let other = model(1); // same weights, same architecture
        let other_stages = encapsulate_with(&other, true).unwrap();
        assert_eq!(d1, topology_digest(&other_stages, other.factor()));

        let mut rng = StdRng::seed_from_u64(1);
        let wider = ScaledModel::from_model(&zoo::mlp("m", &[4, 7, 3], &mut rng).unwrap(), 100);
        let wider_stages = encapsulate_with(&wider, true).unwrap();
        assert_ne!(
            d1,
            topology_digest(&wider_stages, wider.factor()),
            "different architecture must change the digest"
        );
    }

    #[test]
    fn fingerprint_differs_for_different_keys() {
        assert_ne!(pk_fingerprint(&[1, 2, 3]), pk_fingerprint(&[1, 2, 4]));
        assert_eq!(pk_fingerprint(b"same"), pk_fingerprint(b"same"));
    }

    #[test]
    fn hello_validation_names_each_mismatch() {
        let m = model(2);
        let provider = ModelProvider::new(&m, &NetConfig::small_test(128)).unwrap();
        let pk_n = vec![7u8; 16];
        let good = HelloMsg {
            version: PROTOCOL_VERSION,
            pk_fingerprint: pk_fingerprint(&pk_n),
            pk_n,
            topology: provider.topology(),
            n_stages: provider.stages.len() as u32,
            factor: m.factor(),
            pack_slot_bits: 0,
            pack_slots: 0,
            pack_budget: 0,
        };
        assert_eq!(provider.validate_hello(&good), None);

        let mut bad = good.clone();
        bad.version += 1;
        assert!(provider.validate_hello(&bad).unwrap().contains("version"));

        let mut bad = good.clone();
        bad.pk_n = vec![0u8; 5000];
        bad.pk_fingerprint = pk_fingerprint(&bad.pk_n);
        assert!(provider.validate_hello(&bad).unwrap().contains("key size"));

        let mut bad = good.clone();
        bad.pk_n = vec![];
        bad.pk_fingerprint = pk_fingerprint(&bad.pk_n);
        assert!(provider.validate_hello(&bad).unwrap().contains("key size"));

        let mut bad = good.clone();
        bad.pk_fingerprint ^= 1;
        assert!(provider.validate_hello(&bad).unwrap().contains("fingerprint"));

        let mut bad = good.clone();
        bad.factor += 1;
        assert!(provider.validate_hello(&bad).unwrap().contains("factor"));

        let mut bad = good;
        bad.topology ^= 1;
        assert!(provider.validate_hello(&bad).unwrap().contains("topology"));
    }

    #[test]
    fn packing_negotiation_accepts_fitting_layouts_and_declines_the_rest() {
        let m = model(2);
        let provider = ModelProvider::new(&m, &NetConfig::small_test(128)).unwrap();
        let pk = Keypair::generate(128, &mut StdRng::seed_from_u64(5)).public();
        let budget = packed::required_budget(&provider.stages);
        let max = PackingSpec::for_key(&pk, 32).unwrap();
        let hello = |bits: u32, slots: u32, budget: u64| HelloMsg {
            version: PROTOCOL_VERSION,
            pk_fingerprint: 0,
            pk_n: vec![],
            topology: provider.topology(),
            n_stages: provider.stages.len() as u32,
            factor: m.factor(),
            pack_slot_bits: bits,
            pack_slots: slots,
            pack_budget: budget,
        };

        let good = hello(32, max.slots as u32, budget);
        let spec = provider.negotiate_packing(&good, &pk).expect("fitting layout accepted");
        assert_eq!(
            spec,
            PackingSpec { slot_bits: 32, slots: max.slots, op_budget: budget },
            "the accepted spec is exactly the client's proposal"
        );

        // No proposal → per-item protocol.
        assert_eq!(provider.negotiate_packing(&hello(0, 0, budget), &pk), None);
        // More slots than the key's plaintext space holds.
        assert_eq!(provider.negotiate_packing(&hello(32, max.slots as u32 + 1, budget), &pk), None);
        // Slot width outside the key's usable bits.
        assert_eq!(provider.negotiate_packing(&hello(200, 1, budget), &pk), None);
        // Budget too small for this model's linear stages.
        assert_eq!(
            provider.negotiate_packing(&hello(32, max.slots as u32, budget - 1), &pk),
            None,
            "a proposal that under-provisions the op budget is declined"
        );
        // Slot too narrow to hold the offset guard bits for this budget.
        assert_eq!(provider.negotiate_packing(&hello(4, 1, budget), &pk), None);
    }

    #[test]
    fn session_table_enforces_exactly_once() {
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let s = table.create(vec![1, 2, 3], 99, 0x70B0, None);
        assert!(s >= 1, "session 0 is never issued");

        // Fresh item, then a legitimate post-resume replay of the same.
        assert_eq!(table.on_round0(s, 0), Ok(false));
        assert_eq!(table.on_round0(s, 0), Ok(true), "restart before ack is a replay");

        // Ack raises the floor; restarting below it is a violation.
        table.ack(s, 1);
        let err = table.on_round0(s, 0).unwrap_err();
        assert!(err.contains("exactly-once"), "{err}");
        assert_eq!(table.on_round0(s, 1), Ok(false), "the floor itself is fair game");
    }

    #[test]
    fn session_table_resume_validates_and_syncs() {
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let s = table.create(vec![9], pk_fingerprint(&[9]), 0xABCD, None);

        let missing = table.resume(s + 1, 0, 0xABCD).unwrap_err();
        assert!(missing.contains("unknown or expired"), "{missing}");

        let wrong_topo = table.resume(s, 0, 0xDCBA).unwrap_err();
        assert!(wrong_topo.contains("topology"), "{wrong_topo}");

        // Resume syncs the ack floor from the client's completed count.
        let entry = table.resume(s, 5, 0xABCD).unwrap();
        assert_eq!(entry.acked, 5);
        assert_eq!(entry.started, 5);

        // A client claiming *less* done than the server has acked lost
        // state — replaying delivered items is refused.
        let behind = table.resume(s, 3, 0xABCD).unwrap_err();
        assert!(behind.contains("exactly-once"), "{behind}");
    }

    #[test]
    fn session_table_evicts_by_ttl_and_capacity() {
        // TTL: a zero-TTL table expires entries as soon as wall time
        // advances past their last touch.
        let table = SessionTable::new(Duration::ZERO, 8);
        let s = table.create(vec![1], 1, 1, None);
        std::thread::sleep(Duration::from_millis(2));
        let err = table.resume(s, 0, 1).unwrap_err();
        assert!(err.contains("unknown or expired"), "{err}");

        // Capacity: the least-recently-seen session is evicted.
        let table = SessionTable::new(Duration::from_secs(60), 2);
        let a = table.create(vec![1], 1, 7, None);
        std::thread::sleep(Duration::from_millis(2));
        let b = table.create(vec![2], 2, 7, None);
        std::thread::sleep(Duration::from_millis(2));
        table.ack(a, 0); // touch a, making b the LRU entry
        std::thread::sleep(Duration::from_millis(2));
        let c = table.create(vec![3], 3, 7, None);
        assert_eq!(table.len(), 2);
        assert!(table.resume(b, 0, 7).unwrap_err().contains("unknown"));
        assert!(table.resume(a, 0, 7).is_ok());
        assert!(table.resume(c, 0, 7).is_ok());
    }

    #[test]
    fn serve_report_merge_accumulates() {
        let mut total = ServeReport { requests: 1, connections: 1, ..Default::default() };
        let worker = ServeReport {
            requests: 3,
            frames_in: 10,
            replayed_items: 2,
            rejected_handshakes: 1,
            rejected_busy: 5,
            deadline_expired: 4,
            quarantined: 1,
            shed: 2,
            oversize_frames: 3,
            evicted_slow: 2,
            budget_rejected: 1,
            clean_shutdown: true,
            last_error: Some("boom".into()),
            ..Default::default()
        };
        total.merge(&worker);
        assert_eq!(total.requests, 4);
        assert_eq!(total.frames_in, 10);
        assert_eq!(total.connections, 1, "merge only sums what the worker counted");
        assert_eq!(total.replayed_items, 2);
        assert_eq!(total.rejected_handshakes, 1);
        assert_eq!(total.rejected_busy, 5);
        assert_eq!(total.deadline_expired, 4);
        assert_eq!(total.quarantined, 1);
        assert_eq!(total.shed, 2);
        assert_eq!(total.oversize_frames, 3);
        assert_eq!(total.evicted_slow, 2);
        assert_eq!(total.budget_rejected, 1);
        assert!(total.clean_shutdown);
        assert_eq!(total.last_error.as_deref(), Some("boom"));
    }

    /// Regression: an open-but-idle connection (frames flowing, but no
    /// floor movement past the TTL — e.g. a slow multi-round item or
    /// keepalive acks) must not have its session TTL-evicted out from
    /// under it by another client's create/resume sweep.
    #[test]
    fn touched_idle_session_survives_ttl_eviction() {
        let table = SessionTable::new(Duration::from_millis(40), 8);
        let s = table.create(vec![1], 1, 7, None);
        let idle = table.create(vec![2], 2, 7, None);
        // Frames keep arriving on s's connection, each well within the
        // TTL, while `idle` sees nothing at all.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(15));
            table.touch(s);
        }
        // Another client's create sweeps expired entries: the touched
        // session survives, the genuinely idle one is collected.
        let _other = table.create(vec![3], 3, 7, None);
        assert!(table.resume(s, 0, 7).is_ok(), "touched session was evicted");
        assert!(table.resume(idle, 0, 7).unwrap_err().contains("unknown or expired"));
    }

    fn journal_scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pp-net-journal-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(crate::journal::JOURNAL_FILE)
    }

    /// The crash-recovery core in miniature: every floor movement of a
    /// journaled table is replayed into a fresh table ("the restarted
    /// process") and keeps enforcing exactly-once semantics.
    #[test]
    fn session_table_journal_restores_crash_state() {
        use crate::journal::FsyncPolicy;
        let path = journal_scratch("restore");

        // "First process": journaled transitions, then SIGKILL (drop).
        let (s, gone) = {
            let table = SessionTable::new(Duration::from_secs(60), 8);
            let (j, replay) = Journal::open(&path, FsyncPolicy::Never).expect("open");
            assert_eq!(table.restore(j, &replay), 0);
            let s = table.create(vec![7, 7], pk_fingerprint(&[7, 7]), 0xABCD, None);
            let gone = table.create(vec![8], pk_fingerprint(&[8]), 0xABCD, None);
            assert_eq!(table.on_round0(s, 0), Ok(false));
            table.ack(s, 1);
            assert_eq!(table.on_round0(s, 1), Ok(false));
            table.quarantine(s, 1);
            table.remove(gone);
            (s, gone)
        };

        // "Restarted process": replay the same journal.
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let (j, replay) = Journal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(table.restore(j, &replay), 1, "one session was alive at the crash");

        let entry = table.resume(s, 1, 0xABCD).expect("pre-crash session resumes");
        assert_eq!(entry.acked, 1, "ack floor survived the crash");
        assert_eq!(entry.started, 2, "round-0 floor survived the crash");
        assert!(entry.quarantined.contains(&1), "quarantine survived the crash");
        assert!(table.resume(gone, 0, 0xABCD).unwrap_err().contains("unknown"));

        // The floors keep holding across the restart.
        assert!(table.on_round0(s, 0).unwrap_err().contains("exactly-once"));
        assert_eq!(table.on_round0(s, 1), Ok(true), "in-flight item replays");

        // New sessions never collide with pre-crash IDs.
        let fresh = table.create(vec![9], pk_fingerprint(&[9]), 0xABCD, None);
        assert!(fresh > s.max(gone), "restored next_id clears every journaled ID");
    }

    #[test]
    fn session_table_quarantine_survives_resume() {
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let s = table.create(vec![1], 1, 7, None);
        assert!(!table.is_quarantined(s, 3));
        table.quarantine(s, 3);
        assert!(table.is_quarantined(s, 3));
        // The poison marker outlives the connection: a resume sees it.
        let entry = table.resume(s, 0, 7).unwrap();
        assert!(entry.quarantined.contains(&3));
        assert!(table.is_quarantined(s, 3));
        assert!(!table.is_quarantined(s, 4), "only the poison seq is marked");
    }

    #[test]
    fn busy_backoff_honors_and_clamps_the_hint() {
        let retry = pp_stream_runtime::RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            jitter: false,
        };
        assert_eq!(busy_backoff(&retry, 0), Duration::from_millis(10), "no hint -> base delay");
        assert_eq!(busy_backoff(&retry, 25), Duration::from_millis(25), "hint in range");
        assert_eq!(busy_backoff(&retry, 10_000), Duration::from_millis(80), "hint capped");
    }

    #[test]
    fn panic_message_extracts_str_and_string() {
        let p = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
    }
}
