//! Deployment configuration: [`NetConfig`], shared by both ends, and
//! [`ServeOptions`] for [`ModelProvider::serve_forever`].

#[cfg(doc)]
use super::ModelProvider;
use crate::governor::GovernorConfig;
use crate::journal::JournalConfig;
#[cfg(doc)]
use crate::messages::{ItemErrorKind, RejectCode};
#[cfg(feature = "fault-injection")]
use pp_stream_runtime::fault::FaultPlan;
#[cfg(doc)]
use pp_stream_runtime::StreamError;
use pp_stream_runtime::TcpConfig;
use std::time::Duration;

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
