//! [`ModelProvider`]: the server's state. The event loop in `driver.rs`
//! serves it.

use super::config::NetConfig;
use super::conn::topology_digest;
use super::sessions::SessionTable;
#[cfg(doc)]
use super::ServeOptions;
use crate::encapsulate::{encapsulate_with, MergedStage};
use crate::governor::Governor;
use crate::journal::{Journal, JournalConfig};
use crate::CoreError;
use pp_nn::scaling::ScaledModel;
use pp_stream_runtime::{TcpConfig, WorkerPool};
use std::sync::atomic::Ordering;

/// The model-provider server: serves the linear stages of one scaled
/// model over framed TCP connections, with resumable sessions.
pub struct ModelProvider {
    pub(super) stages: Vec<MergedStage>,
    pub(super) topology: u64,
    pub(super) factor: i64,
    pub(super) seed: u64,
    pub(super) pool: WorkerPool,
    pub(super) tcp: TcpConfig,
    pub(super) sessions: SessionTable,
    /// Per-session cap on items with linear rounds in flight; round-0
    /// arrivals beyond it are shed ([`NetConfig::max_inflight_items`]).
    pub(super) max_inflight: usize,
    /// Per-connection resource limits and global buffered-bytes
    /// accounting ([`NetConfig::governor`]).
    pub(super) governor: Governor,
    /// Largest element count across stage input/output shapes — the
    /// topology width the governor's negotiated frame ceiling scales
    /// with.
    pub(super) max_stage_elems: usize,
    /// Chaos driver: the linear execution of this seq panics once, so
    /// tests can exercise the quarantine boundary deterministically.
    #[cfg(feature = "fault-injection")]
    pub(super) poison_seq: Option<u64>,
}

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
    /// directly to learn the restored-session count first. Opening a
    /// second journal on the same provider is refused.
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
}
