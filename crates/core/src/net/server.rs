//! [`ModelProvider`]: the server's state, and the blocking
//! single-client shell (`serve_once` / `serve_listener`) over the state machine.

use super::config::NetConfig;
use super::conn::{run_job, topology_digest, FrameDisposition, Opened, Reply};
use super::report::ServeReport;
use super::sessions::SessionTable;
#[cfg(doc)]
use super::ServeOptions;
use crate::encapsulate::{encapsulate_with, MergedStage};
use crate::governor::Governor;
use crate::journal::{Journal, JournalConfig};
use crate::CoreError;
use pp_nn::scaling::ScaledModel;
use pp_stream_runtime::{
    tcp, StreamError, TcpConfig, TcpFrameReceiver, TcpFrameSender, TransportErrorKind, WorkerPool,
};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// How one served connection ended.
enum ConnOutcome {
    /// The client ended the session with [`ByeMsg`]; its state is gone.
    Clean,
    /// The socket closed without a Bye; the session stays resumable.
    Dropped,
    /// The handshake was rejected (or never arrived).
    Rejected,
}

/// A socket set-up failure as this crate's error.
pub(super) fn io_failure(kind: TransportErrorKind, what: &str, e: std::io::Error) -> CoreError {
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
    pub(super) fn classify_recv(&self, e: StreamError, report: &mut ServeReport) -> StreamError {
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
}
