//! The serving event loop of DESIGN.md §9: one acceptor thread plus
//! `max_workers` shard threads, each multiplexing its share of
//! nonblocking connections over a [`Poller`]. Every connection runs
//! the sans-IO state machine of `conn.rs`
//! (`open_conn`/`on_frame`/`on_exec_done`); the loop only decides
//! *when* frames are absorbed and *where* admitted jobs execute —
//! inline on the shard, or coalesced with other sessions' jobs by
//! the gather-window batcher.

use super::config::ServeOptions;
use super::conn::{run_job, ConnState, ExecJob, FrameDisposition, JobDone};
use super::report::ServeReport;
use super::server::ModelProvider;
use crate::evloop::{FrameReader, Poller, Waker, WriteBuf};
use crate::messages::RejectMsg;
use crate::CoreError;
use bytes::Bytes;
use parking_lot::Mutex;
use pp_stream_runtime::link::Frame;
use pp_stream_runtime::wire::to_frame;
#[cfg(doc)]
use pp_stream_runtime::TcpConfig;
use pp_stream_runtime::{StreamError, TransportErrorKind, WorkerPool};
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long a busy rejection may wait for the client's hello before the
/// connection is abandoned — bounds slow-loris floods.
const REJECT_DRAIN_BOUND: Duration = Duration::from_secs(2);

/// Pause after a failed `accept` (fd exhaustion, typically) so a
/// persistent failure cannot spin the acceptor.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Token 0 is a loop's waker; the acceptor's listener and the
/// shards' connections start above it.
const WAKER_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;

/// A socket set-up failure as this crate's error.
fn io_failure(kind: TransportErrorKind, what: &str, e: std::io::Error) -> CoreError {
    CoreError::from(StreamError::transport(kind, format!("{what}: {e}")))
}

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
    fn queue(&mut self, replies: &[Bytes]) {
        for payload in replies {
            self.wbuf.queue(payload);
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
                wbuf: WriteBuf::default(),
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
                    // A peer claimed a frame above its ceiling: an
                    // adversarial-peer event operators watch for.
                    if matches!(
                        e,
                        StreamError::Transport { kind: TransportErrorKind::FrameLimit, .. }
                    ) {
                        self.report.oversize_frames += 1;
                    }
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
            let (reply, opened) = self.provider.open_conn(frame.payload, &mut self.report);
            conn.wbuf.queue(&reply);
            match opened {
                Some(state) => {
                    // Handshake accepted: raise the frame ceiling
                    // from the pre-auth cap to what this connection
                    // legitimately negotiated.
                    conn.reader.set_max_frame(state.frame_ceiling);
                    conn.phase = EvPhase::Serving(state);
                }
                None => conn.close_after_flush = true,
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
                // pool.
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
    /// flushes. EOF at a frame boundary: before the first frame
    /// it's a refused handshake, mid-session it's a silent drop
    /// (session stays resumable); mid-frame it's a failed connection.
    fn after_read(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.read_eof && !conn.exec_inflight && !conn.close_after_flush {
            // Unconsumed bytes at EOF are the front of a frame.
            if conn.reader.buffered_len() > 0 {
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
    /// read deadline.
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
    /// fails, the error labelled by what the connection was waiting
    /// for (its session stays resumable); a busy rejection, or one
    /// only waiting to flush a farewell, is best-effort and closes
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
        let woken_by = |waker: &Waker| {
            let poller = Poller::new();
            poller.add(waker.raw_fd(), WAKER_TOKEN, false).map(|()| poller)
        };
        let poller = woken_by(&wakers[0]).map_err(|e| setup("register waker", e))?;
        poller
            .add(listener.as_raw_fd(), LISTENER_TOKEN, false)
            .map_err(|e| setup("register listener", e))?;
        let shard_pollers = wakers[1..]
            .iter()
            .map(woken_by)
            .collect::<std::io::Result<Vec<Poller>>>()
            .map_err(|e| setup("register waker", e))?;

        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let provider = Arc::clone(self);
            let (stop, wakers) = (Arc::clone(&stop), wakers.clone());
            std::thread::spawn(move || {
                provider.run_acceptor(listener, options, stop, wakers, poller, shard_pollers)
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
    /// and batcher on their own threads. `wakers[0]` is the
    /// acceptor's, `wakers[i + 1]` shard `i`'s.
    fn run_acceptor(
        self: Arc<Self>,
        listener: TcpListener,
        options: ServeOptions,
        stop: Arc<AtomicBool>,
        wakers: Vec<Waker>,
        poller: Poller,
        shard_pollers: Vec<Poller>,
    ) -> ServeReport {
        let n_shards = shard_pollers.len();

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
