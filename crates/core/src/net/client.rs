//! [`NetworkedSession`]: the data provider's client — handshake, the
//! per-item and packed round loops, reconnect-and-resume, failover.

use super::config::NetConfig;
use super::conn::{pk_fingerprint, topology_digest};
use super::report::TransportReport;
#[cfg(any(doc, test))]
use super::ModelProvider;
use crate::encapsulate::{encapsulate_with, StageRole};
use crate::messages::{
    peek_tag, shape_holds, shape_len, AcceptMsg, AckMsg, ByeMsg, EncTensorMsg, HelloMsg,
    ItemErrorKind, ItemErrorMsg, MsgTag, PackedTensorMsg, PlainTensorMsg, RejectCode, RejectMsg,
    ResumeMsg, PROTOCOL_VERSION,
};
use crate::packed;
use crate::protocol::{
    encrypt_exec, may_fold, nonlinear_execs, plain_msg, refill_seed, EncryptStage, NonLinearStage,
};
use crate::session::RunReport;
use crate::CoreError;
use bytes::Bytes;
use parking_lot::Mutex;
use pp_nn::scaling::ScaledModel;
use pp_paillier::packing::PackingSpec;
use pp_paillier::{Keypair, PublicKey, RandomnessPool};
#[cfg(feature = "fault-injection")]
use pp_stream_runtime::fault::{FaultPlan, FaultReceiver, FaultSender, FaultState};
use pp_stream_runtime::link::Frame;
use pp_stream_runtime::wire::{from_frame, to_frame};
use pp_stream_runtime::{
    tcp, FrameReceiver, FrameSender, StreamError, TcpConfig, TcpFrameReceiver, TcpFrameSender,
    TransportErrorKind, WireDecode, WireEncode, WorkerPool,
};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn handshake_err(context: impl Into<String>) -> StreamError {
    StreamError::transport(TransportErrorKind::Handshake, context)
}

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

/// The ordered provider addresses, which of them is serving now, and how
/// to reach them.
struct Route {
    addrs: Vec<SocketAddr>,
    idx: usize,
    tcp: TcpConfig,
}

impl Route {
    /// Connects to the first reachable provider address, sweeping the
    /// ordered list starting at the current one (wrapping). One bare
    /// attempt per address per sweep, with the retry policy's backoff
    /// *between* sweeps — so a down primary costs one refused connect
    /// before the next replica is tried, and `retry.max_attempts` bounds
    /// whole-list sweeps exactly as it bounds single-address attempts.
    /// Returns the framed halves, the index that answered, and the
    /// individual connect attempts spent.
    fn sweep(&self) -> Result<(TcpFrameSender, TcpFrameReceiver, usize, u32), StreamError> {
        let sweeps = self.tcp.retry.max_attempts.max(1);
        // Jitter seed: decorrelate processes without pulling in a rand dep.
        let seed = std::process::id() as u64 ^ 0x5bd1_e995_9950_57ea;
        let single = TcpConfig {
            retry: pp_stream_runtime::RetryPolicy::no_retry(),
            ..self.tcp.clone()
        };
        let mut attempts = 0u32;
        let mut last_err = None;
        for sweep in 1..=sweeps {
            let delay = self.tcp.retry.delay_before(sweep, seed);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            for offset in 0..self.addrs.len() {
                let idx = (self.idx + offset) % self.addrs.len();
                attempts += 1;
                match tcp::connect_with(self.addrs[idx], &single) {
                    Ok(c) => return Ok((c.tx, c.rx, idx, attempts)),
                    Err(e) => last_err = Some(e),
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            StreamError::transport(TransportErrorKind::Connect, "no provider addresses")
        }))
    }

    /// The opening exchange of a connection, behind both the first
    /// connect and every resume: sweep to a reachable provider, send
    /// `opening` (the Hello or the Resume, named by `what`), and hand
    /// back the raw halves with the server's Accept for the caller to
    /// check against what it sent.
    ///
    /// A `Reject { code: Busy }` is an admission-controlled server's
    /// answer, not a refusal: the hint is honoured and the exchange
    /// retried within the connect retry budget — an at-capacity server
    /// has *not* forgotten a resumed session, and giving up would orphan
    /// its state. Any other rejection is final for this provider; with
    /// `fail_over` the next address is tried — a restarted process (same
    /// journal) or a warm replica may hold the session this one does
    /// not — until every address has refused.
    fn open(
        &mut self,
        transport: &mut TransportReport,
        opening: &Bytes,
        what: &str,
        fail_over: bool,
    ) -> Result<(TcpFrameSender, TcpFrameReceiver, AcceptMsg), StreamError> {
        let mut attempt = 0u32;
        let mut rejected = 0usize;
        loop {
            attempt += 1;
            let (mut tx, mut rx, idx, attempts) = self.sweep().map_err(|e| e.at_stage(what))?;
            transport.connect_attempts += attempts;
            if idx != self.idx {
                // The preferred provider was unreachable; a lower-
                // priority address answered instead.
                transport.failovers += 1;
                self.idx = idx;
            }
            transport.bytes_sent += opening.len() as u64;
            transport.frames_sent += 1;
            tx.send_payload(opening.clone()).map_err(|e| e.at_stage(what))?;

            let reply = rx
                .recv()
                .map_err(|e| e.at_stage(&format!("{what} reply")))?
                .ok_or_else(|| handshake_err(format!("server closed without answering the {what}")))?;
            transport.bytes_received += reply.payload.len() as u64;
            transport.frames_received += 1;
            match peek_tag(&reply.payload) {
                Some(MsgTag::Accept) => return Ok((tx, rx, from_frame(reply.payload)?)),
                Some(MsgTag::Reject) => {
                    let reject: RejectMsg = from_frame(reply.payload)?;
                    if reject.code == RejectCode::Busy
                        && attempt < self.tcp.retry.max_attempts.max(1)
                    {
                        transport.rejected_busy += 1;
                        std::thread::sleep(busy_backoff(&self.tcp.retry, reject.retry_after_ms));
                        continue;
                    }
                    rejected += 1;
                    if fail_over && rejected < self.addrs.len() {
                        self.idx = (idx + 1) % self.addrs.len();
                        transport.failovers += 1;
                        continue;
                    }
                    return Err(handshake_err(format!(
                        "server rejected {what}: {}",
                        reject.reason
                    )));
                }
                _ => {
                    return Err(handshake_err(format!(
                        "unexpected reply to the {what} (neither accept nor reject)"
                    )))
                }
            }
        }
    }
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
    route: Route,
    scaled: ScaledModel,
    steps: Vec<ClientStep>,
    encrypt: EncryptStage,
    /// Precomputed blinding factors, refilled per stream off the
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
    /// The layout the current connection's accept announced for folded
    /// linear replies, or `None` when the server folds nothing.
    fold: Option<PackingSpec>,
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

/// What a linear round sends and gets back: one item's tensor, or a
/// packed batch's.
trait RoundMsg: WireEncode + WireDecode {
    /// Whether `reply` carries this request's seq(s) and exactly as many
    /// ciphertexts as its shape describes — under `fold`, the layout the
    /// connection's accept announced, when it says it is folded.
    fn answered_by(&self, reply: &Self, fold: Option<PackingSpec>) -> bool;
}

impl RoundMsg for EncTensorMsg {
    fn answered_by(&self, reply: &Self, fold: Option<PackingSpec>) -> bool {
        // A folded reply answers only a request that asked for one, on a
        // connection with a layout to read it by, and holds one
        // ciphertext per `slots` elements of its shape.
        let per_ct = match (reply.folded, fold) {
            (false, _) => 1,
            (true, Some(spec)) if self.folded => spec.slots as u64,
            (true, _) => return false,
        };
        reply.seq == self.seq
            && shape_len(&reply.shape).map(|len| len.div_ceil(per_ct))
                == Some(reply.cts.len() as u64)
    }
}

impl RoundMsg for PackedTensorMsg {
    fn answered_by(&self, reply: &Self, _fold: Option<PackingSpec>) -> bool {
        reply.seqs == self.seqs && shape_holds(&reply.shape, reply.cts.len())
    }
}

/// The fold layout an accept announces, rebuilt against the session's
/// key as the server derived it (`slots` is what the key holds at that
/// width). `None` when it announces none; an announcement that is not a
/// layout this key can hold is treated the same way — the client then
/// never asks for a folded reply.
fn announced_fold(accept: &AcceptMsg, pk: &PublicKey) -> Option<PackingSpec> {
    if accept.fold_slot_bits == 0 {
        return None;
    }
    let spec = PackingSpec::for_key(pk, accept.fold_slot_bits as usize)
        .ok()?
        .with_budget(accept.fold_budget);
    spec.check().is_ok().then_some(spec)
}

/// How a linear round trip ended short of a usable reply.
enum RoundFailure {
    /// The budget ran out before the send; nothing left the client.
    Expired,
    /// The socket failed, on the send or waiting for the reply.
    Io(StreamError),
    /// A reply arrived and cannot be used: late (stall window),
    /// undecodable, or not an echo of the request.
    BadReply(StreamError),
    /// The server answered the round with a per-item error.
    Item(ItemErrorMsg),
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
        let mut route = Route { addrs, idx: 0, tcp: config.tcp.clone() };
        let (tx, rx, accept) = route.open(&mut transport, &hello, "handshake", false)?;
        if accept.version != PROTOCOL_VERSION
            || accept.pk_fingerprint != fingerprint
            || accept.topology != topology
        {
            return Err(CoreError::from(handshake_err(
                "server accept did not echo the agreed parameters",
            )));
        }

        // The proposal stands only if the server echoed its slot width;
        // an echo of 0 (or anything else) declines packing.
        let packing = packing.filter(|s| accept.pack_slot_bits as usize == s.slot_bits);
        let fold = announced_fold(&accept, &keypair.public());

        // Client-side execution plan: socket round trips for linear
        // stages, local executors for the rest.
        let mut nonlinear =
            nonlinear_execs(&stages, &keypair, scaled.factor(), config.seed).into_iter();
        let mut round = 0usize;
        let steps = stages
            .iter()
            .map(|stage| match stage.role {
                StageRole::Linear => {
                    let step = ClientStep::Linear { round };
                    round += 1;
                    step
                }
                StageRole::NonLinear => ClientStep::NonLinear(Box::new(
                    nonlinear.next().expect("one executor per non-linear stage"),
                )),
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
            route,
            scaled,
            steps,
            encrypt: encrypt_exec(keypair.public(), config.seed, Some(Arc::clone(&rand_pool))),
            rand_pool,
            pool: WorkerPool::new(config.threads.max(1)),
            transport,
            session: accept.session,
            items_done: 0,
            topology,
            fingerprint,
            max_resumes: config.max_resumes,
            item_deadline: config.item_deadline,
            stall_window: config.stall_window,
            packing,
            pack_batch: config.pack_batch,
            fold,
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

    /// The slot layout the server announced for folding its linear
    /// replies (DESIGN.md §8), or `None` when it folds none.
    pub fn fold_layout(&self) -> Option<PackingSpec> {
        self.fold
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
        // Top the pool up to the stream's worth of blinding factors in
        // parallel before the first request, so per-item encryption is a
        // cheap multiply on the request path. A packed batch spends one
        // factor per position, not per member; what it leaves over
        // serves the next call instead of piling up behind it.
        {
            let need = inputs.len() * self.scaled.input_shape().len();
            let seed = refill_seed(self.encrypt.seed, self.items_done);
            let mut rand_pool = self.rand_pool.lock();
            let missing = need.saturating_sub(rand_pool.available());
            rand_pool.refill_parallel(missing, &self.pool, seed);
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
                    .map(|(j, input)| plain_msg(&self.scaled, base + j as u64, input))
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
                let plain = plain_msg(&self.scaled, seq, input);
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
            let sent_before = self.transport.frames_sent;
            let err = match self.try_request(&plain, deadline) {
                Ok(out) => return Ok(out),
                Err(e) => e,
            };
            // The server saw at least round 0 of this attempt, so a
            // retry is a true replay.
            let progressed = self.transport.frames_sent > sent_before;
            let recoverable = is_transient(&err) || matches!(err, StreamError::Stalled { .. });
            if !recoverable || resumes >= self.max_resumes {
                return Err(CoreError::from(err));
            }
            resumes += 1;
            match self.reconnect_and_resume() {
                Ok(()) => self.transport.items_replayed += progressed as u64,
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

    /// One linear round trip over the current connection, behind both
    /// the per-item and the packed round sets: stamp the remaining
    /// budget, send `request`, wait for the reply, count both frames,
    /// and hand the reply back only if it is on time, decodes, and
    /// echoes the request. `round` and `key` (the item's seq, or the
    /// batch's first) name the hop in errors. How each failure is
    /// answered is the caller's policy.
    fn linear_round<M: RoundMsg>(
        &mut self,
        round: usize,
        key: u64,
        request: &M,
        deadline: Option<Instant>,
    ) -> Result<M, RoundFailure> {
        let stage = || format!("linear-{round}@model (request {key})");
        // Remaining budget for this hop, re-stamped as a relative
        // duration (never a wall timestamp, so the peers' clocks need
        // not agree).
        let budget_ms = match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    return Err(RoundFailure::Expired);
                }
                Some((d - now).as_millis() as u64)
            }
            None => None,
        };
        let payload = to_frame(request);
        let len = payload.len() as u64;
        self.tx
            .send_payload_deadline(payload, budget_ms)
            .map_err(|e| RoundFailure::Io(e.at_stage(&format!("{} send", stage()))))?;
        self.transport.bytes_sent += len;
        self.transport.frames_sent += 1;
        let t_recv = Instant::now();
        let frame = match self.rx.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                return Err(RoundFailure::Io(StreamError::transport(
                    TransportErrorKind::Eof,
                    format!("server closed before the {} reply", stage()),
                )))
            }
            Err(e) => return Err(RoundFailure::Io(e.at_stage(&format!("{} reply", stage())))),
        };
        self.transport.bytes_received += frame.payload.len() as u64;
        self.transport.frames_received += 1;
        // Stall watchdog: a reply that took longer than the window marks
        // the connection as alive-but-stuck. The late frame is discarded
        // — replay is bit-identical, so dropping a valid reply is safe.
        if self.stall_window.is_some_and(|window| t_recv.elapsed() > window) {
            self.transport.stalls += 1;
            return Err(RoundFailure::BadReply(StreamError::Stalled { stage: stage() }));
        }
        if peek_tag(&frame.payload) == Some(MsgTag::ItemError) {
            return Err(match from_frame(frame.payload) {
                Ok(item_error) => RoundFailure::Item(item_error),
                Err(e) => RoundFailure::BadReply(e),
            });
        }
        let reply: M = from_frame(frame.payload).map_err(RoundFailure::BadReply)?;
        // A corrupted-but-decodable reply must die here, not flow into
        // a stage that would panic on it.
        if !request.answered_by(&reply, self.fold) {
            return Err(RoundFailure::BadReply(StreamError::Stage(format!(
                "{}: reply does not echo the request's seq, or its shape (and fold flag) \
                 does not match its ciphertext count (corrupt or misrouted)",
                stage()
            ))));
        }
        Ok(reply)
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
        let packed = {
            let mut pool = self.rand_pool.lock();
            packed::pack_plain_batch(spec, plains, &mut pool, self.encrypt.seed)
        };
        let mut msg = match packed {
            Ok(m) => m,
            Err(_) => return PackedRoundOutcome::Fallback { reset: false },
        };
        let last = self.steps.len() - 1;
        for i in 0..=last {
            match self.steps[i] {
                ClientStep::Linear { round } => {
                    msg = match self.linear_round(round, key, &msg, deadline) {
                        Ok(reply) => reply,
                        Err(failure) => {
                            let reset = match failure {
                                // Expired mid-flight: replay unpacked
                                // (with fresh per-item budgets). Past
                                // round 0 the server tracks the batch.
                                RoundFailure::Expired => round > 0,
                                // Dead socket: the per-item replay
                                // reconnects.
                                RoundFailure::Io(_) => false,
                                RoundFailure::BadReply(_) => true,
                                // A PackedAbort already released the
                                // server's batch state; any other error
                                // reply is a protocol surprise worth a
                                // clean slate.
                                RoundFailure::Item(ie) => {
                                    ie.kind != ItemErrorKind::PackedAbort || ie.seq != key
                                }
                            };
                            return PackedRoundOutcome::Fallback { reset };
                        }
                    };
                    self.transport.packed_rounds += 1;
                }
                ClientStep::NonLinear(ref nl) => {
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
    /// connection. A transport failure or an unusable reply is the
    /// caller's to recover by resume; a per-item verdict (expired
    /// budget, server error reply, undecryptable ciphertexts) resolves
    /// the item and leaves the session streaming.
    fn try_request(
        &mut self,
        plain: &PlainTensorMsg,
        deadline: Option<Instant>,
    ) -> Result<ItemResult, StreamError> {
        let seq = plain.seq;
        let failed = |kind, detail| Ok(ItemResult::Failed { kind, detail });
        let mut msg = self.encrypt.encrypt(plain.clone(), &self.pool);
        msg.folded = may_fold(self.fold, plain.values.iter().copied());
        let last = self.steps.len() - 1;
        for i in 0..=last {
            match self.steps[i] {
                ClientStep::Linear { round } => {
                    msg = match self.linear_round(round, seq, &msg, deadline) {
                        Ok(reply) => {
                            self.transport.folded_rounds += u64::from(reply.folded);
                            reply
                        }
                        Err(RoundFailure::Io(e) | RoundFailure::BadReply(e)) => return Err(e),
                        // An exhausted budget sheds the item client-side
                        // before the send.
                        Err(RoundFailure::Expired) => {
                            self.transport.deadline_expired += 1;
                            return failed(
                                ItemErrorKind::DeadlineExpired,
                                format!("budget exhausted before the linear-{round}@model send"),
                            );
                        }
                        Err(RoundFailure::Item(ie)) => {
                            if ie.seq != seq {
                                return Err(StreamError::Stage(format!(
                                    "linear-{round}@model (request {seq}): item-error reply \
                                     carries seq {} (misrouted)",
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
                                // abort, and CorruptReply is raised
                                // client-side; on the wire either still
                                // just fails the one item.
                                ItemErrorKind::PackedAbort | ItemErrorKind::CorruptReply => {}
                            }
                            return failed(ie.kind, ie.detail);
                        }
                    };
                }
                // Stage failures here mean the reply decoded as a frame
                // but its ciphertexts decrypt to garbage (or out-of-range
                // values). The connection is fine — fail the one item
                // instead of tearing down.
                ClientStep::NonLinear(ref nl) => {
                    if i == last {
                        return match nl.execute_final_folding(msg, self.fold, &self.pool) {
                            Ok(out) => Ok(ItemResult::Output(out)),
                            Err(e) => failed(ItemErrorKind::CorruptReply, e.to_string()),
                        };
                    }
                    msg = match nl.execute_folding(msg, self.fold, &self.pool) {
                        Ok(m) => m,
                        Err(e) => return failed(ItemErrorKind::CorruptReply, e.to_string()),
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
        // Drop the dead socket *first*, so the server sees its EOF (and
        // gives its admission slot back) before the resume asks for one.
        self.tx = Box::new(DeadHalf);
        self.rx = Box::new(DeadHalf);
        revive_fault(&self.fault);

        let resume = to_frame(&ResumeMsg {
            version: PROTOCOL_VERSION,
            session: self.session,
            items_done: self.items_done,
            topology: self.topology,
        });
        let (tx, rx, accept) = self.route.open(&mut self.transport, &resume, "resume", true)?;
        if accept.version != PROTOCOL_VERSION
            || accept.pk_fingerprint != self.fingerprint
            || accept.session != self.session
        {
            return Err(handshake_err(
                "server resume-accept did not echo the session parameters",
            ));
        }
        let (tx, rx) = wrap_transport(tx, rx, &self.fault);
        self.tx = tx;
        self.rx = rx;
        self.transport.reconnects += 1;
        // Resumed connections run unpacked: the replacement server
        // connection negotiated no packing (Resume has no proposal)
        // and its fresh PermStore has no packed permutations. Folding
        // goes on: the resume-accept announced the layout again.
        self.packing = None;
        self.fold = announced_fold(&accept, &self.encrypt.pk);
        Ok(())
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packable model (32-bit slots on a 128-bit key hold 3 members),
    /// its provider on the event loop, and a session connected under
    /// `config`.
    fn connected(config: &NetConfig) -> (ScaledModel, crate::ServerHandle, NetworkedSession) {
        let model =
            pp_nn::zoo::mlp("m", &[4, 6, 3], &mut StdRng::seed_from_u64(31)).expect("model");
        connected_to(ScaledModel::from_model(&model, 100), config)
    }

    /// As [`connected`], for a model of the caller's.
    fn connected_to(
        scaled: ScaledModel,
        config: &NetConfig,
    ) -> (ScaledModel, crate::ServerHandle, NetworkedSession) {
        let provider = Arc::new(ModelProvider::new(&scaled, config).expect("provider"));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let handle = provider
            .serve_forever(listener, crate::ServeOptions::default())
            .expect("spawn server");
        let session =
            NetworkedSession::connect(handle.addr(), scaled.clone(), config).expect("connect");
        (scaled, handle, session)
    }

    fn three_inputs() -> Vec<Tensor<f64>> {
        (0..3).map(|i| Tensor::from_flat(vec![0.1 * i as f64, -0.4, 0.7, 0.2])).collect()
    }

    #[test]
    fn packed_stream_calls_do_not_grow_the_pool() {
        // A call refills for one factor per input element of every
        // member, a packed batch spends one per position: the surplus
        // must carry over into the next call's refill, not accumulate.
        let mut config = NetConfig::small_test(128);
        config.pack_slot_bits = 32;
        let (_, handle, mut session) = connected(&config);
        for _ in 0..3 {
            let (_, report) = session.infer_stream(&three_inputs()).expect("packed call");
            assert_eq!(report.transport.expect("transport").packed_fallbacks, 0);
            assert_eq!(report.pool_misses, 0);
            // 3 members × 4 elements refilled, 4 positions spent.
            assert_eq!(session.rand_pool.lock().available(), 8);
        }
        assert!(session.shutdown().clean_shutdown);
        handle.shutdown();
    }

    /// Hands the first reply over `delay` late, then is transparent.
    struct LateOnce {
        inner: Box<dyn FrameReceiver>,
        delay: Option<Duration>,
    }

    impl FrameReceiver for LateOnce {
        fn recv(&mut self) -> Result<Option<Frame>, StreamError> {
            let frame = self.inner.recv();
            if let Some(delay) = self.delay.take() {
                std::thread::sleep(delay);
            }
            frame
        }
    }

    #[test]
    fn a_late_reply_is_one_stall_whichever_round_set_was_waiting() {
        // The one round trip, under its two callers: the first linear
        // reply of the stream arrives past the stall window. Per-item,
        // the item is resumed and replayed; packed, the batch falls back
        // with a reset (the reconnect) and its members replay unpacked,
        // which only the server counts. Either way: one stall, one
        // reconnect, the right answers.
        struct Case {
            pack_slot_bits: usize,
            items_replayed: u64,
            packed_fallbacks: u64,
            server_replays: u64,
        }
        let cases = [
            Case { pack_slot_bits: 0, items_replayed: 1, packed_fallbacks: 0, server_replays: 1 },
            Case { pack_slot_bits: 32, items_replayed: 0, packed_fallbacks: 1, server_replays: 3 },
        ];
        for case in cases {
            let mut config = NetConfig::small_test(128);
            config.pack_slot_bits = case.pack_slot_bits;
            config.stall_window = Some(Duration::from_millis(200));
            let (scaled, handle, mut session) = connected(&config);
            assert_eq!(session.packing.is_some(), case.pack_slot_bits > 0);
            session.rx = Box::new(LateOnce {
                inner: std::mem::replace(&mut session.rx, Box::new(DeadHalf)),
                delay: Some(Duration::from_millis(300)),
            });

            let inputs = three_inputs();
            let (outputs, _) = session.infer_stream(&inputs).expect("the stall is recovered");
            for (input, got) in inputs.iter().zip(&outputs) {
                let want = scaled.forward_scaled(&scaled.scale_input(input)).expect("reference");
                assert_eq!(got.data(), want.data());
            }
            let transport = session.shutdown();
            assert!(transport.clean_shutdown);
            assert_eq!(transport.stalls, 1, "packed: {}", case.pack_slot_bits > 0);
            assert_eq!(transport.reconnects, 1);
            assert_eq!(transport.items_replayed, case.items_replayed);
            assert_eq!(transport.packed_fallbacks, case.packed_fallbacks);
            assert_eq!(transport.packed_items, 0, "a resumed connection runs unpacked");

            let report = handle.shutdown();
            assert_eq!(report.resumed_sessions, 1);
            assert_eq!(report.replayed_items, case.server_replays);
            assert_eq!(report.requests, 3);
        }
    }

    /// Counts the ciphertexts of every linear reply it hands over — what
    /// the session then decrypts.
    struct CountingRx {
        inner: Box<dyn FrameReceiver>,
        ciphertexts: Arc<std::sync::atomic::AtomicU64>,
    }

    impl FrameReceiver for CountingRx {
        fn recv(&mut self) -> Result<Option<Frame>, StreamError> {
            let frame = self.inner.recv()?;
            if let Some(frame) = &frame {
                if peek_tag(&frame.payload) == Some(MsgTag::EncTensor) {
                    let reply: EncTensorMsg = from_frame(frame.payload.clone())?;
                    self.ciphertexts
                        .fetch_add(reply.cts.len() as u64, std::sync::atomic::Ordering::Relaxed);
                }
            }
            Ok(frame)
        }
    }

    /// Streams `inputs` through `session` and returns the outputs, the
    /// ciphertexts it was sent to decrypt and its folded-round count.
    fn counted_stream(
        session: &mut NetworkedSession,
        inputs: &[Tensor<f64>],
    ) -> (Vec<Tensor<i64>>, u64, u64) {
        let ciphertexts = Arc::new(std::sync::atomic::AtomicU64::new(0));
        session.rx = Box::new(CountingRx {
            inner: std::mem::replace(&mut session.rx, Box::new(DeadHalf)),
            ciphertexts: Arc::clone(&ciphertexts),
        });
        let (outputs, report) = session.infer_stream(inputs).expect("stream");
        let folded_rounds = report.transport.expect("transport").folded_rounds;
        (outputs, ciphertexts.load(std::sync::atomic::Ordering::Relaxed), folded_rounds)
    }

    #[test]
    fn folded_streams_equal_the_reference_and_decrypt_one_ciphertext_per_slot_group() {
        // The benchmark's three model shapes at 256-bit keys: three
        // 64-bit slots per ciphertext.
        use pp_nn::{zoo, Layer, Model};
        let mut rng = StdRng::seed_from_u64(71);
        let fanin = Model::new(
            "fanin",
            vec![1, 8, 8],
            vec![
                Layer::Flatten,
                zoo::dense_layer(&mut rng, 64, 8),
                Layer::ReLU,
                zoo::dense_layer(&mut rng, 8, 10),
                Layer::SoftMax,
            ],
        )
        .expect("fan-in model");
        let models = [
            zoo::healthcare_3fc("fc3", 30, &mut rng).expect("fc3"),
            fanin,
            zoo::small_convnet("conv", (1, 6, 6), 2, 10, &mut rng).expect("convnet"),
        ];
        let config = NetConfig::small_test(256);
        for model in models {
            let scaled = ScaledModel::from_model(&model, 1_000);
            let inputs: Vec<Tensor<f64>> = (0..2)
                .map(|i| {
                    let shape = scaled.input_shape().clone();
                    let n = shape.len();
                    let data = (0..n).map(|j| ((i * n + j) as f64 * 0.37).sin()).collect();
                    Tensor::from_vec(shape, data).expect("input")
                })
                .collect();
            let outputs_per_round: Vec<u64> = encapsulate_with(&scaled, config.merge_stages)
                .expect("stages")
                .iter()
                .filter(|s| s.role == StageRole::Linear)
                .map(|s| s.output_shape.len() as u64)
                .collect();
            let rounds = outputs_per_round.len() as u64;
            let items = inputs.len() as u64;

            let (scaled, handle, mut session) = connected_to(scaled, &config);
            let layout = session.fold_layout().expect("layout announced");
            assert_eq!((layout.slot_bits, layout.slots), (64, 3), "{}", model.name());
            let (folded, decrypted, folded_rounds) = counted_stream(&mut session, &inputs);
            for (input, got) in inputs.iter().zip(&folded) {
                let want = scaled.forward_scaled(&scaled.scale_input(input)).expect("reference");
                assert_eq!(got.data(), want.data(), "{}", model.name());
            }
            let per_item: u64 = outputs_per_round.iter().map(|n| n.div_ceil(3)).sum();
            assert_eq!(decrypted, items * per_item, "{}", model.name());
            assert_eq!(folded_rounds, items * rounds);
            assert!(session.shutdown().clean_shutdown);

            // The same stream with no layout on the client's side: no
            // request is flagged, so nothing comes back folded.
            let mut unfolded_session =
                NetworkedSession::connect(handle.addr(), scaled.clone(), &config).expect("connect");
            unfolded_session.fold = None;
            let (unfolded, decrypted, folded_rounds) =
                counted_stream(&mut unfolded_session, &inputs);
            assert_eq!(unfolded, folded, "{}: folding changed an output", model.name());
            assert_eq!(decrypted, items * outputs_per_round.iter().sum::<u64>());
            assert_eq!(folded_rounds, 0);
            assert!(unfolded_session.shutdown().clean_shutdown);

            let report = handle.shutdown();
            assert_eq!(report.folded_replies, items * rounds, "only the first session's");
            assert_eq!(report.requests, 2 * items);
        }
    }

    #[test]
    fn an_input_past_the_value_bound_travels_unfolded_and_is_still_correct() {
        let config = NetConfig::small_test(256);
        let (scaled, handle, mut session) = connected(&config);
        let bound = session.fold_layout().expect("layout").value_bound();
        // One element scaled just past the bound: round 0 must go
        // unflagged and come back one ciphertext per output. Its ReLU
        // output is back under the bound (weights are below 1), so the
        // second round folds again.
        let huge = (bound as f64 + 1000.0) / scaled.factor() as f64;
        let input = Tensor::from_flat(vec![huge, -0.4, 0.7, 0.2]);
        assert!(scaled.scale_input(&input).data()[0] >= bound);

        let (got, decrypted, folded_rounds) =
            counted_stream(&mut session, std::slice::from_ref(&input));
        let want = scaled.forward_scaled(&scaled.scale_input(&input)).expect("reference");
        assert_eq!(got[0].data(), want.data());
        assert_eq!(folded_rounds, 1, "flag clear on the first request and on its reply");
        assert_eq!(decrypted, 6 + 1, "six outputs unfolded, then three in one ciphertext");
        assert!(session.shutdown().clean_shutdown);
        assert_eq!(handle.shutdown().folded_replies, 1);
    }

    #[test]
    fn a_packing_session_still_packs_and_its_per_item_requests_fold() {
        // 64-bit batch slots on a 256-bit key hold three members; the
        // fourth input trails alone and travels per-item — folded.
        let mut config = NetConfig::small_test(256);
        config.pack_slot_bits = 64;
        let (scaled, handle, mut session) = connected(&config);
        assert_eq!(session.packing.map(|s| s.slots), Some(3));
        assert_eq!(session.fold_layout().map(|s| s.slots), Some(3));

        let mut inputs = three_inputs();
        inputs.push(Tensor::from_flat(vec![0.9, 0.1, -0.3, 0.5]));
        let (outputs, report) = session.infer_stream(&inputs).expect("stream");
        for (input, got) in inputs.iter().zip(&outputs) {
            let want = scaled.forward_scaled(&scaled.scale_input(input)).expect("reference");
            assert_eq!(got.data(), want.data());
        }
        let transport = report.transport.expect("transport");
        assert_eq!(transport.packed_items, 3);
        assert_eq!(transport.packed_fallbacks, 0);
        assert_eq!(transport.folded_rounds, 2, "the lone item's two rounds");
        assert!(session.shutdown().clean_shutdown);
        let report = handle.shutdown();
        assert_eq!(report.packed_rounds, 2);
        assert_eq!(report.folded_replies, 2);
    }

    #[test]
    fn a_folded_reply_answers_only_a_flagged_request_under_a_layout() {
        let layout = Some(PackingSpec { slot_bits: 64, slots: 3, op_budget: 1 << 10 });
        let tensor = |folded, cts: usize| EncTensorMsg {
            seq: 5,
            shape: vec![7],
            obfuscated: true,
            folded,
            cts: vec![vec![1]; cts],
        };
        let (asked, unasked) = (tensor(true, 4), tensor(false, 4));
        // Unfolded replies: one ciphertext per element, whatever was asked.
        assert!(asked.answered_by(&tensor(false, 7), layout));
        assert!(unasked.answered_by(&tensor(false, 7), None));
        assert!(!asked.answered_by(&tensor(false, 3), layout));
        // Folded replies: ⌈7 ÷ 3⌉ ciphertexts, asked for, layout known.
        assert!(asked.answered_by(&tensor(true, 3), layout));
        assert!(!asked.answered_by(&tensor(true, 2), layout), "one short");
        assert!(!asked.answered_by(&tensor(true, 4), layout), "one over");
        assert!(!asked.answered_by(&tensor(true, 7), layout), "unfolded count, folded flag");
        assert!(!asked.answered_by(&tensor(true, 3), None), "no layout announced");
        assert!(!unasked.answered_by(&tensor(true, 3), layout), "nobody asked");
        // And always the request's own seq.
        assert!(!asked.answered_by(&EncTensorMsg { seq: 6, ..tensor(true, 3) }, layout));
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
}
