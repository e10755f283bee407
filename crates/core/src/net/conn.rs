//! The sans-IO connection state machine and the handshake checks in
//! front of it: frames in, replies and linear-round jobs out, no sockets.
//!
//! One served connection is a state machine over decoded frames: opening
//! frame -> `open_conn`, every later frame -> `on_frame`, and each
//! linear-round execution -> `run_job` + `on_exec_done`. The event loop
//! in `driver.rs` is the one driver of this machine: it decides *when*
//! frames arrive and *where* jobs execute (inline on a shard, or
//! coalesced across sessions in the batcher), never what they mean.

use super::report::ServeReport;
use super::server::ModelProvider;
use crate::encapsulate::{MergedStage, StageRole};
use crate::messages::{
    shape_holds, AcceptMsg, AckMsg, EncTensorMsg, HelloMsg, ItemErrorKind, ItemErrorMsg, MsgTag,
    PackedTensorMsg, RejectMsg, ResumeMsg, PROTOCOL_VERSION,
};
use crate::packed::{self, PACKED_PERM_BIT};
use crate::protocol::{linear_execs, LinearStage, PartitionMode};
use crate::CoreError;
use bytes::Bytes;
use pp_bigint::BigUint;
use pp_nn::scaling::ScaledOp;
use pp_paillier::packing::PackingSpec;
use pp_paillier::PublicKey;
use pp_stream_runtime::link::Frame;
use pp_stream_runtime::wire::{from_frame, to_frame, WireEncode};
use pp_stream_runtime::{StreamError, WorkerPool};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Encodes `msg` as an outbound reply for the driver to queue, and
/// charges it to the byte/frame counters.
fn reply<T: WireEncode>(report: &mut ServeReport, msg: &T) -> Bytes {
    let payload = to_frame(msg);
    report.bytes_out += payload.len() as u64;
    report.frames_out += 1;
    payload
}

/// Per-connection serving state after an accepted Hello/Resume.
pub(super) struct ConnState {
    session: u64,
    /// Negotiated packed layout (always `None` on resumed connections).
    packing: Option<PackingSpec>,
    /// The layout this connection's accept announced for folded replies
    /// ([`packed::fold_layout`]; the same on every connection of a
    /// session).
    fold: Option<PackingSpec>,
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
    pub(super) frame_ceiling: usize,
}

/// What the driver must do after the state machine absorbed one frame.
pub(super) enum FrameDisposition {
    /// Send these replies (possibly none) and keep reading.
    Continue(Vec<Bytes>),
    /// Run this linear-round job, then feed the outcome back through
    /// [`ModelProvider::on_exec_done`].
    Execute(ExecJob),
    /// The client said Bye; close cleanly.
    Clean,
}

/// A validated, admitted linear-round execution, detached from its
/// connection so it can run anywhere (inline, shard, or cross-session
/// batcher).
pub(super) struct ExecJob {
    round: usize,
    /// The connection's announced fold layout, for a per-item reply.
    fold: Option<PackingSpec>,
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
pub(super) enum JobDone {
    Item { seq: u64, round: usize, out: Executed<EncTensorMsg> },
    Packed { key: u64, members: u64, round: usize, out: Executed<PackedTensorMsg> },
}

/// Runs one admitted job on `pool`, trapping panics. Pure compute: no
/// session or report state is touched, which is what makes the job safe
/// to ship to the cross-session batcher.
pub(super) fn run_job(job: ExecJob, pool: &WorkerPool) -> JobDone {
    #[cfg(feature = "fault-injection")]
    let poison = job.poison;
    let ExecJob { round, fold, kind, execs, .. } = job;
    let exec = &execs[round];
    match kind {
        JobKind::Item { msg } => {
            let seq = msg.seq;
            let out = catch_unwind(AssertUnwindSafe(move || {
                #[cfg(feature = "fault-injection")]
                if poison {
                    panic!("injected poison item {seq}");
                }
                exec.execute_folding(msg, fold, pool)
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
                exec.execute_packed(msg, pool)
            }));
            JobDone::Packed { key, members, round, out }
        }
    }
}

impl ModelProvider {
    /// Absorbs a connection's opening frame: a valid Hello creates a
    /// session (packing negotiated, never assumed — the proposed layout
    /// must fit the key and cover this model's op budget, else the
    /// stream stays per-item), a valid Resume revives one (always
    /// unpacked: replay bookkeeping is per-item, and a resume already
    /// signals a degraded path). Anything else is rejected. Returns the
    /// Accept or Reject frame, and the serving state when accepted.
    pub(super) fn open_conn(
        &self,
        payload: Bytes,
        report: &mut ServeReport,
    ) -> (Bytes, Option<Box<ConnState>>) {
        match self.try_open(payload, report) {
            Ok((accept, conn)) => (accept, Some(Box::new(conn))),
            Err(reason) => (self.reject_reply(report, &reason), None),
        }
    }

    /// The accepting half of [`Self::open_conn`]; `Err` is the reason
    /// the Reject names.
    fn try_open(
        &self,
        payload: Bytes,
        report: &mut ServeReport,
    ) -> Result<(Bytes, ConnState), String> {
        match crate::messages::peek_tag(&payload) {
            Some(MsgTag::Hello) => {
                let hello: HelloMsg =
                    from_frame(payload).map_err(|_| "malformed hello frame".to_string())?;
                if let Some(reason) = self.validate_hello(&hello) {
                    return Err(reason);
                }
                let pk = PublicKey::from_n(BigUint::from_bytes_be(&hello.pk_n));
                let packing = self.negotiate_packing(&hello, &pk);
                let pk_n_len = hello.pk_n.len();
                let session =
                    self.sessions.create(hello.pk_n, hello.pk_fingerprint, hello.topology, packing);
                let conn = self.conn_state(session, &pk, pk_n_len, packing);
                Ok((self.accept_reply(report, hello.pk_fingerprint, &conn), conn))
            }
            Some(MsgTag::Resume) => {
                let resume: ResumeMsg =
                    from_frame(payload).map_err(|_| "malformed resume frame".to_string())?;
                if resume.version != PROTOCOL_VERSION {
                    return Err(format!(
                        "protocol version mismatch: server speaks {PROTOCOL_VERSION}, \
                         client {}",
                        resume.version
                    ));
                }
                let entry =
                    self.sessions.resume(resume.session, resume.items_done, resume.topology)?;
                report.resumed_sessions += 1;
                let pk = PublicKey::from_n(BigUint::from_bytes_be(&entry.pk_n));
                let conn = self.conn_state(resume.session, &pk, entry.pk_n.len(), None);
                Ok((self.accept_reply(report, entry.pk_fingerprint, &conn), conn))
            }
            _ => Err("first frame was neither hello nor resume".into()),
        }
    }

    /// Fresh serving state for a connection that handshook with `pk`
    /// (`pk_n_len` modulus bytes on the wire): its linear executors, the
    /// fold layout for that key and this model, and the governor's
    /// frame ceiling for that key width, this topology and the
    /// negotiated packing.
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
            fold: packed::fold_layout(pk, &self.stages),
            execs: Arc::new(linear_execs(&self.stages, pk, self.seed, PartitionMode::Partitioned)),
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
    pub(super) fn on_frame(
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
        if !shape_holds(&msg.shape, msg.cts.len()) {
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
            fold: conn.fold,
            #[cfg(feature = "fault-injection")]
            poison: self.poison_seq == Some(seq),
            kind: JobKind::Item { msg },
            execs: Arc::clone(&conn.execs),
        }))
    }

    /// Applies an executed job's outcome to its connection: advances the
    /// round bookkeeping and produces the reply — stage output, a
    /// quarantine refusal (panic trapped; the poison-item boundary), or
    /// a packed abort. A stage *error* (not panic) fails the connection.
    pub(super) fn on_exec_done(
        &self,
        conn: &mut ConnState,
        done: JobDone,
        report: &mut ServeReport,
    ) -> Result<Vec<Bytes>, CoreError> {
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
                report.folded_replies += u64::from(out.folded);
                Ok(vec![reply(report, &out)])
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
                    Ok(vec![reply(report, &out)])
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
    fn reject_reply(&self, report: &mut ServeReport, reason: &str) -> Bytes {
        report.rejected_handshakes += 1;
        report.last_error = Some(format!("rejected client: {reason}"));
        reply(report, &RejectMsg::mismatch(reason))
    }

    /// Builds a per-item error reply: the item fails, the session and
    /// the connection survive.
    fn item_error_reply(
        &self,
        report: &mut ServeReport,
        seq: u64,
        kind: ItemErrorKind,
        detail: &str,
    ) -> Bytes {
        reply(report, &ItemErrorMsg { seq, kind, detail: detail.to_string() })
    }

    /// The Accept for `conn`: the session, the packing it was granted
    /// and the fold layout its replies will use.
    fn accept_reply(
        &self,
        report: &mut ServeReport,
        pk_fingerprint: u64,
        conn: &ConnState,
    ) -> Bytes {
        let accept = AcceptMsg {
            version: PROTOCOL_VERSION,
            pk_fingerprint,
            topology: self.topology,
            session: conn.session,
            pack_slot_bits: conn.packing.map_or(0, |s| s.slot_bits as u32),
            fold_slot_bits: conn.fold.map_or(0, |s| s.slot_bits as u32),
            fold_budget: conn.fold.map_or(0, |s| s.op_budget),
        };
        reply(report, &accept)
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
        if !shape_holds(&msg.shape, msg.cts.len()) {
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
            fold: None,
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
    ) -> Bytes {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulate::encapsulate_with;
    use crate::net::NetConfig;
    use pp_nn::scaling::ScaledModel;
    use pp_nn::zoo;
    use pp_paillier::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn worker_panic_in_a_packed_round_aborts_the_batch_with_its_message() {
        // A batch that arrives already at the op budget overflows it in
        // the first dot product — on a pool worker, since the packed round
        // runs on the pool. The panic must cross the pool to `run_job`'s
        // trap with its message, and cost the batch, not the connection.
        let m = model(2);
        let mut config = NetConfig::small_test(128);
        config.threads = 2;
        let provider = ModelProvider::new(&m, &config).unwrap();
        let pk = Keypair::generate(128, &mut StdRng::seed_from_u64(5)).public();
        let budget = packed::required_budget(&provider.stages);
        let spec = PackingSpec::for_key(&pk, 32).unwrap().with_budget(budget);
        let mut conn = provider.conn_state(0, &pk, 16, Some(spec));

        let plains: Vec<_> = (0..2)
            .map(|seq| crate::messages::PlainTensorMsg { seq, shape: vec![4], values: vec![1; 4] })
            .collect();
        let mut factors = pp_paillier::RandomnessPool::new(pk.clone());
        let mut msg = packed::pack_plain_batch(spec, &plains, &mut factors, 1).unwrap();
        msg.weight = budget;

        let job = ExecJob {
            round: 0,
            fold: None,
            kind: JobKind::Packed { msg },
            execs: Arc::clone(&conn.execs),
            #[cfg(feature = "fault-injection")]
            poison: false,
        };
        let done = run_job(job, &provider.pool);
        let JobDone::Packed { out: Err(payload), .. } = &done else {
            panic!("the overflow must surface as a trapped panic");
        };
        assert!(panic_message(payload.as_ref()).contains("op budget"));

        let mut report = ServeReport::default();
        let replies =
            provider.on_exec_done(&mut conn, done, &mut report).expect("connection survives");
        assert_eq!(replies.len(), 1);
        assert_eq!(report.packed_aborts, 1);
    }

    #[test]
    fn panic_message_extracts_str_and_string() {
        let p = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
    }
}
