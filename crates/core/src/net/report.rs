//! The two report structs: [`TransportReport`] counted by the client,
//! [`ServeReport`] counted by the server and merged across its threads.

#[cfg(doc)]
use super::{ModelProvider, NetConfig, NetworkedSession, ServeOptions};
#[cfg(doc)]
use crate::governor::GovernorConfig;
#[cfg(doc)]
use crate::messages::{ByeMsg, ItemErrorKind, RejectCode, ResumeMsg};
#[cfg(doc)]
use crate::session::RunReport;

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
    /// Linear replies that arrived folded into slot-packed ciphertexts
    /// (DESIGN.md §8). Zero on a stream of per-item requests means
    /// folding is off — no layout announced, or every request's values
    /// fell outside it.
    pub folded_rounds: u64,
    /// Whether the connection ended without a transport error.
    pub clean_shutdown: bool,
}

/// Server-side statistics, aggregated over every connection a
/// [`ModelProvider::serve_forever`] call handled.
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
    /// Per-item linear replies sent folded into slot-packed ciphertexts
    /// (the request was flagged and the connection has a layout).
    pub folded_replies: u64,
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
        self.folded_replies += other.folded_replies;
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

#[cfg(test)]
mod tests {
    use super::*;

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
            folded_replies: 6,
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
        assert_eq!(total.folded_replies, 6);
        assert_eq!(total.oversize_frames, 3);
        assert_eq!(total.evicted_slow, 2);
        assert_eq!(total.budget_rejected, 1);
        assert!(total.clean_shutdown);
        assert_eq!(total.last_error.as_deref(), Some("boom"));
    }
}
