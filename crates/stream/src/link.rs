//! Byte-counted inter-stage links — the simulated network between the
//! model provider's and data provider's servers.

use crate::chan::{bounded, Receiver, SendTimeoutError, Sender};
use crate::{StreamError, TransportErrorKind};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wire sentinel for "no deadline" in [`Frame::deadline_ms`]'s on-the-wire
/// encoding (see `tcp`): `u64::MAX` milliseconds is ~584 million years,
/// safely outside any real budget.
pub const NO_DEADLINE: u64 = u64::MAX;

/// A frame in flight: a request sequence number plus its serialized
/// payload.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Inference-request sequence number (assigned by the pipeline
    /// source).
    pub seq: u64,
    /// Remaining end-to-end deadline budget for this item, in
    /// milliseconds, measured at send time. Deadlines are *relative
    /// durations* re-stamped by the sender on every hop — never wall
    /// timestamps — so the two providers' clocks need not agree (only
    /// their clock *rates*, which NTP-free hosts already satisfy).
    /// `None` means the item has no deadline.
    pub deadline_ms: Option<u64>,
    /// Serialized tensor payload.
    pub payload: Bytes,
}

/// Bytes in front of every payload on the wire:
/// `seq: u64 LE | deadline_ms: u64 LE | len: u32 LE`.
pub const HEADER_LEN: usize = 20;

/// The wire header of a frame whose payload is `len` bytes; no deadline
/// travels as [`NO_DEADLINE`].
pub fn encode_header(seq: u64, deadline_ms: Option<u64>, len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&seq.to_le_bytes());
    h[8..16].copy_from_slice(&deadline_ms.unwrap_or(NO_DEADLINE).to_le_bytes());
    h[16..20].copy_from_slice(&len.to_le_bytes());
    h
}

/// Inverse of [`encode_header`]: `(seq, deadline_ms, payload length)`.
pub fn decode_header(h: &[u8; HEADER_LEN]) -> (u64, Option<u64>, usize) {
    let seq = u64::from_le_bytes(h[0..8].try_into().expect("8 bytes"));
    let deadline = u64::from_le_bytes(h[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(h[16..20].try_into().expect("4 bytes"));
    (seq, (deadline != NO_DEADLINE).then_some(deadline), len as usize)
}

impl Frame {
    /// A frame with no deadline.
    pub fn new(seq: u64, payload: Bytes) -> Self {
        Frame { seq, deadline_ms: None, payload }
    }

    /// A frame carrying `deadline_ms` of remaining budget.
    pub fn with_deadline(seq: u64, deadline_ms: u64, payload: Bytes) -> Self {
        Frame { seq, deadline_ms: Some(deadline_ms), payload }
    }
}

/// Receive-side sequence-monotonicity check, shared by the TCP transport
/// and the in-process link: each direction of a connection must carry
/// strictly increasing `Frame.seq`, so a reordered, duplicated, or
/// replayed frame is rejected instead of silently mis-ordering inference
/// results.
#[derive(Debug, Default)]
pub struct SeqValidator {
    last: Option<u64>,
}

impl SeqValidator {
    /// A fresh validator that accepts any first seq.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts `seq` iff it is strictly greater than every seq seen so
    /// far; otherwise returns `Transport { kind: Seq, .. }`.
    pub fn check(&mut self, seq: u64) -> Result<(), StreamError> {
        if let Some(last) = self.last {
            if seq <= last {
                return Err(StreamError::transport(
                    TransportErrorKind::Seq,
                    format!("frame seq {seq} not after {last} (reordered or duplicated frame)"),
                ));
            }
        }
        self.last = Some(seq);
        Ok(())
    }
}

/// Traffic counters for one link.
#[derive(Debug, Default)]
pub struct LinkStats {
    bytes: AtomicU64,
    frames: AtomicU64,
    depth: AtomicU64,
    max_depth: AtomicU64,
}

impl LinkStats {
    /// Total payload bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total frames transferred.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Frames currently queued in the link (sent, not yet received).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// High-water mark of [`depth`](LinkStats::depth) over the link's
    /// lifetime — how close the queue came to its capacity.
    pub fn max_depth(&self) -> u64 {
        self.max_depth.load(Ordering::Relaxed)
    }

    fn on_enqueue(&self, payload_len: usize) {
        self.bytes.fetch_add(payload_len as u64, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn on_dequeue(&self) {
        // Saturating: a frame counted at enqueue is always in flight, but
        // guard against underflow if halves are driven independently.
        let _ = self.depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
            Some(d.saturating_sub(1))
        });
    }
}

/// One directed link between pipeline stages. Bounded to provide
/// backpressure, as a real socket's TCP window would.
pub struct Link {
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    stats: Arc<LinkStats>,
}

impl Link {
    /// Creates a link with the given in-flight frame capacity.
    pub fn new(capacity: usize) -> Self {
        let (tx, rx) = bounded(capacity);
        Link { tx, rx, stats: Arc::new(LinkStats::default()) }
    }

    /// The shared traffic counters.
    pub fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(&self.stats)
    }

    /// Splits into sender and receiver halves for the two adjacent stages.
    pub fn split(self) -> (LinkSender, LinkReceiver) {
        (
            LinkSender { tx: self.tx, stats: Arc::clone(&self.stats) },
            LinkReceiver { rx: self.rx, stats: self.stats, validator: SeqValidator::new() },
        )
    }
}

/// Sending half of a link.
#[derive(Clone)]
pub struct LinkSender {
    tx: Sender<Frame>,
    stats: Arc<LinkStats>,
}

impl LinkSender {
    /// Sends a frame, blocking when the link is full (backpressure).
    /// Returns `false` if the receiver is gone.
    pub fn send(&self, frame: Frame) -> bool {
        let len = frame.payload.len();
        match self.tx.send(frame) {
            Ok(()) => {
                self.stats.on_enqueue(len);
                true
            }
            Err(_) => false,
        }
    }

    /// As [`send`](LinkSender::send), but blocks at most `timeout` when
    /// the link is full. A full link that stays full past the timeout is
    /// an overload signal — the caller gets `Transport { kind: Timeout }`
    /// and can shed the item instead of wedging the whole pipeline behind
    /// one stalled consumer.
    pub fn send_timeout(&self, frame: Frame, timeout: Duration) -> Result<(), StreamError> {
        let len = frame.payload.len();
        match self.tx.send_timeout(frame, timeout) {
            Ok(()) => {
                self.stats.on_enqueue(len);
                Ok(())
            }
            Err(SendTimeoutError::Timeout(_)) => Err(StreamError::transport(
                TransportErrorKind::Timeout,
                format!("link full for {timeout:?} (receiver not draining)"),
            )),
            Err(SendTimeoutError::Disconnected(_)) => Err(StreamError::Disconnected),
        }
    }
}

/// Receiving half of a link.
pub struct LinkReceiver {
    rx: Receiver<Frame>,
    stats: Arc<LinkStats>,
    validator: SeqValidator,
}

impl LinkReceiver {
    /// Receives the next frame; `None` when the sender side is closed and
    /// drained. Performs no sequence validation — see [`recv_strict`].
    ///
    /// [`recv_strict`]: LinkReceiver::recv_strict
    pub fn recv(&self) -> Option<Frame> {
        let frame = self.rx.recv().ok();
        if frame.is_some() {
            self.stats.on_dequeue();
        }
        frame
    }

    /// As [`recv`], but additionally enforces strict seq monotonicity
    /// across all frames received through this method: a reordered or
    /// duplicated frame yields `Transport { kind: Seq, .. }` instead of a
    /// silently mis-ordered inference.
    ///
    /// [`recv`]: LinkReceiver::recv
    pub fn recv_strict(&mut self) -> Result<Option<Frame>, StreamError> {
        match self.rx.recv() {
            Ok(frame) => {
                self.stats.on_dequeue();
                self.validator.check(frame.seq)?;
                Ok(Some(frame))
            }
            Err(_) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_flow_and_are_counted() {
        let link = Link::new(8);
        let stats = link.stats();
        let (tx, rx) = link.split();
        assert!(tx.send(Frame::new(1, Bytes::from_static(b"hello"))));
        assert!(tx.send(Frame::new(2, Bytes::from_static(b"world!"))));
        let f1 = rx.recv().unwrap();
        assert_eq!(f1.seq, 1);
        assert_eq!(&f1.payload[..], b"hello");
        let f2 = rx.recv().unwrap();
        assert_eq!(f2.seq, 2);
        assert_eq!(stats.bytes(), 11);
        assert_eq!(stats.frames(), 2);
    }

    #[test]
    fn drop_sender_ends_stream() {
        let link = Link::new(2);
        let (tx, rx) = link.split();
        tx.send(Frame::new(0, Bytes::new()));
        drop(tx);
        assert!(rx.recv().is_some());
        assert!(rx.recv().is_none());
    }

    #[test]
    fn seq_validator_rejects_reorder_and_duplicate() {
        let mut v = SeqValidator::new();
        v.check(3).unwrap(); // any first seq is fine
        v.check(4).unwrap();
        v.check(10).unwrap(); // gaps are fine; only ordering matters
        let dup = v.check(10).unwrap_err();
        assert!(matches!(
            dup,
            StreamError::Transport { kind: TransportErrorKind::Seq, .. }
        ));
        let reorder = v.check(5).unwrap_err();
        assert!(reorder.to_string().contains("not after 10"));
    }

    #[test]
    fn seq_validator_rejects_wraparound() {
        // u64::MAX → 0 is numerically a wraparound but semantically a
        // replay from the validator's point of view: seqs must be
        // strictly increasing, full stop.
        let mut v = SeqValidator::new();
        v.check(u64::MAX).unwrap();
        let err = v.check(0).unwrap_err();
        assert!(matches!(err, StreamError::Transport { kind: TransportErrorKind::Seq, .. }));
        assert!(err.to_string().contains("not after"), "{err}");
        // And the validator stays poisoned at the high-water mark.
        assert!(v.check(u64::MAX - 1).is_err());
    }

    #[test]
    fn seq_validator_accepts_any_first_seq() {
        // A connection resumed mid-stream legitimately starts above 0;
        // zero itself is also fine. Only the *relative* order matters.
        let mut nonzero = SeqValidator::new();
        nonzero.check(1_000_000).unwrap();
        let mut zero = SeqValidator::new();
        zero.check(0).unwrap();
        let mut max = SeqValidator::new();
        max.check(u64::MAX).unwrap();
    }

    #[test]
    fn seq_validator_rejects_immediate_duplicate_of_first_seq() {
        let mut v = SeqValidator::new();
        v.check(7).unwrap();
        let err = v.check(7).unwrap_err();
        assert!(matches!(err, StreamError::Transport { kind: TransportErrorKind::Seq, .. }));
    }

    #[test]
    fn recv_strict_flags_out_of_order_frames() {
        let link = Link::new(4);
        let (tx, mut rx) = link.split();
        tx.send(Frame::new(1, Bytes::new()));
        tx.send(Frame::new(2, Bytes::new()));
        tx.send(Frame::new(2, Bytes::new())); // duplicate
        drop(tx);
        assert_eq!(rx.recv_strict().unwrap().unwrap().seq, 1);
        assert_eq!(rx.recv_strict().unwrap().unwrap().seq, 2);
        let err = rx.recv_strict().unwrap_err();
        assert!(matches!(
            err,
            StreamError::Transport { kind: TransportErrorKind::Seq, .. }
        ));
    }

    #[test]
    fn send_timeout_flags_full_link_as_timeout() {
        let link = Link::new(1);
        let (tx, rx) = link.split();
        tx.send_timeout(Frame::new(0, Bytes::new()), Duration::from_millis(5)).unwrap();
        let err = tx
            .send_timeout(Frame::new(1, Bytes::new()), Duration::from_millis(5))
            .unwrap_err();
        assert!(matches!(
            err,
            StreamError::Transport { kind: TransportErrorKind::Timeout, .. }
        ));
        // Draining unsticks it; the timed-out frame was never counted.
        assert_eq!(rx.recv().unwrap().seq, 0);
        tx.send_timeout(Frame::new(1, Bytes::new()), Duration::from_millis(5)).unwrap();
    }

    #[test]
    fn send_timeout_on_closed_link_is_disconnected() {
        let link = Link::new(1);
        let (tx, rx) = link.split();
        drop(rx);
        let err = tx.send_timeout(Frame::new(0, Bytes::new()), Duration::from_millis(1));
        assert_eq!(err.unwrap_err(), StreamError::Disconnected);
    }

    #[test]
    fn stats_track_queue_depth_high_water_mark() {
        let link = Link::new(4);
        let stats = link.stats();
        let (tx, rx) = link.split();
        for seq in 0..3 {
            assert!(tx.send(Frame::new(seq, Bytes::new())));
        }
        assert_eq!(stats.depth(), 3);
        assert_eq!(stats.max_depth(), 3);
        rx.recv().unwrap();
        rx.recv().unwrap();
        assert_eq!(stats.depth(), 1);
        // The high-water mark is sticky.
        assert_eq!(stats.max_depth(), 3);
    }

    #[test]
    fn header_roundtrips_with_and_without_a_deadline() {
        let h = encode_header(0x0102, Some(250), 7);
        assert_eq!(h.len(), HEADER_LEN);
        assert_eq!(decode_header(&h), (0x0102, Some(250), 7));
        assert_eq!(decode_header(&encode_header(9, None, 0)), (9, None, 0));
        // The sentinel is the encoding of "none", whoever wrote it.
        assert_eq!(decode_header(&encode_header(9, Some(NO_DEADLINE), 0)).1, None);
    }

    #[test]
    fn frame_deadline_constructors() {
        let plain = Frame::new(7, Bytes::new());
        assert_eq!(plain.deadline_ms, None);
        let tight = Frame::with_deadline(7, 250, Bytes::new());
        assert_eq!(tight.deadline_ms, Some(250));
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        let link = Link::new(1);
        let (tx, rx) = link.split();
        tx.send(Frame::new(0, Bytes::new()));
        // Second send would block; do it from another thread and drain.
        let t = std::thread::spawn(move || {
            tx.send(Frame::new(1, Bytes::new()));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap().seq, 0);
        assert_eq!(rx.recv().unwrap().seq, 1);
        t.join().unwrap();
    }
}
