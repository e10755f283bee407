//! TCP framing: the real-network transport for running the two providers
//! as separate processes/hosts, as on the paper's nine-server testbed.
//!
//! Frames are length-prefixed:
//! `seq: u64 LE | deadline_ms: u64 LE | len: u32 LE | payload`, where
//! `deadline_ms` is the item's remaining end-to-end budget at send time
//! ([`crate::link::NO_DEADLINE`] = no deadline). The in-process
//! [`crate::link::Link`] and this transport carry the same [`Frame`]s, so
//! a pipeline stage can face either without changes.
//!
//! Error taxonomy (see [`StreamError`]): socket failures — refused
//! connections, resets, timeouts, mid-frame disconnects, sequence
//! violations — are [`StreamError::Transport`] with the failing operation
//! named; [`StreamError::Decode`] is reserved for malformed bytes. A
//! length prefix above the receiver's frame ceiling is
//! `Transport { kind: FrameLimit, .. }`, rejected **before** any payload
//! allocation, and the payload buffer for an accepted prefix grows only
//! as bytes actually arrive — an adversarial peer cannot make the
//! process reserve memory it never sent ([`TcpConfig::max_frame`],
//! `PP_MAX_FRAME`).
//!
//! Robustness knobs live in [`TcpConfig`]: connect retry with exponential
//! backoff + jitter ([`RetryPolicy`]), read/write timeouts, and receive-
//! side sequence-monotonicity validation (on by default — each direction
//! of a connection carries strictly increasing `Frame.seq`, which
//! [`TcpFrameSender::send_payload`] stamps automatically).

use crate::link::{decode_header, encode_header, Frame, SeqValidator, HEADER_LEN};
use crate::{StreamError, TransportErrorKind};
use bytes::Bytes;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connect-retry policy: exponential backoff with deterministic jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total connection attempts before giving up (min 1).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each further attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Scale each delay by a pseudo-random factor in [0.5, 1.0) so
    /// simultaneously restarting clients don't reconnect in lockstep.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no waiting — for tests and fail-fast callers.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1, ..Default::default() }
    }

    /// Backoff before attempt `attempt` (1-based; attempt 1 has none).
    /// Public so callers that drive their own attempt loop — e.g. the
    /// client's multi-address failover sweep — reuse the exact same
    /// backoff curve and jitter as [`connect_with`].
    pub fn delay_before(&self, attempt: u32, seed: u64) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let exp = (attempt - 2).min(16);
        let raw = self.base_delay.saturating_mul(1u32 << exp).min(self.max_delay);
        if !self.jitter {
            return raw;
        }
        // SplitMix64 on (seed, attempt): deterministic per process run,
        // decorrelated across processes.
        let mut z = seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let frac = ((z >> 11) as f64) / ((1u64 << 53) as f64); // [0, 1)
        raw.mul_f64(0.5 + frac / 2.0)
    }
}

/// Socket configuration for framed connections.
///
/// The read/write timeouts here are **per-syscall** socket deadlines —
/// they bound how long one `read(2)`/`write(2)` may block, not how long
/// an inference item may take end to end. An item's end-to-end budget is
/// the per-item deadline carried in [`Frame::deadline_ms`], enforced by
/// the stages that do the expensive work.
#[derive(Clone, Debug, Default)]
pub struct TcpConfig {
    /// Read deadline; `None` blocks indefinitely. An expired deadline
    /// surfaces as `Transport { kind: Timeout, .. }`.
    pub read_timeout: Option<Duration>,
    /// Write deadline; `None` blocks indefinitely.
    pub write_timeout: Option<Duration>,
    /// Connect-retry policy (used by [`connect_with`]).
    pub retry: RetryPolicy,
    /// Reject frames whose `seq` is not strictly greater than the last
    /// received one. Defaults to on.
    pub validate_seq: bool,
    /// Frame-size ceiling: a received length prefix above this is
    /// rejected as `Transport { kind: FrameLimit, .. }` before any
    /// payload allocation. `0` (the derived-`Default` value) means "use
    /// [`env_max_frame`]" — the `PP_MAX_FRAME` override or the 1 GiB
    /// default. Servers tighten this per connection to the governor's
    /// negotiated ceiling via [`TcpFrameReceiver::set_max_frame`].
    pub max_frame: usize,
}

/// The hard frame-size ceiling used when nothing tighter is configured.
pub const DEFAULT_MAX_FRAME: usize = 1 << 30;

/// Floor for configured frame ceilings: a handshake frame (key bytes
/// are capped at 4096 by validation, plus topology fields) must always
/// fit, so a mis-set `PP_MAX_FRAME` cannot brick every connection.
pub const MIN_MAX_FRAME: usize = 16 * 1024;

/// The process-wide frame ceiling: `PP_MAX_FRAME` (bytes, clamped to at
/// least [`MIN_MAX_FRAME`]) or [`DEFAULT_MAX_FRAME`]. Read per
/// connection setup, so tests and operators can adjust it without
/// rebuilding configs.
pub fn env_max_frame() -> usize {
    parse_max_frame(std::env::var("PP_MAX_FRAME").ok().as_deref())
}

/// Parses a `PP_MAX_FRAME`-style value: unset, garbage, or zero fall
/// back to [`DEFAULT_MAX_FRAME`]; positive values are clamped to at
/// least [`MIN_MAX_FRAME`]. Public so the serving crate's resource
/// governor parses the same way.
pub fn parse_max_frame(v: Option<&str>) -> usize {
    match v {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n.max(MIN_MAX_FRAME),
            _ => DEFAULT_MAX_FRAME,
        },
        None => DEFAULT_MAX_FRAME,
    }
}

// `Default` must derive for the field-less construction sites, but the
// semantic default turns validation ON — so route everything through
// `TcpConfig::new`.
impl TcpConfig {
    /// The default configuration: no timeouts, default retry policy,
    /// sequence validation enabled.
    pub fn new() -> Self {
        TcpConfig { validate_seq: true, ..Default::default() }
    }

    /// Disables receive-side sequence validation (for callers that stamp
    /// their own non-monotonic seqs).
    pub fn without_seq_validation(mut self) -> Self {
        self.validate_seq = false;
        self
    }

    /// Sets both read and write deadlines.
    pub fn with_timeouts(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = Some(read);
        self.write_timeout = Some(write);
        self
    }

    /// Replaces the connect-retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the frame-size ceiling (`0` restores the
    /// [`env_max_frame`] default).
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame;
        self
    }
}

/// Object-safe sending half of a framed transport. [`TcpFrameSender`]
/// is the real-socket implementation; the fault-injection layer
/// (`crate::fault`, behind the `fault-injection` feature) wraps any
/// implementor to inject deterministic failures, so protocol code can
/// hold a `Box<dyn FrameSender>` and stay oblivious.
pub trait FrameSender: Send {
    /// Sends one frame.
    fn send(&mut self, frame: &Frame) -> Result<(), StreamError>;
    /// Sends a payload stamped with the next transport seq; returns the
    /// seq used.
    fn send_payload(&mut self, payload: Bytes) -> Result<u64, StreamError>;
    /// As [`send_payload`](FrameSender::send_payload), but also stamps a
    /// remaining-deadline budget (milliseconds) onto the frame.
    fn send_payload_deadline(
        &mut self,
        payload: Bytes,
        deadline_ms: Option<u64>,
    ) -> Result<u64, StreamError>;
}

/// Object-safe receiving half of a framed transport; see [`FrameSender`].
pub trait FrameReceiver: Send {
    /// Receives the next frame; `None` on clean EOF.
    fn recv(&mut self) -> Result<Option<Frame>, StreamError>;

    /// Tightens (or relaxes) the receiver's frame-size ceiling — the
    /// server raises it from the pre-handshake cap to the governor's
    /// negotiated limit once a session is accepted. Implementations
    /// without a ceiling (in-memory test receivers) ignore it.
    fn set_max_frame(&mut self, _max_frame: usize) {}
}

fn io_err(kind: TransportErrorKind, what: &str, e: &std::io::Error) -> StreamError {
    // Expired socket deadlines surface as WouldBlock (Unix) / TimedOut
    // (Windows); fold both into the Timeout kind.
    let kind = match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportErrorKind::Timeout,
        _ => kind,
    };
    StreamError::transport(kind, format!("{what}: {e}"))
}

/// Sending half of a framed TCP connection.
pub struct TcpFrameSender {
    writer: BufWriter<TcpStream>,
    next_seq: u64,
}

impl TcpFrameSender {
    /// Sends one frame (flushes immediately — each frame is a protocol
    /// round trip, not a throughput stream).
    pub fn send(&mut self, frame: &Frame) -> Result<(), StreamError> {
        let io = |e: std::io::Error| {
            io_err(TransportErrorKind::Send, &format!("tcp send (seq {})", frame.seq), &e)
        };
        let len = u32::try_from(frame.payload.len()).map_err(|_| {
            StreamError::transport(
                TransportErrorKind::Send,
                format!(
                    "frame payload of {} bytes exceeds the u32 length prefix",
                    frame.payload.len()
                ),
            )
        })?;
        self.writer.write_all(&encode_header(frame.seq, frame.deadline_ms, len)).map_err(io)?;
        self.writer.write_all(&frame.payload).map_err(io)?;
        self.writer.flush().map_err(io)?;
        self.next_seq = self.next_seq.max(frame.seq.wrapping_add(1));
        Ok(())
    }

    /// Sends a payload stamped with this connection's next transport
    /// sequence number (strictly increasing per direction, so the peer's
    /// monotonicity validation holds). Returns the seq used.
    pub fn send_payload(&mut self, payload: Bytes) -> Result<u64, StreamError> {
        self.send_payload_deadline(payload, None)
    }

    /// As [`send_payload`](TcpFrameSender::send_payload), stamping a
    /// remaining-deadline budget in milliseconds.
    pub fn send_payload_deadline(
        &mut self,
        payload: Bytes,
        deadline_ms: Option<u64>,
    ) -> Result<u64, StreamError> {
        let seq = self.next_seq;
        self.send(&Frame { seq, deadline_ms, payload })?;
        Ok(seq)
    }
}

impl FrameSender for TcpFrameSender {
    fn send(&mut self, frame: &Frame) -> Result<(), StreamError> {
        TcpFrameSender::send(self, frame)
    }
    fn send_payload(&mut self, payload: Bytes) -> Result<u64, StreamError> {
        TcpFrameSender::send_payload(self, payload)
    }
    fn send_payload_deadline(
        &mut self,
        payload: Bytes,
        deadline_ms: Option<u64>,
    ) -> Result<u64, StreamError> {
        TcpFrameSender::send_payload_deadline(self, payload, deadline_ms)
    }
}

/// Receiving half of a framed TCP connection.
pub struct TcpFrameReceiver {
    reader: BufReader<TcpStream>,
    validator: Option<SeqValidator>,
    max_frame: usize,
}

impl TcpFrameReceiver {
    /// Replaces the frame-size ceiling (`0` restores the
    /// [`env_max_frame`] default). See [`FrameReceiver::set_max_frame`].
    pub fn set_max_frame(&mut self, max_frame: usize) {
        self.max_frame = if max_frame == 0 { env_max_frame() } else { max_frame };
    }

    /// Receives the next frame; `None` on clean EOF (the peer closed
    /// *between* frames). A disconnect mid-frame is
    /// `Transport { kind: Eof, .. }`, an expired read deadline
    /// `Transport { kind: Timeout, .. }`, a reordered/duplicated seq
    /// `Transport { kind: Seq, .. }`, and a length prefix above the
    /// configured ceiling `Transport { kind: FrameLimit, .. }` —
    /// rejected before any payload allocation.
    pub fn recv(&mut self) -> Result<Option<Frame>, StreamError> {
        // First header byte read separately: a clean shutdown closes the
        // socket exactly here, which `read` reports as Ok(0). Any EOF
        // after this point is a mid-frame disconnect.
        let mut header = [0u8; HEADER_LEN];
        let mut first = 0usize;
        while first == 0 {
            match self.reader.read(&mut header[..1]) {
                Ok(0) => return Ok(None),
                Ok(n) => first = n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(TransportErrorKind::Recv, "tcp recv (header)", &e)),
            }
        }
        self.read_exact_mid_frame(&mut header[1..], "header")?;
        let (seq, deadline_ms, len) = decode_header(&header);
        // Governor ceiling, checked before any allocation: an inflated
        // prefix must never force the process to reserve memory.
        if len > self.max_frame {
            return Err(StreamError::transport(
                TransportErrorKind::FrameLimit,
                format!(
                    "frame length prefix {len} exceeds the {}-byte frame ceiling",
                    self.max_frame
                ),
            ));
        }

        // Grow toward `len` only as bytes actually arrive: even an
        // in-ceiling prefix buys the peer at most 64 KiB of allocation
        // it hasn't paid for in sent bytes.
        let mut payload: Vec<u8> = Vec::with_capacity(len.min(64 * 1024));
        let mut scratch = [0u8; 16 * 1024];
        while payload.len() < len {
            let want = (len - payload.len()).min(scratch.len());
            match self.reader.read(&mut scratch[..want]) {
                Ok(0) => {
                    return Err(StreamError::transport(
                        TransportErrorKind::Eof,
                        "peer disconnected mid-frame while reading payload",
                    ))
                }
                Ok(n) => payload.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(TransportErrorKind::Recv, "tcp recv (payload)", &e)),
            }
        }

        if let Some(v) = &mut self.validator {
            v.check(seq)?;
        }
        Ok(Some(Frame { seq, deadline_ms, payload: Bytes::from(payload) }))
    }

    fn read_exact_mid_frame(&mut self, buf: &mut [u8], what: &str) -> Result<(), StreamError> {
        self.reader.read_exact(buf).map_err(|e| {
            if e.kind() == ErrorKind::UnexpectedEof {
                StreamError::transport(
                    TransportErrorKind::Eof,
                    format!("peer disconnected mid-frame while reading {what}"),
                )
            } else {
                io_err(TransportErrorKind::Recv, &format!("tcp recv ({what})"), &e)
            }
        })
    }
}

impl FrameReceiver for TcpFrameReceiver {
    fn recv(&mut self) -> Result<Option<Frame>, StreamError> {
        TcpFrameReceiver::recv(self)
    }
    fn set_max_frame(&mut self, max_frame: usize) {
        TcpFrameReceiver::set_max_frame(self, max_frame)
    }
}

/// Wraps a connected socket into framed halves (duplex: both sides can
/// send and receive on the same connection) with the default
/// configuration ([`TcpConfig::new`]).
pub fn framed(stream: TcpStream) -> Result<(TcpFrameSender, TcpFrameReceiver), StreamError> {
    framed_with(stream, &TcpConfig::new())
}

/// As [`framed`], with explicit socket configuration.
pub fn framed_with(
    stream: TcpStream,
    config: &TcpConfig,
) -> Result<(TcpFrameSender, TcpFrameReceiver), StreamError> {
    let setup = |what: &str, e: &std::io::Error| {
        StreamError::transport(TransportErrorKind::Setup, format!("{what}: {e}"))
    };
    stream.set_nodelay(true).map_err(|e| setup("nodelay", &e))?;
    stream
        .set_read_timeout(config.read_timeout)
        .map_err(|e| setup("read timeout", &e))?;
    stream
        .set_write_timeout(config.write_timeout)
        .map_err(|e| setup("write timeout", &e))?;
    let reader = stream.try_clone().map_err(|e| setup("clone socket", &e))?;
    Ok((
        TcpFrameSender { writer: BufWriter::new(stream), next_seq: 0 },
        TcpFrameReceiver {
            reader: BufReader::new(reader),
            validator: config.validate_seq.then(SeqValidator::new),
            max_frame: if config.max_frame == 0 { env_max_frame() } else { config.max_frame },
        },
    ))
}

/// Accepts one peer on an already-bound listener (lets callers bind
/// `127.0.0.1:0` first and publish the assigned port).
pub fn accept_on(
    listener: &TcpListener,
    config: &TcpConfig,
) -> Result<(TcpFrameSender, TcpFrameReceiver), StreamError> {
    let (stream, _) = listener
        .accept()
        .map_err(|e| StreamError::transport(TransportErrorKind::Accept, format!("accept: {e}")))?;
    framed_with(stream, config)
}

/// Outcome of [`connect_with`]: the framed halves plus how many attempts
/// the retry loop used (1 = first try succeeded).
pub struct Connected {
    pub tx: TcpFrameSender,
    pub rx: TcpFrameReceiver,
    pub attempts: u32,
}

/// Connects to a peer with the default configuration (the client side of
/// a provider link).
pub fn connect(
    addr: impl ToSocketAddrs,
) -> Result<(TcpFrameSender, TcpFrameReceiver), StreamError> {
    let c = connect_with(addr, &TcpConfig::new())?;
    Ok((c.tx, c.rx))
}

/// Connects with retry: exponential backoff + jitter per
/// [`TcpConfig::retry`]. Fails with `Transport { kind: Connect, .. }`
/// naming the attempt count once the policy is exhausted.
pub fn connect_with(addr: impl ToSocketAddrs, config: &TcpConfig) -> Result<Connected, StreamError> {
    let attempts_max = config.retry.max_attempts.max(1);
    // Jitter seed: decorrelate processes without pulling in a rand dep.
    let seed = std::process::id() as u64 ^ 0x5bd1_e995_9950_57ea;
    let mut last_err = None;
    for attempt in 1..=attempts_max {
        let delay = config.retry.delay_before(attempt, seed);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match TcpStream::connect(&addr) {
            Ok(stream) => {
                let (tx, rx) = framed_with(stream, config)?;
                return Ok(Connected { tx, rx, attempts: attempt });
            }
            Err(e) => last_err = Some(e),
        }
    }
    let e = last_err.expect("at least one attempt");
    Err(StreamError::transport(
        TransportErrorKind::Connect,
        format!("connect failed after {attempts_max} attempts: {e}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_localhost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (mut tx, mut rx) = framed(stream).unwrap();
            // Echo frames with seq+1 until EOF.
            while let Some(frame) = rx.recv().unwrap() {
                tx.send(&Frame { seq: frame.seq + 1, deadline_ms: frame.deadline_ms, payload: frame.payload }).unwrap();
            }
        });

        let (mut tx, mut rx) = connect(addr).unwrap();
        for i in 0..5u64 {
            let payload = Bytes::from(vec![i as u8; (i as usize + 1) * 100]);
            tx.send(&Frame::new(i, payload.clone())).unwrap();
            let echoed = rx.recv().unwrap().unwrap();
            assert_eq!(echoed.seq, i + 1);
            assert_eq!(echoed.payload, payload);
        }
        drop(tx);
        drop(rx);
        server.join().unwrap();
    }

    #[test]
    fn empty_payload_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (_tx, mut rx) = framed(stream).unwrap();
            let f = rx.recv().unwrap().unwrap();
            assert!(f.payload.is_empty());
            assert!(rx.recv().unwrap().is_none(), "clean EOF after sender drops");
        });
        let (mut tx, _rx) = connect(addr).unwrap();
        tx.send(&Frame::new(9, Bytes::new())).unwrap();
        drop(tx);
        drop(_rx);
        server.join().unwrap();
    }

    #[test]
    fn large_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        let expect = payload.clone();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (_tx, mut rx) = framed(stream).unwrap();
            let f = rx.recv().unwrap().unwrap();
            assert_eq!(&f.payload[..], &expect[..]);
        });
        let (mut tx, _rx) = connect(addr).unwrap();
        tx.send(&Frame::new(1, Bytes::from(payload))).unwrap();
        drop(tx);
        drop(_rx);
        server.join().unwrap();
    }

    #[test]
    fn deadline_budget_survives_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (_tx, mut rx) = framed(stream).unwrap();
            let with = rx.recv().unwrap().unwrap();
            assert_eq!(with.deadline_ms, Some(1500));
            let without = rx.recv().unwrap().unwrap();
            assert_eq!(without.deadline_ms, None, "NO_DEADLINE decodes back to None");
        });
        let (mut tx, _rx) = connect(addr).unwrap();
        tx.send_payload_deadline(Bytes::from_static(b"budgeted"), Some(1500)).unwrap();
        tx.send_payload(Bytes::from_static(b"unbounded")).unwrap();
        drop(tx);
        drop(_rx);
        server.join().unwrap();
    }

    #[test]
    fn send_payload_stamps_monotonic_seqs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (_tx, mut rx) = framed(stream).unwrap();
            for want in 0..3u64 {
                assert_eq!(rx.recv().unwrap().unwrap().seq, want);
            }
            assert!(rx.recv().unwrap().is_none());
        });
        let (mut tx, _rx) = connect(addr).unwrap();
        for _ in 0..3 {
            tx.send_payload(Bytes::from_static(b"x")).unwrap();
        }
        drop(tx);
        drop(_rx);
        server.join().unwrap();
    }

    #[test]
    fn backoff_delays_grow_and_respect_ceiling() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(45),
            jitter: false,
        };
        assert_eq!(p.delay_before(1, 0), Duration::ZERO);
        assert_eq!(p.delay_before(2, 0), Duration::from_millis(10));
        assert_eq!(p.delay_before(3, 0), Duration::from_millis(20));
        assert_eq!(p.delay_before(4, 0), Duration::from_millis(40));
        assert_eq!(p.delay_before(5, 0), Duration::from_millis(45), "ceiling");
        let jittered = RetryPolicy { jitter: true, ..p };
        for attempt in 2..6 {
            let d = jittered.delay_before(attempt, 7);
            let raw = p.delay_before(attempt, 0);
            assert!(d >= raw / 2 && d <= raw, "jitter within [raw/2, raw]: {d:?} vs {raw:?}");
        }
    }

    #[test]
    fn jitter_sequence_is_deterministic_per_seed() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            jitter: true,
        };
        let first: Vec<Duration> = (1..=8).map(|n| p.delay_before(n, 0xFEED)).collect();
        let again: Vec<Duration> = (1..=8).map(|n| p.delay_before(n, 0xFEED)).collect();
        assert_eq!(first, again, "same seed must reproduce the exact sequence");
        assert_eq!(first[0], Duration::ZERO, "attempt 1 never waits");

        let other: Vec<Duration> = (1..=8).map(|n| p.delay_before(n, 0xBEEF)).collect();
        assert_ne!(first, other, "different seeds must decorrelate the sequence");
    }

    #[test]
    fn zero_retry_policy_fails_on_first_refusal() {
        // Bind-then-drop finds a port that is currently refusing
        // connections; no_retry must surface Connect after one attempt.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let config = TcpConfig::new().with_retry(RetryPolicy::no_retry());
        let err = connect_with(addr, &config).err().expect("nothing is listening");
        match err {
            StreamError::Transport { kind, context } => {
                assert_eq!(kind, TransportErrorKind::Connect);
                assert!(context.contains("after 1 attempts"), "names the attempt count: {context}");
            }
            other => panic!("expected Transport/Connect, got {other:?}"),
        }
    }

    #[test]
    fn inflated_length_prefix_rejected_as_transport_before_allocation() {
        // A hostile peer claims a ~4 GiB frame. The receiver must fail
        // with Transport/FrameLimit on the prefix alone — before
        // allocating a payload buffer (the payload is never sent, so a
        // post-allocation guard would hang on the read instead).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut hostile = Vec::new();
            hostile.extend_from_slice(&0u64.to_le_bytes()); // seq
            hostile.extend_from_slice(&crate::link::NO_DEADLINE.to_le_bytes());
            hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // len
            s.write_all(&hostile).unwrap();
            // Hold the socket open: the guard must fire on the prefix,
            // not on a mid-frame EOF.
            std::thread::sleep(Duration::from_millis(200));
        });
        let config = TcpConfig::new().with_timeouts(Duration::from_secs(5), Duration::from_secs(5));
        let (_tx, mut rx) = accept_on(&listener, &config).unwrap();
        let err = rx.recv().err().expect("oversize prefix must be rejected");
        match err {
            StreamError::Transport { kind, context } => {
                assert_eq!(kind, TransportErrorKind::FrameLimit);
                assert!(context.contains("frame ceiling"), "names the ceiling: {context}");
            }
            other => panic!("expected Transport/FrameLimit, got {other:?}"),
        }
        client.join().unwrap();
    }

    #[test]
    fn tightened_ceiling_rejects_frames_the_default_would_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let (mut tx, _rx) = connect(addr).unwrap();
            tx.send(&Frame::new(0, Bytes::from(vec![7u8; 4096]))).unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let config = TcpConfig::new().with_timeouts(Duration::from_secs(5), Duration::from_secs(5));
        let (_tx, mut rx) = accept_on(&listener, &config).unwrap();
        rx.set_max_frame(1024);
        match rx.recv() {
            Err(StreamError::Transport { kind, .. }) => {
                assert_eq!(kind, TransportErrorKind::FrameLimit);
            }
            other => panic!("expected FrameLimit under a 1 KiB ceiling, got {other:?}"),
        }
        client.join().unwrap();
    }

    #[test]
    fn env_max_frame_parses_and_clamps_to_the_handshake_floor() {
        // Parsing, not env mutation (env vars are racy across the
        // parallel test harness): the clamp logic is what matters.
        assert_eq!(parse_max_frame(None), DEFAULT_MAX_FRAME, "unset uses the default");
        assert_eq!(parse_max_frame(Some("junk")), DEFAULT_MAX_FRAME, "garbage uses the default");
        assert_eq!(parse_max_frame(Some("0")), DEFAULT_MAX_FRAME, "zero uses the default");
        assert_eq!(
            parse_max_frame(Some("64")),
            MIN_MAX_FRAME,
            "tiny env ceilings clamp up so handshakes always fit"
        );
        assert_eq!(parse_max_frame(Some("1048576")), 1 << 20);
        let config = TcpConfig::new().with_max_frame(64);
        assert_eq!(config.max_frame, 64, "explicit config ceilings are not clamped");
    }

    #[test]
    fn trait_objects_carry_frames() {
        // The dyn-dispatched path must behave exactly like the concrete
        // one — the networked session holds `Box<dyn Frame{Sender,Receiver}>`.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (tx, rx) = framed(stream).unwrap();
            let mut tx: Box<dyn FrameSender> = Box::new(tx);
            let mut rx: Box<dyn FrameReceiver> = Box::new(rx);
            while let Some(frame) = rx.recv().unwrap() {
                tx.send(&Frame { seq: frame.seq + 1, deadline_ms: frame.deadline_ms, payload: frame.payload }).unwrap();
            }
        });
        let (tx, rx) = connect(addr).unwrap();
        let mut tx: Box<dyn FrameSender> = Box::new(tx);
        let mut rx: Box<dyn FrameReceiver> = Box::new(rx);
        let seq = tx.send_payload(Bytes::from_static(b"dyn")).unwrap();
        let echoed = rx.recv().unwrap().unwrap();
        assert_eq!(echoed.seq, seq + 1);
        assert_eq!(&echoed.payload[..], b"dyn");
        drop(tx);
        drop(rx);
        server.join().unwrap();
    }
}
