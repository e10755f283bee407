//! Readiness-driven event loop primitives for the serving path
//! (DESIGN.md §9): a `poll(2)` readiness set, a socketpair waker, and
//! an incremental frame codec for nonblocking sockets.
//!
//! The repository vendors no FFI crates; the one kernel interface this
//! module needs beyond `std` is `poll(2)`, declared in a plain
//! `extern "C"` block against the libc that `std` already links. A
//! wake-up scans every registered fd, which is noise next to the tens
//! of milliseconds of multi-exponentiation one linear round costs.
//!
//! The codec half ([`FrameReader`]/[`WriteBuf`]) speaks exactly the
//! blocking transport's wire format
//! (`seq: u64 LE | deadline_ms: u64 LE | len: u32 LE | payload`, see
//! `pp_stream_runtime::tcp`): same `NO_DEADLINE` sentinel, same
//! governor-derived frame ceiling surfacing as a
//! `Transport { kind: FrameLimit }` error before any payload is
//! buffered, same per-direction strictly-increasing transport seqs,
//! same optional receive-side monotonicity validation — so a client
//! speaking to the event loop cannot tell it apart from a thread
//! holding a `TcpFrameSender`.

use pp_stream_runtime::link::{decode_header, encode_header, Frame, SeqValidator, HEADER_LEN};
use pp_stream_runtime::{tcp, StreamError, TransportErrorKind};

// ---------------------------------------------------------------------------
// Readiness backend: poll(2) + socketpair waker
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use parking_lot::Mutex;
    use std::ffi::c_int;
    use std::io::{self, ErrorKind, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// `struct pollfd`; the layout and the event bits below are the
    /// same on every Unix.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// `nfds_t` is `unsigned long` on Linux and `unsigned int` on the
    /// BSD family (macOS included).
    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// The registered fds and, at the same index, their tokens.
    #[derive(Default)]
    struct Registry {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Registry {
        fn position(&self, fd: i32) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "fd is not registered"))
        }
    }

    /// Read interest is always on (every connection is waiting for its
    /// peer's next frame); write interest only while a write buffer is
    /// non-empty.
    fn interest(writable: bool) -> i16 {
        if writable {
            POLLIN | POLLOUT
        } else {
            POLLIN
        }
    }

    /// One level-triggered readiness set over `poll(2)`.
    #[derive(Default)]
    pub struct Poller {
        registry: Mutex<Registry>,
    }

    impl Poller {
        pub fn new() -> Poller {
            Poller::default()
        }

        pub fn add(&self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
            let mut reg = self.registry.lock();
            if fd < 0 || reg.position(fd).is_ok() {
                return Err(io::Error::new(
                    ErrorKind::InvalidInput,
                    "fd is negative or already registered",
                ));
            }
            reg.fds.push(PollFd { fd, events: interest(writable), revents: 0 });
            reg.tokens.push(token);
            Ok(())
        }

        pub fn modify(&self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
            let mut reg = self.registry.lock();
            let i = reg.position(fd)?;
            reg.fds[i].events = interest(writable);
            reg.tokens[i] = token;
            Ok(())
        }

        pub fn delete(&self, fd: i32) -> io::Result<()> {
            let mut reg = self.registry.lock();
            let i = reg.position(fd)?;
            reg.fds.swap_remove(i);
            reg.tokens.swap_remove(i);
            Ok(())
        }

        /// Blocks until readiness or `timeout` (`None` = indefinitely)
        /// and reports every ready fd. The registry is copied out first,
        /// so a registration from another thread never waits behind a
        /// parked `wait`; it takes effect at the next call (pair it with
        /// a [`Waker`]).
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let (mut fds, tokens) = {
                let reg = self.registry.lock();
                (reg.fds.clone(), reg.tokens.clone())
            };
            let deadline = timeout.map(|t| Instant::now() + t);
            loop {
                let timeout_ms: c_int = match deadline {
                    // Round up so a 100µs timer doesn't busy-spin at 0ms.
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        left.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
                    }
                    None => -1,
                };
                // SAFETY: `fds` is an exclusively borrowed, live slice of
                // `fds.len()` `#[repr(C)]` pollfd records; poll(2) writes
                // only their `revents` fields.
                let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
                if ret >= 0 {
                    break;
                }
                let e = io::Error::last_os_error();
                if e.kind() != ErrorKind::Interrupted {
                    return Err(e);
                }
            }
            for (p, &token) in fds.iter().zip(&tokens) {
                if p.revents != 0 {
                    out.push(Event {
                        token,
                        readable: p.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0,
                        writable: p.revents & (POLLOUT | POLLHUP | POLLERR) != 0,
                    });
                }
            }
            Ok(())
        }
    }

    /// One readiness notification.
    #[derive(Clone, Copy, Debug)]
    pub struct Event {
        pub token: u64,
        pub readable: bool,
        pub writable: bool,
    }

    /// Cross-thread wakeup for a [`Poller`]: a nonblocking socketpair
    /// whose read end is registered like any other fd. Cloneable and
    /// cheap to signal.
    #[derive(Clone)]
    pub struct Waker {
        /// `(read end, write end)`.
        pair: Arc<(UnixStream, UnixStream)>,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Waker { pair: Arc::new((rx, tx)) })
        }

        /// The fd to register with the poller.
        pub fn raw_fd(&self) -> i32 {
            self.pair.0.as_raw_fd()
        }

        /// Signals the poller. Never blocks: a full socket buffer
        /// (`WouldBlock`) already guarantees a pending wakeup.
        pub fn wake(&self) {
            let _ = (&self.pair.1).write(&[1]);
        }

        /// Clears every pending wakeup (called by the woken thread; the
        /// read end stays ready until emptied).
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.pair.0).read(&mut buf), Ok(n) if n == buf.len()) {}
        }
    }
}

#[cfg(unix)]
pub use sys::{Event, Poller, Waker};

// ---------------------------------------------------------------------------
// Incremental frame codec for nonblocking sockets
// ---------------------------------------------------------------------------

/// Reassembles frames from arbitrarily-chunked nonblocking reads.
///
/// The frame ceiling starts at the process-wide `PP_MAX_FRAME` default
/// and is tightened by the serve path: pre-handshake connections get the
/// governor's small pre-auth cap, then the negotiated ceiling once the
/// handshake pins key width and topology (see `crate::governor`). A
/// longer prefix is a `Transport { kind: FrameLimit }` breach, rejected
/// before the payload would be buffered.
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
    validator: Option<SeqValidator>,
}

impl FrameReader {
    pub fn new(validate_seq: bool) -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            max_frame: tcp::env_max_frame(),
            validator: validate_seq.then(SeqValidator::new),
        }
    }

    /// Tightens (or relaxes) the frame ceiling; 0 restores the env
    /// default. Mirrors `TcpFrameReceiver::set_max_frame`.
    pub fn set_max_frame(&mut self, max_frame: usize) {
        self.max_frame = if max_frame == 0 { tcp::env_max_frame() } else { max_frame };
    }

    /// Bytes currently buffered (read but not yet consumed as frames) —
    /// this connection's decode footprint for governor accounting.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Appends freshly-read bytes.
    pub fn extend_from(&mut self, data: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived idle
        // session holds no more than one frame of buffer.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Pops the next complete frame; `Ok(None)` means more bytes are
    /// needed. Errors mirror the blocking receiver: oversize length
    /// prefix → `Transport { kind: FrameLimit }`, seq regression →
    /// `Transport { kind: Seq }`.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, StreamError> {
        let Some(header) = self.buf[self.start..].first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let (seq, deadline_ms, len) = decode_header(header);
        if len > self.max_frame {
            return Err(StreamError::transport(
                TransportErrorKind::FrameLimit,
                format!("frame length prefix {len} exceeds the {}-byte frame ceiling", self.max_frame),
            ));
        }
        let body = self.start + HEADER_LEN;
        let Some(payload) = self.buf.get(body..body + len) else {
            return Ok(None);
        };
        let payload = bytes::Bytes::from(payload.to_vec());
        self.start = body + len;
        if let Some(v) = &mut self.validator {
            v.check(seq)?;
        }
        Ok(Some(Frame { seq, deadline_ms, payload }))
    }

}

/// Outgoing frame buffer: encodes frames with this direction's
/// strictly-increasing transport seq (same numbering as
/// `TcpFrameSender::send_payload`, starting at 0) and drains them
/// through nonblocking writes, tolerating partial progress.
#[derive(Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    start: usize,
    next_seq: u64,
}

impl WriteBuf {
    /// Encodes `payload` as the next frame (no deadline — server
    /// replies never carry one, matching `send_payload`).
    pub fn queue(&mut self, payload: &[u8]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.reserve(HEADER_LEN + payload.len());
        self.buf.extend_from_slice(&encode_header(seq, None, payload.len() as u32));
        self.buf.extend_from_slice(payload);
    }

    /// Bytes queued but not yet written — this connection's reply
    /// backlog, which the governor compares against its slow-consumer
    /// cap.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Writes as much as the socket accepts; `Ok(true)` once drained.
    /// `WouldBlock` is progress-so-far, not an error.
    pub fn flush(&mut self, stream: &mut impl std::io::Write) -> std::io::Result<bool> {
        use std::io::ErrorKind;
        while self.start < self.buf.len() {
            match stream.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.start += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.start = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_stream_runtime::link::NO_DEADLINE;

    fn frame_bytes(seq: u64, deadline: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&deadline.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn reader_reassembles_across_arbitrary_chunks() {
        let mut wire = frame_bytes(0, NO_DEADLINE, b"hello");
        wire.extend(frame_bytes(1, 250, b""));
        wire.extend(frame_bytes(2, NO_DEADLINE, &[7u8; 300]));

        // Feed one byte at a time: every split point must be survivable.
        let mut r = FrameReader::new(true);
        let mut got = Vec::new();
        for &b in &wire {
            r.extend_from(&[b]);
            while let Some(f) = r.next_frame().expect("valid frames") {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(&got[0].payload[..], b"hello");
        assert_eq!(got[0].deadline_ms, None);
        assert_eq!(got[1].deadline_ms, Some(250), "deadline survives the wire");
        assert!(got[1].payload.is_empty());
        assert_eq!(got[2].payload.len(), 300);
        assert_eq!(r.buffered_len(), 0);
    }

    #[test]
    fn reader_rejects_oversize_length_prefix_as_frame_limit() {
        let mut r = FrameReader::new(false);
        r.extend_from(&frame_bytes(0, NO_DEADLINE, b"x")[..HEADER_LEN - 4]);
        r.extend_from(&(((1usize << 30) + 1) as u32).to_le_bytes());
        match r.next_frame() {
            Err(StreamError::Transport { kind: TransportErrorKind::FrameLimit, context }) => {
                assert!(context.contains("frame ceiling"), "{context}")
            }
            other => panic!("expected FrameLimit, got {other:?}"),
        }
        assert_eq!(r.buffered_len(), HEADER_LEN, "nothing past the header was buffered");
    }

    #[test]
    fn reader_ceiling_is_tightenable_per_connection() {
        // The governor hands pre-auth connections a small cap; a frame
        // the default would admit must then be rejected.
        let mut r = FrameReader::new(false);
        r.set_max_frame(1024);
        r.extend_from(&frame_bytes(0, NO_DEADLINE, &[7u8; 4096]));
        match r.next_frame() {
            Err(StreamError::Transport { kind: TransportErrorKind::FrameLimit, .. }) => {}
            other => panic!("expected FrameLimit under a 1 KiB ceiling, got {other:?}"),
        }
        // Relaxing back to the env default admits it again.
        let mut ok = FrameReader::new(false);
        ok.set_max_frame(1024);
        ok.set_max_frame(0);
        ok.extend_from(&frame_bytes(0, NO_DEADLINE, &[7u8; 4096]));
        assert!(ok.next_frame().expect("within default ceiling").is_some());
    }

    #[test]
    fn reader_enforces_seq_monotonicity() {
        let mut r = FrameReader::new(true);
        r.extend_from(&frame_bytes(5, NO_DEADLINE, b"a"));
        r.extend_from(&frame_bytes(5, NO_DEADLINE, b"b"));
        assert!(r.next_frame().expect("first ok").is_some());
        assert!(r.next_frame().is_err(), "duplicate seq must be rejected");
    }

    #[test]
    fn write_buf_stamps_monotonic_seqs_and_survives_partial_writes() {
        let mut w = WriteBuf::default();
        w.queue(b"first");
        w.queue(b"second");

        // A sink that accepts at most 3 bytes per call exercises the
        // partial-progress path.
        struct Dribble(Vec<u8>);
        impl std::io::Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Dribble(Vec::new());
        while !w.flush(&mut sink).expect("writable") {}
        assert_eq!(w.pending_len(), 0);

        let mut r = FrameReader::new(true);
        r.extend_from(&sink.0);
        let a = r.next_frame().expect("ok").expect("first");
        let b = r.next_frame().expect("ok").expect("second");
        assert_eq!((a.seq, &a.payload[..]), (0, &b"first"[..]));
        assert_eq!((b.seq, &b.payload[..]), (1, &b"second"[..]));
    }

    #[cfg(unix)]
    mod poller {
        use super::super::{Poller, Waker};
        use std::io::{Read, Write};
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;
        use std::time::{Duration, Instant};

        const SHORT: Option<Duration> = Some(Duration::from_millis(5));
        const LONG: Option<Duration> = Some(Duration::from_secs(5));

        #[test]
        fn reports_read_and_write_readiness_and_modify_toggles_write_interest() {
            let (mut a, b) = UnixStream::pair().expect("pair");
            let poller = Poller::new();
            poller.add(b.as_raw_fd(), 7, false).expect("register");
            let mut events = Vec::new();

            poller.wait(&mut events, SHORT).expect("wait");
            assert!(events.is_empty(), "idle socket, read interest only: {events:?}");

            // An empty send buffer is writable as soon as anyone asks.
            poller.modify(b.as_raw_fd(), 7, true).expect("want write");
            poller.wait(&mut events, LONG).expect("wait");
            assert_eq!(events.len(), 1);
            assert!(events[0].token == 7 && events[0].writable && !events[0].readable);

            poller.modify(b.as_raw_fd(), 7, false).expect("drop write interest");
            poller.wait(&mut events, SHORT).expect("wait");
            assert!(events.is_empty(), "write interest is off again: {events:?}");

            a.write_all(b"ping").expect("send");
            poller.wait(&mut events, LONG).expect("wait");
            assert!(events.len() == 1 && events[0].token == 7 && events[0].readable);

            // Level-triggered: unread bytes are reported again.
            poller.wait(&mut events, LONG).expect("wait");
            assert!(events.len() == 1 && events[0].readable);

            // A closed peer is readable (the read then returns EOF).
            let mut buf = [0u8; 8];
            assert_eq!((&b).read(&mut buf).expect("drain"), 4);
            drop(a);
            poller.wait(&mut events, LONG).expect("wait");
            assert!(events.len() == 1 && events[0].readable);
            assert_eq!((&b).read(&mut buf).expect("eof"), 0);
        }

        #[test]
        fn deleted_fd_reports_nothing_further_and_registration_errors_are_named() {
            let (mut a, b) = UnixStream::pair().expect("pair");
            let poller = Poller::new();
            poller.add(b.as_raw_fd(), 1, false).expect("register");
            assert!(poller.add(b.as_raw_fd(), 2, false).is_err(), "double registration");
            a.write_all(b"x").expect("send");
            let mut events = Vec::new();
            poller.wait(&mut events, LONG).expect("wait");
            assert_eq!(events.len(), 1);

            poller.delete(b.as_raw_fd()).expect("delete");
            poller.wait(&mut events, SHORT).expect("wait");
            assert!(events.is_empty(), "a deleted fd is never reported: {events:?}");
            assert!(poller.delete(b.as_raw_fd()).is_err(), "already gone");
            assert!(poller.modify(b.as_raw_fd(), 1, true).is_err(), "already gone");
        }

        #[test]
        fn one_wait_reports_more_than_64_ready_fds() {
            let poller = Poller::new();
            let pairs: Vec<(UnixStream, UnixStream)> =
                (0..100).map(|_| UnixStream::pair().expect("pair")).collect();
            for (i, (a, b)) in pairs.iter().enumerate() {
                poller.add(b.as_raw_fd(), i as u64, false).expect("register");
                (&*a).write_all(b"x").expect("send");
            }
            let mut events = Vec::new();
            poller.wait(&mut events, LONG).expect("wait");
            let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
            tokens.sort_unstable();
            assert_eq!(tokens, (0..100).collect::<Vec<u64>>(), "every ready fd, each once");
            assert!(events.iter().all(|e| e.readable));
        }

        #[test]
        fn wait_returns_empty_once_the_timeout_expires() {
            let (_a, b) = UnixStream::pair().expect("pair");
            let poller = Poller::new();
            poller.add(b.as_raw_fd(), 1, false).expect("register");
            let mut events = Vec::new();
            let t0 = Instant::now();
            poller.wait(&mut events, Some(Duration::from_millis(30))).expect("wait");
            assert!(events.is_empty());
            assert!(t0.elapsed() >= Duration::from_millis(30), "returned early: {:?}", t0.elapsed());
        }

        #[test]
        fn waker_unblocks_an_indefinite_wait_and_wakes_coalesce() {
            let poller = Poller::new();
            let waker = Waker::new().expect("socketpair");
            poller.add(waker.raw_fd(), 0, false).expect("register waker");
            let mut events = Vec::new();

            // Whether the wake lands before or after the wait parks, the
            // wait must return with the waker's token.
            let remote = waker.clone();
            let t = std::thread::spawn(move || remote.wake());
            poller.wait(&mut events, None).expect("wait");
            assert!(events.len() == 1 && events[0].token == 0 && events[0].readable);
            t.join().expect("waker thread");

            // Many wakes are one readiness event, and one drain clears
            // them all (more than the drain's 64-byte read at once).
            for _ in 0..200 {
                waker.wake();
            }
            poller.wait(&mut events, LONG).expect("wait");
            assert_eq!(events.len(), 1);
            waker.drain();
            poller.wait(&mut events, SHORT).expect("wait");
            assert!(events.is_empty(), "drain must clear every pending wake: {events:?}");
        }
    }
}
