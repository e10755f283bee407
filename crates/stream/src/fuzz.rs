//! Seeded structure-aware wire fuzzing (behind the `fault-injection`
//! feature, like [`crate::fault`]).
//!
//! The decode surface of the deployment — frame headers, length
//! prefixes, message payloads — faces whatever bytes a peer chooses to
//! send. This module turns a *valid recorded* frame stream into hostile
//! variants by applying structure-aware mutations: length-prefix
//! inflation, truncation, bit flips, header field swaps, frame
//! reorder/replay, and mid-handshake garbage frames. The fuzz harness
//! (`tests/fuzz.rs` in the core crate) writes the mutated byte streams
//! at a live server on both serve paths and asserts the process neither
//! panics, nor hangs past a watchdog, nor allocates beyond the resource
//! governor's ceiling.
//!
//! Everything is deterministic from one `u64` seed (SplitMix64, the
//! same generator the fault plan uses), so a CI failure replays exactly
//! with `PP_FUZZ_SEED=<seed>` — no corpus files, no new dependencies.

use crate::link::{encode_header, Frame, NO_DEADLINE};

/// SplitMix64 — the same mixer the fault layer uses for seeded
/// decisions: cheap, and every output bit depends on every input bit.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One recorded wire frame, owned so mutations can edit it in place.
/// `deadline_ms` stores the raw on-wire value ([`NO_DEADLINE`] = none).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFrame {
    pub seq: u64,
    pub deadline_ms: u64,
    pub payload: Vec<u8>,
}

impl RawFrame {
    /// A frame with no deadline, as the transport's `send_payload`
    /// stamps them.
    pub fn new(seq: u64, payload: Vec<u8>) -> Self {
        RawFrame { seq, deadline_ms: NO_DEADLINE, payload }
    }

    /// Records a runtime [`Frame`].
    pub fn from_frame(f: &Frame) -> Self {
        RawFrame {
            seq: f.seq,
            deadline_ms: f.deadline_ms.unwrap_or(NO_DEADLINE),
            payload: f.payload.to_vec(),
        }
    }

    /// Appends this frame's wire encoding —
    /// `seq u64 LE | deadline u64 LE | len u32 LE | payload` — exactly
    /// as `TcpFrameSender::send` writes it. `lie` overrides the length
    /// prefix (the payload bytes stay truthful), which is how the
    /// inflated-prefix mutation is expressed.
    pub fn encode_into(&self, out: &mut Vec<u8>, lie: Option<u32>) {
        let deadline = (self.deadline_ms != NO_DEADLINE).then_some(self.deadline_ms);
        let len = lie.unwrap_or(self.payload.len() as u32);
        out.extend_from_slice(&encode_header(self.seq, deadline, len));
        out.extend_from_slice(&self.payload);
    }
}

/// The structure-aware mutation classes. Each run applies 1–3 of them,
/// seeded, so streams range from "one subtle lie" to "thorough mangling".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// One frame's length prefix claims more bytes than follow — the
    /// classic resource-exhaustion probe (up to a 4 GiB claim). The
    /// receiver must reject it at the governor ceiling *before*
    /// allocating, or starve on the missing bytes until EOF.
    InflateLen,
    /// The byte stream is cut short at a seeded offset, usually
    /// mid-frame.
    Truncate,
    /// 1–8 seeded bit flips anywhere in the encoded stream (headers and
    /// payloads alike).
    BitFlip,
    /// One frame's `seq` and `deadline_ms` header fields are swapped —
    /// type-confused but well-formed framing.
    FieldSwap,
    /// Two frames swap positions (breaks seq monotonicity and protocol
    /// order).
    Reorder,
    /// One frame is duplicated verbatim (a replayed seq).
    Replay,
    /// A garbage frame — valid header, seeded junk payload — is
    /// spliced in, possibly before the handshake completes.
    Garbage,
}

/// Every mutation class, in the order the seeded picker indexes them.
pub const ALL_MUTATIONS: [Mutation; 7] = [
    Mutation::InflateLen,
    Mutation::Truncate,
    Mutation::BitFlip,
    Mutation::FieldSwap,
    Mutation::Reorder,
    Mutation::Replay,
    Mutation::Garbage,
];

/// One mutated byte stream plus the mutation classes that produced it
/// (so a harness can assert class-specific counters, e.g. that an
/// inflated prefix showed up as a `FrameLimit` rejection).
#[derive(Clone, Debug)]
pub struct MutatedStream {
    pub bytes: Vec<u8>,
    pub mutations: Vec<Mutation>,
}

impl MutatedStream {
    /// Whether any applied mutation is of `class`.
    pub fn has(&self, class: Mutation) -> bool {
        self.mutations.contains(&class)
    }
}

/// Deterministic structure-aware mutator over recorded frame streams.
/// Same seed ⇒ same sequence of [`MutatedStream`]s, independent of
/// platform or process state.
pub struct WireFuzzer {
    seed: u64,
    counter: u64,
}

impl WireFuzzer {
    pub fn new(seed: u64) -> Self {
        WireFuzzer { seed, counter: 0 }
    }

    /// The seed this fuzzer replays (for failure messages).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn next(&mut self) -> u64 {
        self.counter += 1;
        mix(self.seed ^ self.counter.wrapping_mul(0x517c_c1b7_2722_0a95))
    }

    fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next() % n.max(1) as u64) as usize
    }

    /// Produces the next mutated variant of `frames`: applies 1–3
    /// seeded mutation classes, encodes, and returns the hostile byte
    /// stream ready to be written at a server socket.
    pub fn mutate_stream(&mut self, frames: &[RawFrame]) -> MutatedStream {
        let mut frames: Vec<RawFrame> = frames.to_vec();
        let mut mutations = Vec::new();
        let mut lie: Option<(usize, u32)> = None;
        let mut truncate = false;
        let mut bit_flips = 0usize;

        let n_mutations = 1 + self.pick(3);
        for _ in 0..n_mutations {
            let class = ALL_MUTATIONS[self.pick(ALL_MUTATIONS.len())];
            mutations.push(class);
            match class {
                Mutation::InflateLen => {
                    if frames.is_empty() {
                        continue;
                    }
                    let idx = self.pick(frames.len());
                    // Sweep the interesting magnitudes: a 4 GiB claim, a
                    // claim exactly at the 1 GiB legacy guard, and a
                    // plausible small lie the governor's negotiated
                    // ceiling still catches or EOF-starves.
                    let value = match self.pick(3) {
                        0 => u32::MAX,
                        1 => 1 << 30,
                        _ => frames[idx].payload.len() as u32 + 1 + self.pick(1 << 16) as u32,
                    };
                    lie = Some((idx, value));
                }
                Mutation::Truncate => truncate = true,
                Mutation::BitFlip => bit_flips += 1 + self.pick(8),
                Mutation::FieldSwap => {
                    if let Some(i) = self.index_of(&frames) {
                        let f = &mut frames[i];
                        std::mem::swap(&mut f.seq, &mut f.deadline_ms);
                    }
                }
                Mutation::Reorder => {
                    if frames.len() >= 2 {
                        let i = self.pick(frames.len());
                        let j = self.pick(frames.len());
                        frames.swap(i, j);
                    }
                }
                Mutation::Replay => {
                    if let Some(i) = self.index_of(&frames) {
                        let dup = frames[i].clone();
                        frames.insert(i, dup);
                    }
                }
                Mutation::Garbage => {
                    let at = self.pick(frames.len() + 1);
                    let len = 1 + self.pick(256);
                    let mut payload = Vec::with_capacity(len);
                    for k in 0..len {
                        payload.push((self.next() ^ k as u64) as u8);
                    }
                    frames.insert(at, RawFrame::new(self.next(), payload));
                }
            }
        }

        let mut bytes = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            let frame_lie = lie.and_then(|(idx, v)| (idx == i).then_some(v));
            f.encode_into(&mut bytes, frame_lie);
        }
        if truncate && bytes.len() > 1 {
            let keep = 1 + self.pick(bytes.len() - 1);
            bytes.truncate(keep);
        }
        for _ in 0..bit_flips {
            if bytes.is_empty() {
                break;
            }
            let bit = self.pick(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        MutatedStream { bytes, mutations }
    }

    fn index_of(&mut self, frames: &[RawFrame]) -> Option<usize> {
        (!frames.is_empty()).then(|| self.pick(frames.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<RawFrame> {
        vec![
            RawFrame::new(0, vec![1, 2, 3, 4]),
            RawFrame::new(1, vec![5; 64]),
            RawFrame::new(2, vec![9; 16]),
        ]
    }

    #[test]
    fn encoding_matches_the_transport_frame_layout() {
        let f = RawFrame { seq: 7, deadline_ms: 1500, payload: vec![0xAB; 3] };
        let mut out = Vec::new();
        f.encode_into(&mut out, None);
        assert_eq!(out.len(), 20 + 3, "20-byte header plus payload");
        assert_eq!(&out[0..8], &7u64.to_le_bytes());
        assert_eq!(&out[8..16], &1500u64.to_le_bytes());
        assert_eq!(&out[16..20], &3u32.to_le_bytes());
        assert_eq!(&out[20..], &[0xAB; 3]);

        let mut lied = Vec::new();
        f.encode_into(&mut lied, Some(u32::MAX));
        assert_eq!(&lied[16..20], &u32::MAX.to_le_bytes(), "the prefix lies");
        assert_eq!(&lied[20..], &[0xAB; 3], "the payload does not");
    }

    #[test]
    fn same_seed_replays_the_exact_stream_sequence() {
        let frames = sample();
        let mut a = WireFuzzer::new(0xFEED);
        let mut b = WireFuzzer::new(0xFEED);
        for _ in 0..32 {
            let (sa, sb) = (a.mutate_stream(&frames), b.mutate_stream(&frames));
            assert_eq!(sa.bytes, sb.bytes);
            assert_eq!(sa.mutations, sb.mutations);
        }
        let mut c = WireFuzzer::new(0xBEEF);
        let diverged = (0..32).any(|_| c.mutate_stream(&frames).bytes != {
            let mut d = WireFuzzer::new(0xFEED);
            d.mutate_stream(&frames).bytes
        });
        assert!(diverged, "different seeds must diverge");
    }

    #[test]
    fn every_mutation_class_is_reachable() {
        let frames = sample();
        let mut fuzzer = WireFuzzer::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            for m in fuzzer.mutate_stream(&frames).mutations {
                seen.insert(format!("{m:?}"));
            }
        }
        assert_eq!(seen.len(), ALL_MUTATIONS.len(), "all classes fire within 256 cases: {seen:?}");
    }

    #[test]
    fn mutated_streams_actually_differ_from_the_valid_encoding() {
        let frames = sample();
        let mut valid = Vec::new();
        for f in &frames {
            f.encode_into(&mut valid, None);
        }
        let mut fuzzer = WireFuzzer::new(42);
        let mutated = (0..64).filter(|_| fuzzer.mutate_stream(&frames).bytes != valid).count();
        assert!(mutated >= 60, "mutations must almost always change the bytes ({mutated}/64)");
    }
}
