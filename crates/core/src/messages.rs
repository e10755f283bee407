//! Wire messages exchanged between pipeline stages (and, for the
//! cross-provider hops, between the model and data providers' servers).

use pp_stream_runtime::{Decoder, Encoder, StreamError, WireDecode, WireEncode};

/// A tensor of Paillier ciphertexts in flight. Everything that crosses
/// the provider boundary is this message — never plaintext values
/// (paper Sec. II-C security guarantee, asserted by integration tests).
#[derive(Clone, Debug, PartialEq)]
pub struct EncTensorMsg {
    /// Request sequence number (pipelining bookkeeping).
    pub seq: u64,
    /// Tensor shape (the only metadata the threat model concedes).
    pub shape: Vec<u64>,
    /// Whether element positions are currently permuted.
    pub obfuscated: bool,
    /// Output folding (DESIGN.md §8). On a linear request: every
    /// plaintext behind `cts` is inside the announced layout's value
    /// bound, so the reply may be folded. On a linear reply: it was —
    /// `cts` holds `⌈shape ÷ slots⌉` slot-packed ciphertexts, not one
    /// per element. Shares the `obfuscated` byte on the wire (bit 1).
    pub folded: bool,
    /// Big-endian ciphertext bytes, one per element (per slot group
    /// when `folded` on a reply).
    pub cts: Vec<Vec<u8>>,
}

impl WireEncode for EncTensorMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::EncTensor as u8);
        enc.put_u64(self.seq);
        self.shape.encode(enc);
        enc.put_u8(self.obfuscated as u8 | (self.folded as u8) << 1);
        self.cts.encode(enc);
    }
}

impl WireDecode for EncTensorMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::EncTensor)?;
        let seq = dec.get_u64()?;
        let shape = Vec::<u64>::decode(dec)?;
        let flags = dec.get_u8()?;
        if flags > 0b11 {
            return Err(StreamError::Decode(format!("unknown tensor flags {flags:#04x}")));
        }
        Ok(EncTensorMsg {
            seq,
            shape,
            obfuscated: flags & 0b01 != 0,
            folded: flags & 0b10 != 0,
            cts: Vec::<Vec<u8>>::decode(dec)?,
        })
    }
}

/// A plaintext scaled tensor — exists only *inside* the data provider
/// (source → encrypt stage, and the final stage → sink).
#[derive(Clone, Debug, PartialEq)]
pub struct PlainTensorMsg {
    pub seq: u64,
    pub shape: Vec<u64>,
    /// Scaled integer values (`i128`: pre-rescale linear outputs can
    /// exceed 64 bits).
    pub values: Vec<i128>,
}

impl WireEncode for PlainTensorMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::PlainTensor as u8);
        enc.put_u64(self.seq);
        self.shape.encode(enc);
        self.values.encode(enc);
    }
}

impl WireDecode for PlainTensorMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::PlainTensor)?;
        Ok(PlainTensorMsg {
            seq: dec.get_u64()?,
            shape: Vec::<u64>::decode(dec)?,
            values: Vec::<i128>::decode(dec)?,
        })
    }
}

/// Version of the two-process deployment protocol (handshake + frame
/// exchange). Bumped on any wire-incompatible change; peers with
/// different versions refuse to talk.
///
/// v2: [`AcceptMsg`] carries a server-assigned session ID, and the
/// session-resume message set ([`ResumeMsg`], [`AckMsg`], [`ByeMsg`])
/// exists.
///
/// v3: [`RejectMsg`] carries a [`RejectCode`] and a busy-server
/// `retry_after_ms` hint (admission control), and the per-item error
/// reply [`ItemErrorMsg`] exists (deadline expiry / quarantine / load
/// shedding are per-item outcomes, not session-fatal failures).
///
/// v4: ciphertext packing. [`HelloMsg`] proposes a slot layout
/// (`pack_slot_bits` / `pack_slots` / `pack_budget`), [`AcceptMsg`]
/// echoes `pack_slot_bits` (zero declines), the batched frame
/// [`PackedTensorMsg`] exists, and a failed packed round is answered
/// with [`ItemErrorKind::PackedAbort`] so the client can replay the
/// batch unpacked. Unpacked operation (all packing fields zero) is the
/// compatibility default.
///
/// v5: output folding. [`AcceptMsg`] announces the slot layout the
/// server folds linear replies into (`fold_slot_bits` / `fold_budget`;
/// zero announces none), and [`EncTensorMsg`] carries a `folded` flag
/// in its `obfuscated` byte: set by the client on a request whose
/// plaintexts are inside the layout's value bound, echoed by the server
/// on a reply it folded into `⌈shape ÷ slots⌉` ciphertexts. Unflagged
/// frames are byte-identical to v4's.
pub const PROTOCOL_VERSION: u32 = 5;

/// Deployment handshake: the data provider's opening message. Carries
/// everything both sides must agree on before ciphertexts flow —
/// protocol version, the Paillier public key (with a fingerprint so a
/// mismatch is reported compactly), and a digest of the merged-stage
/// topology so a client built against a different model layout fails
/// fast instead of mid-stream.
#[derive(Clone, Debug, PartialEq)]
pub struct HelloMsg {
    /// Sender's [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Paillier public key modulus `n`, big-endian bytes.
    pub pk_n: Vec<u8>,
    /// FNV-1a-64 fingerprint of `pk_n` (echoed in [`AcceptMsg`]).
    pub pk_fingerprint: u64,
    /// Digest of the merged-stage topology (roles, shapes, op kinds).
    pub topology: u64,
    /// Number of merged protocol stages.
    pub n_stages: u32,
    /// Fixed-point scaling factor both sides must share.
    pub factor: i64,
    /// Proposed packed-ciphertext slot width in bits; zero means the
    /// client will stream unpacked (the compatibility default).
    pub pack_slot_bits: u32,
    /// Slots per packed ciphertext under the proposed layout (zero when
    /// unpacked).
    pub pack_slots: u32,
    /// Operation budget the client sized its slots for — the maximum
    /// offset weight any packed round may accumulate. The server rejects
    /// packing (echoing zero) if its model needs more.
    pub pack_budget: u64,
}

impl WireEncode for HelloMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::Hello as u8);
        enc.put_u32(self.version);
        self.pk_n.encode(enc);
        enc.put_u64(self.pk_fingerprint);
        enc.put_u64(self.topology);
        enc.put_u32(self.n_stages);
        enc.put_i64(self.factor);
        enc.put_u32(self.pack_slot_bits);
        enc.put_u32(self.pack_slots);
        enc.put_u64(self.pack_budget);
    }
}

impl WireDecode for HelloMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::Hello)?;
        Ok(HelloMsg {
            version: dec.get_u32()?,
            pk_n: Vec::<u8>::decode(dec)?,
            pk_fingerprint: dec.get_u64()?,
            topology: dec.get_u64()?,
            n_stages: dec.get_u32()?,
            factor: dec.get_i64()?,
            pack_slot_bits: dec.get_u32()?,
            pack_slots: dec.get_u32()?,
            pack_budget: dec.get_u64()?,
        })
    }
}

/// Deployment handshake: the model provider's acceptance. Echoes the
/// agreed parameters so the client can double-check the server saw what
/// it sent.
#[derive(Clone, Debug, PartialEq)]
pub struct AcceptMsg {
    pub version: u32,
    pub pk_fingerprint: u64,
    pub topology: u64,
    /// Server-assigned session ID. A client that loses its connection
    /// presents this in a [`ResumeMsg`] to pick the stream back up
    /// without redoing delivered work.
    pub session: u64,
    /// Echo of the client's accepted `pack_slot_bits`; zero declines
    /// packing (the client silently streams unpacked).
    pub pack_slot_bits: u32,
    /// Slot width of the layout the server folds flagged linear replies
    /// into — its own choice for this key and model, announced on every
    /// accept (resumes included), never negotiated. Zero: no folding.
    pub fold_slot_bits: u32,
    /// Operation budget of that layout: the weight every folded reply
    /// is offset at, and what sizes the value bound the client checks
    /// its plaintexts against.
    pub fold_budget: u64,
}

impl WireEncode for AcceptMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::Accept as u8);
        enc.put_u32(self.version);
        enc.put_u64(self.pk_fingerprint);
        enc.put_u64(self.topology);
        enc.put_u64(self.session);
        enc.put_u32(self.pack_slot_bits);
        enc.put_u32(self.fold_slot_bits);
        enc.put_u64(self.fold_budget);
    }
}

impl WireDecode for AcceptMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::Accept)?;
        Ok(AcceptMsg {
            version: dec.get_u32()?,
            pk_fingerprint: dec.get_u64()?,
            topology: dec.get_u64()?,
            session: dec.get_u64()?,
            pack_slot_bits: dec.get_u32()?,
            fold_slot_bits: dec.get_u32()?,
            fold_budget: dec.get_u64()?,
        })
    }
}

/// Why the model provider refused a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// Deployment mismatch (version, key, topology, unknown session) —
    /// permanent until the operator fixes the deployment.
    Mismatch = 0,
    /// The server is at its admission-control capacity. Transient: the
    /// client should back off and retry, honoring `retry_after_ms`.
    Busy = 1,
}

/// Deployment handshake: the model provider's refusal, naming the
/// mismatch so the operator can fix the deployment instead of guessing.
/// A [`RejectCode::Busy`] refusal is transient and carries a
/// `retry_after_ms` backoff hint.
#[derive(Clone, Debug, PartialEq)]
pub struct RejectMsg {
    pub code: RejectCode,
    pub reason: String,
    /// For [`RejectCode::Busy`]: how long the client should wait before
    /// retrying, in milliseconds. Zero (and any value on other codes)
    /// means "no hint".
    pub retry_after_ms: u64,
}

impl RejectMsg {
    /// A permanent deployment-mismatch refusal.
    pub fn mismatch(reason: impl Into<String>) -> Self {
        RejectMsg { code: RejectCode::Mismatch, reason: reason.into(), retry_after_ms: 0 }
    }

    /// A transient at-capacity refusal with a backoff hint.
    pub fn busy(reason: impl Into<String>, retry_after_ms: u64) -> Self {
        RejectMsg { code: RejectCode::Busy, reason: reason.into(), retry_after_ms }
    }
}

impl WireEncode for RejectMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::Reject as u8);
        enc.put_u8(self.code as u8);
        self.reason.encode(enc);
        enc.put_u64(self.retry_after_ms);
    }
}

impl WireDecode for RejectMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::Reject)?;
        let code = match dec.get_u8()? {
            0 => RejectCode::Mismatch,
            1 => RejectCode::Busy,
            other => {
                return Err(StreamError::Decode(format!("unknown reject code {other}")));
            }
        };
        Ok(RejectMsg { code, reason: String::decode(dec)?, retry_after_ms: dec.get_u64()? })
    }
}

/// Session resume: the data provider's opening message on a
/// *re*connection. Instead of a full [`HelloMsg`] (the server already
/// holds the key and parameters in its session table), the client
/// presents its session ID and how many items it has fully completed —
/// the server syncs its ack floor to `items_done` and the client replays
/// only the in-flight item. Answered by [`AcceptMsg`] (echoing the
/// session) or [`RejectMsg`] (unknown/expired session, digest mismatch).
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeMsg {
    /// Sender's [`PROTOCOL_VERSION`].
    pub version: u32,
    /// The session ID from the original [`AcceptMsg`].
    pub session: u64,
    /// Count of fully completed items: items `0..items_done` are done
    /// and must never be re-executed (a count, not a last-seq, so a
    /// fresh stream needs no sentinel value).
    pub items_done: u64,
    /// Topology digest, re-checked so a client rebuilt against a
    /// different model cannot resume into a stale session.
    pub topology: u64,
}

impl WireEncode for ResumeMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::Resume as u8);
        enc.put_u32(self.version);
        enc.put_u64(self.session);
        enc.put_u64(self.items_done);
        enc.put_u64(self.topology);
    }
}

impl WireDecode for ResumeMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::Resume)?;
        Ok(ResumeMsg {
            version: dec.get_u32()?,
            session: dec.get_u64()?,
            items_done: dec.get_u64()?,
            topology: dec.get_u64()?,
        })
    }
}

/// Client → server: items `0..items_done` are fully delivered. Raises
/// the server's exactly-once floor — a later round-0 request below the
/// floor is a protocol violation, not a replay. Fire-and-forget (no
/// reply); a lost ack is re-synced by the next [`ResumeMsg`].
#[derive(Clone, Debug, PartialEq)]
pub struct AckMsg {
    pub items_done: u64,
}

impl WireEncode for AckMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::Ack as u8);
        enc.put_u64(self.items_done);
    }
}

impl WireDecode for AckMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::Ack)?;
        Ok(AckMsg { items_done: dec.get_u64()? })
    }
}

/// Client → server: deliberate end of session. Distinguishes a clean
/// shutdown from a crashed client — both close the socket, but only a
/// dropped connection leaves resumable session state behind.
#[derive(Clone, Debug, PartialEq)]
pub struct ByeMsg;

impl WireEncode for ByeMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::Bye as u8);
    }
}

impl WireDecode for ByeMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::Bye)?;
        Ok(ByeMsg)
    }
}

/// Why the server failed one item while keeping the session alive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemErrorKind {
    /// The item's end-to-end deadline budget ran out before (or while)
    /// the server worked on it.
    DeadlineExpired = 0,
    /// The item made a protocol stage panic; it is quarantined and will
    /// never be re-executed, including across session resumes.
    Quarantined = 1,
    /// The server shed the item under overload (per-session in-flight
    /// cap exceeded). Unlike the other kinds, a shed item may be
    /// retried later.
    Shed = 2,
    /// A packed round failed as a whole (a member item quarantined or
    /// expired, a packing-arithmetic error, a panic). The `seq` is the
    /// batch's first member; the client replays every unresolved member
    /// unpacked, where per-item outcomes apply individually.
    PackedAbort = 3,
    /// The client could not use the server's reply for this item: a
    /// well-formed ciphertext decrypted outside the message space.
    /// Raised client-side (never sent by an honest server), so a
    /// corrupt-but-decodable reply fails one item instead of the
    /// process.
    CorruptReply = 4,
}

/// Server → client: a *per-item* failure reply, sent in place of the
/// item's result. The session — and the exactly-once floors — survive;
/// only this item is affected. This is the wire half of the overload
/// taxonomy: shed / expired / quarantined are item outcomes, fatal
/// errors tear down the connection instead.
#[derive(Clone, Debug, PartialEq)]
pub struct ItemErrorMsg {
    /// Sequence number of the failed item.
    pub seq: u64,
    pub kind: ItemErrorKind,
    /// Human-readable detail (panic message, expired budget, …).
    pub detail: String,
}

impl WireEncode for ItemErrorMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::ItemError as u8);
        enc.put_u64(self.seq);
        enc.put_u8(self.kind as u8);
        self.detail.encode(enc);
    }
}

impl WireDecode for ItemErrorMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::ItemError)?;
        let seq = dec.get_u64()?;
        let kind = match dec.get_u8()? {
            0 => ItemErrorKind::DeadlineExpired,
            1 => ItemErrorKind::Quarantined,
            2 => ItemErrorKind::Shed,
            3 => ItemErrorKind::PackedAbort,
            4 => ItemErrorKind::CorruptReply,
            other => {
                return Err(StreamError::Decode(format!("unknown item-error kind {other}")));
            }
        };
        Ok(ItemErrorMsg { seq, kind, detail: String::decode(dec)? })
    }
}

/// A tensor of *packed* Paillier ciphertexts in flight: slot `j` of
/// ciphertext `i` holds activation `i` of request `seqs[j]`, so one
/// frame carries a whole batch's worth of one tensor position
/// (batch-major slot layout). Carries the full slot-layout metadata so
/// the receiver can reconstruct the [`PackingSpec`] without shared
/// out-of-band state.
///
/// [`PackingSpec`]: pp_paillier::PackingSpec
#[derive(Clone, Debug, PartialEq)]
pub struct PackedTensorMsg {
    /// Request seqs occupying slots `0..seqs.len()`, in slot order.
    pub seqs: Vec<u64>,
    /// Per-item tensor shape (all batch members share it).
    pub shape: Vec<u64>,
    /// Whether element positions are currently permuted.
    pub obfuscated: bool,
    /// Slot width in bits of the packing layout.
    pub slot_bits: u32,
    /// Total slots per ciphertext (`seqs.len()` of them are active).
    pub slots: u32,
    /// Operation budget the layout was sized for.
    pub op_budget: u64,
    /// Accumulated offset weight of every ciphertext in the frame
    /// (uniform: senders raise all elements to the stage maximum).
    pub weight: u64,
    /// Big-endian ciphertext bytes, one per tensor element.
    pub cts: Vec<Vec<u8>>,
}

impl WireEncode for PackedTensorMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(MsgTag::PackedTensor as u8);
        self.seqs.encode(enc);
        self.shape.encode(enc);
        enc.put_u8(self.obfuscated as u8);
        enc.put_u32(self.slot_bits);
        enc.put_u32(self.slots);
        enc.put_u64(self.op_budget);
        enc.put_u64(self.weight);
        self.cts.encode(enc);
    }
}

impl WireDecode for PackedTensorMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, StreamError> {
        expect_tag(dec, MsgTag::PackedTensor)?;
        Ok(PackedTensorMsg {
            seqs: Vec::<u64>::decode(dec)?,
            shape: Vec::<u64>::decode(dec)?,
            obfuscated: dec.get_u8()? != 0,
            slot_bits: dec.get_u32()?,
            slots: dec.get_u32()?,
            op_budget: dec.get_u64()?,
            weight: dec.get_u64()?,
            cts: Vec::<Vec<u8>>::decode(dec)?,
        })
    }
}

/// Whether a wire `shape` describes exactly `count` elements. Both
/// parties check it on every tensor message they receive: the stages
/// index ciphertexts by shape, so a mismatch must be an error before it
/// can be a panic.
pub(crate) fn shape_holds(shape: &[u64], count: usize) -> bool {
    shape_len(shape) == Some(count as u64)
}

/// The element count a wire `shape` describes; `None` when it overflows.
pub(crate) fn shape_len(shape: &[u64]) -> Option<u64> {
    shape.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d))
}

/// Message type tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgTag {
    EncTensor = 1,
    PlainTensor = 2,
    Hello = 3,
    Accept = 4,
    Reject = 5,
    Resume = 6,
    Ack = 7,
    Bye = 8,
    ItemError = 9,
    PackedTensor = 10,
}

/// Peeks the tag byte of a frame without consuming the decoder.
pub fn peek_tag(frame: &bytes::Bytes) -> Option<MsgTag> {
    match frame.first() {
        Some(1) => Some(MsgTag::EncTensor),
        Some(2) => Some(MsgTag::PlainTensor),
        Some(3) => Some(MsgTag::Hello),
        Some(4) => Some(MsgTag::Accept),
        Some(5) => Some(MsgTag::Reject),
        Some(6) => Some(MsgTag::Resume),
        Some(7) => Some(MsgTag::Ack),
        Some(8) => Some(MsgTag::Bye),
        Some(9) => Some(MsgTag::ItemError),
        Some(10) => Some(MsgTag::PackedTensor),
        _ => None,
    }
}

fn expect_tag(dec: &mut Decoder, want: MsgTag) -> Result<(), StreamError> {
    let got = dec.get_u8()?;
    if got != want as u8 {
        return Err(StreamError::Decode(format!(
            "expected message tag {}, got {got}",
            want as u8
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_stream_runtime::wire::{from_frame, to_frame};

    #[test]
    fn enc_tensor_roundtrips_under_every_flag_byte() {
        let shape = vec![2u64, 3];
        // seq, shape (count + dims), then the flag byte.
        let flag_at = 1 + 8 + 4 + 8 * shape.len();
        for flags in 0u8..=3 {
            let msg = EncTensorMsg {
                seq: 42,
                shape: shape.clone(),
                obfuscated: flags & 1 != 0,
                folded: flags & 2 != 0,
                cts: vec![vec![1, 2, 3], vec![], vec![255; 64], vec![0], vec![9], vec![8, 7]],
            };
            let frame = to_frame(&msg);
            assert_eq!(frame[flag_at], flags);
            let back: EncTensorMsg = from_frame(frame).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn unknown_tensor_flags_are_a_decode_error() {
        // v4 read any non-zero byte as "obfuscated"; a flag this version
        // does not know must not be guessed at.
        let msg =
            EncTensorMsg { seq: 1, shape: vec![1], obfuscated: false, folded: false, cts: vec![] };
        let flag_at = 1 + 8 + 4 + 8;
        for flags in [4u8, 5, 0x80, 0xff] {
            let mut bytes = to_frame(&msg).to_vec();
            bytes[flag_at] = flags;
            let res: Result<EncTensorMsg, _> = from_frame(bytes::Bytes::from(bytes));
            assert!(matches!(res, Err(StreamError::Decode(_))), "flags {flags:#04x}");
        }
    }

    #[test]
    fn plain_tensor_roundtrip() {
        let msg = PlainTensorMsg {
            seq: 7,
            shape: vec![4],
            values: vec![-1, 0, i128::MAX, i128::MIN],
        };
        let back: PlainTensorMsg = from_frame(to_frame(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn handshake_roundtrips() {
        let hello = HelloMsg {
            version: PROTOCOL_VERSION,
            pk_n: vec![0xab; 32],
            pk_fingerprint: 0xDEAD_BEEF_u64,
            topology: 77,
            n_stages: 4,
            factor: 1 << 13,
            pack_slot_bits: 32,
            pack_slots: 14,
            pack_budget: 4096,
        };
        let back: HelloMsg = from_frame(to_frame(&hello)).unwrap();
        assert_eq!(back, hello);

        let accept = AcceptMsg {
            version: 2,
            pk_fingerprint: 2,
            topology: 3,
            session: 99,
            pack_slot_bits: 32,
            fold_slot_bits: 64,
            fold_budget: 1 << 17,
        };
        let back: AcceptMsg = from_frame(to_frame(&accept)).unwrap();
        assert_eq!(back, accept);

        let reject = RejectMsg::mismatch("topology mismatch");
        let back: RejectMsg = from_frame(to_frame(&reject)).unwrap();
        assert_eq!(back, reject);
        assert_eq!(back.code, RejectCode::Mismatch);
        assert_eq!(peek_tag(&to_frame(&reject)), Some(MsgTag::Reject));
    }

    #[test]
    fn busy_reject_roundtrips_with_backoff_hint() {
        let busy = RejectMsg::busy("at capacity (2 sessions)", 250);
        let back: RejectMsg = from_frame(to_frame(&busy)).unwrap();
        assert_eq!(back, busy);
        assert_eq!(back.code, RejectCode::Busy);
        assert_eq!(back.retry_after_ms, 250);
    }

    #[test]
    fn item_error_roundtrips_all_kinds() {
        for kind in [
            ItemErrorKind::DeadlineExpired,
            ItemErrorKind::Quarantined,
            ItemErrorKind::Shed,
            ItemErrorKind::PackedAbort,
            ItemErrorKind::CorruptReply,
        ] {
            let msg = ItemErrorMsg { seq: 17, kind, detail: "budget spent".into() };
            let frame = to_frame(&msg);
            assert_eq!(peek_tag(&frame), Some(MsgTag::ItemError));
            let back: ItemErrorMsg = from_frame(frame).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn resume_message_set_roundtrips() {
        let resume =
            ResumeMsg { version: PROTOCOL_VERSION, session: 7, items_done: 42, topology: 0xA1 };
        let back: ResumeMsg = from_frame(to_frame(&resume)).unwrap();
        assert_eq!(back, resume);
        assert_eq!(peek_tag(&to_frame(&resume)), Some(MsgTag::Resume));

        let ack = AckMsg { items_done: 13 };
        let back: AckMsg = from_frame(to_frame(&ack)).unwrap();
        assert_eq!(back, ack);
        assert_eq!(peek_tag(&to_frame(&ack)), Some(MsgTag::Ack));

        let bye = to_frame(&ByeMsg);
        assert_eq!(peek_tag(&bye), Some(MsgTag::Bye));
        let back: ByeMsg = from_frame(bye).unwrap();
        assert_eq!(back, ByeMsg);
    }

    #[test]
    fn packed_tensor_roundtrip() {
        let msg = PackedTensorMsg {
            seqs: vec![4, 5, 6],
            shape: vec![2, 2],
            obfuscated: true,
            slot_bits: 32,
            slots: 14,
            op_budget: 4096,
            weight: 257,
            cts: vec![vec![1, 2], vec![], vec![0xff; 48], vec![0]],
        };
        let frame = to_frame(&msg);
        assert_eq!(peek_tag(&frame), Some(MsgTag::PackedTensor));
        let back: PackedTensorMsg = from_frame(frame).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn tag_mismatch_rejected() {
        let enc = to_frame(&PlainTensorMsg { seq: 0, shape: vec![], values: vec![] });
        let res: Result<EncTensorMsg, _> = from_frame(enc);
        assert!(res.is_err());
    }

    #[test]
    fn peek_tag_identifies_frames() {
        let enc = to_frame(&EncTensorMsg {
            seq: 0,
            shape: vec![],
            obfuscated: false,
            folded: false,
            cts: vec![],
        });
        assert_eq!(peek_tag(&enc), Some(MsgTag::EncTensor));
        let plain = to_frame(&PlainTensorMsg { seq: 0, shape: vec![], values: vec![] });
        assert_eq!(peek_tag(&plain), Some(MsgTag::PlainTensor));
        assert_eq!(peek_tag(&bytes::Bytes::from_static(&[99])), None);
    }

    #[test]
    fn truncated_bodies_decode_as_errors_not_panics() {
        // Every truncation point of every message type must surface as a
        // Decode error — never a panic or an allocation sized from the
        // missing bytes. This is the unit-level half of the wire fuzzer's
        // Truncate mutation class.
        fn assert_all_truncations<T>(frame: bytes::Bytes)
        where
            T: pp_stream_runtime::wire::WireDecode + std::fmt::Debug,
        {
            for cut in 0..frame.len() {
                let res: Result<T, _> = from_frame(frame.slice(..cut));
                assert!(res.is_err(), "truncation at {cut}/{} decoded", frame.len());
            }
        }
        assert_all_truncations::<HelloMsg>(to_frame(&HelloMsg {
            version: PROTOCOL_VERSION,
            pk_n: vec![0xab; 16],
            pk_fingerprint: 1,
            topology: 2,
            n_stages: 3,
            factor: 100,
            pack_slot_bits: 32,
            pack_slots: 4,
            pack_budget: 64,
        }));
        for flags in 0u8..=3 {
            assert_all_truncations::<EncTensorMsg>(to_frame(&EncTensorMsg {
                seq: 9,
                shape: vec![2, 2],
                obfuscated: flags & 1 != 0,
                folded: flags & 2 != 0,
                cts: vec![vec![1, 2, 3], vec![4]],
            }));
        }
        assert_all_truncations::<AcceptMsg>(to_frame(&AcceptMsg {
            version: PROTOCOL_VERSION,
            pk_fingerprint: 1,
            topology: 2,
            session: 3,
            pack_slot_bits: 0,
            fold_slot_bits: 64,
            fold_budget: 1 << 17,
        }));
        assert_all_truncations::<PackedTensorMsg>(to_frame(&PackedTensorMsg {
            seqs: vec![1, 2],
            shape: vec![2],
            obfuscated: false,
            slot_bits: 32,
            slots: 4,
            op_budget: 64,
            weight: 1,
            cts: vec![vec![5, 6]],
        }));
    }

    #[test]
    fn hostile_ct_count_in_enc_tensor_is_rejected_without_allocation() {
        // Hand-craft an EncTensor frame whose ciphertext-count prefix
        // claims u32::MAX entries over a nearly empty body.
        use pp_stream_runtime::wire::Encoder;
        let mut enc = Encoder::new();
        enc.put_u8(MsgTag::EncTensor as u8);
        enc.put_u64(7); // seq
        enc.put_u32(0); // shape: zero dims
        enc.put_u8(0); // obfuscated: false
        enc.put_u32(u32::MAX); // hostile ciphertext count
        let res: Result<EncTensorMsg, _> = from_frame(enc.finish());
        assert!(res.is_err());
    }
}
