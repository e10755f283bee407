//! Adversarial-peer integration tests for the per-connection resource
//! governor (DESIGN.md §10): a malicious length prefix must be refused
//! *before* allocation with the server still serving afterwards, and a
//! client that handshakes then never reads its replies must be evicted
//! at the write-backlog cap — cleanly, with its session still
//! resumable through the journal path. The other direction too: a
//! provider (or anything on the path) that answers with junk *folded*
//! replies must cost the client an item or the call, never a panic and
//! never a value.

mod common;

use common::{relay, Hop};
use pp_nn::{zoo, ScaledModel};
use pp_paillier::{Ciphertext, Keypair, PublicKey};
use pp_stream::encapsulate_with;
use pp_stream::governor::GovernorConfig;
use pp_stream::messages::{
    peek_tag, AcceptMsg, ByeMsg, EncTensorMsg, HelloMsg, MsgTag, ResumeMsg, PROTOCOL_VERSION,
};
use pp_stream::net::{pk_fingerprint, topology_digest};
use pp_stream::{
    FsyncPolicy, ItemErrorKind, ItemOutcome, JournalConfig, ModelProvider, NetConfig,
    NetworkedSession, ServeOptions,
};
use pp_stream_runtime::link::NO_DEADLINE;
use pp_stream_runtime::wire::{from_frame, to_frame, WireEncode};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mlp_model(name: &str) -> ScaledModel {
    let mut rng = StdRng::seed_from_u64(17);
    let model = zoo::mlp(name, &[4, 6, 3], &mut rng).expect("model");
    ScaledModel::from_model(&model, 10_000)
}

/// Unique scratch directory per test (no tempfile crate — DESIGN.md's
/// dependency policy).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pp-governor-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Raw wire frame: `seq u64 LE | deadline_ms u64 LE | len u32 LE |
/// payload` — written by hand so tests can lie about any field.
fn write_raw_frame(
    sock: &mut TcpStream,
    seq: u64,
    deadline_ms: u64,
    claimed_len: u32,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(20 + payload.len());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&deadline_ms.to_le_bytes());
    buf.extend_from_slice(&claimed_len.to_le_bytes());
    buf.extend_from_slice(payload);
    sock.write_all(&buf)
}

fn send_msg<M: WireEncode>(sock: &mut TcpStream, seq: u64, deadline_ms: u64, msg: &M) {
    let frame = to_frame(msg);
    write_raw_frame(sock, seq, deadline_ms, frame.len() as u32, &frame).expect("send frame");
}

/// Reads one full frame (header + payload) off a raw socket.
fn read_raw_frame(sock: &mut TcpStream) -> std::io::Result<bytes::Bytes> {
    let mut header = [0u8; 20];
    sock.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
    let mut payload = vec![0u8; len];
    sock.read_exact(&mut payload)?;
    Ok(bytes::Bytes::from(payload))
}

/// A structurally valid Hello for `scaled`, built exactly the way the
/// real client builds one (no packing proposal).
fn valid_hello(scaled: &ScaledModel, config: &NetConfig, keypair: &Keypair) -> (HelloMsg, u64) {
    let stages = encapsulate_with(scaled, config.merge_stages).expect("stages");
    let topology = topology_digest(&stages, scaled.factor());
    let pk_n = keypair.public().n().to_bytes_be();
    let hello = HelloMsg {
        version: PROTOCOL_VERSION,
        pk_fingerprint: pk_fingerprint(&pk_n),
        pk_n,
        topology,
        n_stages: stages.len() as u32,
        factor: scaled.factor(),
        pack_slot_bits: 0,
        pack_slots: 0,
        pack_budget: 0,
    };
    (hello, topology)
}

fn connect_raw(addr: SocketAddr) -> TcpStream {
    let sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    sock.set_write_timeout(Some(Duration::from_secs(10))).expect("write timeout");
    sock.set_nodelay(true).expect("nodelay");
    sock
}

/// The headline oversize scenario: an unauthenticated peer claims a
/// 1 GiB frame with a 20-byte header. The server must refuse it at the
/// pre-auth ceiling — before allocating anything — count it in
/// [`pp_stream::ServeReport::oversize_frames`], and keep serving real
/// clients afterwards.
#[test]
fn oversize_length_prefix_is_refused_and_the_server_survives() {
    let scaled = mlp_model("governor-mlp");
    let mut config = NetConfig::small_test(128);
    config.governor = Some(GovernorConfig {
        max_frame: 1 << 30,
        write_backlog: 64 * 1024 * 1024,
        mem_budget: 1 << 30,
    });
    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = provider.serve_forever(listener, ServeOptions::default()).expect("serve");
    let addr = handle.addr();

    // Malicious peer: a header whose length prefix claims 1 GiB,
    // followed by a few junk bytes. The 1 GiB is *under* the blanket
    // max_frame — only the pre-auth ceiling refuses it.
    {
        let mut evil = connect_raw(addr);
        let _ = write_raw_frame(&mut evil, 0, NO_DEADLINE, 1 << 30, &[0xEE; 64]);
        // The server closes on the breach; a short read (not a 1 GiB
        // wait) proves it never tried to consume the claimed payload.
        let mut sink = [0u8; 64];
        let _ = evil.read(&mut sink);
    }

    // And one more claiming the absolute u32 maximum, mid-handshake.
    {
        let mut evil = connect_raw(addr);
        let _ = write_raw_frame(&mut evil, 0, NO_DEADLINE, u32::MAX, b"garbage");
        let mut sink = [0u8; 64];
        let _ = evil.read(&mut sink);
    }

    // The server must still serve a legitimate stream, bit-exact.
    let items: Vec<Tensor<f64>> = (0..3)
        .map(|i| Tensor::from_flat((0..4).map(|j| ((i * 4 + j) as f64 * 0.31).cos()).collect::<Vec<f64>>()))
        .collect();
    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect after attack");
    let (got, _) = session.infer_stream(&items).expect("stream after attack");
    assert_eq!(got.len(), items.len());
    let transport = session.shutdown();
    assert!(transport.clean_shutdown);

    let report = handle.shutdown();
    assert!(
        report.oversize_frames >= 2,
        "both hostile prefixes must be counted: {report:?}"
    );
    assert_eq!(report.panicked_connections, 0, "no panic under attack: {report:?}");
    assert!(report.requests >= items.len() as u64, "real work still served: {report:?}");
}

/// ISSUE satellite: a client that completes the handshake and then
/// never reads a single reply must be evicted once its reply backlog
/// crosses [`GovernorConfig::write_backlog`] — with the `evicted_slow`
/// counter incremented, the session entry *kept* (journal-backed), and
/// a successful resume + clean Bye afterwards.
#[test]
fn never_reading_client_is_evicted_then_resumes_cleanly() {
    let scaled = mlp_model("governor-mlp");
    let mut config = NetConfig::small_test(128);
    // Tiny backlog cap so the eviction fires after the kernel's socket
    // buffers fill; everything else at defaults.
    config.governor = Some(GovernorConfig {
        max_frame: 1 << 30,
        write_backlog: 1024,
        mem_budget: 1 << 30,
    });
    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let dir = scratch_dir("slow-consumer");
    let options = ServeOptions {
        journal: Some(JournalConfig { dir: dir.clone(), fsync: FsyncPolicy::Never }),
        ..ServeOptions::default()
    };
    let handle = provider.serve_forever(listener, options).expect("serve");
    let addr = handle.addr();

    let mut rng = StdRng::seed_from_u64(9);
    let keypair = Keypair::generate(128, &mut rng);
    let (hello, topology) = valid_hello(&scaled, &config, &keypair);

    // Handshake like a well-behaved client…
    let mut sock = connect_raw(addr);
    send_msg(&mut sock, 0, NO_DEADLINE, &hello);
    let accept_frame = read_raw_frame(&mut sock).expect("accept");
    assert_eq!(peek_tag(&accept_frame), Some(MsgTag::Accept));
    let accept: AcceptMsg = from_frame(accept_frame).expect("accept msg");
    let session_id = accept.session;

    // …then stop reading forever while flooding requests whose
    // deadline budget is already zero: each one draws a small
    // DeadlineExpired reply without any Paillier work, so the reply
    // backlog grows as fast as we can send. The flood is *sustained* —
    // the kernel's socket buffers on both directions are finite, so the
    // reply stream must eventually overflow into the server's WriteBuf
    // and cross the 1024-byte cap. Eviction closes the socket, which
    // surfaces client-side as a failed write; that write error is the
    // loop's exit. TCP flow control keeps the loop honest: once the
    // request direction's buffers fill, each write waits for the server
    // to process (and answer) earlier frames, so the client cannot
    // outrun the server and quit before the eviction lands.
    let junk_item = |seq: u64| EncTensorMsg {
        seq,
        shape: vec![1],
        obfuscated: false,
        folded: false,
        cts: vec![vec![0xAB; 8]],
    };
    let mut evicted_mid_flood = false;
    for i in 0..1_000_000u64 {
        let frame = to_frame(&junk_item(i));
        if write_raw_frame(&mut sock, i + 1, 0, frame.len() as u32, &frame).is_err() {
            evicted_mid_flood = true;
            break;
        }
    }
    assert!(
        evicted_mid_flood,
        "a million unread-reply requests never failed a write: no eviction happened"
    );
    drop(sock);

    // The entry must SURVIVE the eviction (that is the whole point:
    // evicted, not destroyed).
    assert_eq!(provider.active_sessions(), 1, "the evicted session must stay resumable");

    // A well-behaved successor resumes the same session and says Bye.
    let mut sock2 = connect_raw(addr);
    send_msg(
        &mut sock2,
        0,
        NO_DEADLINE,
        &ResumeMsg { version: PROTOCOL_VERSION, session: session_id, items_done: 0, topology },
    );
    let resume_reply = read_raw_frame(&mut sock2).expect("resume accept");
    assert_eq!(
        peek_tag(&resume_reply),
        Some(MsgTag::Accept),
        "the evicted session must accept a resume"
    );
    send_msg(&mut sock2, 1, NO_DEADLINE, &ByeMsg);
    // Bye has no reply; the server closes once the session is removed.
    let mut sink = [0u8; 16];
    let _ = sock2.read(&mut sink);

    // Bye must drain the session table completely.
    let until = Instant::now() + Duration::from_secs(15);
    while provider.active_sessions() != 0 {
        assert!(Instant::now() < until, "session entry leaked after Bye");
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = handle.shutdown();
    assert!(report.evicted_slow >= 1, "the flood must be evicted as slow: {report:?}");
    assert!(report.resumed_sessions >= 1, "the successor must have resumed: {report:?}");
    assert_eq!(report.panicked_connections, 0, "eviction is clean: {report:?}");
    assert!(report.clean_shutdown, "the Bye was honored: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The junk-reply table for output folding (DESIGN.md §8): five ways a
/// folded reply can lie, each played by a relay between a real client
/// and a real provider at 256-bit keys (three 64-bit slots).
#[derive(Clone, Copy, Debug, PartialEq)]
enum FoldedJunk {
    /// Flagged folded, one ciphertext short of `⌈shape ÷ slots⌉`.
    WrongCount,
    /// Flagged folded on a connection whose Accept announced no layout.
    NoLayout,
    /// Folded in answer to a request the client did not flag — here one
    /// whose input is past the value bound, so the slots really do
    /// overflow into each other.
    UnaskedFold,
    /// A slot whose content no in-range value encodes to.
    SlotOutOfRange,
    /// One element longer than the stage's output, shape and ciphertext
    /// count agreeing with each other. Played on an unfolded reply (the
    /// input is past the value bound), where the stage-shape check is
    /// all that stands in its way; a folded one also trips the count.
    WrongShape,
}

#[test]
fn junk_folded_replies_cost_an_item_or_the_call_never_a_value() {
    let scaled = mlp_model("governor-fold-mlp");
    let config = NetConfig::small_test(256);
    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = provider.serve_forever(listener, ServeOptions::default()).expect("serve");
    let server = handle.addr();
    let reference = |input: &Tensor<f64>| {
        scaled.forward_scaled(&scaled.scale_input(input)).expect("reference")
    };

    for junk in [
        FoldedJunk::WrongCount,
        FoldedJunk::NoLayout,
        FoldedJunk::UnaskedFold,
        FoldedJunk::SlotOutOfRange,
        FoldedJunk::WrongShape,
    ] {
        let mut key: Option<PublicKey> = None;
        let mut spoiled = false;
        let (addr, relaying) = relay(server, move |hop, payload| {
            let tag = peek_tag(&payload);
            match (hop, tag) {
                (Hop::ToServer, Some(MsgTag::Hello)) => {
                    let hello: HelloMsg = from_frame(payload.clone()).expect("hello");
                    key = Some(PublicKey::from_n(pp_bigint::BigUint::from_bytes_be(&hello.pk_n)));
                    payload
                }
                (Hop::ToClient, Some(MsgTag::Accept)) if junk == FoldedJunk::NoLayout => {
                    let accept: AcceptMsg = from_frame(payload).expect("accept");
                    to_frame(&AcceptMsg { fold_slot_bits: 0, fold_budget: 0, ..accept })
                }
                (Hop::ToServer, Some(MsgTag::EncTensor)) if junk == FoldedJunk::UnaskedFold => {
                    let request: EncTensorMsg = from_frame(payload).expect("request");
                    to_frame(&EncTensorMsg { folded: true, ..request })
                }
                // Only the first reply is spoiled: the item after it
                // must come through untouched.
                (Hop::ToClient, Some(MsgTag::EncTensor)) if !spoiled => {
                    spoiled = true;
                    let mut reply: EncTensorMsg = from_frame(payload).expect("reply");
                    match junk {
                        FoldedJunk::WrongCount => {
                            assert!(reply.folded, "the honest reply is folded");
                            reply.cts.pop();
                        }
                        FoldedJunk::NoLayout => {
                            assert!(!reply.folded, "no layout, so no flagged request");
                            reply.folded = true;
                        }
                        FoldedJunk::UnaskedFold => assert!(reply.folded, "the server was asked"),
                        FoldedJunk::SlotOutOfRange => {
                            assert!(reply.folded);
                            let pk = key.as_ref().expect("hello seen");
                            let all_ones = pp_bigint::BigUint::from(u64::MAX);
                            let forged = pk.encrypt(&all_ones, &mut StdRng::seed_from_u64(77));
                            reply.cts[0] = Ciphertext::to_bytes(&forged);
                        }
                        FoldedJunk::WrongShape => {
                            assert!(!reply.folded, "the request was past the bound");
                            reply.shape = vec![reply.cts.len() as u64 + 1];
                            reply.cts.push(reply.cts[0].clone());
                        }
                    }
                    to_frame(&reply)
                }
                _ => payload,
            }
        });

        let mut session =
            NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect via relay");
        let layout = session.fold_layout();
        assert_eq!(layout.is_some(), junk != FoldedJunk::NoLayout, "{junk:?}");
        let mut inputs: Vec<Tensor<f64>> = (0..2)
            .map(|i| Tensor::from_flat(vec![0.3 - 0.2 * i as f64, -0.4, 0.7, 0.2]))
            .collect();
        if matches!(junk, FoldedJunk::UnaskedFold | FoldedJunk::WrongShape) {
            // Scaled past the bound: the client leaves this request
            // unflagged (and `UnaskedFold`'s relay flags it behind its
            // back).
            let bound = layout.expect("layout").value_bound() as f64;
            let past = (bound + 1000.0) / scaled.factor() as f64;
            inputs[0] = Tensor::from_flat(vec![past, 0.0, 0.0, 0.0]);
        }

        let caught_at_decrypt =
            matches!(junk, FoldedJunk::SlotOutOfRange | FoldedJunk::WrongShape);
        match session.infer_stream_partial(&inputs) {
            // Caught by the round trip's echo check: the call fails, as
            // for any reply that is not an answer to its request.
            Err(e) => {
                assert!(!caught_at_decrypt, "{junk:?}: {e}");
                assert!(e.to_string().contains("fold flag"), "{junk:?}: {e}");
            }
            // Caught at decryption: that item fails, the next is served.
            Ok((outcomes, _)) => {
                assert!(caught_at_decrypt, "{junk:?} accepted: {outcomes:?}");
                assert!(
                    matches!(
                        &outcomes[0],
                        ItemOutcome::Failed { kind: ItemErrorKind::CorruptReply, .. }
                    ),
                    "{:?}",
                    outcomes[0]
                );
                let served = outcomes[1].output().expect("the untouched item completes");
                assert_eq!(served.data(), reference(&inputs[1]).data());
            }
        }
        // Bye ends the relayed connection on both sides.
        session.shutdown();
        relaying.join().expect("relay");
    }

    // Five hostile paths later the provider itself is untouched.
    let input = Tensor::from_flat(vec![0.1, 0.2, -0.3, 0.4]);
    let mut session = NetworkedSession::connect(server, scaled.clone(), &config).expect("connect");
    let (got, report) = session.infer_stream(std::slice::from_ref(&input)).expect("honest stream");
    assert_eq!(got[0].data(), reference(&input).data());
    assert_eq!(report.transport.expect("transport").folded_rounds, 2);
    assert!(session.shutdown().clean_shutdown);
    assert_eq!(handle.shutdown().panicked_connections, 0);
}
