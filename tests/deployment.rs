//! Deployment-lifecycle integration: persistence, key distribution, and
//! transport optimizations working together — the operational story
//! around the core protocol.

use pp_nn::{zoo, Model, ScaledModel};
use pp_paillier::packing::{PackedCiphertext, PackingSpec};
use pp_paillier::{Keypair, PublicKey, RandomnessPool};
use pp_stream::messages::{AcceptMsg, HelloMsg, RejectMsg, PROTOCOL_VERSION};
use pp_stream::{
    ItemErrorKind, ItemOutcome, ModelProvider, NetConfig, NetworkedSession, PpStream,
    PpStreamConfig, RejectCode, ServeOptions, ServerHandle,
};
use pp_stream_runtime::wire::{from_frame, to_frame};
use pp_stream_runtime::{tcp, TcpConfig};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mlp_model(name: &str, widths: &[usize]) -> ScaledModel {
    let mut rng = StdRng::seed_from_u64(31);
    let model = zoo::mlp(name, widths, &mut rng).expect("model");
    ScaledModel::from_model(&model, 10_000)
}

fn stream_inputs(n: u64, width: usize) -> Vec<Tensor<f64>> {
    (0..n)
        .map(|seq| {
            Tensor::from_flat(
                (0..width as u64)
                    .map(|j| ((seq * width as u64 + j) as f64 * 0.37).sin())
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// A provider for `scaled` on the serving event loop, one shard.
fn serve(scaled: &ScaledModel, config: &NetConfig) -> ServerHandle {
    let provider = std::sync::Arc::new(ModelProvider::new(scaled, config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions { max_workers: 1, ..ServeOptions::default() };
    provider.serve_forever(listener, options).expect("spawn server")
}

#[test]
fn model_roundtrip_preserves_private_inference() {
    // Train → save → load → deploy: the restored model must produce the
    // same private inferences as the original.
    let mut rng = StdRng::seed_from_u64(1);
    let model = zoo::mlp("persisted", &[4, 6, 3], &mut rng).expect("model");
    let restored = Model::from_bytes(&model.to_bytes()).expect("restore");

    let scaled_a = ScaledModel::from_model(&model, 1_000);
    let scaled_b = ScaledModel::from_model(&restored, 1_000);
    let sa = PpStream::new(scaled_a, PpStreamConfig::small_test(128)).expect("session");
    let sb = PpStream::new(scaled_b, PpStreamConfig::small_test(128)).expect("session");

    let inputs: Vec<Tensor<f64>> = (0..3)
        .map(|i| Tensor::from_flat(vec![0.1 * i as f64, -0.4, 0.7, 0.2]))
        .collect();
    let (ca, _) = sa.classify_stream(&inputs).expect("inference");
    let (cb, _) = sb.classify_stream(&inputs).expect("inference");
    assert_eq!(ca, cb);
}

#[test]
fn key_distribution_via_bytes() {
    // The data provider exports its public key; the model provider
    // imports it and evaluates homomorphically; only the original private
    // key decrypts.
    let mut rng = StdRng::seed_from_u64(2);
    let kp = Keypair::generate(128, &mut rng);
    let wire = kp.public().to_bytes();
    let imported = PublicKey::from_bytes(&wire).expect("import");

    // Model provider side: Σ wᵢ·mᵢ + b on the imported key.
    let ms = [5i64, -3, 8];
    let ws = [2i64, 4, -1];
    let cts: Vec<_> = ms.iter().map(|&m| imported.encrypt_i64(m, &mut rng)).collect();
    let mut acc = imported.encrypt_constant_i64(10);
    for (c, &w) in cts.iter().zip(&ws) {
        acc = imported.add(&acc, &imported.mul_scalar_i64(c, w));
    }
    let want: i64 = ms.iter().zip(&ws).map(|(m, w)| m * w).sum::<i64>() + 10;
    assert_eq!(kp.private().decrypt_i64(&acc), want);
}

#[test]
fn randomness_pool_accelerated_encryption_is_compatible() {
    // Pool-precomputed encryption interoperates with ordinary ciphertexts
    // in homomorphic expressions.
    let mut rng = StdRng::seed_from_u64(3);
    let kp = Keypair::generate(128, &mut rng);
    let mut pool = RandomnessPool::new(kp.public());
    pool.refill(3, &mut rng);

    let fast = pool.encrypt_i64(21, &mut rng);
    let slow = kp.public().encrypt_i64(21, &mut rng);
    let sum = kp.public().add(&fast, &slow);
    assert_eq!(kp.private().decrypt_i64(&sum), 42);
}

#[test]
fn packed_transport_carries_a_tensor() {
    // A whole activation vector rides one ciphertext (BatchCrypt [66]);
    // the slot-wise sum of two tensors survives the trip.
    let mut rng = StdRng::seed_from_u64(4);
    let kp = Keypair::generate(512, &mut rng);
    let spec = PackingSpec::for_key(&kp.public(), 32).expect("layout fits the key");
    assert!(spec.slots >= 8, "512-bit key should hold ≥ 8 slots");

    let a: Vec<i64> = (0..8).map(|i| i * 1000 - 3500).collect();
    let b: Vec<i64> = (0..8).map(|i| -i * 77).collect();
    let pa = PackedCiphertext::encrypt(&kp.public(), spec, &a, &mut rng).expect("pack");
    let pb = PackedCiphertext::encrypt(&kp.public(), spec, &b, &mut rng).expect("pack");
    let sum = pa.add(&kp.public(), &pb).expect("add");
    let got = sum.decrypt(&kp.private()).expect("decrypt");
    let want: Vec<i64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
    assert_eq!(got, want);
}

#[test]
fn avgpool_generality_end_to_end() {
    // The AvgPool extension: a pooling layer that runs homomorphically
    // (no MaxPool replacement needed), matching its scaled reference.
    let mut rng = StdRng::seed_from_u64(5);
    let model = zoo::avgpool_convnet("avg-e2e", (1, 8, 8), 2, 4, &mut rng).expect("model");
    let scaled = ScaledModel::from_model(&model, 100);
    let session = PpStream::new(scaled.clone(), PpStreamConfig::small_test(128)).expect("session");
    let input = Tensor::from_vec(
        vec![1, 8, 8],
        (0..64).map(|i| ((i * 11) % 17) as f64 / 17.0 - 0.5).collect(),
    )
    .expect("sized");
    let (out, _) = session.infer_stream(std::slice::from_ref(&input)).expect("inference");
    let want = scaled.forward_scaled(&scaled.scale_input(&input)).expect("reference");
    assert_eq!(out[0].data(), want.data());
}

#[test]
fn networked_loopback_matches_in_process_pipeline() {
    // The acceptance bar for the two-process deployment: run the full
    // handshake + streamed inference over a real 127.0.0.1 socket and
    // require the classifications to equal the in-process pipeline's,
    // bit for bit.
    let scaled = mlp_model("loopback-mlp", &[6, 10, 3]);
    let config = NetConfig::small_test(128);

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let inputs = stream_inputs(3, 6);
    let (classes, report) = session.classify_stream(&inputs).expect("networked inference");
    let transport = report.transport.expect("networked run records transport stats");
    assert!(transport.frames_sent > 0 && transport.frames_received > 0);
    assert!(session.shutdown().clean_shutdown);

    let server_report = server.shutdown();
    assert_eq!(server_report.requests as usize, inputs.len());
    assert!(server_report.clean_shutdown, "server must observe a clean EOF");

    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.classify_stream(&inputs).expect("in-process inference");
    assert_eq!(classes, want, "networked classifications must match in-process");
}

#[test]
fn packed_networked_stream_matches_unpacked_in_process() {
    // The acceptance bar for end-to-end ciphertext packing: a networked
    // session that negotiated batch packing must deliver the *same
    // scaled outputs, bit for bit*, as the unpacked in-process pipeline
    // — and actually use the packed protocol (packed rounds on both
    // sides, fewer request frames than items).
    let mut rng = StdRng::seed_from_u64(31);
    let model = zoo::mlp("packed-mlp", &[4, 6, 3], &mut rng).expect("model");
    let scaled = ScaledModel::from_model(&model, 100);
    let mut config = NetConfig::small_test(128);
    config.pack_slot_bits = 32; // 128-bit key → 3 slots per ciphertext

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let inputs = stream_inputs(5, 4); // 3 + 2: one full batch, one partial
    let (outputs, report) = session.infer_stream(&inputs).expect("packed networked inference");
    let transport = report.transport.expect("transport stats");
    assert_eq!(transport.packed_items, 5, "every item must travel packed");
    assert!(transport.packed_rounds > 0, "packed linear rounds must happen");
    assert_eq!(transport.packed_fallbacks, 0, "a healthy run never falls back");
    assert!(session.shutdown().clean_shutdown);

    let server_report = server.shutdown();
    assert_eq!(server_report.requests, 5, "all members complete server-side");
    assert!(server_report.packed_rounds > 0);
    assert_eq!(server_report.packed_aborts, 0);
    assert!(server_report.clean_shutdown);

    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&inputs).expect("in-process inference");
    for (got, want) in outputs.iter().zip(&want) {
        assert_eq!(got.data(), want.data(), "packed outputs must be bit-identical");
    }
}

#[test]
fn infeasible_packing_proposal_degrades_to_unpacked() {
    // An infeasible layout (8-bit slots cannot hold this model's op
    // budget) hard-errors in the in-process API, but a *networked*
    // session degrades silently: the hello proposes nothing, the server
    // echoes slot width 0, and the stream runs per-item with identical
    // results.
    let mut rng = StdRng::seed_from_u64(31);
    let model = zoo::mlp("declined-mlp", &[6, 10, 3], &mut rng).expect("model");
    let scaled = ScaledModel::from_model(&model, 100);
    let mut config = NetConfig::small_test(128);
    config.pack_slot_bits = 8;

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let inputs = stream_inputs(3, 6);
    let (classes, report) = session.classify_stream(&inputs).expect("unpacked inference");
    let transport = report.transport.expect("transport stats");
    assert_eq!(transport.packed_items, 0, "declined packing must not be used");
    assert_eq!(transport.packed_fallbacks, 0, "declining is not a fallback");
    assert!(session.shutdown().clean_shutdown);

    let server_report = server.shutdown();
    assert_eq!(server_report.requests as usize, inputs.len());
    assert_eq!(server_report.packed_rounds, 0);

    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.classify_stream(&inputs).expect("in-process inference");
    assert_eq!(classes, want);
}

#[test]
fn mid_stream_kill_is_a_transport_error_naming_the_stage() {
    // A server that completes the handshake, then dies before answering
    // the first linear round. The client must report a *transport* error
    // that names the failing stage — never a Decode error.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut tx, mut rx) = tcp::accept_on(&listener, &TcpConfig::new()).expect("accept");
        let frame = rx.recv().expect("recv hello").expect("hello frame");
        let hello: HelloMsg = from_frame(frame.payload).expect("decode hello");
        let accept = AcceptMsg {
            version: PROTOCOL_VERSION,
            pk_fingerprint: hello.pk_fingerprint,
            topology: hello.topology,
            session: 1,
            pack_slot_bits: 0,
            fold_slot_bits: 0,
            fold_budget: 0,
        };
        tx.send_payload(to_frame(&accept)).expect("send accept");
        // Connection drops here: the client's first request dies.
    });

    let scaled = mlp_model("killed-mlp", &[6, 10, 3]);
    let config = NetConfig::small_test(128);
    let mut session =
        NetworkedSession::connect(addr, scaled, &config).expect("handshake completes");
    server.join().expect("server thread");

    let inputs = stream_inputs(1, 6);
    let err = session.classify_stream(&inputs).expect_err("peer is gone");
    let text = err.to_string();
    assert!(text.contains("transport error"), "must be a transport error: {text}");
    assert!(text.contains("linear-0@model"), "must name the failing stage: {text}");
    assert!(!text.to_lowercase().contains("decode"), "must never be Decode: {text}");
}

#[test]
fn topology_mismatch_is_rejected_and_server_keeps_serving() {
    // Server and client built against different architectures: the
    // handshake must fail fast with a reason naming the topology — and
    // the server must shrug it off and serve the next, well-built client
    // to completion.
    let server_model = mlp_model("server-mlp", &[6, 10, 3]);
    let client_model = mlp_model("client-mlp", &[6, 8, 3]);
    let config = NetConfig::small_test(128);

    let server = serve(&server_model, &config);
    let addr = server.addr();

    let err = NetworkedSession::connect(addr, client_model, &config)
        .map(|_| ())
        .expect_err("mismatched topology must be rejected");
    let text = err.to_string();
    assert!(text.contains("rejected handshake"), "{text}");
    assert!(text.contains("topology"), "reason must name the mismatch: {text}");

    // The rejection must not have taken the server down.
    let mut session = NetworkedSession::connect(addr, server_model, &config)
        .expect("matching client connects after the rejection");
    let inputs = stream_inputs(1, 6);
    session.classify_stream(&inputs).expect("inference after a rejected peer");
    assert!(session.shutdown().clean_shutdown);

    let report = server.shutdown();
    assert_eq!(report.rejected_handshakes, 1, "the mismatch was counted, not fatal");
    assert_eq!(report.requests, 1);
    assert!(report.clean_shutdown);
}

#[test]
fn supervised_server_isolates_bad_clients() {
    // serve_forever: a garbage-speaking client and three concurrent good
    // clients share one supervised server; the bad one is counted and
    // isolated, the good ones all complete, and shutdown drains cleanly.
    let scaled = mlp_model("fleet-mlp", &[6, 10, 3]);
    let config = NetConfig::small_test(128);
    let provider = std::sync::Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = provider.serve_forever(listener, ServeOptions::default()).expect("spawn server");
    let addr = handle.addr();

    // A client that never speaks the protocol: one garbage frame.
    let (mut gtx, mut grx) = tcp::connect(addr).expect("garbage client connects");
    gtx.send_payload(bytes::Bytes::from_static(b"\xffnot a handshake")).expect("send garbage");
    let reply = grx.recv().expect("reject reply").expect("reject frame");
    let reject: RejectMsg = from_frame(reply.payload).expect("decode reject");
    assert!(reject.reason.contains("hello"), "{}", reject.reason);
    drop(gtx);
    drop(grx);

    // Three well-behaved clients, concurrently.
    let mut clients = Vec::new();
    for _ in 0..3 {
        let scaled = scaled.clone();
        let config = config.clone();
        clients.push(std::thread::spawn(move || {
            let mut session =
                NetworkedSession::connect(addr, scaled, &config).expect("connect + handshake");
            let inputs = stream_inputs(2, 6);
            let (classes, _) = session.classify_stream(&inputs).expect("inference");
            assert!(session.shutdown().clean_shutdown);
            classes
        }));
    }
    let results: Vec<Vec<usize>> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();
    assert!(results.windows(2).all(|w| w[0] == w[1]), "same inputs, same classes");

    let report = handle.shutdown();
    assert_eq!(report.connections, 4, "three good clients plus one garbage client");
    assert_eq!(report.rejected_handshakes, 1);
    assert_eq!(report.requests, 6, "3 clients x 2 items each");
    assert_eq!(report.failed_connections, 0);
    assert_eq!(report.panicked_connections, 0);
    assert!(report.clean_shutdown);
}

#[test]
fn zero_deadline_sheds_every_item_client_side() {
    // An already-expired budget must shed each item before any bytes
    // move: the session survives, every outcome is `DeadlineExpired`,
    // and the server never sees a request.
    let scaled = mlp_model("deadline-zero-mlp", &[4, 6, 3]);
    let mut config = NetConfig::small_test(128);
    config.item_deadline = Some(std::time::Duration::ZERO);

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let inputs = stream_inputs(5, 4);
    let (outcomes, report) =
        session.infer_stream_partial(&inputs).expect("the session survives total expiry");
    assert!(
        outcomes.iter().all(|o| matches!(
            o,
            ItemOutcome::Failed { kind: ItemErrorKind::DeadlineExpired, .. }
        )),
        "every item must expire"
    );
    let transport = report.transport.expect("transport stats");
    assert_eq!(transport.deadline_expired, 5);

    // The strict API turns the same per-item expiry into a hard error.
    let err = session.infer_stream(&inputs).expect_err("strict mode rejects expired items");
    assert!(err.to_string().contains("DeadlineExpired"), "{err}");
    assert!(session.shutdown().clean_shutdown);

    let server_report = server.shutdown();
    assert_eq!(server_report.requests, 0, "expired items never reach the wire");
    assert_eq!(server_report.deadline_expired, 0, "the shed happened client-side");
    assert!(server_report.clean_shutdown);
}

#[test]
fn sub_millisecond_budget_expires_at_the_server() {
    // A 1ms budget survives the client's own pre-send check (local prep
    // is microseconds) but truncates to a zero-millisecond remaining
    // budget on the wire, so the *server* sheds the item with a per-item
    // `DeadlineExpired` reply — and the session keeps streaming.
    let scaled = mlp_model("deadline-wire-mlp", &[4, 6, 3]);
    let mut config = NetConfig::small_test(128);
    config.item_deadline = Some(std::time::Duration::from_millis(1));

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let inputs = stream_inputs(16, 4);
    let (outcomes, _) =
        session.infer_stream_partial(&inputs).expect("the session survives total expiry");
    assert!(
        outcomes.iter().all(|o| matches!(
            o,
            ItemOutcome::Failed { kind: ItemErrorKind::DeadlineExpired, .. }
        )),
        "every item must expire — a 1ms budget cannot fund a Paillier round trip"
    );
    let transport = session.shutdown();
    assert!(transport.clean_shutdown);
    assert_eq!(transport.deadline_expired, 16);

    let server_report = server.shutdown();
    assert!(server_report.clean_shutdown);
    assert!(
        server_report.deadline_expired > 0,
        "at least one expiry must be the server's verdict (budget arrived already spent)"
    );
    assert!(server_report.deadline_expired <= 16);
    assert_eq!(server_report.requests, 0, "no item's linear rounds ever complete");
}

#[test]
fn generous_deadline_and_watchdog_leave_the_stream_untouched() {
    // Deadline stamping rides every linear-round frame: with a generous
    // budget and stall window the deployment must behave exactly as if
    // both were off — bit-identical results, zero overload counters.
    let scaled = mlp_model("deadline-ok-mlp", &[6, 10, 3]);
    let mut config = NetConfig::small_test(128);
    config.item_deadline = Some(std::time::Duration::from_secs(30));
    config.stall_window = Some(std::time::Duration::from_secs(30));

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let inputs = stream_inputs(3, 6);
    let (classes, report) = session.classify_stream(&inputs).expect("networked inference");
    let transport = report.transport.expect("transport stats");
    assert_eq!(transport.deadline_expired, 0);
    assert_eq!(transport.stalls, 0);
    assert_eq!(transport.shed, 0);
    assert_eq!(transport.quarantined, 0);
    assert!(session.shutdown().clean_shutdown);

    let server_report = server.shutdown();
    assert_eq!(server_report.requests as usize, inputs.len());
    assert_eq!(server_report.deadline_expired + server_report.shed + server_report.quarantined, 0);
    assert!(server_report.clean_shutdown);

    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.classify_stream(&inputs).expect("in-process inference");
    assert_eq!(classes, want, "deadline stamping must not perturb the protocol");
}

#[test]
fn zero_inflight_cap_sheds_every_item() {
    // With the per-session in-flight cap at zero, every round-0 arrival
    // is over the cap: the server must answer each with a per-item
    // `Shed` reply instead of queueing or failing the session.
    let scaled = mlp_model("shed-mlp", &[4, 6, 3]);
    let mut config = NetConfig::small_test(128);
    config.max_inflight_items = 0;

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let inputs = stream_inputs(4, 4);
    let (outcomes, _) =
        session.infer_stream_partial(&inputs).expect("the session survives total shedding");
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o, ItemOutcome::Failed { kind: ItemErrorKind::Shed, .. })),
        "every item must be shed at a zero cap"
    );
    let transport = session.shutdown();
    assert!(transport.clean_shutdown);
    assert_eq!(transport.shed, 4);

    let server_report = server.shutdown();
    assert!(server_report.clean_shutdown);
    assert_eq!(server_report.shed, transport.shed, "both sides count every shed item");
    assert_eq!(server_report.requests, 0);
}

#[test]
fn empty_stream_resolves_zero_items() {
    // Regression: a stream that resolves zero items used to divide by
    // `latencies.len()` computing `mean_latency` and panic. An empty
    // input slice must return an empty outcome list with a zero mean,
    // and an all-items-shed zero-deadline run must resolve every item
    // without panicking either.
    let scaled = mlp_model("empty-mlp", &[4, 6, 3]);
    let config = NetConfig::small_test(128);
    let provider = std::sync::Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = provider.serve_forever(listener, ServeOptions::default()).expect("spawn server");
    let addr = handle.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let (classes, report) = session.classify_stream_partial(&[]).expect("empty stream is legal");
    assert!(classes.is_empty(), "zero inputs, zero outcomes");
    assert_eq!(report.mean_latency, std::time::Duration::ZERO, "no items, no mean");
    assert!(report.latencies.is_empty());
    assert!(session.shutdown().clean_shutdown);

    // Same guarantee when every item is shed before any latency-free
    // path could divide: an already-expired budget fails each item
    // individually and the call still returns.
    let mut expired = config.clone();
    expired.item_deadline = Some(std::time::Duration::ZERO);
    let mut session =
        NetworkedSession::connect(addr, scaled, &expired).expect("connect + handshake");
    let inputs = stream_inputs(3, 4);
    let (classes, _) = session.classify_stream_partial(&inputs).expect("total expiry survives");
    assert_eq!(classes, vec![None, None, None], "every item fails individually");
    assert!(session.shutdown().clean_shutdown);

    let report = handle.shutdown();
    assert_eq!(report.requests, 0, "neither stream put an item on the wire");
    assert!(report.clean_shutdown);
}

#[test]
fn busy_flood_is_bounded_and_server_stays_responsive() {
    // Admission control under a hello flood: one occupant fills the
    // single session slot; 64 more connections all get a Busy rejection
    // (none hangs, none is dropped on the floor), the occupant keeps
    // streaming throughout, and the counters balance exactly.
    let scaled = mlp_model("flood-mlp", &[4, 6, 3]);
    let config = NetConfig::small_test(128);
    let provider = std::sync::Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions { max_sessions: Some(1), ..ServeOptions::default() };
    let handle = provider.serve_forever(listener, options).expect("spawn server");
    let addr = handle.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled, &config).expect("occupant takes the only slot");
    let inputs = stream_inputs(2, 4);
    session.classify_stream(&inputs[..1]).expect("occupant streams before the flood");

    for i in 0..64 {
        let (mut tx, mut rx) = tcp::connect(addr).expect("flood client connects");
        tx.send_payload(bytes::Bytes::from_static(b"\x01hello-ish")).expect("send opener");
        let reply = rx.recv().expect("busy reply").expect("one reject frame");
        let reject: RejectMsg = from_frame(reply.payload).expect("decode reject");
        assert_eq!(reject.code, RejectCode::Busy, "flood client {i} must be busy-rejected");
        assert!(reject.reason.contains("capacity"), "{}", reject.reason);
        assert!(reject.retry_after_ms > 0, "backoff hint rides the rejection");
    }

    session.classify_stream(&inputs[1..]).expect("occupant streams after the flood");
    assert!(session.shutdown().clean_shutdown);

    let report = handle.shutdown();
    assert_eq!(report.connections, 65, "occupant plus 64 flooders");
    assert_eq!(report.rejected_busy, 64, "every flooder was rejected, none leaked");
    assert_eq!(report.requests, 2, "the occupant's stream was untouched by the flood");
    assert_eq!(report.failed_connections, 0);
    assert_eq!(report.rejected_handshakes, 0, "busy rejection is not a handshake failure");
    assert!(report.clean_shutdown);
}

#[test]
fn silent_over_cap_flood_costs_no_threads_and_is_closed_at_the_drain_bound() {
    // A slow-loris flood of silent connects against a full server: the
    // event loop parks each refused connection on a shard (a table
    // entry, never a thread), waits at most the 2 s drain bound for a
    // hello that never comes, and closes it.
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return; // no /proc thread accounting on this platform
    };
    drop(dir);

    let scaled = mlp_model("loris-mlp", &[4, 6, 3]);
    let config = NetConfig::small_test(128);
    let provider = std::sync::Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions { max_sessions: Some(1), ..ServeOptions::default() };
    let handle = provider.serve_forever(listener, options).expect("spawn server");
    let addr = handle.addr();

    let mut session = NetworkedSession::connect(addr, scaled, &config).expect("occupant");
    // Acceptor, shards and both worker pools are up: from here on the
    // flood may add table entries, not threads.
    let baseline = std::fs::read_dir("/proc/self/task").expect("/proc").count();

    // 96 slow-loris clients: connect, never send the hello the server
    // wants to drain before it answers Busy, never write at all.
    let flood_start = std::time::Instant::now();
    let held: Vec<std::net::TcpStream> =
        (0..96).filter_map(|_| std::net::TcpStream::connect(addr).ok()).collect();
    assert!(held.len() >= 90, "the flood must mostly connect");

    // Sample the process thread count while the flood is parked. Other
    // tests of this binary start and stop threads meanwhile, hence the
    // margin — one thread per held connection would overshoot it twice.
    let mut peak = 0usize;
    for _ in 0..20 {
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            peak = peak.max(dir.count());
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(
        peak < baseline + 48,
        "refused connections must not cost threads: baseline {baseline}, peak {peak}"
    );

    // The occupant streams while the flood is still parked.
    session.classify_stream(&stream_inputs(1, 4)).expect("occupant survives the flood");

    // Every flooder is closed by the server once the drain bound (2 s,
    // REJECT_DRAIN_BOUND in crates/core/src/net) runs out.
    for (i, mut sock) in held.into_iter().enumerate() {
        use std::io::Read;
        sock.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("read timeout");
        let mut buf = [0u8; 16];
        match sock.read(&mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("flooder {i} was not closed by the server: {other:?}"),
        }
    }
    let closed_after = flood_start.elapsed();
    assert!(
        closed_after < std::time::Duration::from_millis(3500),
        "silent connects must be dropped at the 2 s drain bound, took {closed_after:?}"
    );

    assert!(session.shutdown().clean_shutdown);
    let report = handle.shutdown();
    assert_eq!(report.rejected_busy, report.connections - 1, "all non-occupants were rejected");
    assert!(report.rejected_busy >= 90);
    assert_eq!(report.requests, 1, "the occupant's stream was untouched by the flood");
    assert_eq!(report.failed_connections, 0, "a silent refusal is not a failed connection");
    assert!(report.clean_shutdown);
}

/// A provider whose connections are dropped after 200 ms of silence,
/// and the (patient) client configuration to talk to it.
fn short_read_timeout_provider(
    name: &str,
) -> (ScaledModel, NetConfig, std::sync::Arc<ModelProvider>) {
    let scaled = mlp_model(name, &[4, 6, 3]);
    let client_config = NetConfig::small_test(128);
    let mut server_config = client_config.clone();
    server_config.tcp.read_timeout = Some(std::time::Duration::from_millis(200));
    let provider =
        std::sync::Arc::new(ModelProvider::new(&scaled, &server_config).expect("provider"));
    (scaled, client_config, provider)
}

#[test]
fn silent_connection_gives_its_admission_slot_back_at_the_read_timeout() {
    // Regression: the event loop ignored `TcpConfig::read_timeout`, so a
    // peer that connected and never sent a Hello held its fd and its
    // admission slot forever — with `max_sessions: Some(1)` one silent
    // connect locked every real client into Busy retries.
    let (scaled, config, provider) = short_read_timeout_provider("silent-mlp");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions { max_sessions: Some(1), ..ServeOptions::default() };
    let handle = provider.serve_forever(listener, options).expect("spawn server");
    let addr = handle.addr();

    let silent = std::net::TcpStream::connect(addr).expect("silent peer connects");
    let t0 = std::time::Instant::now();
    let mut session = loop {
        match NetworkedSession::connect(addr, scaled.clone(), &config) {
            Ok(session) => break session,
            Err(e) => assert!(
                t0.elapsed() < std::time::Duration::from_millis(1500),
                "a silent connection still blocks real clients after {:?}: {e}",
                t0.elapsed()
            ),
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    session.classify_stream(&stream_inputs(1, 4)).expect("the real client is served");
    assert!(session.shutdown().clean_shutdown);
    drop(silent);

    let report = handle.shutdown();
    assert_eq!(report.failed_connections, 1, "the silent connection failed: {report:?}");
    let err = report.last_error.as_deref().unwrap_or_default();
    assert!(err.contains("timeout") && err.contains("handshake"), "{err}");
    assert_eq!(report.requests, 1);
    assert!(report.clean_shutdown);
}

#[test]
fn shutdown_does_not_wait_for_an_idle_session_past_the_read_timeout() {
    // Regression: an authenticated client that went quiet was never
    // dropped by the event loop, so `ServerHandle::shutdown` (which
    // drains live connections) blocked for as long as the client stayed
    // connected. The read timeout now bounds it, and the dropped
    // connection's session stays resumable.
    let (scaled, config, provider) = short_read_timeout_provider("idle-mlp");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = provider.serve_forever(listener, ServeOptions::default()).expect("spawn server");

    let mut session =
        NetworkedSession::connect(handle.addr(), scaled, &config).expect("connect + handshake");
    session.classify_stream(&stream_inputs(1, 4)).expect("inference");

    // The session stays connected, and silent, across the shutdown.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let _ = done_tx.send(handle.shutdown());
    });
    let report = done_rx
        .recv_timeout(std::time::Duration::from_millis(1500))
        .expect("shutdown must not wait for an idle client beyond its read timeout");
    stopper.join().expect("shutdown thread");

    assert_eq!(report.requests, 1);
    assert_eq!(report.failed_connections, 1, "the idle connection timed out: {report:?}");
    let err = report.last_error.as_deref().unwrap_or_default();
    assert!(err.contains("timeout") && err.contains("linear request"), "{err}");
    assert_eq!(provider.active_sessions(), 1, "the timed-out session stays resumable");
    drop(session);
}

#[test]
fn read_timeout_expiry_is_a_bare_close_and_one_failed_connection() {
    // A peer connects and stays silent past the read timeout, then a
    // real client streams one item and says Bye. The silent peer sees a
    // close without a reply; the server counts a failed connection (not
    // a refused hello) and names the timeout and the stage it hit.
    use std::io::Read;
    let (scaled, config, provider) = short_read_timeout_provider("expiry-mlp");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions { max_workers: 1, ..ServeOptions::default() };
    let handle = provider.serve_forever(listener, options).expect("spawn server");

    let mut silent = std::net::TcpStream::connect(handle.addr()).expect("silent peer connects");
    silent.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("read timeout");
    let mut buf = [0u8; 16];
    assert!(matches!(silent.read(&mut buf), Ok(0)), "silent peer must see a bare close");
    let mut session =
        NetworkedSession::connect(handle.addr(), scaled, &config).expect("connect + handshake");
    session.classify_stream(&stream_inputs(1, 4)).expect("inference");
    assert!(session.shutdown().clean_shutdown);

    let report = handle.shutdown();
    assert_eq!(report.connections, 2, "{report:?}");
    assert_eq!(report.failed_connections, 1, "{report:?}");
    assert_eq!(report.rejected_handshakes, 0, "a timeout is not a refused hello: {report:?}");
    assert_eq!(report.requests, 1, "{report:?}");
    assert!(report.clean_shutdown);
    let err = report.last_error.as_deref().unwrap_or_default();
    assert!(err.contains("timeout") && err.contains("handshake"), "{err}");
}

#[test]
fn shutdown_latency_is_bounded_by_wakeup() {
    // `ServerHandle::shutdown` wakes the acceptor and every shard out of
    // their pollers; nothing waits out a timer.
    let scaled = mlp_model("drain-mlp", &[4, 6, 3]);
    let config = NetConfig::small_test(128);
    let provider = std::sync::Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = provider.serve_forever(listener, ServeOptions::default()).expect("spawn server");

    // One served-and-closed session proves the loop is live (not stuck
    // in a startup path that would make a fast shutdown vacuous).
    let mut session =
        NetworkedSession::connect(handle.addr(), scaled, &config).expect("connect + handshake");
    session.classify_stream(&stream_inputs(1, 4)).expect("inference");
    assert!(session.shutdown().clean_shutdown);

    let t0 = std::time::Instant::now();
    let report = handle.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "stop must wake the acceptor and shards: {elapsed:?}"
    );
    assert_eq!(report.requests, 1);
    assert!(report.clean_shutdown);
}
