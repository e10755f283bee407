//! Chaos/soak tests: deterministic fault injection against the
//! two-process deployment (requires the `fault-injection` feature).
//!
//! The headline assertion: with the connection killed on every Nth sent
//! frame, a 200-item stream still produces **bit-identical** outputs to
//! the in-process pipeline, reconnect-and-resume absorbs every kill, and
//! the replay accounting agrees between client and server — so no
//! delivered item's Paillier evaluations are ever repeated.
//!
//! `PP_FAULT_SEED` overrides the fault seed, letting CI soak the same
//! schedule under different corruption/jitter draws without recompiling.

use pp_nn::{zoo, ScaledModel};
use pp_stream::{
    FaultPlan, ItemErrorKind, ItemOutcome, ModelProvider, NetConfig, NetworkedSession, PpStream,
    PpStreamConfig, ServeOptions, ServerHandle,
};
use pp_stream_runtime::RetryPolicy;
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn mlp_model(name: &str) -> ScaledModel {
    let mut rng = StdRng::seed_from_u64(31);
    let model = zoo::mlp(name, &[4, 6, 3], &mut rng).expect("model");
    ScaledModel::from_model(&model, 10_000)
}

fn stream_inputs(n: u64) -> Vec<Tensor<f64>> {
    (0..n)
        .map(|seq| {
            Tensor::from_flat(
                (0..4u64).map(|j| ((seq * 4 + j) as f64 * 0.37).sin()).collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// A provider for `scaled` on the serving event loop, one shard:
/// connections are served in arrival order, and a dropped one leaves its
/// session for the next connect to resume.
fn serve(scaled: &ScaledModel, config: &NetConfig) -> ServerHandle {
    let provider = Arc::new(ModelProvider::new(scaled, config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions { max_workers: 1, ..ServeOptions::default() };
    provider.serve_forever(listener, options).expect("spawn server")
}

fn fault_seed() -> u64 {
    std::env::var("PP_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0x00C0_FFEE)
}

/// Drives 200 items through a transport that kills the connection on
/// every `kill_every`-th sent frame and checks the full fault-tolerance
/// contract.
fn kill_soak(kill_every: u64) {
    let scaled = mlp_model("chaos-mlp");
    let mut config = NetConfig::small_test(128);
    config.fault =
        Some(FaultPlan { seed: fault_seed(), kill_every: Some(kill_every), ..Default::default() });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let items = stream_inputs(200);
    let (got, report) = session.infer_stream(&items).expect("soak survives the kills");
    let transport = session.shutdown();
    assert!(transport.clean_shutdown, "the Bye must get through, reconnecting if needed");
    assert!(transport.reconnects > 0, "the kill schedule must actually fire");
    assert!(transport.faults_injected > 0);
    assert!(
        transport.faults_injected >= transport.reconnects,
        "every reconnect is fault-triggered: {} faults vs {} reconnects",
        transport.faults_injected,
        transport.reconnects
    );
    assert!(report.transport.expect("transport stats").reconnects > 0);

    let server_report = server.shutdown();
    assert!(server_report.clean_shutdown);
    assert!(server_report.requests >= 200, "every item's linear rounds completed");
    assert!(server_report.resumed_sessions as u64 >= transport.reconnects);
    assert_eq!(
        server_report.replayed_items, transport.items_replayed,
        "client and server must agree on exactly which items were replayed"
    );

    // The acceptance bar: identical outputs to the in-process pipeline,
    // bit for bit, kills or no kills.
    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&items).expect("in-process inference");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.data(), w.data(), "item {i} diverged from the in-process pipeline");
    }
}

#[test]
fn chaos_kill_every_3_bit_identical_soak() {
    // k=3 lands every kill on an ack frame (3 sends per item), so the
    // soak exercises reconnects on *every* item without replays.
    kill_soak(3);
}

#[test]
fn chaos_kill_every_17_bit_identical_soak() {
    // k=17 walks the kill position across the round-0/round-1/ack
    // phases, so some kills interrupt an item mid-flight and force a
    // replay from round 0 — which the accounting must show.
    kill_soak(17);
}

#[test]
fn chaos_kill_every_17_forces_replays() {
    // Pinned companion to the soak above: a kill that lands after a
    // round-0 send must surface as a replayed item on both ends.
    let scaled = mlp_model("chaos-replay-mlp");
    let mut config = NetConfig::small_test(128);
    config.fault =
        Some(FaultPlan { seed: fault_seed(), kill_every: Some(17), ..Default::default() });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session = NetworkedSession::connect(addr, scaled, &config).expect("connect");
    session.infer_stream(&stream_inputs(20)).expect("inference");
    let transport = session.shutdown();
    assert!(transport.items_replayed > 0, "a mid-item kill must be replayed");

    let server_report = server.shutdown();
    assert_eq!(server_report.replayed_items, transport.items_replayed);
}

#[test]
fn chaos_folded_kill_resumes_replays_bit_identically_and_keeps_folding() {
    // Output folding across a dropped connection (DESIGN.md §8): at
    // 256-bit keys a reply holds three outputs per ciphertext. A kill on
    // every 17th sent frame lands mid-item sooner or later; the resume
    // re-announces the layout, the replayed item and every item after it
    // still come back folded, and the outputs are the in-process
    // pipeline's bit for bit.
    let scaled = mlp_model("chaos-fold-mlp");
    let mut config = NetConfig::small_test(256);
    config.fault =
        Some(FaultPlan { seed: fault_seed(), kill_every: Some(17), ..Default::default() });
    let server = serve(&scaled, &config);

    let mut session =
        NetworkedSession::connect(server.addr(), scaled.clone(), &config).expect("connect");
    let layout = session.fold_layout().expect("layout announced");
    assert_eq!(layout.slots, 3);
    let items = stream_inputs(40);
    let (got, _) = session.infer_stream(&items).expect("the kills are absorbed");
    assert_eq!(session.fold_layout(), Some(layout), "the resume-accept announced it again");
    let transport = session.shutdown();
    assert!(transport.reconnects > 0, "the kill schedule must fire");
    assert!(transport.items_replayed > 0, "a mid-item kill must be replayed");
    // Two linear rounds per item: every completed attempt was folded,
    // before the first resume and after the last.
    assert!(transport.folded_rounds >= 80, "{transport:?}");

    let report = server.shutdown();
    assert_eq!(report.replayed_items, transport.items_replayed);
    assert!(report.folded_replies >= transport.folded_rounds, "{report:?}");

    let mut local_cfg = PpStreamConfig::small_test(256);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&items).expect("in-process inference");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.data(), w.data(), "item {i} diverged from the in-process pipeline");
    }
}

#[test]
fn corrupt_frame_is_fatal_not_silent() {
    // Bit corruption in a reply's header region must surface as an
    // immediate error — never silently wrong ciphertexts, and never an
    // endless resume loop (corruption is not a transient fault).
    let scaled = mlp_model("corrupt-mlp");
    let mut config = NetConfig::small_test(128);
    config.fault =
        Some(FaultPlan { seed: fault_seed(), corrupt_every: Some(1), ..Default::default() });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session = NetworkedSession::connect(addr, scaled, &config).expect("connect");
    let err = session
        .classify_stream(&stream_inputs(1))
        .expect_err("a corrupted reply must not produce a classification");
    let text = err.to_string().to_lowercase();
    assert!(
        text.contains("decode") || text.contains("stage") || text.contains("corrupt"),
        "corruption must be named, got: {text}"
    );
    assert_eq!(session.transport().reconnects, 0, "corruption must not trigger resume");

    // The connection itself is healthy; a clean Bye releases the server.
    let transport = session.shutdown();
    assert!(transport.clean_shutdown);
    assert!(transport.faults_injected > 0);
    server.shutdown();
}

#[test]
fn chaos_stalled_reads_recovered_by_watchdog_soak() {
    // Every 7th receive stalls for 80ms — past the 40ms watchdog window
    // but nowhere near the 30s TCP read timeout. The client's stall
    // watchdog must diagnose each stall as `Stalled`, recover it by
    // reconnect-and-resume (replaying the interrupted item), and still
    // deliver bit-identical outputs over 200 items.
    let scaled = mlp_model("stall-mlp");
    let mut config = NetConfig::small_test(128);
    config.stall_window = Some(Duration::from_millis(40));
    config.fault = Some(FaultPlan {
        seed: fault_seed(),
        stall: Some(Duration::from_millis(80)),
        stall_every: Some(7),
        ..Default::default()
    });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let items = stream_inputs(200);
    let (got, _) = session.infer_stream(&items).expect("soak survives the stalls");
    let transport = session.shutdown();
    assert!(transport.clean_shutdown);
    assert!(transport.stalls > 0, "the stall schedule must trip the watchdog");
    assert_eq!(
        transport.reconnects, transport.stalls,
        "every stall is recovered by exactly one resume (and nothing else fails)"
    );
    assert!(transport.items_replayed > 0, "a stalled round reply replays its item");

    let server_report = server.shutdown();
    assert!(server_report.clean_shutdown);
    assert_eq!(
        server_report.replayed_items, transport.items_replayed,
        "client and server must agree on exactly which items were replayed"
    );

    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&items).expect("in-process inference");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.data(), w.data(), "item {i} diverged from the in-process pipeline");
    }
}

#[test]
fn chaos_busy_rejection_is_retried_after_backoff() {
    // Admission control at a one-session cap: while client A holds the
    // slot, client B's hello is answered with `Reject { code: Busy }`
    // and a retry hint. B must back off on the hint and get served once
    // A leaves — and both sides must count every rejection.
    let scaled = mlp_model("busy-mlp");
    let mut config = NetConfig::small_test(128);
    // B needs a retry budget deep enough to outlast A's whole stream.
    config.tcp.retry = RetryPolicy {
        max_attempts: 60,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        jitter: false,
    };

    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions {
        max_sessions: Some(1),
        retry_after: Duration::from_millis(20),
        ..ServeOptions::default()
    };
    let handle = provider.serve_forever(listener, options).expect("spawn server");
    let addr = handle.addr();

    // Client A occupies the only session slot...
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let a_scaled = scaled.clone();
    let a_config = config.clone();
    let a = std::thread::spawn(move || {
        let mut session =
            NetworkedSession::connect(addr, a_scaled, &a_config).expect("A connects");
        started_tx.send(()).expect("signal");
        let (out, _) = session.infer_stream(&stream_inputs(4)).expect("A inference");
        let transport = session.shutdown();
        assert!(transport.clean_shutdown);
        assert_eq!(transport.rejected_busy, 0, "A arrived at an idle server");
        out
    });
    started_rx.recv().expect("A handshaken");

    // ...so client B is busy-rejected, honors the backoff hint, and is
    // served after A's Bye frees the slot.
    let mut b = NetworkedSession::connect(addr, scaled, &config).expect("B retries in");
    let (b_out, _) = b.infer_stream(&stream_inputs(4)).expect("B inference");
    let b_transport = b.shutdown();
    assert!(b_transport.clean_shutdown);
    assert!(b_transport.rejected_busy > 0, "B must have absorbed at least one Busy");

    let a_out = a.join().expect("client A");
    // Same inputs, same seed: the serialized clients compute the same
    // stream, bit for bit.
    for (i, (x, y)) in a_out.iter().zip(&b_out).enumerate() {
        assert_eq!(x.data(), y.data(), "item {i} diverged between the two clients");
    }

    let report = handle.shutdown();
    assert_eq!(report.rejected_busy, b_transport.rejected_busy, "both sides count every Busy");
    assert_eq!(report.requests, 8, "2 clients x 4 items each");
    assert_eq!(report.failed_connections, 0);
    assert_eq!(report.panicked_connections, 0);
    assert!(report.clean_shutdown);
}

#[test]
fn chaos_poison_item_quarantined_stream_survives() {
    // Item 13 panics the model provider's linear stage. The panic must
    // be contained to that one item: the client sees a single
    // `Quarantined` outcome, the other 199 items complete bit-identical
    // to the in-process pipeline, and both sides agree on the count.
    let scaled = mlp_model("poison-mlp");
    let mut config = NetConfig::small_test(128);
    config.fault =
        Some(FaultPlan { seed: fault_seed(), poison_seq: Some(13), ..Default::default() });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let items = stream_inputs(200);
    let (outcomes, _) =
        session.infer_stream_partial(&items).expect("the stream survives the poison item");
    let transport = session.shutdown();
    assert!(transport.clean_shutdown);
    assert_eq!(transport.quarantined, 1, "exactly one quarantine reply");
    assert_eq!(transport.reconnects, 0, "a poison panic is per-item, not a transport fault");

    let failed: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.output().is_none())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed, vec![13], "exactly the poisoned seq fails");
    match &outcomes[13] {
        ItemOutcome::Failed { kind, detail } => {
            assert_eq!(*kind, ItemErrorKind::Quarantined);
            assert!(detail.contains("panicked"), "detail must name the panic: {detail}");
        }
        ItemOutcome::Done(_) => unreachable!("outcome 13 failed above"),
    }

    let server_report = server.shutdown();
    assert!(server_report.clean_shutdown);
    assert_eq!(server_report.quarantined, transport.quarantined);
    assert_eq!(server_report.requests, 199, "the poisoned item's rounds never complete");

    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&items).expect("in-process inference");
    for (i, (o, w)) in outcomes.iter().zip(&want).enumerate() {
        if i == 13 {
            continue;
        }
        assert_eq!(
            o.output().expect("non-poisoned items complete").data(),
            w.data(),
            "item {i} diverged from the in-process pipeline"
        );
    }
}

#[test]
fn chaos_saturation_sheds_excess_clients_without_failures() {
    // Five clients stampede a server admission-capped at two concurrent
    // sessions. The surplus must be busy-rejected (not queued, not
    // crashed), every client must eventually be served after backoff,
    // and the admitted work must stay bit-identical across clients.
    let scaled = mlp_model("saturate-mlp");
    let mut config = NetConfig::small_test(128);
    config.tcp.retry = RetryPolicy {
        max_attempts: 120,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        jitter: true,
    };

    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions {
        max_workers: 2,
        max_sessions: Some(2),
        retry_after: Duration::from_millis(15),
        ..ServeOptions::default()
    };
    let handle = provider.serve_forever(listener, options).expect("spawn server");
    let addr = handle.addr();

    let items = stream_inputs(3);
    let mut clients = Vec::new();
    for _ in 0..5 {
        let scaled = scaled.clone();
        let config = config.clone();
        let items = items.clone();
        clients.push(std::thread::spawn(move || {
            let mut session =
                NetworkedSession::connect(addr, scaled, &config).expect("eventually admitted");
            let (out, _) = session.infer_stream(&items).expect("inference");
            let transport = session.shutdown();
            assert!(transport.clean_shutdown);
            (out, transport.rejected_busy)
        }));
    }
    let results: Vec<(Vec<Tensor<i64>>, u64)> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();

    let client_busy: u64 = results.iter().map(|(_, b)| b).sum();
    assert!(client_busy > 0, "five clients against a cap of two must see Busy");
    for (out, _) in &results {
        assert_eq!(out.len(), items.len());
        for (i, (g, w)) in out.iter().zip(&results[0].0).enumerate() {
            assert_eq!(g.data(), w.data(), "admitted item {i} diverged between clients");
        }
    }

    let report = handle.shutdown();
    assert_eq!(report.rejected_busy, client_busy, "client and server agree on every Busy");
    assert_eq!(report.requests, 15, "5 clients x 3 items, all served eventually");
    assert_eq!(report.failed_connections, 0);
    assert_eq!(report.panicked_connections, 0);
    assert_eq!(
        report.connections,
        5 + report.rejected_busy,
        "every connection was either served or busy-rejected"
    );
    assert!(report.clean_shutdown);
}

/// A factor-100 model small enough for 32-bit packed slots on a 128-bit
/// key (3 members per ciphertext) — the chaos default's 10⁴ factor
/// overflows any packable slot width.
fn packed_mlp_model(name: &str) -> ScaledModel {
    let mut rng = StdRng::seed_from_u64(31);
    let model = zoo::mlp(name, &[4, 6, 3], &mut rng).expect("model");
    ScaledModel::from_model(&model, 100)
}

#[test]
fn chaos_packed_kill_soak_bit_identical() {
    // Kills landing mid-packed-round: the interrupted batch falls back
    // to per-item replay, the reconnect drops packing for the rest of
    // the stream, and every item still completes exactly once with
    // bit-identical outputs to the in-process pipeline.
    let scaled = packed_mlp_model("packed-kill-mlp");
    let mut config = NetConfig::small_test(128);
    config.pack_slot_bits = 32;
    config.fault =
        Some(FaultPlan { seed: fault_seed(), kill_every: Some(3), ..Default::default() });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let items = stream_inputs(60);
    let (got, _) = session.infer_stream(&items).expect("soak survives the kills");
    let transport = session.shutdown();
    assert!(transport.clean_shutdown, "the Bye must get through, reconnecting if needed");
    assert!(transport.packed_items >= 3, "at least the first batch travels packed");
    assert!(transport.packed_fallbacks > 0, "a kill mid-batch must fall back to per-item");
    assert!(transport.reconnects > 0, "the kill schedule must actually fire");
    assert!(transport.faults_injected > 0);

    let server_report = server.shutdown();
    assert!(server_report.clean_shutdown);
    assert!(
        server_report.requests >= 60,
        "every member's linear rounds completed (kills may replay an unacked one)"
    );
    assert!(
        server_report.replayed_items >= transport.items_replayed,
        "packed-fallback replays are intra-connection — only the server counts them: \
         {} server vs {} client",
        server_report.replayed_items,
        transport.items_replayed
    );

    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&items).expect("in-process inference");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.data(), w.data(), "item {i} diverged from the in-process pipeline");
    }
}

#[test]
fn chaos_packed_poison_aborts_batch_and_quarantines_item() {
    // A poison member inside a packed batch: the server aborts the
    // *batch* (one PackedAbort, no batch-level quarantine), the client
    // replays its members unpacked over the same connection, and only
    // then does the per-item protocol quarantine the poisoned seq. The
    // surrounding batches stay packed and bit-identical.
    let scaled = packed_mlp_model("packed-poison-mlp");
    let mut config = NetConfig::small_test(128);
    config.pack_slot_bits = 32;
    config.fault =
        Some(FaultPlan { seed: fault_seed(), poison_seq: Some(4), ..Default::default() });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let items = stream_inputs(9); // batches (0,1,2) (3,4,5) (6,7,8); seq 4 is poisoned
    let (outcomes, _) =
        session.infer_stream_partial(&items).expect("the stream survives the poison member");
    let transport = session.shutdown();
    assert!(transport.clean_shutdown);
    assert_eq!(transport.packed_fallbacks, 1, "exactly the poisoned batch falls back");
    assert_eq!(transport.packed_items, 6, "the two healthy batches stay packed");
    assert_eq!(transport.quarantined, 1, "exactly one quarantine reply");
    assert_eq!(transport.reconnects, 0, "a packed abort never tears the connection down");

    let failed: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.output().is_none())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed, vec![4], "exactly the poisoned member fails");
    match &outcomes[4] {
        ItemOutcome::Failed { kind, detail } => {
            assert_eq!(*kind, ItemErrorKind::Quarantined);
            assert!(detail.contains("panicked"), "detail must name the panic: {detail}");
        }
        ItemOutcome::Done(_) => unreachable!("outcome 4 failed above"),
    }

    let server_report = server.shutdown();
    assert!(server_report.clean_shutdown);
    assert_eq!(server_report.packed_aborts, 1, "one abort for the poisoned batch");
    assert_eq!(server_report.quarantined, 1, "quarantine happens on the unpacked replay");
    assert_eq!(server_report.requests, 8, "the poisoned member never completes");
    assert_eq!(
        server_report.replayed_items, 3,
        "all three batch members replay unpacked after the abort"
    );

    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&items).expect("in-process inference");
    for (i, (o, w)) in outcomes.iter().zip(&want).enumerate() {
        if i == 4 {
            continue;
        }
        assert_eq!(
            o.output().expect("healthy members complete").data(),
            w.data(),
            "item {i} diverged from the in-process pipeline"
        );
    }
}

#[test]
fn expired_session_rejects_resume() {
    // With a zero TTL every dropped session expires before the client
    // can resume it: the resume must be *rejected* (exactly-once state
    // is gone), surfacing the original failure plus the rejection — and
    // the server must keep serving fresh clients afterwards.
    let scaled = mlp_model("ttl-mlp");
    let mut config = NetConfig::small_test(128);
    config.session_ttl = Duration::ZERO;
    config.fault =
        Some(FaultPlan { seed: fault_seed(), kill_every: Some(3), ..Default::default() });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let mut session = NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect");
    let err = session
        .classify_stream(&stream_inputs(5))
        .expect_err("resume into an expired session must fail");
    let text = err.to_string();
    assert!(text.contains("after failed resume"), "{text}");
    assert!(text.contains("unknown or expired"), "{text}");

    // A fresh hello (no resume involved) still works.
    let mut fresh_config = config.clone();
    fresh_config.fault = None;
    let mut fresh =
        NetworkedSession::connect(addr, scaled, &fresh_config).expect("fresh client connects");
    fresh.classify_stream(&stream_inputs(1)).expect("inference after the expired session");
    assert!(fresh.shutdown().clean_shutdown);

    let report = server.shutdown();
    assert!(report.rejected_handshakes >= 1, "the expired resume was rejected");
    assert!(report.clean_shutdown);
}

#[test]
fn chaos_resume_with_fixed_base_refill_is_deterministic() {
    // The blinding-factor pool now refills through the per-key
    // fixed-base comb table (shared process-wide). A session that dies
    // and resumes mid-stream must still replay bit-identically to a
    // clean in-process run: the table is derived deterministically from
    // the key, so a reconnect — or a second session under the same
    // key — walks the exact same factor stream.
    let scaled = mlp_model("chaos-fixed-base");
    let mut config = NetConfig::small_test(128);
    config.fault =
        Some(FaultPlan { seed: fault_seed(), kill_every: Some(11), ..Default::default() });

    let server = serve(&scaled, &config);
    let addr = server.addr();

    let hits_before = pp_paillier::shared_refill_cache().hits();
    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    let items = stream_inputs(60);
    let (got, report) = session.infer_stream(&items).expect("stream survives the kills");
    let transport = session.shutdown();
    assert!(transport.reconnects > 0, "the kill schedule must force at least one resume");
    // Replayed items re-encrypt past the precomputed pool, so misses are
    // expected here — the point is that neither pooled (fixed-base) nor
    // fallback (inline r^n) blinding perturbs the decrypted stream.
    let _ = report.pool_misses;
    server.shutdown();

    // Clean reference run, same seeds: the in-process pipeline derives
    // the same key, hits the same shared table, and must agree bit for
    // bit with the killed-and-resumed networked stream.
    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&items).expect("in-process inference");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.data(), w.data(), "item {i} diverged after resume with fixed-base refill");
    }
    assert!(
        pp_paillier::shared_refill_cache().hits() > hits_before,
        "sessions under one key must reuse the shared fixed-base table, not rebuild it"
    );
}
