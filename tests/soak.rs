//! Serving-at-scale soak: many concurrent sessions against one
//! supervised server, asserting *exact* counter agreement between the
//! server's [`ServeReport`] and the sum of every client's
//! [`TransportReport`] — and that a drained server leaks no session
//! state. The CI smoke form runs 64 sessions; the full 1k-session soak
//! is `--ignored` (run it with `cargo test --release -- --ignored`).

use pp_nn::{zoo, ScaledModel};
use pp_stream::{ModelProvider, NetConfig, NetworkedSession, ServeOptions, TransportReport};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

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

/// Runs `n_clients` concurrent sessions of `items_per_client` items
/// each and checks the books balance to the frame and the byte.
fn soak(n_clients: usize, items_per_client: u64, gather_window: Duration) {
    let scaled = mlp_model("soak-mlp", &[4, 6, 3]);
    let mut config = NetConfig::small_test(128);
    config.threads = 1; // keep per-client pools from multiplying threads

    let provider = std::sync::Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions { gather_window, ..ServeOptions::default() };
    let handle =
        std::sync::Arc::clone(&provider).serve_forever(listener, options).expect("spawn server");
    let addr = handle.addr();

    let inputs = stream_inputs(items_per_client, 4);
    let clients: Vec<_> = (0..n_clients)
        .map(|i| {
            let scaled = scaled.clone();
            let config = config.clone();
            let inputs = inputs.clone();
            std::thread::Builder::new()
                .name(format!("soak-client-{i}"))
                .spawn(move || {
                    // Staggered connect waves so a (bounded) accept
                    // backlog never refuses the tail of a 1k herd.
                    std::thread::sleep(Duration::from_millis((i as u64 / 64) * 20));
                    let mut session = {
                        let mut attempt = 0;
                        loop {
                            match NetworkedSession::connect(addr, scaled.clone(), &config) {
                                Ok(s) => break s,
                                Err(e) if attempt < 5 => {
                                    attempt += 1;
                                    std::thread::sleep(Duration::from_millis(50 * attempt));
                                    let _ = e;
                                }
                                Err(e) => panic!("client {i} cannot connect: {e}"),
                            }
                        }
                    };
                    let (classes, _) =
                        session.classify_stream_partial(&inputs).expect("inference");
                    (classes, session.shutdown())
                })
                .expect("spawn client")
        })
        .collect();

    let mut transports: Vec<TransportReport> = Vec::with_capacity(n_clients);
    let mut all_classes = Vec::with_capacity(n_clients);
    for c in clients {
        let (classes, transport) = c.join().expect("client thread");
        assert_eq!(classes.len(), items_per_client as usize);
        assert!(classes.iter().all(|c| c.is_some()), "every item must resolve successfully");
        assert!(transport.clean_shutdown, "every session must end with a Bye");
        all_classes.push(classes);
        transports.push(transport);
    }
    assert!(all_classes.windows(2).all(|w| w[0] == w[1]), "same inputs, same classes");

    let report = handle.shutdown();
    assert_eq!(
        provider.active_sessions(),
        0,
        "a drained server must not leak session-table entries"
    );

    // The books must balance exactly: what the clients sent is what the
    // server received, and vice versa, frame for frame and byte for byte.
    let sent: u64 = transports.iter().map(|t| t.frames_sent).sum();
    let received: u64 = transports.iter().map(|t| t.frames_received).sum();
    let bytes_sent: u64 = transports.iter().map(|t| t.bytes_sent).sum();
    let bytes_received: u64 = transports.iter().map(|t| t.bytes_received).sum();
    assert_eq!(report.frames_in, sent, "server frames_in vs summed client frames_sent");
    assert_eq!(report.frames_out, received, "server frames_out vs summed client frames_received");
    assert_eq!(report.bytes_in, bytes_sent, "server bytes_in vs summed client bytes_sent");
    assert_eq!(report.bytes_out, bytes_received, "server bytes_out vs client bytes_received");

    assert_eq!(report.requests, n_clients as u64 * items_per_client);
    assert_eq!(report.connections, n_clients as u64);
    assert_eq!(report.failed_connections, 0, "last_error: {:?}", report.last_error);
    assert_eq!(report.panicked_connections, 0);
    assert_eq!(report.rejected_handshakes, 0);
    assert_eq!(report.rejected_busy, 0);
    assert_eq!(report.shed + report.deadline_expired + report.quarantined, 0);
    assert!(report.clean_shutdown);

    if gather_window > Duration::ZERO {
        assert!(
            report.batched_rounds > 0,
            "a nonzero gather window must route jobs through the batcher"
        );
        assert!(report.batched_items >= report.batched_rounds);
    }
}

#[test]
fn soak_smoke_64_sessions_per_session_serving() {
    soak(64, 2, Duration::ZERO);
}

#[test]
fn soak_smoke_64_sessions_cross_session_batched() {
    soak(64, 2, Duration::from_micros(400));
}

#[test]
#[ignore = "full 1k-session soak; run with --ignored (CI runs the 64-session smoke)"]
fn soak_1k_sessions() {
    soak(1000, 2, Duration::from_micros(400));
}
