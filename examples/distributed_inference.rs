//! Truly distributed PP-Stream: the model provider and the data provider
//! run as independent endpoints connected only by a real TCP socket
//! (localhost here; point the address at another host for a two-machine
//! deployment, as in the paper's testbed — see also the standalone
//! `model_provider` / `data_provider` binaries for a real two-process
//! run).
//!
//! ```sh
//! cargo run --release --example distributed_inference
//! ```
//!
//! The wire carries exactly the protocol of paper Fig. 3, preceded by a
//! versioned handshake (protocol version + public-key fingerprint +
//! model-topology digest); after it, every crossing is an encrypted
//! (and, mid-protocol, permutation-obfuscated) tensor. The demo asserts
//! the networked classifications equal the in-process pipeline's.

use pp_nn::{zoo, ScaledModel};
use pp_stream::{
    ModelProvider, NetConfig, NetworkedSession, PpStream, PpStreamConfig, ServeOptions,
};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Both parties agree on the model architecture and scaling factor
    // out of band; the handshake's topology digest verifies they did.
    let mut rng = StdRng::seed_from_u64(31);
    let model = zoo::mlp("distributed-mlp", &[6, 10, 3], &mut rng).expect("model");
    let scaled = ScaledModel::from_model(&model, 10_000);

    // 64-bit slots in a 256-bit key leave three slots per ciphertext —
    // exactly this demo's batch, so all three requests ride one packed
    // linear pass each round (DESIGN.md §8).
    let config =
        NetConfig { key_bits: 256, seed: 99, pack_slot_bits: 64, ..NetConfig::default() };

    // ---- Model provider: a TCP server owning the weights. ----
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let provider = std::sync::Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let server = provider.serve_forever(listener, ServeOptions::default()).expect("spawn server");
    let addr = server.addr();

    // ---- Data provider: a TCP client owning the keys and the inputs. ----
    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect + handshake");
    println!("[data-provider] handshake accepted by {addr}");

    let inputs: Vec<Tensor<f64>> = (0..3u64)
        .map(|seq| {
            Tensor::from_flat(
                (0..6).map(|j| ((seq * 6 + j) as f64 * 0.41).sin()).collect::<Vec<f64>>(),
            )
        })
        .collect();

    let (classes, report) = session.classify_stream(&inputs).expect("networked inference");
    let transport = report.transport.as_ref().expect("networked run has transport stats");
    println!(
        "[data-provider] {} requests in {:?} (mean latency {:?}); {} frames / {} B sent, \
         {} frames / {} B received",
        classes.len(),
        report.makespan,
        report.mean_latency,
        transport.frames_sent,
        transport.bytes_sent,
        transport.frames_received,
        transport.bytes_received,
    );
    println!(
        "[data-provider] packing: {} items in {} packed rounds, {} fallbacks",
        transport.packed_items, transport.packed_rounds, transport.packed_fallbacks,
    );
    assert_eq!(
        transport.packed_items,
        inputs.len() as u64,
        "with seeds fixed and the layout feasible, every request rides a packed batch"
    );
    let final_report = session.shutdown();
    assert!(final_report.clean_shutdown);
    println!(
        "[data-provider] resilience: {} reconnects, {} items replayed, {} faults injected",
        final_report.reconnects, final_report.items_replayed, final_report.faults_injected,
    );
    let server_report = server.shutdown();
    println!(
        "[model-provider] served {} requests, {} B in / {} B out, clean shutdown: {}",
        server_report.requests,
        server_report.bytes_in,
        server_report.bytes_out,
        server_report.clean_shutdown
    );
    assert!(server_report.clean_shutdown, "server must observe the client's Bye");

    // The networked deployment must compute the same function as the
    // in-process pipeline.
    let mut local_cfg = PpStreamConfig::small_test(config.key_bits);
    local_cfg.seed = config.seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.classify_stream(&inputs).expect("in-process inference");
    assert_eq!(classes, want, "networked classifications must match in-process");

    println!("\nall {} networked classifications match the in-process pipeline —", classes.len());
    println!("the two-process deployment computes the same function while exchanging");
    println!("only ciphertext.");
}
