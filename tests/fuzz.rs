//! Seeded structure-aware wire-fuzz harness (requires the
//! `fault-injection` feature, which provides
//! [`pp_stream_runtime::fuzz`]).
//!
//! A corpus of *valid recorded* frames — a real handshake Hello,
//! tensor requests, Ack, Bye — is mutated by
//! [`pp_stream_runtime::fuzz::WireFuzzer`] (length-prefix inflation,
//! truncation, bit flips, header field swaps, reorder/replay,
//! mid-handshake garbage) and each mutated byte stream is written at a
//! live [`ModelProvider`]. The properties under test:
//!
//! 1. **No panic** — `ServeReport::panicked_connections == 0` after
//!    every hostile stream.
//! 2. **No hang** — every case completes within a watchdog window
//!    (hostile streams get short socket timeouts; a case that exceeds
//!    the watchdog fails the run).
//! 3. **Bounded allocation** — inflated length prefixes are refused at
//!    the governor's ceiling (`oversize_frames` counts them); the
//!    1 GiB-claim cases complete in milliseconds, not after a 1 GiB
//!    read.
//! 4. **Liveness** — after the whole campaign, a real client completes
//!    a stream against the same server.
//!
//! Deterministic per seed: `PP_FUZZ_SEED=<n>` (default 11) replays the
//! exact campaign. `scripts/ci.sh --fuzz-gate` runs ≥2 fixed seeds.

use pp_nn::{zoo, ScaledModel};
use pp_paillier::Keypair;
use pp_stream::encapsulate_with;
use pp_stream::governor::GovernorConfig;
use pp_stream::messages::{AckMsg, ByeMsg, EncTensorMsg, HelloMsg, PROTOCOL_VERSION};
use pp_stream::net::{pk_fingerprint, topology_digest};
use pp_stream::{ModelProvider, NetConfig, NetworkedSession, ServeOptions};
use pp_stream_runtime::fuzz::{Mutation, RawFrame, WireFuzzer};
use pp_stream_runtime::wire::to_frame;
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Mutated cases per campaign. With 1–3 mutations each, a campaign
/// exercises every mutation class many times over (the fuzz module's
/// own unit tests prove all classes reachable well under this count).
const CASES: u64 = 64;

/// Hard per-case watchdog: a hostile stream must be fully absorbed or
/// rejected well inside this window (socket timeouts are 2 s).
const WATCHDOG: Duration = Duration::from_secs(20);

fn fuzz_seed() -> u64 {
    std::env::var("PP_FUZZ_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(11)
}

fn mlp_model() -> ScaledModel {
    let mut rng = StdRng::seed_from_u64(29);
    let model = zoo::mlp("fuzz-mlp", &[4, 6, 3], &mut rng).expect("model");
    ScaledModel::from_model(&model, 10_000)
}

/// The valid corpus: exactly the frames a well-behaved client would
/// send, recorded as [`RawFrame`]s. The tensor payloads carry junk
/// ciphertexts — structurally valid, semantically garbage — because the
/// interesting surface is decode and state-machine handling, not
/// Paillier arithmetic. Their zero deadline budget means the server
/// answers each without executing anything.
fn corpus(scaled: &ScaledModel, config: &NetConfig) -> Vec<RawFrame> {
    let mut rng = StdRng::seed_from_u64(fuzz_seed() ^ 0xC0FF_EE);
    let keypair = Keypair::generate(128, &mut rng);
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

    let mut frames = vec![RawFrame::new(0, to_frame(&hello).to_vec())];
    for i in 0..4u64 {
        let item = EncTensorMsg {
            seq: i,
            shape: vec![2],
            obfuscated: false,
            // Half the corpus asks for a folded reply, so the flag byte
            // is under mutation with both of its bits in use.
            folded: i % 2 == 1,
            cts: vec![vec![0x5A; 16], vec![0xA5; 16]],
        };
        let mut f = RawFrame::new(i + 1, to_frame(&item).to_vec());
        f.deadline_ms = 0; // expires on arrival: replied to, never executed
        frames.push(f);
    }
    frames.push(RawFrame::new(5, to_frame(&AckMsg { items_done: 2 }).to_vec()));
    frames.push(RawFrame::new(6, to_frame(&ByeMsg).to_vec()));
    frames
}

/// Fires one mutated byte stream at the server: write it all (partial
/// writes and resets are fine — the server may reject mid-stream),
/// then drain whatever the server answers until EOF/timeout. Runs on
/// a thread so the parent can enforce the watchdog.
fn fire(addr: SocketAddr, stream_bytes: Vec<u8>) {
    let Ok(mut sock) = TcpStream::connect(addr) else { return };
    let _ = sock.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = sock.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = sock.set_nodelay(true);
    let _ = sock.write_all(&stream_bytes);
    let _ = sock.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    while let Ok(n) = sock.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
}

/// The campaign; the CI fuzz gate runs it across ≥2 seeds.
#[test]
fn seeded_wire_fuzzing_never_panics_hangs_or_overallocates() {
    let scaled = mlp_model();
    let mut config = NetConfig::small_test(128);
    // Pin the governor so a CI host's environment cannot change what
    // "bounded" means mid-campaign. The max_frame is the blanket 1 GiB:
    // inflated prefixes must be caught by the *negotiated* ceilings,
    // not the outer fence.
    config.governor = Some(GovernorConfig {
        max_frame: 1 << 30,
        write_backlog: 64 * 1024 * 1024,
        mem_budget: 1 << 30,
    });
    // Hostile peers stall mid-frame; short server-side socket timeouts
    // keep the drain bounded without a reaper thread.
    config.tcp = config.tcp.clone().with_timeouts(Duration::from_secs(2), Duration::from_secs(2));
    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = provider.serve_forever(listener, ServeOptions::default()).expect("serve");
    let addr = handle.addr();

    let frames = corpus(&scaled, &config);
    let base_seed = fuzz_seed();
    let mut inflate_cases = 0u64;
    for case in 0..CASES {
        let mut fuzzer = WireFuzzer::new(base_seed.wrapping_mul(0x10001).wrapping_add(case));
        let mutated = fuzzer.mutate_stream(&frames);
        if mutated.has(Mutation::InflateLen) {
            inflate_cases += 1;
        }
        // Watchdog: the case runs on a thread; if it exceeds the
        // window, the server (or the drain) is hung — fail loudly
        // with the seed that reproduces it.
        let (done_tx, done_rx) = mpsc::channel();
        let bytes = mutated.bytes.clone();
        std::thread::spawn(move || {
            fire(addr, bytes);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(WATCHDOG).is_ok(),
            "case {case} (seed {base_seed}, mutations {:?}) exceeded the {WATCHDOG:?} watchdog",
            mutated.mutations
        );
    }
    assert!(inflate_cases > 0, "the campaign must include inflated-prefix cases");

    // Liveness: the fuzz barrage must leave the server able to serve a
    // real stream, bit-exact against local inference.
    let items: Vec<Tensor<f64>> = (0..2)
        .map(|i| {
            Tensor::from_flat((0..4).map(|j| ((i * 4 + j) as f64 * 0.23).sin()).collect::<Vec<f64>>())
        })
        .collect();
    let mut session =
        NetworkedSession::connect(addr, scaled.clone(), &config).expect("connect after campaign");
    let (got, _) = session.infer_stream(&items).expect("stream after campaign");
    assert_eq!(got.len(), items.len());
    let transport = session.shutdown();
    assert!(transport.clean_shutdown);

    let report = handle.shutdown();
    assert_eq!(
        report.panicked_connections, 0,
        "seed {base_seed}: a mutated stream panicked a worker: {report:?}"
    );
    // Inflated prefixes above the negotiated/pre-auth ceiling are the
    // common case for InflateLen (the mutation's smallest lie is
    // real+1+ε which can slip under); at least some of the campaign's
    // inflations must have hit the governor.
    assert!(
        report.oversize_frames > 0,
        "seed {base_seed}: {inflate_cases} inflate cases produced no FrameLimit rejection: {report:?}"
    );
}
