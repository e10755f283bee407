//! Standalone model-provider server for a real two-process deployment.
//!
//! Run this first, then `data_provider` (optionally on another machine):
//!
//! ```sh
//! cargo run --release --example model_provider -- 127.0.0.1:7700
//! cargo run --release --example data_provider  -- 127.0.0.1:7700
//! ```
//!
//! The server owns the scaled weights and executes the linear stages
//! homomorphically; it never sees the client's private key or any
//! plaintext activation. It runs the supervised multi-client server
//! (`ModelProvider::serve_forever`, the one serving driver) until the
//! process is killed: a misbehaving client (garbage handshake,
//! mid-stream disconnect, even a worker panic) is isolated to its own
//! connection while everyone else keeps streaming.
//!
//! Clients that lose their socket mid-stream reconnect and resume their
//! session; the server keeps a bounded, TTL-evicted session table so
//! acknowledged items are never re-executed.
//!
//! Overload protection: set `PP_MAX_SESSIONS=n` to cap concurrent
//! sessions — a connection over the cap is answered with
//! `Reject { code: Busy }` and a retry hint instead of queueing, and
//! clients back off and retry.
//!
//! Serving at scale: `PP_MAX_WORKERS=n` sets the event-loop shard count
//! (connections are distributed round-robin across shards), and
//! `PP_GATHER_WINDOW_US=µs` enables cross-session batching (linear
//! rounds from different sessions arriving within the window run as one
//! fused dispatch).
//!
//! Crash durability: set `PP_JOURNAL_DIR=/path` to journal every
//! session-table transition to `/path/sessions.journal` — a restarted
//! process pointed at the same directory restores the table and accepts
//! `Resume` for sessions the dead process had promised (DESIGN.md
//! "Crash recovery model"). `PP_JOURNAL_FSYNC=always` adds an fdatasync
//! per record for power-loss durability; the default survives process
//! death only.
//!
//! Both binaries build the same demo model from a fixed seed so their
//! topology digests agree — in a real deployment the architecture (not
//! the weights) is what the two parties must share out of band.

use pp_nn::{zoo, ScaledModel};
use pp_stream::{JournalConfig, ModelProvider, NetConfig, ServeOptions};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The architecture both demo binaries agree on.
fn demo_model() -> ScaledModel {
    let mut rng = StdRng::seed_from_u64(31);
    let model = zoo::mlp("distributed-mlp", &[6, 10, 3], &mut rng).expect("model");
    ScaledModel::from_model(&model, 10_000)
}

fn demo_config() -> NetConfig {
    NetConfig { key_bits: 256, seed: 99, ..NetConfig::default() }
}

fn main() {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:7700".to_string());

    let scaled = demo_model();
    let provider = ModelProvider::new(&scaled, &demo_config()).expect("provider");
    let journal = JournalConfig::from_env();
    if let Some(cfg) = &journal {
        let restored = provider.open_journal(cfg).expect("open session journal");
        println!(
            "[model-provider] session journal at {} ({:?} fsync): {restored} session(s) restored",
            cfg.path().display(),
            cfg.fsync
        );
    }
    let listener = std::net::TcpListener::bind(&addr).expect("bind");
    let local = listener.local_addr().expect("addr");
    println!(
        "[model-provider] listening on {local} (topology digest {:#018x})",
        provider.topology()
    );

    // The event loop, each connection isolated, running until the
    // process is killed.
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        max_sessions: std::env::var("PP_MAX_SESSIONS").ok().and_then(|v| v.parse().ok()),
        max_workers: std::env::var("PP_MAX_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.max_workers),
        gather_window: std::env::var("PP_GATHER_WINDOW_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .map_or(defaults.gather_window, std::time::Duration::from_micros),
        journal,
        ..defaults
    };
    if let Some(cap) = options.max_sessions {
        println!("[model-provider] admission control: at most {cap} concurrent sessions");
    }
    println!(
        "[model-provider] serving shape: {} shards, gather window {:?}",
        options.max_workers, options.gather_window
    );
    let provider = std::sync::Arc::new(provider);
    let _handle = provider.serve_forever(listener, options).expect("spawn server");
    println!("[model-provider] supervised server up (Ctrl+C to stop)");
    loop {
        std::thread::park();
    }
}
