//! Standalone data-provider client for a real two-process deployment.
//!
//! Start `model_provider` first (same address), then:
//!
//! ```sh
//! cargo run --release --example data_provider -- 127.0.0.1:7700
//! ```
//!
//! The client owns the Paillier keypair and the inputs; it encrypts
//! locally, round-trips every linear stage through the server, runs the
//! non-linear stages on permutation-obfuscated plaintext, and checks the
//! final classes against the local scaled reference. Connection attempts
//! retry with exponential backoff, so starting the client slightly
//! before the server is fine.
//!
//! Mid-stream socket loss is absorbed transparently: the client
//! reconnects, resumes its session, and replays only unacknowledged
//! items. To watch that happen, inject deterministic faults via the
//! `PP_FAULT_*` environment variables (needs the default
//! `fault-injection` feature), e.g.:
//!
//! ```sh
//! PP_FAULT_KILL_EVERY=7 PP_FAULT_SEED=1 \
//!   cargo run --release --example data_provider -- 127.0.0.1:7700
//! ```
//!
//! Overload knobs: `PP_ITEM_DEADLINE_MS=n` stamps an `n`-millisecond
//! end-to-end budget on every item (an expired item is shed with a
//! per-item error, not a session failure); `PP_WATCHDOG_MS=n` arms the
//! stall watchdog, recovering a linear-round reply slower than `n`
//! milliseconds by reconnect-and-resume instead of waiting out the full
//! TCP read timeout.
//!
//! Failover: `PP_PROVIDER_ADDRS=host1:port,host2:port` hands the client
//! an *ordered* provider list instead of the single positional address.
//! A connect or resume that fails against the current provider sweeps
//! to the next (same session, same exactly-once floors when the
//! providers share a session journal); the final report counts the
//! address changes as `failovers`.
//!
//! Packing knobs: `PP_PACK_BITS=s` proposes batch-packed ciphertexts
//! with `s`-bit slots in the handshake (DESIGN.md §8) — with this demo's
//! 256-bit key, `PP_PACK_BITS=64` fits all three requests into one
//! packed batch; `PP_PACK_BATCH=n` caps members per batch below the slot
//! count. If the server declines (or the layout can't hold the model's
//! op budget) the stream transparently stays on the per-item protocol.

use pp_nn::{zoo, ScaledModel};
use pp_stream::{NetConfig, NetworkedSession};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The architecture both demo binaries agree on.
fn demo_model() -> ScaledModel {
    let mut rng = StdRng::seed_from_u64(31);
    let model = zoo::mlp("distributed-mlp", &[6, 10, 3], &mut rng).expect("model");
    ScaledModel::from_model(&model, 10_000)
}

fn demo_config() -> NetConfig {
    let env_ms = |key: &str| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(std::time::Duration::from_millis)
    };
    let env_n = |key: &str| {
        std::env::var(key).ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(0)
    };
    let mut config = NetConfig { key_bits: 256, seed: 99, ..NetConfig::default() };
    config.item_deadline = env_ms("PP_ITEM_DEADLINE_MS");
    config.stall_window = env_ms("PP_WATCHDOG_MS");
    config.pack_slot_bits = env_n("PP_PACK_BITS");
    config.pack_batch = env_n("PP_PACK_BATCH");
    if let Some(budget) = config.item_deadline {
        println!("[data-provider] end-to-end deadline: {budget:?} per item");
    }
    if let Some(window) = config.stall_window {
        println!("[data-provider] stall watchdog armed: {window:?}");
    }
    if config.pack_slot_bits > 0 {
        println!(
            "[data-provider] proposing batch-packed ciphertexts: {}-bit slots, batch cap {}",
            config.pack_slot_bits,
            if config.pack_batch == 0 { "fill".to_string() } else { config.pack_batch.to_string() }
        );
    }
    #[cfg(feature = "fault-injection")]
    {
        config.fault = pp_stream::FaultPlan::from_env();
        if let Some(plan) = &config.fault {
            println!("[data-provider] fault injection armed: {plan:?}");
        }
    }
    config
}

fn main() {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:7700".to_string());
    // An explicit provider list wins over the positional address; order
    // is failover priority.
    let providers: Vec<String> = match std::env::var("PP_PROVIDER_ADDRS") {
        Ok(list) if !list.trim().is_empty() => {
            list.split(',').map(|a| a.trim().to_string()).filter(|a| !a.is_empty()).collect()
        }
        _ => vec![addr],
    };
    let scaled = demo_model();
    let config = demo_config();

    if providers.len() > 1 {
        println!("[data-provider] provider failover order: {}", providers.join(" -> "));
    }
    let mut session = NetworkedSession::connect_any(&providers, scaled.clone(), &config)
        .expect("connect + handshake");
    println!(
        "[data-provider] handshake accepted by {} (session {}, connect attempts: {})",
        providers.join(","),
        session.session(),
        session.transport().connect_attempts
    );
    match session.fold_layout() {
        Some(layout) => println!(
            "[data-provider] output folding: {}-bit slots x {} per reply ciphertext, budget {}",
            layout.slot_bits, layout.slots, layout.op_budget
        ),
        None => println!("[data-provider] output folding: the provider announced no layout"),
    }

    let inputs: Vec<Tensor<f64>> = (0..3u64)
        .map(|seq| {
            Tensor::from_flat(
                (0..6).map(|j| ((seq * 6 + j) as f64 * 0.41).sin()).collect::<Vec<f64>>(),
            )
        })
        .collect();

    // The partial API: a per-item overload failure (deadline expiry,
    // quarantine, shed) is a `None` class, not a dead session.
    let (classes, report) = session.classify_stream_partial(&inputs).expect("networked inference");
    for (i, (input, class)) in inputs.iter().zip(&classes).enumerate() {
        let want = scaled.classify_scaled(input).expect("reference");
        match class {
            Some(class) => {
                println!("[data-provider] request {i}: class {class} (local reference {want})");
                assert_eq!(*class, want, "networked result must match the local reference");
            }
            None => println!("[data-provider] request {i}: failed individually (overload)"),
        }
    }
    let transport = report.transport.expect("networked run has transport stats");
    println!(
        "[data-provider] done in {:?}; {} frames / {} B sent, {} frames / {} B received",
        report.makespan,
        transport.frames_sent,
        transport.bytes_sent,
        transport.frames_received,
        transport.bytes_received,
    );
    let final_report = session.shutdown();
    println!(
        "[data-provider] resilience: {} reconnects, {} failovers, {} items replayed, \
         {} faults injected, clean shutdown: {}",
        final_report.reconnects,
        final_report.failovers,
        final_report.items_replayed,
        final_report.faults_injected,
        final_report.clean_shutdown,
    );
    println!(
        "[data-provider] folding: {} linear replies arrived folded",
        final_report.folded_rounds
    );
    if final_report.packed_items + final_report.packed_fallbacks > 0 {
        println!(
            "[data-provider] packing: {} items in {} packed rounds, {} fallbacks",
            final_report.packed_items, final_report.packed_rounds, final_report.packed_fallbacks,
        );
    }
    if final_report.rejected_busy
        + final_report.stalls
        + final_report.deadline_expired
        + final_report.quarantined
        + final_report.shed
        > 0
    {
        println!(
            "[data-provider] overload: {} busy rejections absorbed, {} stalls recovered, \
             {} deadline-expired, {} quarantined, {} shed",
            final_report.rejected_busy,
            final_report.stalls,
            final_report.deadline_expired,
            final_report.quarantined,
            final_report.shed,
        );
    }
}
