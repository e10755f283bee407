//! The networked deployment under test: a real
//! `ModelProvider::serve_forever` and one `NetworkedSession` over
//! loopback TCP, one closed-loop client on one connection.

use crate::workloads::{Workload, PACK_BATCH, PACK_SLOT_BITS};
use pp_paillier::{Keypair, PackingSpec};
use pp_stream::governor::{DEFAULT_MEM_BUDGET, DEFAULT_WRITE_BACKLOG};
use pp_stream::{
    encapsulate_with, required_budget, GovernorConfig, ItemOutcome, ModelProvider, NetConfig,
    NetworkedSession, RunReport, ServeOptions, ServeReport, ServerHandle, TransportReport,
};
use pp_stream_runtime::TcpConfig;
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Key seeds, one per set-up repetition. They are constants, not derived
/// from `--seed`: the prime search behind a 2048-bit key takes anywhere
/// from a fraction of a second to several, by luck of the seed, and
/// `setup_s` must compare the same work on every run. The last one keys
/// the measured deployment (and the traced run).
pub const KEY_SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];

/// Items discarded before the timed stream, inside `setup_s`.
pub const WARMUP_ITEMS: usize = 2;

/// Items `wire_bytes_per_item` is taken over. A fixed count, so the
/// figure repeats exactly for a seed however many items the run's seconds
/// allowed: a ciphertext's encoding drops leading zero bytes, so items
/// differ by a byte or two and an average over more of them would differ
/// in the fifth digit.
pub const WIRE_SAMPLE_ITEMS: usize = 8;

/// The phases `setup_s` is the sum of. Each is short enough to fall
/// between two of the host's slow spells now and then, which the whole
/// set-up (1–3 s) rarely does; see `run::untraced`.
pub const SETUP_PHASES: [&str; 2 + WARMUP_ITEMS] = [
    "provider + serve loop",
    "keygen + connect + handshake",
    "warm-up 1",
    "warm-up 2",
];

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Keep issuing calls until this much time has been measured.
    Seconds(f64),
    /// Exactly this many items (`--smoke`).
    Items(usize),
}

#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    pub key_bits: usize,
    /// Worker threads per side.
    pub threads: usize,
    pub budget: Budget,
}

/// The pinned deployment configuration: nothing is read from the
/// environment (the binary refuses to start under any `PP_*` variable),
/// no deadline, watchdog, journal, fault plan or resume — a transport
/// failure fails the run instead of being absorbed.
pub fn net_config(params: &RunParams, key_seed: u64, pack_slot_bits: usize) -> NetConfig {
    NetConfig {
        key_bits: params.key_bits,
        seed: key_seed,
        threads: params.threads,
        merge_stages: true,
        // Bounded so a wedged peer fails the run long before the
        // driver's limit, and far above any 2048-bit round.
        tcp: TcpConfig::new().with_timeouts(Duration::from_secs(60), Duration::from_secs(60)),
        max_resumes: 0,
        item_deadline: None,
        stall_window: None,
        fault: None,
        pack_slot_bits,
        pack_batch: if pack_slot_bits > 0 { PACK_BATCH } else { 0 },
        governor: Some(GovernorConfig {
            max_frame: 1 << 30,
            write_backlog: DEFAULT_WRITE_BACKLOG,
            mem_budget: DEFAULT_MEM_BUDGET,
        }),
        ..NetConfig::default()
    }
}

pub fn keypair(key_bits: usize, key_seed: u64) -> Keypair {
    // The derivation `NetworkedSession::connect` uses, so the hand-driven
    // run holds the same key as the networked one.
    Keypair::generate(key_bits, &mut StdRng::seed_from_u64(key_seed))
}

/// The packing layout for `keypair` and this model: the narrowest slot
/// of [`PACK_SLOT_BITS`] the op budget fits, by the rule the client's
/// handshake proposal applies.
pub fn packing_spec(workload: &Workload, keypair: &Keypair) -> Result<PackingSpec, String> {
    let stages = encapsulate_with(&workload.scaled, true).map_err(|e| e.to_string())?;
    let budget = required_budget(&stages);
    PACK_SLOT_BITS
        .iter()
        .find_map(|&bits| {
            let spec = PackingSpec::for_key(&keypair.public(), bits)
                .ok()?
                .with_budget(budget);
            spec.check().ok().map(|()| spec)
        })
        .ok_or_else(|| format!("no slot width of {PACK_SLOT_BITS:?} fits op budget {budget}"))
}

pub struct Deployment {
    provider: Arc<ModelProvider>,
    handle: ServerHandle,
    pub session: NetworkedSession,
    /// Items sent so far (warm-up included); indexes the input cycle.
    pub items_sent: usize,
    /// Members per packed batch: [`PACK_BATCH`], or every slot when the
    /// key holds fewer (a 256-bit smoke key holds three 64-bit slots).
    pub batch: usize,
    pool_misses: u64,
}

/// The timed stream's raw measurements.
pub struct StreamResult {
    /// Per item (per batch on the packed workload), milliseconds.
    pub latencies_ms: Vec<f64>,
    pub items: usize,
    /// Items ÷ `RunReport::makespan` of each `infer_stream` call of the
    /// stream, pool refill included.
    pub call_items_per_s: Vec<f64>,
    /// Payload bytes both ways, per item, over the stream's first
    /// [`WIRE_SAMPLE_ITEMS`] items (to the end of the call that reaches
    /// them; over every item of a shorter stream).
    pub wire_bytes_per_item: f64,
    /// The first output, for comparison with the hand-driven item.
    pub first_output: Option<Tensor<i64>>,
}

impl Deployment {
    /// Everything before the first timed request can be sent, in its
    /// [`SETUP_PHASES`]: model encapsulation, listener and serve loop;
    /// key generation, connect, handshake and refill-table build; then
    /// the warm-up items, one `infer_stream` call each. Returns how long
    /// each phase took, in seconds, the first counted from `started`.
    pub fn set_up(
        workload: &Workload,
        params: &RunParams,
        key_seed: u64,
        pack_slot_bits: usize,
        started: Instant,
    ) -> Result<(Deployment, [f64; SETUP_PHASES.len()]), String> {
        let mut phases = [0.0; SETUP_PHASES.len()];
        let mut mark = started;
        let mut lap = |phase: usize| {
            phases[phase] = mark.elapsed().as_secs_f64();
            mark = Instant::now();
        };
        let config = net_config(params, key_seed, pack_slot_bits);
        let provider = Arc::new(
            ModelProvider::new(&workload.scaled, &config).map_err(|e| format!("provider: {e}"))?,
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let handle = provider
            .serve_forever(
                listener,
                ServeOptions {
                    journal: None,
                    ..ServeOptions::default()
                },
            )
            .map_err(|e| format!("serve_forever: {e}"))?;
        lap(0);
        let session = NetworkedSession::connect(handle.addr(), workload.scaled.clone(), &config)
            .map_err(|e| format!("connect: {e}"))?;
        lap(1);
        let batch = match pack_slot_bits {
            0 => 1,
            bits => PACK_BATCH.min((params.key_bits - 2) / bits),
        };
        let mut deployment = Deployment {
            provider,
            handle,
            session,
            items_sent: 0,
            batch,
            pool_misses: 0,
        };
        // A packed warm-up is one batch of two: a lone item would travel
        // unpacked and never touch the packed legs.
        let calls: &[usize] = if workload.spec.packed {
            &[WARMUP_ITEMS, 0]
        } else {
            &[1; WARMUP_ITEMS]
        };
        for (i, &count) in calls.iter().enumerate() {
            if count > 0 {
                deployment
                    .stream(workload, count)
                    .map_err(|e| format!("warm-up: {e}"))?;
            }
            lap(2 + i);
        }
        Ok((deployment, phases))
    }

    /// One `infer_stream` call of `count` items; every output is held
    /// bit-for-bit against the plaintext scaled model.
    fn stream(
        &mut self,
        workload: &Workload,
        count: usize,
    ) -> Result<(Vec<Tensor<i64>>, RunReport), String> {
        let inputs = workload.take(self.items_sent, count);
        let (outcomes, report) = self
            .session
            .infer_stream_partial(&inputs)
            .map_err(|e| format!("stream: {e}"))?;
        self.items_sent += count;
        self.pool_misses = report.pool_misses;
        let mut outputs = Vec::with_capacity(count);
        for (i, (outcome, input)) in outcomes.into_iter().zip(&inputs).enumerate() {
            match outcome {
                ItemOutcome::Done(output) => {
                    if output != workload.expected(input) {
                        return Err(format!(
                            "item {} differs from forward_scaled",
                            self.items_sent - count + i
                        ));
                    }
                    outputs.push(output);
                }
                ItemOutcome::Failed { kind, detail } => {
                    return Err(format!("item failed ({kind:?}): {detail}"));
                }
            }
        }
        Ok((outputs, report))
    }

    /// The timed stream: one `infer_stream` call per item (per batch when
    /// packed) until the budget is spent. Each call pays its own pool
    /// refill, as a user's stream does, and is one throughput sample.
    pub fn timed_stream(
        &mut self,
        workload: &Workload,
        budget: Budget,
    ) -> Result<StreamResult, String> {
        let count = self.batch;
        let before = self.session.transport().clone();
        let mut result = StreamResult {
            latencies_ms: Vec::new(),
            items: 0,
            call_items_per_s: Vec::new(),
            wire_bytes_per_item: 0.0,
            first_output: None,
        };
        let started = Instant::now();
        loop {
            // Whole calls only: a packed stream's lone trailing item would
            // travel unpacked.
            let spent = match budget {
                Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
                Budget::Items(n) => result.items >= n,
            };
            if spent {
                break;
            }
            let (outputs, report) = self.stream(workload, count)?;
            if result.first_output.is_none() {
                result.first_output = outputs.into_iter().next();
            }
            result.items += count;
            if result.wire_bytes_per_item == 0.0 && result.items >= WIRE_SAMPLE_ITEMS {
                result.wire_bytes_per_item = self.wire_bytes_since(&before) / result.items as f64;
            }
            result
                .call_items_per_s
                .push(count as f64 / report.makespan.as_secs_f64());
            // A packed batch reports its one duration once per member.
            result.latencies_ms.extend(
                report
                    .latencies
                    .iter()
                    .step_by(count)
                    .map(|d| d.as_secs_f64() * 1e3),
            );
        }
        if result.wire_bytes_per_item == 0.0 {
            result.wire_bytes_per_item = self.wire_bytes_since(&before) / result.items as f64;
        }
        Ok(result)
    }

    fn wire_bytes_since(&self, before: &TransportReport) -> f64 {
        let now = self.session.transport();
        ((now.bytes_sent - before.bytes_sent) + (now.bytes_received - before.bytes_received)) as f64
    }

    /// Ends the session and the server without judging the run — for a
    /// deployment that is being replaced, not measured.
    pub fn abandon(self) {
        self.session.shutdown();
        self.handle.shutdown();
    }

    /// Ends the session and the server, then applies the book-keeping
    /// gates: both sides shut down cleanly, count the same frames and
    /// bytes, no session leaked, no pool miss, no reconnect, and on the
    /// packed workload every item travelled packed.
    pub fn tear_down(self, workload: &Workload) -> Result<(TransportReport, ServeReport), String> {
        let Deployment {
            provider,
            handle,
            session,
            items_sent,
            pool_misses,
            ..
        } = self;
        let transport = session.shutdown();
        let serve = handle.shutdown();
        let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
        check(
            transport.clean_shutdown,
            "client did not shut down cleanly".into(),
        )?;
        check(
            serve.clean_shutdown,
            format!(
                "server did not see a clean shutdown ({:?})",
                serve.last_error
            ),
        )?;
        for (what, client, server) in [
            ("frames sent", transport.frames_sent, serve.frames_in),
            (
                "frames received",
                transport.frames_received,
                serve.frames_out,
            ),
            ("bytes sent", transport.bytes_sent, serve.bytes_in),
            ("bytes received", transport.bytes_received, serve.bytes_out),
        ] {
            check(
                client == server,
                format!("{what}: client counts {client}, server {server}"),
            )?;
        }
        check(
            serve.requests == items_sent as u64,
            format!(
                "server completed {} requests for {items_sent} items",
                serve.requests
            ),
        )?;
        let sessions = provider.active_sessions();
        check(
            sessions == 0,
            format!("{sessions} sessions left after shutdown"),
        )?;
        check(
            pool_misses == 0,
            format!("{pool_misses} randomness-pool misses"),
        )?;
        check(
            transport.reconnects == 0 && transport.items_replayed == 0,
            format!(
                "{} reconnects, {} replays",
                transport.reconnects, transport.items_replayed
            ),
        )?;
        if workload.spec.packed {
            check(
                transport.packed_fallbacks == 0 && transport.packed_items == items_sent as u64,
                format!(
                    "{} packed fallbacks, {} of {items_sent} items packed",
                    transport.packed_fallbacks, transport.packed_items
                ),
            )?;
        } else {
            check(
                transport.packed_items == 0,
                "unpacked workload sent packed items".into(),
            )?;
        }
        Ok((transport, serve))
    }
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .ok_or("VmHWM not found in /proc/self/status")?;
    Ok(kib / 1024.0)
}
