//! One benchmark run: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::deploy::{
    peak_rss_mib, Budget, Deployment, RunParams, StreamResult, KEY_SEEDS, SETUP_PHASES,
    WARMUP_ITEMS,
};
use crate::json::Json;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::spans;
use crate::stats::{best, median, percentile, tail_percentile};
use crate::traced::{self, layer_times, wall_ms_and_gap_share};
use crate::workloads::{Workload, PACK_SLOT_BITS};
use pp_stream::ServeReport;
use std::path::Path;
use std::time::Instant;

/// Share of the hand-driven item's wall time that may fall between the
/// benchmark's own calls before the spans no longer account for it.
pub const MAX_SPAN_GAP_SHARE: f64 = 0.05;

/// Share of a traced run's seconds spent on the networked baseline; the
/// rest goes to hand-driven items, which cost about three plain ones.
const TRACED_NETWORKED_SHARE: f64 = 0.35;

/// Hand-driven rounds in a traced run: at least two, so no metric rests
/// on one item, and no more than four.
const TRACED_ROUNDS: (usize, usize) = (2, 4);

/// What two runs must share for their numbers to be comparable.
pub struct Env {
    pub workload: &'static str,
    pub seed: u64,
    pub key_bits: usize,
    pub threads: usize,
    pub host_cores: usize,
    pub budget: Budget,
    pub commit: String,
}

impl Env {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::uint(self.seed)),
            ("key_bits", Json::uint(self.key_bits as u64)),
            ("threads_per_side", Json::uint(self.threads as u64)),
            ("host_cores", Json::uint(self.host_cores as u64)),
            (
                "budget",
                match self.budget {
                    Budget::Seconds(s) => Json::obj([("seconds", Json::Num(s))]),
                    Budget::Items(n) => Json::obj([("items", Json::uint(n as u64))]),
                },
            ),
            ("warmup_items", Json::uint(WARMUP_ITEMS as u64)),
            ("git_commit", Json::str(self.commit.clone())),
        ])
    }
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&root.join(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&root.join(".git").join(reference))
        .or_else(|| {
            read(&root.join(".git/packed-refs"))?
                .lines()
                .find_map(|line| {
                    line.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A named value with its unit, in output order.
pub type Metric = (&'static str, f64, &'static str);

pub struct RunOutput {
    /// Exactly the manifest's metrics for this kind of run.
    pub metrics: Vec<Metric>,
    /// Printed for the reader, not gated by the driver.
    pub extras: Vec<String>,
    pub attempted: u64,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

impl RunOutput {
    /// The result line the driver reads. A run that gets this far passed
    /// every gate: a failed item or a wrong output ends the run without
    /// a result instead of being counted here.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(0)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

/// Sets the deployment up, widening the packed slot only if the server
/// declined the narrower proposal.
fn set_up(
    workload: &Workload,
    params: &RunParams,
    key_seed: u64,
    started: Instant,
) -> Result<(Deployment, [f64; SETUP_PHASES.len()], usize), String> {
    if !workload.spec.packed {
        let (deployment, phases) = Deployment::set_up(workload, params, key_seed, 0, started)?;
        return Ok((deployment, phases, 0));
    }
    for &bits in &PACK_SLOT_BITS {
        let (deployment, phases) = Deployment::set_up(workload, params, key_seed, bits, started)?;
        if deployment.session.transport().packed_items == WARMUP_ITEMS as u64 {
            return Ok((deployment, phases, bits));
        }
        deployment.abandon();
    }
    Err(format!(
        "handshake refused every packed slot width of {PACK_SLOT_BITS:?}"
    ))
}

/// The networked stream's undisturbed latency per item.
fn per_item_latency_ms(workload: &Workload, stream: &StreamResult) -> f64 {
    // A packed batch has one latency; its members share it.
    let members = if workload.spec.packed {
        stream.items as f64 / stream.latencies_ms.len() as f64
    } else {
        1.0
    };
    best(&stream.latencies_ms, true) / members
}

/// The untraced run: set up [`KEY_SEEDS`]`.len()` times, keep the last
/// deployment, run the timed stream on it.
///
/// `setup_s` is the sum, over the set-up's phases, of each phase's
/// fastest repetition — the set-up as it runs when the host leaves every
/// phase alone once in three tries. (The median of the three totals moved
/// by 17–32 % between seeds on a disturbed host, single runs by a factor
/// of two.) The first repetition is charged from process start.
pub fn untraced(
    workload: &Workload,
    params: &RunParams,
    process_start: Instant,
) -> Result<RunOutput, String> {
    let mut setups = Vec::with_capacity(KEY_SEEDS.len());
    let mut kept = None;
    for (i, &key_seed) in KEY_SEEDS.iter().enumerate() {
        let started = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (deployment, phases, bits) = set_up(workload, params, key_seed, started)?;
        setups.push(phases);
        if i + 1 == KEY_SEEDS.len() {
            kept = Some((deployment, bits));
        } else {
            deployment.tear_down(workload)?;
        }
    }
    let setup_phases: Vec<f64> = (0..SETUP_PHASES.len())
        .map(|phase| {
            best(
                &setups.iter().map(|rep| rep[phase]).collect::<Vec<_>>(),
                true,
            )
        })
        .collect();
    let (mut deployment, pack_slot_bits) = kept.expect("KEY_SEEDS is not empty");
    let stream = deployment.timed_stream(workload, params.budget)?;
    let (transport, serve) = deployment.tear_down(workload)?;

    let values = [
        best(&stream.latencies_ms, true),
        best(&stream.call_items_per_s, false),
        stream.wire_bytes_per_item,
        setup_phases.iter().sum(),
        peak_rss_mib()?,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();

    let samples = stream.latencies_ms.len();
    let mut extras = vec![format!(
        "latency_p50_ms = {:?} ms",
        median(&stream.latencies_ms)
    )];
    extras.push(match tail_percentile(samples) {
        Some(p) => format!(
            "latency_p{p}_ms = {:?} ms (samples = {samples})",
            percentile(&stream.latencies_ms, p as f64)
        ),
        None => {
            format!("latency tail: not reported, {samples} samples leave fewer than 10 beyond p75")
        }
    });
    extras.push(format!(
        "throughput_p50_items_per_s = {:?} items/s",
        median(&stream.call_items_per_s)
    ));
    extras.push(format!(
        "failed_share = 0 (0 of {} items failed, were refused or were wrong)",
        stream.items
    ));
    extras.push(format!(
        "items = {} in {samples} latency samples",
        stream.items
    ));
    extras.push(format!(
        "setup_s by phase = {}",
        SETUP_PHASES
            .iter()
            .zip(&setup_phases)
            .map(|(n, s)| format!("{n}: {s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    extras.push(format!(
        "setup repetitions (whole) = {:.3?} s",
        setups
            .iter()
            .map(|rep| rep.iter().sum::<f64>())
            .collect::<Vec<_>>()
    ));
    extras.push(format!("latencies_ms = {:.1?}", stream.latencies_ms));
    extras.push(format!("server_exec_ms = {:?} ms", server_exec_ms(&serve)));
    extras.push(format!(
        "frames = {} sent, {} received; packed_rounds = {}; batched_rounds = {}",
        transport.frames_sent,
        transport.frames_received,
        transport.packed_rounds,
        serve.batched_rounds
    ));
    if workload.spec.packed {
        extras.push(format!("pack_slot_bits = {pack_slot_bits}"));
    }
    Ok(RunOutput {
        metrics,
        extras,
        attempted: stream.items as u64,
    })
}

fn server_exec_ms(serve: &ServeReport) -> f64 {
    serve.exec_ns as f64 / 1e6 / serve.requests.max(1) as f64
}

/// The traced run: a short networked stream for the baseline the layers
/// are held against, then hand-driven items under spans. Writes
/// `trace.<workload>.json` into `out_dir`.
pub fn traced(
    workload: &Workload,
    params: &RunParams,
    env: &Env,
    out_dir: &Path,
) -> Result<RunOutput, String> {
    let started = Instant::now();
    let key_seed = *KEY_SEEDS.last().expect("KEY_SEEDS is not empty");
    let (mut deployment, _, _) = set_up(workload, params, key_seed, started)?;
    let networked_budget = match params.budget {
        Budget::Seconds(s) => Budget::Seconds(s * TRACED_NETWORKED_SHARE),
        items => items,
    };
    let first_item = deployment.items_sent;
    let per_round = deployment.batch;
    let stream = deployment.timed_stream(workload, networked_budget)?;
    let (_, serve) = deployment.tear_down(workload)?;

    let traced = traced::run(workload, params, first_item, |rounds| match params.budget {
        Budget::Seconds(s) => {
            rounds < TRACED_ROUNDS.0
                || (rounds < TRACED_ROUNDS.1 && started.elapsed().as_secs_f64() < s)
        }
        Budget::Items(n) => rounds * per_round < n,
    })?;
    if traced.outputs.first() != stream.first_output.as_ref() {
        return Err("hand-driven output differs from the networked one for the same input".into());
    }

    let items = traced.items as f64;
    let rounds = spans::items(&traced.spans).len();
    let (round_wall_ms, gap_share) = wall_ms_and_gap_share(&traced.spans);
    if gap_share > MAX_SPAN_GAP_SHARE {
        return Err(format!(
            "spans cover {:.1} % of a hand-driven item, less than {:.0} %",
            (1.0 - gap_share) * 100.0,
            (1.0 - MAX_SPAN_GAP_SHARE) * 100.0
        ));
    }
    let item_wall_ms = round_wall_ms * rounds as f64 / items;
    let c = &traced.counts;
    let per_item = |count: u64| count as f64 / items;
    let mut values: Vec<(&'static str, f64)> = layer_times(&traced);
    values.extend([
        ("pool_misses", c.pool_misses as f64),
        ("encrypt_count", per_item(c.encrypts)),
        ("request_bytes", per_item(c.request_bytes)),
        ("reply_bytes", per_item(c.reply_bytes)),
        ("frames_per_item", per_item(c.frames)),
        ("dot_count", per_item(c.dots)),
        ("dot_terms", per_item(c.dot_terms)),
        ("decrypt_count", per_item(c.decrypts)),
        ("reencrypt_count", per_item(c.reencrypts)),
        ("slot_utilisation", traced.slot_utilisation * 100.0),
        ("server_exec_ms", server_exec_ms(&serve)),
        (
            "net_overhead_ms",
            per_item_latency_ms(workload, &stream) - item_wall_ms,
        ),
        ("batched_rounds", serve.batched_rounds as f64),
        ("item_wall_ms", item_wall_ms),
        ("span_gap_share", gap_share * 100.0),
    ]);
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no value computed for per-layer metric {}", m.name))
                .1;
            (m.name, value, m.unit)
        })
        .collect();

    let value_of = |name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .expect("metric listed")
            .1
    };
    let extras = vec![
        format!(
            "networked baseline: latency_min = {:?} ms per item over {} items",
            per_item_latency_ms(workload, &stream),
            stream.items
        ),
        format!("hand-driven: {} items in {rounds} rounds", traced.items),
        format!(
            "server_linear_vs_exec = {:?} (traced server_linear_ms / untraced server_exec_ms)",
            value_of("server_linear_ms") / value_of("server_exec_ms")
        ),
    ];

    let trace = Json::obj([
        ("env", env.to_json()),
        ("metrics", metrics_json(&metrics)),
        ("spans", spans::to_json(&traced.spans)),
    ]);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace.{}.json", workload.spec.name));
    std::fs::write(&path, trace.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(RunOutput {
        metrics,
        extras,
        attempted: (stream.items + traced.items) as u64,
    })
}
