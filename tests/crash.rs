//! Crash-recovery tests: survive server death (requires the
//! `fault-injection` feature).
//!
//! The headline scenario: a *real* model-provider child process serves
//! a stream, gets SIGKILLed mid-item under a seeded schedule, and a
//! replacement process is started on a **different port** from the same
//! session journal. The client — holding an ordered provider list —
//! fails over, resumes its pre-crash session against the restarted
//! table, and finishes the stream with outputs **bit-identical** to the
//! in-process pipeline. Client and server must agree exactly on how
//! many items were replayed.
//!
//! Choreography (deterministic by construction, not by sleeps):
//!
//! 1. The client's fault plan stalls exactly one receive
//!    ([`FaultPlan::stall_at`]), parking it mid-item with round 0 of
//!    item `k` already sent.
//! 2. The parent polls the journal until the `Started { started: k+1 }`
//!    floor proves the server both executed that round 0 and made it
//!    durable — then SIGKILLs the server. The frozen client cannot
//!    outrun the kill, so the crash always lands at the same point in
//!    the stream.
//! 3. A fresh child on the second port restores the session from the
//!    journal; the waking client finds a dead socket, sweeps its
//!    address list, and resumes on the replacement.

use pp_nn::{zoo, ScaledModel};
use pp_stream::journal::JOURNAL_MAGIC;
use pp_stream::{
    FaultPlan, FsyncPolicy, JournalConfig, JournalRecord, ModelProvider, NetConfig,
    NetworkedSession, PpStream, PpStreamConfig, ServeOptions,
};
use pp_stream_runtime::wire::{Decoder, WireDecode};
use pp_stream_runtime::RetryPolicy;
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the engineered stall parks the client: long enough to cover
/// the kill + restart + journal restore of the replacement child, short
/// enough to keep the test quick. The failover retry budget below adds
/// several more seconds of slack on top.
const STALL: Duration = Duration::from_secs(4);

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

/// Unique scratch directory per test (no tempfile crate in the
/// dependency policy — DESIGN.md §12).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pp-crash-{}-{}", std::process::id(), tag));
    // A stale dir from a previous run of the same pid namespace would
    // hand child 1 a non-empty journal; start clean.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Two distinct free ports, picked by binding both before releasing
/// either (sequential bind/drop could hand back the same port twice).
fn pick_ports() -> (u16, u16) {
    let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
    let l2 = TcpListener::bind("127.0.0.1:0").expect("bind");
    (l1.local_addr().expect("addr").port(), l2.local_addr().expect("addr").port())
}

/// A spawned server child that is SIGKILLed if the test panics before
/// reaping it — an aborted assertion must not leak a process that
/// keeps the test harness's output pipes open forever.
struct ChildGuard(Option<Child>);

impl ChildGuard {
    fn kill(&mut self) {
        let mut child = self.0.take().expect("child already reaped");
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");
    }

    fn wait(&mut self) -> std::process::ExitStatus {
        self.0.take().expect("child already reaped").wait().expect("child exit")
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns this very test binary in server-child mode: the `#[ignore]`d
/// `crash_server_child` test below, selected with `--exact --ignored`.
/// The environment is inherited.
/// Stdout/stderr go to a log file in the scratch dir: inheriting the
/// harness's pipes would hold them open past the parent test's exit.
fn spawn_child(
    port: u16,
    dir: &Path,
    fsync: &str,
    seed: u64,
    ready: &Path,
    report: &Path,
) -> ChildGuard {
    let log = std::fs::File::create(dir.join(format!("child-{port}.log"))).expect("child log");
    let child = Command::new(std::env::current_exe().expect("current exe"))
        .args(["crash_server_child", "--exact", "--ignored", "--nocapture"])
        .env("PP_CRASH_PORT", port.to_string())
        .env("PP_CRASH_DIR", dir)
        .env("PP_CRASH_FSYNC", fsync)
        .env("PP_CRASH_SEED", seed.to_string())
        .env("PP_CRASH_READY", ready)
        .env("PP_CRASH_REPORT", report)
        .env("PP_CRASH_STOP", dir.join("stop"))
        .stdout(Stdio::from(log.try_clone().expect("dup log")))
        .stderr(Stdio::from(log))
        .spawn()
        .expect("spawn server child");
    ChildGuard(Some(child))
}

fn wait_for_file(path: &Path, deadline: Duration) -> String {
    let until = Instant::now() + deadline;
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            if !s.is_empty() {
                return s;
            }
        }
        assert!(Instant::now() < until, "timed out waiting for {}", path.display());
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Pulls `key=value` out of a child's banner/report file.
fn parse_field(s: &str, key: &str) -> u64 {
    s.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .unwrap_or_else(|| panic!("field {key} missing from {s:?}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("field {key} not a number in {s:?}"))
}

/// Read-only scan of the journal for the highest `Started` floor.
///
/// The real [`pp_stream::Journal::open`] repairs torn tails *in place*,
/// which must never race the child's appends — so the parent walks the
/// raw frames itself and simply stops at the first incomplete or
/// undecodable one (a half-written tail just ends the scan early, which
/// polling tolerates).
fn started_floor(path: &Path) -> u64 {
    let Ok(raw) = std::fs::read(path) else { return 0 };
    if raw.len() < JOURNAL_MAGIC.len() || raw[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC[..] {
        return 0;
    }
    let mut pos = JOURNAL_MAGIC.len();
    let mut floor = 0u64;
    // Frame = u32 len | u64 checksum | payload (see journal.rs).
    while pos + 12 <= raw.len() {
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let Some(payload) = raw.get(pos + 12..pos + 12 + len) else { break };
        let mut dec = Decoder::new(bytes::Bytes::from(payload.to_vec()));
        match JournalRecord::decode(&mut dec) {
            Ok(JournalRecord::Started { started, .. }) => floor = floor.max(started),
            Ok(_) => {}
            Err(_) => break,
        }
        pos += 12 + len;
    }
    floor
}

/// The full kill/restart/failover scenario. `stall_at` must be odd:
/// fault wrapping is post-handshake, so receive `2k + 1` is the
/// *round-0* reply of item `k`. Freezing there pins the whole world —
/// round 0 of item `k` is on the wire (so the client will count a
/// replay), and the server cannot finish the item (it never gets the
/// round-1 request), so the kill cannot race against "item `k`
/// already completed". An even index (a round-1 reply) would leave
/// exactly that race: the server may have fully answered the item
/// before the SIGKILL lands, and neither side replays anything.
fn crash_failover(tag: &str, seed: u64, stall_at: u64, fsync: &str) {
    assert_eq!(stall_at % 2, 1, "stall on a round-0 reply (see above)");
    let scaled = mlp_model("crash-mlp");
    let dir = scratch_dir(tag);
    let journal_path = dir.join("sessions.journal");
    let (port1, port2) = pick_ports();
    let addr1: SocketAddr = format!("127.0.0.1:{port1}").parse().expect("addr");
    let addr2: SocketAddr = format!("127.0.0.1:{port2}").parse().expect("addr");

    let ready1 = dir.join("ready1");
    let ready2 = dir.join("ready2");
    let report2_path = dir.join("report2");

    let mut child1 = spawn_child(port1, &dir, fsync, seed, &ready1, &dir.join("report1"));
    let banner1 = wait_for_file(&ready1, Duration::from_secs(60));
    assert_eq!(parse_field(&banner1, "restored"), 0, "a fresh journal restores nothing");

    let mut config = NetConfig::small_test(128);
    config.seed = seed;
    // Generous failover budget: the sweep only has to outlast however
    // much of the restart window the stall did not already cover.
    config.tcp = config.tcp.clone().with_retry(RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(100),
        max_delay: Duration::from_millis(800),
        jitter: true,
    });
    config.fault =
        Some(FaultPlan { seed, stall: Some(STALL), stall_at: Some(stall_at), ..Default::default() });

    let items = stream_inputs(12);
    let client_scaled = scaled.clone();
    let client_items = items.clone();
    let client = std::thread::spawn(move || {
        let mut session = NetworkedSession::connect_any(&[addr1, addr2], client_scaled, &config)
            .expect("connect to the primary");
        let (got, report) =
            session.infer_stream(&client_items).expect("the stream must survive the crash");
        let transport = session.shutdown();
        (got, report, transport)
    });

    // The frozen client has round 0 of item k in flight. Wait until the
    // journal proves the server started (and durably recorded) it, so
    // both sides will count exactly that item as replayed.
    let stall_item = (stall_at - 1) / 2;
    let target = stall_item + 1;
    let until = Instant::now() + Duration::from_secs(60);
    while started_floor(&journal_path) < target {
        assert!(Instant::now() < until, "journal never reached started floor {target}");
        std::thread::sleep(Duration::from_millis(10));
    }
    child1.kill();

    let mut child2 = spawn_child(port2, &dir, fsync, seed, &ready2, &report2_path);
    let banner2 = wait_for_file(&ready2, Duration::from_secs(60));
    assert_eq!(parse_field(&banner2, "restored"), 1, "the pre-crash session must be restored");

    let (got, report, transport) = client.join().expect("client thread");
    std::fs::write(dir.join("stop"), b"done").expect("stop file");
    let status = child2.wait();
    assert!(status.success(), "restarted provider must exit cleanly");
    let rep2 = std::fs::read_to_string(&report2_path).expect("report 2");

    assert!(transport.clean_shutdown, "the Bye reached the replacement");
    assert!(transport.reconnects >= 1, "the kill must force a reconnect");
    assert!(transport.failovers >= 1, "the reconnect must land on the second address");
    assert_eq!(transport.faults_injected, 1, "exactly the engineered stall fired");
    assert_eq!(transport.items_replayed, 1, "exactly the in-flight item is replayed");
    assert_eq!(
        parse_field(&rep2, "replayed_items"),
        transport.items_replayed,
        "client and restarted server must agree exactly on replays"
    );
    assert!(parse_field(&rep2, "resumed_sessions") >= 1, "the resume hit the new process");
    assert!(report.transport.expect("transport stats").reconnects >= 1);

    // The acceptance bar: a crash + failover changes nothing about the
    // outputs — bit-identical to the in-process pipeline.
    let mut local_cfg = PpStreamConfig::small_test(128);
    local_cfg.seed = seed;
    let local = PpStream::new(scaled, local_cfg).expect("in-process session");
    let (want, _) = local.infer_stream(&items).expect("in-process inference");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.data(), w.data(), "item {i} diverged after crash recovery");
    }
}

#[test]
fn crash_kill_schedule_a_fsync_always() {
    // Freeze at receive 11 ⇒ item 5 mid-flight; power-loss-durable
    // journal.
    crash_failover("schedule-a", 0xA11CE, 11, "always");
}

#[test]
fn crash_kill_schedule_b_fsync_never() {
    // Freeze at receive 7 ⇒ item 3 mid-flight; page-cache durability is
    // enough for SIGKILL (the kernel owns the pages once write returns).
    crash_failover("schedule-b", 0x0B0B_51ED, 7, "never");
}

/// Not a test: the server child the scenarios above spawn (hence
/// `#[ignore]` — it only runs when selected `--exact --ignored` with
/// the `PP_CRASH_*` environment set). Binds the given port, restores
/// the session journal, serves until the stop file appears, then writes
/// its report for the parent's assertions.
#[test]
#[ignore = "server-child entry point, spawned by the crash tests"]
fn crash_server_child() {
    let Ok(port) = std::env::var("PP_CRASH_PORT") else { return };
    let port: u16 = port.parse().expect("port");
    let dir = PathBuf::from(std::env::var("PP_CRASH_DIR").expect("dir"));
    let fsync = match std::env::var("PP_CRASH_FSYNC").as_deref() {
        Ok(v) => FsyncPolicy::parse(v),
        Err(_) => FsyncPolicy::Never,
    };
    let seed: u64 = std::env::var("PP_CRASH_SEED").expect("seed").parse().expect("seed");
    let ready = PathBuf::from(std::env::var("PP_CRASH_READY").expect("ready"));
    let report_path = PathBuf::from(std::env::var("PP_CRASH_REPORT").expect("report"));
    let stop = PathBuf::from(std::env::var("PP_CRASH_STOP").expect("stop"));

    let scaled = mlp_model("crash-mlp");
    let mut config = NetConfig::small_test(128);
    config.seed = seed;
    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let jcfg = JournalConfig { dir: dir.clone(), fsync };
    // Open explicitly (rather than only via ServeOptions) to learn the
    // restored-session count before accepting traffic.
    let restored = provider.open_journal(&jcfg).expect("journal");
    let listener = TcpListener::bind(("127.0.0.1", port)).expect("bind");
    let options = ServeOptions { journal: Some(jcfg), ..ServeOptions::default() };
    let handle = provider.serve_forever(listener, options).expect("serve");
    // The ready banner doubles as the restore report.
    std::fs::write(&ready, format!("restored={restored}\n")).expect("ready file");
    while !stop.exists() {
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = handle.shutdown();
    std::fs::write(
        &report_path,
        format!(
            "restored={restored}\nreplayed_items={}\nresumed_sessions={}\nrequests={}\n",
            report.replayed_items, report.resumed_sessions, report.requests
        ),
    )
    .expect("report file");
}
