//! Runs the benchmark's `--smoke` mode (256-bit keys, four items, every
//! workload, untraced and traced), so `cargo test` in this package keeps
//! the harness compiling and passing its own gates against the
//! workspace's public API as later changes refactor it.

use pp_benchmark::manifest::{END_TO_END, PER_LAYER};
use pp_benchmark::workloads::WORKLOADS;
use std::path::PathBuf;
use std::process::Command;

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn smoke_passes_every_gate_and_writes_the_traces() {
    let out = out_dir("smoke-in-process");
    pp_benchmark::cli::smoke(3, &out).expect("smoke run");
    for workload in &WORKLOADS {
        let path = out.join(format!("trace.{}.json", workload.name));
        let trace = std::fs::read_to_string(&path).expect("trace file written");
        for needle in [
            "\"spans\"",
            "\"server_linear[0]\"",
            "\"client_nonlinear\"",
            "\"replay\": true",
        ] {
            assert!(trace.contains(needle), "{} lacks {needle}", path.display());
        }
    }
}

#[test]
fn result_line_carries_exactly_the_manifest_metrics() {
    let out = out_dir("smoke-binary");
    let output = Command::new(env!("CARGO_BIN_EXE_pp-benchmark"))
        .args(["--smoke", "--seed", "5", "--out"])
        .arg(&out)
        .env_remove("PP_EVLOOP")
        .output()
        .expect("run the benchmark binary");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":true,"))
        .collect();
    // Untraced then traced, per workload.
    assert_eq!(results.len(), 2 * WORKLOADS.len(), "{stdout}");
    for pair in results.chunks(2) {
        for m in &END_TO_END {
            assert!(
                pair[0].contains(&format!("\"{}\":{{\"value\":", m.name)),
                "{} in {}",
                m.name,
                pair[0]
            );
            assert!(
                !pair[1].contains(&format!("\"{}\":", m.name)),
                "{} leaked into a traced result",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(
                pair[1].contains(&format!("\"{}\":{{\"value\":", m.name)),
                "{} in {}",
                m.name,
                pair[1]
            );
        }
        assert!(pair[0].contains("\"failed\":0") && pair[1].contains("\"failed\":0"));
    }
    assert!(stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\":true,")));
}

#[test]
fn refuses_to_start_under_a_pp_variable() {
    let output = Command::new(env!("CARGO_BIN_EXE_pp-benchmark"))
        .args(["--smoke"])
        .env("PP_GATHER_WINDOW_US", "200")
        .output()
        .expect("run the benchmark binary");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&output.stderr).contains("PP_GATHER_WINDOW_US"));
}
