//! Command line: one run per invocation for the driver, plus `--smoke`,
//! `--self-check` and `--print-manifest`.

use crate::deploy::{Budget, RunParams};
use crate::manifest::{benchmark_json, END_TO_END, RUN_SECONDS};
use crate::run::{self, Env, RunOutput};
use crate::stats::relative_gap;
use crate::workloads::{spec, Workload, WorkloadSpec, WORKLOADS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Key size of every measured run — the paper's operating point.
pub const KEY_BITS: usize = 2048;
/// Key size of `--smoke`, which checks the harness, not the system.
pub const SMOKE_KEY_BITS: usize = 256;
pub const SMOKE_ITEMS: usize = 4;

const USAGE: &str = "\
usage: pp-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out DIR]
       pp-benchmark --smoke [--seed N] [--out DIR]
       pp-benchmark --self-check [--seed N] [--seconds S] [--out DIR]
       pp-benchmark --print-manifest
workloads: fc3_single fanin_single conv_single fc3_packed";

#[derive(Debug, PartialEq)]
enum Mode {
    Run {
        workload: &'static WorkloadSpec,
        traced: bool,
    },
    Smoke,
    SelfCheck,
    PrintManifest,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut traced = false;
    let mut flag_mode = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(spec(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 60]"));
                }
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            "--traced" => traced = true,
            "--out" => out = PathBuf::from(value("a directory")?),
            "--smoke" => flag_mode = Some(Mode::Smoke),
            "--self-check" => flag_mode = Some(Mode::SelfCheck),
            "--print-manifest" => flag_mode = Some(Mode::PrintManifest),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mode = match (flag_mode, workload) {
        (Some(mode), None) => mode,
        (None, Some(workload)) => Mode::Run { workload, traced },
        (Some(_), Some(_)) => return Err("--workload does not combine with a mode flag".into()),
        (None, None) => return Err("no --workload given".into()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
        out,
    })
}

/// The first `PP_*` variable in the environment, if any. The workspace
/// reads some two dozen of them in scattered places; under any of them
/// two runs no longer differ only in the code under test.
fn pinned_environment(vars: impl Iterator<Item = String>) -> Result<(), String> {
    match vars.into_iter().find(|name| name.starts_with("PP_")) {
        Some(name) => Err(format!(
            "refusing to run with {name} set: the benchmark pins every PP_* knob"
        )),
        None => Ok(()),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn params(key_bits: usize, budget: Budget) -> RunParams {
    RunParams {
        key_bits,
        threads: host_cores().min(2),
        budget,
    }
}

fn env(workload: &'static WorkloadSpec, seed: u64, params: &RunParams) -> Env {
    Env {
        workload: workload.name,
        seed,
        key_bits: params.key_bits,
        threads: params.threads,
        host_cores: host_cores(),
        budget: params.budget,
        commit: run::git_commit(Path::new(".")),
    }
}

/// Every metric by name and unit, the record of what was pinned, then
/// the result line the driver reads last.
fn print(env: &Env, traced: bool, output: &RunOutput) {
    println!(
        "# pp-benchmark {} run: {}",
        if traced { "traced" } else { "untraced" },
        env.to_json().compact()
    );
    for &(name, value, unit) in &output.metrics {
        println!("{name} = {value:?} {unit}");
    }
    for line in &output.extras {
        println!("# {line}");
    }
    println!("{}", output.result_json().compact());
}

fn run_one(
    workload: &'static WorkloadSpec,
    seed: u64,
    params: &RunParams,
    traced: bool,
    out: &Path,
    process_start: Instant,
) -> Result<RunOutput, String> {
    let env = env(workload, seed, params);
    let built = Workload::build(workload, seed);
    let output = if traced {
        run::traced(&built, params, &env, out)?
    } else {
        run::untraced(&built, params, process_start)?
    };
    print(&env, traced, &output);
    Ok(output)
}

/// All four workloads, untraced then traced, at a small key and a fixed
/// item count: does the harness still run against the public API.
pub fn smoke(seed: u64, out: &Path) -> Result<(), String> {
    let params = params(SMOKE_KEY_BITS, Budget::Items(SMOKE_ITEMS));
    for workload in &WORKLOADS {
        for traced in [false, true] {
            run_one(workload, seed, &params, traced, out, Instant::now()).map_err(|e| {
                format!(
                    "{} ({}): {e}",
                    workload.name,
                    if traced { "traced" } else { "untraced" }
                )
            })?;
        }
    }
    Ok(())
}

/// Runs this executable as a child and reads back its `name = value`
/// lines. A child, so that `setup_s` and `peak_rss_mib` are those of a
/// fresh process, as they are for the driver.
fn child_metrics(args: &[String]) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.split_once(" = ")?;
            let value = rest.split_whitespace().next()?.parse().ok()?;
            (!name.starts_with('#')).then(|| (name.to_string(), value))
        })
        .collect())
}

/// Two untraced runs of each workload back to back, side by side; fails
/// if an end-to-end metric moves by more than its own bound between them
/// (bytes: at all), or if the traced run's server time strays from the
/// untraced one's.
pub fn self_check(seed: u64, seconds: f64, out: &Path) -> Result<(), String> {
    const MAX_SERVER_TIME_GAP: f64 = 0.15;
    let mut failures = Vec::new();
    for workload in &WORKLOADS {
        let base: Vec<String> = [
            "--workload",
            workload.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let first = child_metrics(&base)?;
        let second = child_metrics(&base)?;
        let mut traced_args = base.clone();
        traced_args.extend([
            "--traced".to_string(),
            "--out".to_string(),
            out.display().to_string(),
        ]);
        let traced = child_metrics(&traced_args)?;
        let value = |run: &[(String, f64)], name: &str| {
            run.iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{name} missing"))
        };
        println!("{}", workload.name);
        for m in &END_TO_END {
            let (a, b) = (value(&first, m.name)?, value(&second, m.name)?);
            let gap = relative_gap(a, b);
            let bound = if m.name == "wire_bytes_per_item" {
                0.0
            } else {
                m.bound
            };
            let verdict = if gap <= bound { "ok" } else { "FAIL" };
            println!(
                "  {:<24} {a:>16.4} {b:>16.4} {:<8} gap {:>6.2} % (bound {:.0} %) {verdict}",
                m.name,
                m.unit,
                gap * 100.0,
                bound * 100.0
            );
            if gap > bound {
                failures.push(format!(
                    "{}: {} moved {:.2} %",
                    workload.name,
                    m.name,
                    gap * 100.0
                ));
            }
        }
        let (linear, exec) = (
            value(&traced, "server_linear_ms")?,
            value(&traced, "server_exec_ms")?,
        );
        let gap = relative_gap(linear, exec);
        println!("  server_linear_ms {linear:.3} (traced) vs server_exec_ms {exec:.3} (untraced): gap {:.2} %", gap * 100.0);
        if gap > MAX_SERVER_TIME_GAP {
            failures.push(format!(
                "{}: traced server time strays {:.2} % from untraced",
                workload.name,
                gap * 100.0
            ));
        }
        // Hand-driven (traced) against networked (untraced) per-item time.
        let (wall, overhead) = (
            value(&traced, "item_wall_ms")?,
            value(&traced, "net_overhead_ms")?,
        );
        println!(
            "  tracing overhead: traced item {wall:.3} ms vs untraced {:.3} ms ({:+.2} %)",
            wall + overhead,
            -overhead / (wall + overhead) * 100.0
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Returns the process exit code. Anything that fails prints its reason
/// to stderr and no result line.
pub fn main(args: &[String], process_start: Instant) -> i32 {
    let args = match parse(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pp-benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) =
        pinned_environment(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()))
    {
        eprintln!("pp-benchmark: {e}");
        return 2;
    }
    let outcome = match args.mode {
        Mode::PrintManifest => {
            print!("{}", benchmark_json().pretty());
            Ok(())
        }
        Mode::Smoke => smoke(args.seed, &args.out),
        Mode::SelfCheck => self_check(args.seed, args.seconds, &args.out),
        Mode::Run { workload, traced } => {
            let params = params(KEY_BITS, Budget::Seconds(args.seconds));
            run_one(
                workload,
                args.seed,
                &params,
                traced,
                &args.out,
                process_start,
            )
            .map(|_| ())
        }
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("pp-benchmark: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let got = parse(&args(&[
            "--workload",
            "conv_single",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            got.mode,
            Mode::Run {
                workload: spec("conv_single").unwrap(),
                traced: true
            }
        );
        assert_eq!((got.seed, got.seconds), (7, 20.0));
        let got = parse(&args(&["--workload", "fc3_packed", "--trace", "0"])).unwrap();
        assert_eq!(
            got.mode,
            Mode::Run {
                workload: spec("fc3_packed").unwrap(),
                traced: false
            }
        );
        assert_eq!((got.seed, got.seconds), (1, RUN_SECONDS as f64));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "nope"],
            &["--workload", "fc3_single", "--trace", "2"],
            &["--workload", "fc3_single", "--seconds", "0"],
            &["--workload", "fc3_single", "--seconds", "61"],
            &["--workload", "fc3_single", "--smoke"],
            &["--bogus"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn any_pp_variable_is_refused_by_name() {
        let vars = |list: &[&str]| {
            list.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(pinned_environment(vars(&["PATH", "HOME", "CARGO_TARGET_DIR"])).is_ok());
        let err = pinned_environment(vars(&["PATH", "PP_EVLOOP"])).unwrap_err();
        assert!(err.contains("PP_EVLOOP"), "{err}");
    }
}
