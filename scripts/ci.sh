#!/bin/sh
# Tier-1 CI gate: release build, test suite, and lint-clean clippy.
# Run from the repository root:
#
#   ./scripts/ci.sh                  # full gate
#   ./scripts/ci.sh --serving-gate   # serving gate only (64-client smoke)
#   ./scripts/ci.sh --crash-gate     # crash gate only (SIGKILL + warm restart)
#   ./scripts/ci.sh --fuzz-gate      # fuzz gate only (seeded wire fuzzing + governor)
set -eu

cd "$(dirname "$0")/.."

# Serving gate: 64 concurrent sessions through the event loop, failing
# on client/server counter mismatch, batched per-item compute > 1.25x
# per-session, or p99 > 3x the committed BENCH_serving.json baseline.
# Then output folding by name: the same streams folded and unfolded
# (equal outputs, one decrypt per slot group), and a killed connection
# that resumes, replays bit-identically and goes on folding.
run_serving_gate() {
    echo "==> serving gate: 64-client smoke, counters balanced, p99 vs BENCH_serving.json"
    cargo run --release -p pp-bench --bin bench_serving -- --smoke
    cargo test -p pp-stream --test soak -q
    echo "==> serving gate: folded replies equal unfolded ones, and survive a resume"
    cargo test -p pp-stream --lib -q -- folded_streams_equal an_input_past_the_value_bound
    PP_FAULT_SEED=1 cargo test -p pp-stream --test chaos -q -- chaos_folded_kill_resumes
}

# Crash gate: SIGKILL a real server child mid-stream under two fixed
# seeded schedules (one per fsync policy), warm-restart it on the same
# journal, and require bit-identical classifications plus exact
# client/server replay-counter agreement. Then prove journaling stays
# opt-in: with no journal configured, the chaos suite must behave
# exactly as it does without one.
run_crash_gate() {
    echo "==> crash gate: SIGKILL + journal warm restart"
    cargo test -p pp-stream --test crash -q
    echo "==> crash gate: journaling disabled leaves the serve path unchanged"
    PP_FAULT_SEED=1 cargo test -p pp-stream --test chaos -q -- \
      chaos_kill_every expired_session_rejects_resume
}

# Fuzz gate: seeded structure-aware wire fuzzing against a live server
# under two fixed seeds — no panics, no hangs past the watchdog,
# inflated prefixes refused at the governor ceiling — plus the
# adversarial-peer governor tests (oversize prefix survival,
# slow-consumer eviction + resume). Then the existing chaos seeds are
# re-run once with explicit (tightened) governor budgets to prove the
# limits don't disturb well-behaved fault-injected traffic.
run_fuzz_gate() {
    echo "==> fuzz gate: seeded wire fuzzing, seeds 11 and 17"
    for seed in 11 17; do
        PP_FUZZ_SEED=$seed cargo test -p pp-stream --test fuzz -q
    done
    cargo test -p pp-stream --test governor -q
    echo "==> fuzz gate: chaos seeds unchanged under explicit governor budgets"
    PP_MAX_FRAME=$((256 * 1024 * 1024)) \
    PP_WRITE_BACKLOG=$((32 * 1024 * 1024)) \
    PP_MEM_BUDGET=$((512 * 1024 * 1024)) \
    PP_FAULT_SEED=1 cargo test -p pp-stream --test chaos -q
}

case "${1:-}" in
--serving-gate)
    run_serving_gate
    echo "==> serving gate passed"
    exit 0
    ;;
--crash-gate)
    run_crash_gate
    echo "==> crash gate passed"
    exit 0
    ;;
--fuzz-gate)
    run_fuzz_gate
    echo "==> fuzz gate passed"
    exit 0
    ;;
esac

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> loopback two-process deployment example"
cargo run --release --example distributed_inference

# Output folding has no switch, so every suite below runs with it on:
# the provider announces a layout for any key that holds a 64-bit slot
# (one slot per ciphertext at these suites' 128-bit keys, three at the
# 256-bit keys of the folding tests), and every in-bound request is
# answered folded. No seed or gate is run a second time for it.
echo "==> chaos soak under two fixed fault seeds"
PP_FAULT_SEED=1 cargo test -p pp-stream --test chaos -q
PP_FAULT_SEED=2 cargo test -p pp-stream --test chaos -q

echo "==> overload protection: watchdog, busy rejection, quarantine, saturation"
PP_FAULT_SEED=3 cargo test -p pp-stream --test chaos -q -- \
  chaos_stalled_reads_recovered_by_watchdog_soak \
  chaos_busy_rejection_is_retried_after_backoff \
  chaos_poison_item_quarantined_stream_survives \
  chaos_saturation_sheds_excess_clients_without_failures
cargo test -p pp-stream --test deployment -q -- deadline inflight_cap budget

run_crash_gate

run_fuzz_gate

echo "==> fault injection compiles out cleanly"
cargo build -p pp-stream --no-default-features

echo "==> kernel gate: fused dot <= naive fold, fixed-base encrypt < full-width encrypt,"
echo "    batched-inversion dot rows <= per-row, fixed-base refill <= pow_mod refill,"
echo "    16-ciphertext batch decrypt <= 16 sequential at 2048 bits (15% grace on single-core hosts),"
echo "    folding 31 ciphertexts <= 0.25x the 30 decrypts it removes at 2048 bits"
cargo run --release -p pp-bench --bin bench_kernels -- --smoke

echo "==> packed-dot gate: per-item packed <= unpacked at batch >= 8, >= 4x at batch 32"
cargo run --release -p pp-bench --bin bench_kernels -- --packed-gate

run_serving_gate

echo "==> benchmark package builds and passes its own tests against this tree"
cargo test --offline --manifest-path benchmark/Cargo.toml --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

# There is one serving driver and one readiness backend. The bracket in
# each pattern keeps this file from matching itself.
echo "==> single-driver gate: no second serve path, no raw-syscall backend"
if grep -rnE 'PP_EVLOO[P]|legacy_threade[d]|as[m]!|epol[l]|serve_listene[r]|serve_onc[e]|handle_con[n]' crates tests examples scripts; then
    echo "a deleted serve path or backend reappeared (matches above)" >&2
    exit 1
fi

# The packed linear round is the per-item one and the only packed
# driver is the networked session.
echo "==> one-linear-round gate: no packed copy of the linear leg, no in-process packed driver"
if grep -rnE 'execute_packed_linea[r]|run_packed_o[p]|infer_stream_packe[d]' crates tests examples; then
    echo "a deleted packed path reappeared (matches above)" >&2
    exit 1
fi

echo "==> CI gate passed"
