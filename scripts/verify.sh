#!/usr/bin/env bash
# Full verification: tier-1 (build + tests), lints on the code, and lints
# on the kernels — kernel-level PV0xx and circuit-level PV1xx alike. Run
# from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark package (own workspace: build + self-test)"
# perfbench is outside the root workspace, so the steps above never
# compile it; this catches a facade API change that would break it.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> differential fuzz oracle (200 generated kernels, pinned seed)"
# Every generated kernel must agree byte-for-byte across the golden
# interpreter, both schedulers, and all four memory subsystems, with
# lint/model-check verdicts consistent with observed behavior. On failure
# runkernel shrinks the offender and writes the minimal reproducer to
# target/fuzz_repro.pvk (uploaded as a CI artifact).
if ! ./target/release/runkernel --fuzz 200 --seed 0xPREVV \
    --repro target/fuzz_repro.pvk; then
  echo "error: fuzz oracle failed; shrunk reproducer at target/fuzz_repro.pvk" >&2
  exit 1
fi

echo "==> reproduce (every headline paper claim, exit 1 on any FAIL)"
cargo run -q --release -p prevv-bench --bin reproduce

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> lint-kernels (stock kernels must be error-free, circuit pass included)"
out=$(cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
    --circuit --format json kernels/*.pvk)
# The JSON document must parse and report zero error-severity findings.
echo "$out" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
errors = doc["summary"]["errors"]
warnings = doc["summary"]["warnings"]
nfiles = len(doc["files"])
if errors:
    json.dump(doc, sys.stderr, indent=2)
    sys.exit(f"\nstock kernels reported {errors} error(s)")
print(f"    {nfiles} kernels, {errors} errors, {warnings} warnings")
'

echo "==> lint-kernels (negative fixtures must each fail)"
lint_must_fail() {
  if cargo run -q --release -p prevv-analyze --bin prevv-lint -- "$@" \
      >/dev/null 2>&1; then
    echo "error: prevv-lint $* unexpectedly passed" >&2
    exit 1
  fi
  echo "    refused: $*"
}
lint_must_fail kernels/bad/oob.pvk
lint_must_fail kernels/bad/undeclared.pvk
lint_must_fail --deny-warnings kernels/bad/infeasible_guard.pvk
lint_must_fail --deny-warnings kernels/bad/range_oob.pvk
lint_must_fail --no-fake-tokens kernels/bad/guarded_nofake.pvk
lint_must_fail --circuit kernels/bad/undersized_queue.pvk
lint_must_fail --circuit --controller direct kernels/bad/combinational_loop.pvk

echo "==> protocol model checker (stock kernels must prove PV201-PV204 clean at the deep default)"
out=$(cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
    --protocol --format json kernels/*.pvk)
echo "$out" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
errors = doc["summary"]["errors"]
nfiles = len(doc["files"])
proto = doc["summary"]["protocol"]
if errors:
    json.dump(doc, sys.stderr, indent=2)
    sys.exit(f"\nprotocol pass reported {errors} error(s) on stock kernels")
if proto["truncated_by_budget"]:
    sys.exit("state budget truncated the stock-kernel proof")
states, ratio = proto["states"], proto["reduction_ratio"]
discharged, conservative = proto["pairs"]["discharged"], proto["pairs"]["conservative"]
print(f"    {nfiles} kernels protocol-clean within the exploration bound")
print(f"    {states} states, reduction ratio {ratio}, "
      f"{discharged}/{conservative} pairs discharged")
tri = [f for f in doc["files"] if f["file"].endswith("triangular.pvk")]
pv502 = sum(1 for f in tri
            for d in f["report"]["diagnostics"] if d["code"] == "PV502")
if pv502 < 1:
    sys.exit("triangular.pvk must gain at least one PV502 invariant "
             "discharge within the horizon")
print(f"    triangular.pvk: {pv502} PV502 invariant discharge(s)")
'

echo "==> protocol model checker (collision audit must count zero)"
out=$(cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
    --protocol --mc-audit --format json kernels/*.pvk)
echo "$out" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
collisions = doc["summary"]["protocol"]["audit_collisions"]
if collisions != 0:
    sys.exit(f"fingerprint collision audit counted {collisions} collision(s)")
print("    0 fingerprint collisions across all stock kernels")
'

echo "==> protocol model checker (bad fixtures must each fail)"
lint_must_fail --protocol --no-forwarding kernels/bad/replay_livelock.pvk
lint_must_fail --protocol --depth 2 kernels/bad/queue_too_small_mc.pvk
lint_must_fail --protocol --no-forwarding kernels/bad/deep_wedge.pvk

echo "==> PV4xx static throughput (stock kernels predicted within 10% of simulation)"
cargo test -q --release --test perf_soundness \
    stock_kernel_predictions_land_within_ten_percent >/dev/null
echo "    5 kernels: predicted cycles within 10% of the cycle-accurate simulator"
out=$(cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
    --perf --format json kernels/*.pvk)
echo "$out" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
if doc["summary"]["errors"]:
    json.dump(doc, sys.stderr, indent=2)
    sys.exit("\nperf pass reported errors on stock kernels")
perf = doc["summary"]["perf"]
bound, pred, res = perf["ii_bound"], perf["predicted_ii"], perf["binding_resource"]
if not (bound >= 1.0 and pred >= bound):
    sys.exit(f"implausible perf summary: {perf}")
print(f"    worst kernel: II bound {bound:.2f}, predicted II {pred:.2f} ({res})")
'

echo "==> PV4xx static throughput (undersized queue must be refused)"
lint_must_fail --circuit --perf --deny-warnings --depth 4 \
    kernels/bad/throughput_cliff.pvk

echo "==> prevv-lint --fix (machine-applicable fixes must converge on scratch copies)"
fixdir=$(mktemp -d)
trap 'rm -rf "$fixdir"' EXIT
cp kernels/bad/infeasible_guard.pvk kernels/bad/throughput_cliff.pvk "$fixdir/"
cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
    --fix "$fixdir/infeasible_guard.pvk" >/dev/null
cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
    --circuit --perf --fix "$fixdir/throughput_cliff.pvk" >/dev/null
# The patched copies must re-lint clean of the codes that were fixed:
# PV501's dead statement is gone, and the rewritten depth_q directive
# (4 -> matched 8) silences both PV402 and the PV104 capacity warning.
out=$(cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
    --format json "$fixdir/infeasible_guard.pvk")
if grep -q PV501 <<<"$out"; then
  echo "error: fixed infeasible_guard.pvk still reports PV501" >&2
  exit 1
fi
out=$(cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
    --circuit --perf --format json "$fixdir/throughput_cliff.pvk")
if grep -qE 'PV402|PV104' <<<"$out"; then
  echo "error: fixed throughput_cliff.pvk still reports PV402/PV104" >&2
  exit 1
fi
if ! grep -q 'depth_q = 8;' "$fixdir/throughput_cliff.pvk"; then
  echo "error: --fix did not rewrite the depth_q directive" >&2
  exit 1
fi
# Record what --fix changed, for the CI artifact.
mkdir -p target
{
  diff -u kernels/bad/infeasible_guard.pvk "$fixdir/infeasible_guard.pvk" || true
  diff -u kernels/bad/throughput_cliff.pvk "$fixdir/throughput_cliff.pvk" || true
} > target/fixed_fixtures.diff
echo "    2 fixture copies fixed, re-lint clean (diff in target/fixed_fixtures.diff)"

echo "==> checker throughput -> BENCH_modelcheck.json"
# Best-of-N over the unreduced fig2a space (the largest reachable space a
# stock kernel offers); best-of suppresses scheduler noise on a shared box.
# The previous run's figure (if any) is read first so the JSON records the
# states/sec delta across the change under test.
prev_sps=$(python3 -c '
import json
try:
    doc = json.load(open("BENCH_modelcheck.json"))
    if doc["workload"] == "fig2a --mc-no-por --mc-depth 8, best of 5":
        print(doc["states_per_sec"])
    else:
        print("")
except Exception:
    print("")
' 2>/dev/null || true)
best=""
for _ in 1 2 3 4 5; do
  out=$(cargo run -q --release -p prevv-analyze --bin prevv-lint -- \
      --protocol --mc-no-por --mc-depth 8 --format json kernels/fig2a.pvk)
  best=$(PREV_BEST="$best" python3 -c '
import json, os, sys
doc = json.load(sys.stdin)
sps = doc["summary"]["protocol"]["states_per_sec"]
prev = os.environ.get("PREV_BEST") or "0"
print(max(sps, float(prev)))
' <<<"$out")
done
echo "$out" | PREV_SPS="$prev_sps" BEST_SPS="$best" python3 -c '
import json, os, sys
doc = json.load(sys.stdin)
proto = doc["summary"]["protocol"]
best = float(os.environ["BEST_SPS"])
prev = os.environ.get("PREV_SPS") or ""
bench = {
    "bench": "modelcheck",
    "workload": "fig2a --mc-no-por --mc-depth 8, best of 5",
    "states": proto["states"],
    "transitions": proto["transitions"],
    "enabled": proto["enabled"],
    "reduction_ratio": proto["reduction_ratio"],
    "states_per_sec": best,
    "states_per_sec_prev": float(prev) if prev else None,
    "states_per_sec_delta_pct": round((best / float(prev) - 1.0) * 100, 1)
    if prev else None,
    "threads": proto["threads"],
}
with open("BENCH_modelcheck.json", "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
states = proto["states"]
delta = bench["states_per_sec_delta_pct"]
tail = f" ({delta:+.1f}% vs previous run)" if prev else " (no previous run to compare)"
print(f"    {states} states at {best:.0f} states/s" + tail)
'

echo "==> simulator throughput -> BENCH_sim.json"
# Engine-only cycles/sec, dense sweep vs event-driven dirty set, on fig2a
# under the PreVV controller (see crates/bench/benches/sim.rs for the two
# timing regimes). The bench itself does best-of-5 and cross-checks that
# both schedulers agree on cycle counts and golden memory images. The gate:
# the event-driven default must never drop below dense throughput on the
# latency-bound (dram) workload, nor on the generated-kernel sweep
# (irregular fuzzer shapes under the same timing regime).
prev_cps=$(python3 -c '
import json
try:
    doc = json.load(open("BENCH_sim.json"))
    if doc["workload"] == "fig2a n=256 prevv16, engine-only, best of 5":
        print(doc["dram_event_cps"])
    else:
        print("")
except Exception:
    print("")
' 2>/dev/null || true)
out=$(cargo bench -q -p prevv-bench --bench sim 2>/dev/null | grep '^BENCH_SIM_JSON ')
echo "${out#BENCH_SIM_JSON }" | PREV_CPS="$prev_cps" python3 -c '
import json, os, sys
doc = json.load(sys.stdin)
dense, event = doc["dram_dense_cps"], doc["dram_event_cps"]
if event < dense:
    sys.exit(f"event-driven scheduler slower than dense on the latency-bound "
             f"workload: {event:.0f} < {dense:.0f} cycles/s")
gdense, gevent = doc["gen_dense_cps"], doc["gen_event_cps"]
if gevent < gdense:
    sys.exit(f"event-driven scheduler slower than dense on the generated "
             f"sweep: {gevent:.0f} < {gdense:.0f} cycles/s")
prev = os.environ.get("PREV_CPS") or ""
bench = {"bench": "sim"}
bench.update(doc)
bench["dram_event_cps_prev"] = float(prev) if prev else None
bench["dram_event_cps_delta_pct"] = (
    round((event / float(prev) - 1.0) * 100, 1) if prev else None)
with open("BENCH_sim.json", "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
delta = bench["dram_event_cps_delta_pct"]
tail = (f" ({delta:+.1f}% vs previous run)" if prev
        else " (no previous run to compare)")
print(f"    dram: dense {dense:.0f} c/s, event {event:.0f} c/s "
      f"({event / dense:.2f}x)" + tail)
print(f"    gen sweep: dense {gdense:.0f} c/s, event {gevent:.0f} c/s "
      f"({gevent / gdense:.2f}x)")
'

echo "verify: OK"
