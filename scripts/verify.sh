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

echo "==> runkernel smoke (every stock kernel file simulates and matches golden)"
for k in kernels/*.pvk; do
  if ! out=$(./target/release/runkernel "$k"); then
    echo "error: runkernel $k exited nonzero" >&2
    exit 1
  fi
  if ! grep -qx 'result matches golden model: true' <<<"$out"; then
    echo "error: runkernel $k did not match the golden model" >&2
    exit 1
  fi
done
echo "    $(ls kernels/*.pvk | wc -l) kernels match the golden model"
# The depth_q directive reaches the simulated controller and the PV4xx pass.
out=$(./target/release/runkernel kernels/bad/throughput_cliff.pvk)
if ! grep -qx 'controller: PreVV4' <<<"$out" || ! grep -q 'PV402' <<<"$out"; then
  echo "error: throughput_cliff.pvk must run as PreVV4 and report PV402" >&2
  exit 1
fi
echo "    throughput_cliff.pvk: depth_q = 4 runs as PreVV4 with PV402"
# histogram squashes, so the simulation line must count replayed iterations.
out=$(./target/release/runkernel kernels/histogram.pvk)
replayed=$(sed -n 's/^simulation: .* \([0-9]*\) iter(s) replayed$/\1/p' <<<"$out")
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
  echo "error: histogram.pvk must report a nonzero replayed-iteration count" >&2
  exit 1
fi
echo "    histogram.pvk: $replayed iteration(s) replayed"

echo "==> reproduce (every headline paper claim, exit 1 on any FAIL)"
cargo run -q --release -p prevv-bench --bin reproduce

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Catches intra-doc links left dangling when an item is deleted or made
# private.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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
# The stock kernels have 9 conservative pairs; at least 6 must be
# discharged before exploration (one verdict per pair, read by the checker).
if conservative != 9 or discharged < 6:
    sys.exit(f"stock kernels: {discharged}/{conservative} pairs discharged; "
             "expected 9 conservative with at least 6 discharged")
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

echo "==> checker throughput -> target/BENCH_modelcheck.json"
# Best-of-N over the unreduced fig2a space (the largest reachable space a
# stock kernel offers); best-of suppresses scheduler noise on a shared box.
# The document lands in target/ (an untracked CI artifact), so verifying
# never dirties the tree. Single shots like this one are not claims; the
# named benchmark (BENCHMARK.json, perfbench/) measures spread.
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
echo "$out" | BEST_SPS="$best" python3 -c '
import json, os, sys
doc = json.load(sys.stdin)
proto = doc["summary"]["protocol"]
best = float(os.environ["BEST_SPS"])
bench = {
    "bench": "modelcheck",
    "workload": "fig2a --mc-no-por --mc-depth 8, best of 5",
    "states": proto["states"],
    "transitions": proto["transitions"],
    "enabled": proto["enabled"],
    "reduction_ratio": proto["reduction_ratio"],
    "states_per_sec": best,
    "threads": proto["threads"],
}
with open("target/BENCH_modelcheck.json", "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
states = bench["states"]
print(f"    {states} states at {best:.0f} states/s")
'

echo "==> simulator throughput -> target/BENCH_sim.json"
# Engine-only cycles/sec, dense sweep vs the levelized default, under the
# PreVV controller (see crates/bench/benches/sim.rs for the workloads). The
# bench itself takes best-of-N figures and cross-checks that both
# schedulers agree on cycle counts and golden memory images. The gate: the
# levelized default must never drop below dense throughput on the busy
# paper set, on the latency-bound (dram) workload, nor on the
# generated-kernel sweep (irregular fuzzer shapes under dram timing).
# fig2a under bram timing (13 nodes) is reported, not gated.
out=$(cargo bench -q -p prevv-bench --bench sim 2>/dev/null | grep '^BENCH_SIM_JSON ')
echo "${out#BENCH_SIM_JSON }" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
pdense, pevent = doc["paper_dense_cps"], doc["paper_event_cps"]
if pevent < pdense:
    sys.exit(f"levelized scheduler slower than dense on the busy paper set: "
             f"{pevent:.0f} < {pdense:.0f} cycles/s")
dense, event = doc["dram_dense_cps"], doc["dram_event_cps"]
if event < dense:
    sys.exit(f"levelized scheduler slower than dense on the latency-bound "
             f"workload: {event:.0f} < {dense:.0f} cycles/s")
gdense, gevent = doc["gen_dense_cps"], doc["gen_event_cps"]
if gevent < gdense:
    sys.exit(f"levelized scheduler slower than dense on the generated "
             f"sweep: {gevent:.0f} < {gdense:.0f} cycles/s")
bench = {"bench": "sim"}
bench.update(doc)
with open("target/BENCH_sim.json", "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
bdense, bevent = doc["bram_dense_cps"], doc["bram_event_cps"]
print(f"    paper set: dense {pdense:.0f} c/s, event {pevent:.0f} c/s "
      f"({pevent / pdense:.2f}x)")
print(f"    bram fig2a (not gated): dense {bdense:.0f} c/s, event {bevent:.0f} c/s "
      f"({bevent / bdense:.2f}x)")
print(f"    dram: dense {dense:.0f} c/s, event {event:.0f} c/s ({event / dense:.2f}x)")
print(f"    gen sweep: dense {gdense:.0f} c/s, event {gevent:.0f} c/s "
      f"({gevent / gdense:.2f}x)")
'

echo "verify: OK"
