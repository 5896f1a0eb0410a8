//! `prevv-perfbench` — the repository's named benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one client, closed loop: the driver builds the workload's
//! pinned inputs, then runs passes over every item back to back until
//! `--seconds` have elapsed. Each item goes through the same public
//! entry points the CLIs use and has its outputs checked; a failed check
//! counts against the item and never aborts the run.
//!
//! `--trace 0` prints the end-to-end metrics; host timings are taken from
//! each item's fastest pass. `--trace 1` alternates untraced passes with traced
//! ones, which mirror every entry point call for call and time each call
//! into a layer; it prints the per-layer metrics of the fastest traced
//! pass, the time no layer span covers, and the tracing overhead, and
//! writes the spans to `perfbench/out/spans-<workload>.tsv`. See
//! `NOTES.md` for the workloads and metric definitions.
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod mirror;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::{Layer, PassTotals, Tracer};
use workloads::{DesignTotals, Digest, Direct, Inputs, Params, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("item_p50_ms", "ms"),
    ("item_p95_ms", "ms"),
    ("sim_cycles_per_s", "cycles/s"),
    ("sim_cycles", "cycles"),
    ("design_luts", "LUT"),
];

/// Per-layer counters beyond `self_s` and `calls`: layer, counter, unit.
const LAYER_COUNTERS: [(Layer, &str, &str); 27] = [
    (Layer::Lints, "diagnostics", "count"),
    (Layer::ModelCheck, "states", "count"),
    (Layer::ModelCheck, "transitions", "count"),
    (Layer::ModelCheck, "enabled", "count"),
    (Layer::ModelCheck, "reduction_ratio", "ratio"),
    (Layer::ModelCheck, "states_per_s", "1/s"),
    (Layer::ModelCheck, "truncated", "count"),
    (Layer::Sim, "cycles", "cycles"),
    (Layer::Sim, "transfers", "count"),
    (Layer::Sim, "stall_cycles", "cycles"),
    (Layer::Sim, "squashes", "count"),
    (Layer::Sim, "replayed_iters", "count"),
    (Layer::Sim, "ns_per_cycle", "ns"),
    (Layer::Prevv, "validations", "count"),
    (Layer::Prevv, "comparisons", "count"),
    (Layer::Prevv, "comparisons_per_validation", "ratio"),
    (Layer::Prevv, "violations", "count"),
    (Layer::Prevv, "forwards", "count"),
    (Layer::Prevv, "fakes", "count"),
    (Layer::Prevv, "queue_full_stalls", "count"),
    (Layer::Prevv, "conservative_holds", "count"),
    (Layer::Prevv, "predictor_holds", "count"),
    (Layer::Prevv, "queue_high_water", "entries"),
    (Layer::Prevv, "replay_frac", "ratio"),
    (Layer::Lsq, "forwards", "count"),
    (Layer::Lsq, "alloc_stall_cycles", "cycles"),
    (Layer::Lsq, "high_water", "entries"),
];

/// Run-level traced metrics: pass time no layer span covers, and traced
/// minus untraced pass time.
#[cfg(test)]
const RUN_LEVEL: [(&str, &str); 2] = [("uncovered_s", "s"), ("trace_overhead_s", "s")];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One item's measured outcome.
struct ItemResult {
    latency_s: f64,
    outcome: workloads::Outcome,
}

/// One pass over every item.
struct Pass {
    wall_s: f64,
    items: Vec<ItemResult>,
}

impl Pass {
    fn design(&self) -> DesignTotals {
        let mut t = DesignTotals::default();
        for i in &self.items {
            t.add(&i.outcome.design);
        }
        t
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for i in &self.items {
            d.push(i.outcome.digest);
        }
        d.value()
    }
}

fn run_pass(inputs: &Inputs, p: &Params, mut tracer: Option<&mut Tracer>) -> Pass {
    let mut items = Vec::with_capacity(inputs.len());
    let start = Instant::now();
    for i in 0..inputs.len() {
        let t = Instant::now();
        let outcome = match tracer.as_deref_mut() {
            Some(tr) => {
                tr.begin_item();
                let o = inputs.run_item(i, p, tr);
                tr.end_item();
                o
            }
            None => inputs.run_item(i, p, &mut Direct),
        };
        items.push(ItemResult {
            latency_s: t.elapsed().as_secs_f64(),
            outcome,
        });
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        items,
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile (0 for an empty sample).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A run's result: the JSON fields plus what the report lines print.
struct RunSummary {
    attempted: u64,
    failed: u64,
    /// `(item, first reason)` of every failed item.
    failures: Vec<(String, String)>,
    metrics: Vec<(String, f64, &'static str)>,
    passes: usize,
    traced_passes: usize,
    digest: u64,
    design: DesignTotals,
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(t: &PassTotals, wall_s: f64) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    let mut covered = 0.0;
    for layer in Layer::ALL {
        if layer.timed() {
            out.push((format!("{}.self_s", layer.name()), t.layer_s(layer), "s"));
            covered += t.layer_s(layer);
        }
        out.push((
            format!("{}.calls", layer.name()),
            t.calls[layer as usize] as f64,
            "count",
        ));
    }
    for (layer, counter, unit) in LAYER_COUNTERS {
        let name = format!("{}.{counter}", layer.name());
        let c = |n: &str| t.counter(n);
        let value = match name.as_str() {
            "analyze.modelcheck.reduction_ratio" => ratio(
                c("analyze.modelcheck.transitions"),
                c("analyze.modelcheck.enabled"),
            ),
            "analyze.modelcheck.states_per_s" => ratio(
                c("analyze.modelcheck.states"),
                c("analyze.modelcheck.check_s"),
            ),
            "dataflow.sim.ns_per_cycle" => {
                ratio(t.layer_s(Layer::Sim) * 1e9, c("dataflow.sim.cycles"))
            }
            "core.prevv.comparisons_per_validation" => {
                ratio(c("core.prevv.comparisons"), c("core.prevv.validations"))
            }
            "core.prevv.replay_frac" => {
                ratio(c("core.prevv.replayed_iters"), c("core.prevv.issued_iters"))
            }
            n => c(n),
        };
        out.push((name, value, unit));
    }
    out.push(("uncovered_s".into(), wall_s - covered, "s"));
    out
}

/// Runs one workload for `seconds` and summarizes it. `root` is the
/// repository root; spans go to `spans_out` when tracing.
fn run(
    w: Workload,
    p: &Params,
    seconds: u64,
    trace: bool,
    root: &Path,
    spans_out: Option<&Path>,
) -> Result<RunSummary, String> {
    // Set-up: build the inputs several times, keep the last.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = std::hint::black_box(workloads::setup(w, p, root)?);
        setup_times.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");

    // Caught panics are reported as item failures; keep them off stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let origin = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Tracer)> = Vec::new();
    let mut next_item = 0u32;
    loop {
        untraced.push(run_pass(&inputs, p, None));
        if trace {
            let mut tr = Tracer::new(origin, next_item);
            let pass = run_pass(&inputs, p, Some(&mut tr));
            next_item = tr.next_item();
            traced.push((pass, tr));
        }
        if origin.elapsed() >= budget {
            break;
        }
    }
    std::panic::set_hook(hook);

    // Every item must digest like the first untraced pass, traced or not.
    let reference = &untraced[0];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures: Vec<(String, String)> = Vec::new();
    for pass in untraced.iter().chain(traced.iter().map(|(p, _)| p)) {
        for (i, item) in pass.items.iter().enumerate() {
            attempted += 1;
            let why = item.outcome.failures.first().cloned().or_else(|| {
                (item.outcome.digest != reference.items[i].outcome.digest)
                    .then(|| "outputs differ from the first pass".to_string())
            });
            if let Some(why) = why {
                failed += 1;
                let name = inputs.item_name(i);
                if !failures.iter().any(|(n, _)| *n == name) {
                    failures.push((name, why));
                }
            }
        }
    }

    // Host timings are best-of-passes: co-tenant load on the host slows
    // whole stretches of a run by up to ~1.6x while the process keeps its
    // CPU, so a median tracks the neighbours and the fastest time tracks
    // the code. Each item's fastest time over the passes is the sample;
    // a pass is the sum of its items' samples.
    let best = |passes: &[&Pass], i: usize| {
        passes
            .iter()
            .map(|p| p.items[i].latency_s)
            .fold(f64::INFINITY, f64::min)
    };
    let plain: Vec<&Pass> = untraced.iter().collect();
    let per_item: Vec<f64> = (0..inputs.len()).map(|i| best(&plain, i)).collect();
    let best_wall: f64 = per_item.iter().sum();
    let design = reference.design();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if trace {
        // The per-layer split of the fastest traced pass.
        let (pass, tr) = traced
            .iter()
            .min_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s))
            .expect("a traced run makes at least one traced pass");
        metrics.extend(layer_metrics(&tr.totals(), pass.wall_s));
        let traced_passes: Vec<&Pass> = traced.iter().map(|(p, _)| p).collect();
        let traced_wall: f64 = (0..inputs.len()).map(|i| best(&traced_passes, i)).sum();
        metrics.push(("trace_overhead_s".into(), traced_wall - best_wall, "s"));
        if let Some(path) = spans_out {
            write_spans(path, &traced).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    } else {
        let values = [
            best_wall,
            median(&setup_times),
            peak_rss_mb(),
            quantile(&per_item, 0.5) * 1e3,
            quantile(&per_item, 0.95) * 1e3,
            ratio(design.cycles as f64, best_wall),
            design.cycles as f64,
            design.luts as f64,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
    }
    Ok(RunSummary {
        attempted,
        failed,
        failures,
        metrics,
        passes: untraced.len(),
        traced_passes: traced.len(),
        digest: reference.digest(),
        design,
    })
}

fn write_spans(path: &Path, traced: &[(Pass, Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "item\tspan\tparent\tname\tstart_ns\tend_ns")?;
    let mut base = 0;
    for (_, tr) in traced {
        base = tr.write_tsv(&mut out, base)?;
    }
    out.flush()
}

/// The result line: one JSON object.
fn json_line(s: &RunSummary) -> String {
    let mut metrics = String::new();
    for (k, (name, value, unit)) in s.metrics.iter().enumerate() {
        if k > 0 {
            metrics.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        s.failed == 0,
        s.attempted,
        s.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("prevv-perfbench: {e}");
            eprintln!(
                "usage: prevv-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prevv-perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = args.workload.name();
    let spans = root.join(format!("perfbench/out/spans-{name}.tsv"));
    let s = match run(
        args.workload,
        &Params::FULL,
        args.seconds,
        args.trace,
        &root,
        args.trace.then_some(spans.as_path()),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("prevv-perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{name} seed {} trace {}: {} untraced + {} traced pass(es), {} thread(s) available",
        args.seed,
        u8::from(args.trace),
        s.passes,
        s.traced_passes,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let d = &s.design;
    println!(
        "digest {name} {:#018x} sim_cycles={} design_luts={} design_exec_us={:.6} states={} transitions={}",
        s.digest, d.cycles, d.luts, d.exec_us, d.states, d.transitions
    );
    println!(
        "fail_frac {} ({}/{})",
        ratio(s.failed as f64, s.attempted as f64),
        s.failed,
        s.attempted
    );
    for (item, why) in &s.failures {
        println!("failed item {item}: {why}");
    }
    for (metric, value, unit) in &s.metrics {
        println!("metric {metric} = {value} {unit}");
    }
    println!("{}", json_line(&s));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn reduced(w: Workload, trace: bool) -> RunSummary {
        run(w, &Params::REDUCED, 0, trace, &repo_root(), None).expect("workload runs")
    }

    fn names(s: &RunSummary) -> Vec<(&str, &str)> {
        s.metrics.iter().map(|(n, _, u)| (n.as_str(), *u)).collect()
    }

    /// Every per-layer metric the traced run must emit.
    fn per_layer_names() -> Vec<(String, &'static str)> {
        let mut v = Vec::new();
        for layer in Layer::ALL {
            if layer.timed() {
                v.push((format!("{}.self_s", layer.name()), "s"));
            }
            v.push((format!("{}.calls", layer.name()), "count"));
        }
        for (layer, counter, unit) in LAYER_COUNTERS {
            v.push((format!("{}.{counter}", layer.name()), unit));
        }
        v.extend(RUN_LEVEL.map(|(n, u)| (n.to_string(), u)));
        v
    }

    #[test]
    fn every_workload_emits_every_metric_and_digests_agree() {
        for w in Workload::ALL {
            let plain = reduced(w, false);
            assert_eq!(plain.failed, 0, "{}: {:?}", w.name(), plain.failures);
            assert_eq!(names(&plain), END_TO_END.to_vec(), "{}", w.name());
            assert!(
                plain.metrics.iter().all(|(_, v, _)| *v > 0.0),
                "{}: an end-to-end metric is 0: {:?}",
                w.name(),
                plain.metrics
            );

            // The traced pass mirrors the untraced one: same digest, and
            // every item agrees with the untraced reference.
            let traced = reduced(w, true);
            assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.failures);
            assert_eq!(traced.digest, plain.digest, "{}", w.name());
            assert_eq!(traced.design, plain.design, "{}", w.name());
            let want = per_layer_names();
            let got = names(&traced);
            assert_eq!(got.len(), want.len(), "{}", w.name());
            for (n, u) in &want {
                assert!(
                    got.contains(&(n.as_str(), *u)),
                    "{}: missing {n} [{u}]",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn traced_paper_grid_synthesizes_twice_per_point() {
        let s = reduced(Workload::PaperGrid, true);
        let calls = |n: &str| {
            s.metrics
                .iter()
                .find(|(m, _, _)| m == n)
                .map(|(_, v, _)| *v)
                .expect("metric present")
        };
        // 5 kernels x 5 controllers, two syntheses per `evaluate`, plus
        // the lint pass's one per kernel.
        assert_eq!(calls("ir.synth.calls"), 5.0 * 5.0 * 2.0 + 5.0);
        assert_eq!(calls("area.calls"), 25.0);
        assert_eq!(calls("dataflow.sim.calls"), 25.0);
        assert_eq!(calls("analyze.modelcheck.calls"), 0.0);
    }

    #[test]
    fn benchmark_manifest_names_every_metric_with_its_unit() {
        let manifest = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let listed =
            |n: &str, u: &str| manifest.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\""));
        for (n, u) in END_TO_END {
            assert!(listed(n, u), "end-to-end {n} [{u}] not in BENCHMARK.json");
        }
        for (n, u) in per_layer_names() {
            assert!(listed(&n, u), "per-layer {n} [{u}] not in BENCHMARK.json");
        }
        for w in Workload::ALL {
            assert!(manifest.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
