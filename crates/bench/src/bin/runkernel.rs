//! `runkernel` — the reproduction as a command-line tool: parse a kernel
//! source file (see `prevv_ir::parse` for the language), synthesize it,
//! attach a disambiguation controller, simulate, verify against the golden
//! model, and report resources/timing. Optionally dump the circuit as
//! Graphviz DOT and the memory-port activity as a VCD waveform.
//!
//! ```text
//! cargo run --release -p prevv-bench --bin runkernel -- \
//!     kernels/histogram.pvk --controller prevv16 --dot /tmp/c.dot --vcd /tmp/c.vcd
//! ```
//!
//! Controllers: `direct`, `dynamatic16`, `fast16`, `spec<depth>`,
//! `prevv<depth>` (e.g. `prevv16`, `prevv64`, `spec16`).
//!
//! Fuzz mode (`--fuzz N [--seed S]`) needs no kernel file: it generates `N`
//! kernels from the seed (`prevv_kernels::gen`), runs each through the
//! cross-backend differential oracle (`prevv::diffcheck`), and on the first
//! failure shrinks the kernel to a minimal reproducer and writes its `.pvk`
//! (`--repro`, default `target/fuzz_repro.pvk`). `--seed` accepts decimal,
//! `0x`-hex, or any other string (hashed deterministically — `0xPREVV`
//! works). `--corpus-out DIR` additionally writes every generated kernel
//! plus a `digests.tsv` of per-backend outcome digests, which is how
//! `tests/fuzz_corpus/` is (re)pinned.

use prevv::dataflow::trace::{to_vcd, TraceRecorder};
use prevv::dataflow::{sweep, viz, Scheduler, SimConfig, SimReport, Simulator};
use prevv::{Controller, MemTiming, PrevvConfig};
use rand::{Rng, SeedableRng};

struct Args {
    path: Option<String>,
    controller: Controller,
    protocol: bool,
    stats: bool,
    dot: Option<String>,
    vcd: Option<String>,
    scheduler: Scheduler,
    sweep: bool,
    depths: Vec<usize>,
    seeds: u64,
    threads: usize,
    fuzz: Option<usize>,
    fuzz_seed: u64,
    repro: String,
    corpus_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: runkernel <file.pvk> [--controller direct|dynamatic16|fast16|spec<depth>|prevv<depth>] \
         [--protocol] [--stats] [--dot <out.dot>] [--vcd <out.vcd>] \
         [--scheduler dense|event] \
         [--sweep [--depths <d,d,...>] [--seeds <n>] [--threads <n>]]\n\
       runkernel --fuzz <n> [--seed <seed>] [--repro <out.pvk>] [--corpus-out <dir>]"
    );
    std::process::exit(2);
}

/// The `--stats` table length: most-stalled channels worth printing.
const TOP_STALLED: usize = 8;

/// Default `--sweep` depth axis: the paper's two evaluated depths plus the
/// surrounding powers of two.
const SWEEP_DEPTHS: [usize; 4] = [8, 16, 32, 64];

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut controller = Controller::Prevv(PrevvConfig::prevv16());
    let mut protocol = false;
    let mut stats = false;
    let mut dot = None;
    let mut vcd = None;
    let mut scheduler = Scheduler::default();
    let mut sweep = false;
    let mut depths = SWEEP_DEPTHS.to_vec();
    let mut seeds = 1u64;
    let mut threads = 0usize;
    let mut fuzz = None;
    let mut fuzz_seed = 0u64;
    let mut repro = String::from("target/fuzz_repro.pvk");
    let mut corpus_out = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--protocol" => protocol = true,
            "--stats" => stats = true,
            "--sweep" => sweep = true,
            "--controller" => {
                let v = args.next().unwrap_or_else(|| usage());
                controller = match v.as_str() {
                    "direct" => Controller::Direct,
                    "dynamatic16" => Controller::Dynamatic { depth: 16 },
                    "fast16" => Controller::FastLsq { depth: 16 },
                    other => {
                        if let Some(depth) = other.strip_prefix("spec").and_then(|d| d.parse().ok())
                        {
                            Controller::SpecLsq { depth }
                        } else if let Some(depth) =
                            other.strip_prefix("prevv").and_then(|d| d.parse().ok())
                        {
                            Controller::Prevv(PrevvConfig::with_depth(depth))
                        } else {
                            usage()
                        }
                    }
                };
            }
            "--scheduler" => {
                scheduler = match args.next().unwrap_or_else(|| usage()).as_str() {
                    "dense" => Scheduler::Dense,
                    "event" => Scheduler::EventDriven,
                    _ => usage(),
                };
            }
            "--depths" => {
                let v = args.next().unwrap_or_else(|| usage());
                depths = v
                    .split(',')
                    .map(|d| d.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if depths.is_empty() {
                    usage();
                }
            }
            "--seeds" => {
                seeds = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
                if seeds == 0 {
                    usage();
                }
            }
            "--threads" => {
                threads = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--fuzz" => {
                let v = args.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                fuzz = Some(n);
            }
            "--seed" => fuzz_seed = parse_seed(&args.next().unwrap_or_else(|| usage())),
            "--repro" => repro = args.next().unwrap_or_else(|| usage()),
            "--corpus-out" => corpus_out = Some(args.next().unwrap_or_else(|| usage())),
            "--dot" => dot = Some(args.next().unwrap_or_else(|| usage())),
            "--vcd" => vcd = Some(args.next().unwrap_or_else(|| usage())),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => usage(),
        }
    }
    if path.is_none() && fuzz.is_none() {
        usage();
    }
    Args {
        path,
        controller,
        protocol,
        stats,
        dot,
        vcd,
        scheduler,
        sweep,
        depths,
        seeds,
        threads,
        fuzz,
        fuzz_seed,
        repro,
        corpus_out,
    }
}

/// `--seed` accepts decimal, `0x`-hex, or any other string, which is hashed
/// (FNV-1a) so mnemonic seeds like `0xPREVV` are valid and deterministic.
fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Deterministic RAM-timing perturbation for the `--sweep` seed axis: seed 0
/// is the stock timing, every other seed draws latencies/bandwidth from a
/// splitmix stream keyed only on the seed — the same seed always yields the
/// same timing, so sweep output is reproducible anywhere.
fn seeded_timing(seed: u64) -> MemTiming {
    if seed == 0 {
        return MemTiming::default();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    MemTiming {
        read_latency: rng.gen_range(1..=4u32),
        write_latency: rng.gen_range(1..=3u32),
        read_ports: rng.gen_range(1..=2u32),
        write_ports: 1,
    }
}

/// One grid point of a `--sweep` run, in deterministic axis-major order.
struct SweepJob {
    depth: usize,
    seed: u64,
}

/// Batched multi-config driver: a PreVV depth × RAM-timing-seed grid over
/// one kernel, sharded across worker threads. Each worker synthesizes,
/// simulates, and verifies its own circuit (netlists are thread-local by
/// construction); the result table is in grid order and byte-identical at
/// any `--threads` value.
fn run_sweep(spec: &prevv::KernelSpec, args: &Args) -> ! {
    let jobs: Vec<SweepJob> = args
        .depths
        .iter()
        .flat_map(|&depth| (0..args.seeds).map(move |seed| SweepJob { depth, seed }))
        .collect();
    let sim_config = SimConfig {
        scheduler: args.scheduler,
        ..SimConfig::default()
    };
    let worker = |job: &SweepJob| -> Result<prevv::RunResult, prevv::RunError> {
        let mut cfg = PrevvConfig::with_depth(job.depth);
        cfg.timing = seeded_timing(job.seed);
        prevv::run_kernel_with(
            spec,
            Controller::Prevv(cfg),
            &prevv::SynthOptions::default(),
            &sim_config,
        )
    };
    let results = if args.threads == 0 {
        sweep::run(&jobs, worker)
    } else {
        sweep::run_with_threads(&jobs, args.threads, worker)
    };

    println!(
        "sweep: {} point(s) ({} depth(s) x {} seed(s))",
        jobs.len(),
        args.depths.len(),
        args.seeds
    );
    println!("depth seed cycles transfers stalls squashes golden");
    let mut failures = 0usize;
    for (job, res) in jobs.iter().zip(&results) {
        match res {
            Ok(r) => {
                if !r.matches_golden {
                    failures += 1;
                }
                println!(
                    "{:>5} {:>4} {:>8} {:>9} {:>8} {:>8} {}",
                    job.depth,
                    job.seed,
                    r.report.cycles,
                    r.report.transfers,
                    r.report.stall_cycles,
                    r.report.squashes,
                    r.matches_golden
                );
            }
            Err(e) => {
                failures += 1;
                println!("{:>5} {:>4} error: {e}", job.depth, job.seed);
            }
        }
    }
    if failures > 0 {
        eprintln!("sweep: {failures} point(s) failed");
        std::process::exit(3);
    }
    std::process::exit(0);
}

/// Derives the i-th kernel seed from the base fuzz seed (splitmix64 mix —
/// adjacent base seeds give unrelated streams).
fn kernel_seed(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `--fuzz N`: generate N kernels, run each through the differential
/// oracle, shrink and dump a `.pvk` reproducer on the first failure. With
/// `--corpus-out DIR`, also write every kernel and a digest manifest (the
/// pinned-corpus (re)generation path).
fn run_fuzz(count: usize, args: &Args) -> ! {
    use prevv::diffcheck::{check_kernel, DiffOptions};
    use prevv::kernels::gen;

    let opts = DiffOptions::default();
    // Corpus kernels stay small so the offline replay test is cheap.
    let cfg = if args.corpus_out.is_some() {
        gen::GenConfig::corpus()
    } else {
        gen::GenConfig::default()
    };
    println!(
        "fuzz: {count} kernel(s) from seed {:#x} ({} profile)",
        args.fuzz_seed,
        if args.corpus_out.is_some() {
            "corpus"
        } else {
            "default"
        }
    );
    // The oracle catches panics itself; silence the default hook so a
    // caught panic does not spray a backtrace per probe.
    std::panic::set_hook(Box::new(|_| {}));
    let mut manifest = String::new();
    for i in 0..count {
        let seed = kernel_seed(args.fuzz_seed, i as u64);
        let spec = gen::generate(seed, &cfg);
        let verdict = check_kernel(&spec, &opts);
        if !verdict.passed() {
            fail_and_shrink(&spec, seed, &verdict, &opts, args);
        }
        if let Some(dir) = &args.corpus_out {
            let file = format!("gen_{i:02}.pvk");
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(format!("{dir}/{file}"), prevv::ir::pretty::render(&spec))
            }) {
                eprintln!("cannot write corpus kernel {file}: {e}");
                std::process::exit(1);
            }
            for (backend, digest) in &verdict.digests {
                manifest.push_str(&format!("{file}\t{backend}\t{digest:#018x}\n"));
            }
        }
        if (i + 1) % 25 == 0 || i + 1 == count {
            eprintln!("fuzz: {}/{count} ok", i + 1);
        }
    }
    let _ = std::panic::take_hook();
    if let Some(dir) = &args.corpus_out {
        if let Err(e) = std::fs::write(format!("{dir}/digests.tsv"), manifest) {
            eprintln!("cannot write digest manifest: {e}");
            std::process::exit(1);
        }
        println!("fuzz: corpus written to {dir}");
    }
    println!("fuzz: {count}/{count} kernel(s) passed the differential oracle");
    std::process::exit(0);
}

/// Prints the verdict, greedily shrinks the kernel while the same failure
/// kind reproduces, writes the minimal `.pvk`, and exits nonzero.
fn fail_and_shrink(
    spec: &prevv::KernelSpec,
    seed: u64,
    verdict: &prevv::diffcheck::KernelVerdict,
    opts: &prevv::diffcheck::DiffOptions,
    args: &Args,
) -> ! {
    use prevv::diffcheck::check_kernel;
    use prevv::kernels::gen;

    eprintln!("fuzz: kernel seed {seed:#x} (`{}`) FAILED:", verdict.name);
    for f in &verdict.failures {
        eprintln!("  {f}");
    }
    let kind = verdict.failures[0].kind.clone();
    eprintln!("fuzz: shrinking against {kind:?} (budget 200 oracle runs)…");
    let small = gen::shrink_to_fixpoint(spec, 200, |c| {
        check_kernel(c, opts)
            .failures
            .iter()
            .any(|f| f.kind == kind)
    });
    let _ = std::panic::take_hook();
    let text = prevv::ir::pretty::render(&small);
    if let Some(parent) = std::path::Path::new(&args.repro).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&args.repro, &text) {
        Ok(()) => eprintln!("fuzz: minimal reproducer written to {}", args.repro),
        Err(e) => eprintln!("fuzz: cannot write reproducer {}: {e}", args.repro),
    }
    eprintln!("--- reproducer ---\n{text}");
    std::process::exit(3);
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.fuzz {
        run_fuzz(n, &args);
    }
    let kpath = args.path.clone().unwrap_or_else(|| usage());
    let source = match std::fs::read_to_string(&kpath) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {kpath}: {e}");
            std::process::exit(1);
        }
    };
    let name = std::path::Path::new(&kpath)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("kernel");
    let spec = match prevv::ir::parse::parse_kernel(name, &source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}", e.render(&kpath, &source));
            std::process::exit(1);
        }
    };
    println!("parsed `{name}`:\n{}", prevv::ir::pretty::render(&spec));

    // The PreVV controller runs at the kernel's own `depth_q`, when the
    // source records one.
    let controller = match args.controller.clone() {
        Controller::Prevv(cfg) => Controller::Prevv(cfg.for_kernel(&spec)),
        other => other,
    };
    // Other controllers are analyzed against the default PreVV
    // configuration, without the PreVV-only throughput model.
    let (cfg, is_prevv) = match &controller {
        Controller::Prevv(cfg) => (cfg.clone(), true),
        _ => (PrevvConfig::default(), false),
    };

    // Static analysis before simulating, through the analyzer's one driver:
    // the kernel lints, the circuit lints (PV1xx) against the controller
    // about to be attached, the PV4xx throughput prediction (only PreVV has
    // a static model) and, with --protocol, the PV2xx bounded model check
    // of the abstract premature-queue / arbiter / squash protocol. Print
    // the findings and refuse on any error (run `prevv-lint` for JSON).
    let opts = prevv::AnalyzeOptions {
        perf: is_prevv.then(|| prevv::analyze::PerfOptions {
            config: cfg.clone(),
        }),
        protocol: args
            .protocol
            .then(|| prevv::analyze::ProtocolOptions::for_config(&cfg)),
        ..prevv::AnalyzeOptions::for_config(&cfg)
    };
    let circuit = prevv::CircuitOptions {
        controller: controller.circuit_model(),
    };
    let analysis = prevv::analyze::lint_kernel(&spec, &opts, Some(&circuit));
    if let Some(result) = &analysis.protocol {
        println!(
            "protocol: explored {} abstract state(s), horizon {} iteration(s){}",
            result.states,
            result.bound,
            if result.complete { "" } else { " (truncated)" }
        );
        // Deterministic reduction stats on stdout (stable for CI diffs);
        // wall-clock throughput on stderr where run-to-run jitter cannot
        // churn diffs.
        println!(
            "protocol: {} of {} transition(s) explored after reduction (ratio {:.4}), \
             {} pair(s) validated, {} discharged symbolically",
            result.stats.transitions,
            result.stats.enabled,
            result.stats.reduction_ratio(),
            result.stats.validated,
            result.stats.pairs.discharged,
        );
        eprintln!("protocol: {:.0} states/s", result.stats.states_per_sec());
    }
    if analysis.report.is_empty() {
        println!("lint: clean\n");
    } else {
        println!("{}", analysis.report.render(&kpath, Some(&source)));
    }
    if analysis.report.has_errors() {
        eprintln!("refusing to simulate: static analysis reported errors");
        std::process::exit(1);
    }

    // Batched mode: grid over PreVV depths and RAM-timing seeds, sharded
    // across cores; prints the result table and exits.
    if args.sweep {
        run_sweep(&spec, &args);
    }

    let mut synth = match analysis.synth.expect("the circuit pass synthesizes") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            std::process::exit(1);
        }
    };
    let deps = &synth.deps;
    println!(
        "{} memory ops/iteration, {} ambiguous pair(s) ({} bypassed), {} iterations\n",
        spec.mem_ops_per_iter(),
        deps.pairs.len(),
        synth.bypassed.len(),
        spec.iteration_count()
    );

    // Watch memory-port channels if a VCD was requested.
    let watch: Vec<_> = synth
        .interface
        .ports
        .iter()
        .flat_map(|p| {
            let mut v = vec![p.addr_in];
            v.extend(p.data_out);
            v
        })
        .collect();

    let design = controller
        .area_kind()
        .map(|k| prevv::area::estimate(&synth, k));
    let attached = controller.attach(&mut synth).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    if let Some(path) = &args.dot {
        if let Err(e) = std::fs::write(path, viz::to_dot(&synth.netlist)) {
            eprintln!("cannot write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    }

    let mut sim = match Simulator::new(synth.netlist, synth.bus) {
        Ok(s) => s.with_config(SimConfig {
            scheduler: args.scheduler,
            ..SimConfig::default()
        }),
        Err(e) => {
            eprintln!("invalid netlist: {e}");
            std::process::exit(1);
        }
    };
    if args.vcd.is_some() {
        sim.attach_recorder(TraceRecorder::new(watch));
    }
    let report = match sim.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };

    let run = attached.finish(&spec, &synth.interface, report);
    let report = &run.report;

    println!("controller: {}", run.controller);
    // `SimReport::replayed_iters` always reads 0; the PreVV controller
    // counts the iterations each squash replays.
    let shown = SimReport {
        replayed_iters: run
            .prevv
            .map_or(report.replayed_iters, |p| p.replayed_iters),
        ..report.clone()
    };
    println!("simulation: {shown}");
    if let Some(summary) = &analysis.perf {
        // Cycles against cycles: both include pipeline fill, whereas the
        // predicted II is steady-state only.
        println!(
            "throughput: measured {} cycles over {} iterations vs predicted ≈{:.0} cycles \
             (predicted II {:.2}, sound bound {:.2}, binding resource {})",
            report.cycles,
            summary.iterations,
            summary.predicted_cycles,
            summary.predicted_ii,
            summary.ii_bound,
            summary.binding_resource,
        );
        if let Some(d) = prevv::analyze::check_measured(summary, report.cycles) {
            let mut r = prevv::analyze::diag::Report::default();
            r.push(d);
            println!("{}", r.render(&kpath, Some(&source)));
        }
    }
    if args.stats && !report.stalled_channels.is_empty() {
        println!("most-stalled channels (top {TOP_STALLED}):");
        let net = sim.netlist();
        let ends = net.channel_endpoints();
        let name = |nodes: &[prevv::dataflow::NodeId]| {
            nodes
                .first()
                .map_or_else(|| "<open>".to_string(), |&n| net.display_name(n))
        };
        for (ch, stalls) in report.top_stalled(TOP_STALLED) {
            println!(
                "  c{:<4} {:>7} stall-cycle(s)  {} -> {}",
                ch.index(),
                stalls,
                name(&ends.producers[ch.index()]),
                name(&ends.consumers[ch.index()])
            );
        }
    }
    if let Some(d) = design {
        println!(
            "estimated:  {} @ CP {:.2} ns → {:.2} µs",
            d.total(),
            d.clock_period_ns,
            report.cycles as f64 * d.clock_period_ns / 1000.0
        );
    }
    println!("result matches golden model: {}", run.matches_golden);
    for (decl, arr) in spec.arrays.iter().zip(&run.arrays) {
        let preview: Vec<i64> = arr.iter().take(12).copied().collect();
        println!(
            "  {}[{}] = {preview:?}{}",
            decl.name,
            decl.len,
            if arr.len() > 12 { " …" } else { "" }
        );
    }

    if let Some(path) = &args.vcd {
        let rec = sim.take_recorder().expect("attached");
        if let Err(e) = std::fs::write(path, to_vcd(&rec, name)) {
            eprintln!("cannot write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    }
    if !run.matches_golden {
        std::process::exit(3);
    }
}
