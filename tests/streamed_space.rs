//! The iteration space is streamed, never materialized.
//!
//! Synthesis, simulation, the golden check and every analysis pull rows
//! from one lazy enumerator, and the iteration source keeps only the rows a
//! squash can still replay. So a tool's cost follows its horizon (the
//! checker's explored prefix, the simulator's cycle budget, the in-flight
//! window), not the trip count, and trip counts are counted exactly and
//! checked for overflow.

use prevv::analyze::Code;
use prevv::analyze::{lint_text, PerfOptions, ProtocolOptions};
use prevv::dataflow::SquashBus;
use prevv::ir::parse::parse_kernel;
use prevv::kernels::extra;
use prevv::{
    run_kernel_with, AnalyzeOptions, CircuitOptions, Controller, KernelSpec, PrevvConfig, RunError,
    Severity, SimConfig, SimError, Simulator, SynthOptions,
};

/// `int a[16]; for (i < 10⁹) { a[i % 16] += 5; }`: materializing its
/// iteration space would take about 56 GB.
const BILLION: &str = "int a[16];
for (int i = 0; i < 1000000000; ++i) {
  a[i % 16] += 5;
}
";

/// A triangular nest of 4,999,950,000 iterations over 10⁵ outer steps.
const TRIANGLE: &str = "int a[16];
for (int i = 0; i < 100000; ++i) {
  for (int j = i + 1; j < 100000; ++j) {
    a[j % 16] += i;
  }
}
";

/// A triangular nest whose inner range is empty for every outer value from
/// 4 on: 10 iterations over 10¹¹ outer values.
const EMPTY_TAIL: &str = "int a[16];
for (int i = 0; i < 100000000000; ++i) {
  for (int j = i; j < 4; ++j) {
    a[j] += 1;
  }
}
";

/// Two levels of 10¹⁰: 10²⁰ iterations overflow a 64-bit count.
const OVERFLOW: &str = "int a[16];
for (int i = 0; i < 10000000000; ++i) {
  for (int j = 0; j < 10000000000; ++j) {
    a[j % 16] += 1;
  }
}
";

fn every_pass() -> AnalyzeOptions {
    AnalyzeOptions {
        protocol: Some(ProtocolOptions::default()),
        perf: Some(PerfOptions::default()),
        ..AnalyzeOptions::default()
    }
}

fn codes(source: &str, opts: &AnalyzeOptions, circuit: Option<&CircuitOptions>) -> Vec<Code> {
    let analysis = lint_text("k", source, opts, circuit);
    analysis.report.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn a_billion_iterations_lint_with_every_pass() {
    let analysis = lint_text(
        "billion",
        BILLION,
        &every_pass(),
        Some(&CircuitOptions::default()),
    );
    let report = &analysis.report;
    assert_eq!(report.count(Severity::Error), 0, "{report:?}");
    let mut found: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
    found.sort_by_key(|c| c.as_str());
    // The verdicts of the same kernel at any trip count: the throughput
    // note and its backpressure warning, the checker's horizon note, the
    // separation note.
    assert_eq!(
        found,
        vec![
            Code::ProtocolBound,
            Code::SeparationHorizon,
            Code::ThroughputBound,
            Code::SlacklessCycle,
        ],
        "{report:?}"
    );
    let protocol = analysis.protocol.expect("the checker ran");
    assert_eq!(protocol.bound, 4, "the default horizon, not the trip count");
    let perf = analysis.perf.expect("the perf pass ran");
    assert_eq!(perf.iterations, 1_000_000_000);
}

#[test]
fn a_billion_iterations_simulate_to_the_cycle_budget() {
    let spec = parse_kernel("billion", BILLION).expect("parses");
    let sim = SimConfig {
        max_cycles: 10_000,
        ..SimConfig::default()
    };
    for controller in [
        Controller::Prevv(PrevvConfig::prevv16()),
        Controller::FastLsq { depth: 16 },
    ] {
        let name = controller.name();
        let r = run_kernel_with(&spec, controller, &SynthOptions::default(), &sim);
        assert!(
            matches!(r, Err(RunError::Sim(SimError::Timeout { .. }))),
            "{name}: {r:?}"
        );
    }
}

#[test]
fn triangular_trip_counts_are_exact_and_cheap() {
    let spec = parse_kernel("triangle", TRIANGLE).expect("parses");
    assert_eq!(spec.iteration_count(), 4_999_950_000);
    // The default lint counts the nest about a dozen times; stepping every
    // point each time ran for minutes.
    let found = codes(TRIANGLE, &AnalyzeOptions::default(), None);
    assert!(!found.contains(&Code::Parse), "{found:?}");
}

#[test]
fn empty_inner_ranges_are_jumped_over_not_stepped() {
    let spec = parse_kernel("empty_tail", EMPTY_TAIL).expect("parses");
    assert_eq!(spec.iteration_count(), 10);
    // Stepping the 10¹¹ outer values (as validation, the lints and the
    // iteration source once did) would run for minutes.
    let analysis = lint_text(
        "empty_tail",
        EMPTY_TAIL,
        &every_pass(),
        Some(&CircuitOptions::default()),
    );
    assert_eq!(
        analysis.report.count(Severity::Error),
        0,
        "{:?}",
        analysis.report
    );
    assert_eq!(analysis.perf.expect("the perf pass ran").iterations, 10);
    let r = run_kernel_with(
        &spec,
        Controller::Prevv(PrevvConfig::prevv16()),
        &SynthOptions::default(),
        &SimConfig::default(),
    )
    .expect("runs");
    assert!(r.matches_golden);
    assert_eq!(r.arrays[0][..5], [1, 2, 3, 4, 0]);
}

#[test]
fn an_overflowing_trip_count_is_rejected_before_any_pass() {
    let analysis = lint_text(
        "overflow",
        OVERFLOW,
        &every_pass(),
        Some(&CircuitOptions::default()),
    );
    let found: Vec<Code> = analysis.report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(found, vec![Code::Parse], "{:?}", analysis.report);
    assert!(
        analysis.report.diagnostics[0]
            .message
            .contains("trip count"),
        "{:?}",
        analysis.report
    );
    assert!(!found.contains(&Code::OccupancyBound));
}

/// Paper Fig. 2(a) over `n` iterations, every `b[i]` zero: each iteration
/// updates `a[0]`, and PreVV squashes before its predictor learns the race.
fn fig2a(n: i64) -> KernelSpec {
    extra::fig2a(n, vec![0; n as usize])
}

/// The most rows the iteration source held while `controller` ran `spec`,
/// and the number of squashes it replayed.
fn window_high_water(spec: &KernelSpec, controller: &Controller) -> (usize, u64) {
    let mut synth = prevv::ir::synthesize(spec).expect("synthesizes");
    let bus: SquashBus = synth.bus.clone();
    let attached = controller.attach(&mut synth).expect("attaches");
    let mut sim = Simulator::new(synth.netlist, synth.bus).expect("valid netlist");
    let report = sim.run().expect("completes");
    let run = attached.finish(spec, &synth.interface, report);
    // Direct has no disambiguation: it mis-executes this RAW by design.
    let checked = !matches!(controller, Controller::Direct);
    assert!(
        run.matches_golden || !checked,
        "{}: wrong memory",
        controller.name()
    );
    (bus.window_high_water(), run.report.squashes)
}

#[test]
fn the_replay_window_does_not_grow_with_the_trip_count() {
    let (short, long) = (fig2a(2_000), fig2a(20_000));
    for controller in [
        Controller::Direct,
        Controller::Dynamatic { depth: 16 },
        Controller::FastLsq { depth: 16 },
        Controller::SpecLsq { depth: 16 },
        Controller::Prevv(PrevvConfig::prevv16()),
    ] {
        let name = controller.name();
        let (at_short, _) = window_high_water(&short, &controller);
        let (at_long, squashes) = window_high_water(&long, &controller);
        assert_eq!(at_short, at_long, "{name}: the window grew with n");
        if matches!(controller, Controller::Prevv(_)) {
            // Rows from the frontier up stay replayable, and replays happen.
            assert!(
                at_long > 1 && squashes > 0,
                "{name}: {at_long} rows, {squashes} squashes"
            );
        } else {
            // A controller that never squashes lets the source keep only
            // the row it is issuing.
            assert_eq!(at_long, 1, "{name}");
        }
    }
}
