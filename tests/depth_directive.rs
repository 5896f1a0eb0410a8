//! A kernel's `depth_q = N;` directive reaches every analysis pass.
//!
//! The analysis driver (`prevv_analyze::lint_kernel`) is run with every
//! pass on — kernel lints, the circuit pass against the premature queue,
//! the perf model and the protocol checker — once with the default depth 16
//! in the options and once with the file's own depth. The directive must
//! win in both runs, so the report, the `PerfSummary` and the checker's
//! exploration counts are identical. The simulated controller reads the
//! same resolver (`PrevvConfig::for_kernel`).

use std::path::Path;

use prevv::analyze::{
    check_protocol, lint_kernel, Analysis, AnalyzeOptions, CircuitOptions, Code, ControllerModel,
    PerfOptions, ProtocolOptions,
};
use prevv::{Controller, KernelSpec, PrevvConfig};

fn parse(file: &str) -> KernelSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let name = path
        .file_stem()
        .expect("stem")
        .to_string_lossy()
        .into_owned();
    prevv::ir::parse::parse_kernel(&name, &source).expect("parses")
}

/// Every pass on, configured for a PreVV queue of `depth`.
fn analyze_at(spec: &KernelSpec, depth: usize) -> Analysis {
    let cfg = PrevvConfig::with_depth(depth);
    let opts = AnalyzeOptions {
        perf: Some(PerfOptions {
            config: cfg.clone(),
        }),
        protocol: Some(ProtocolOptions::for_config(&cfg)),
        ..AnalyzeOptions::for_config(&cfg)
    };
    let circuit = CircuitOptions {
        controller: ControllerModel::Queue { capacity: depth },
    };
    lint_kernel(spec, &opts, Some(&circuit))
}

/// The report, the perf summary and the checker's counts, as text.
fn fingerprint(a: &Analysis) -> (String, String, (usize, u64, u64, bool)) {
    let report = a
        .report
        .diagnostics
        .iter()
        .map(|d| format!("{d:?}\n"))
        .collect();
    let perf = format!("{:?}", a.perf.as_ref().expect("perf pass ran"));
    let s = &a.protocol.as_ref().expect("protocol pass ran").stats;
    (
        report,
        perf,
        (s.states, s.transitions, s.enabled, s.truncated_by_budget),
    )
}

/// Runs `file` at depth 16 and at `own_depth` (its directive) and returns
/// the analysis, after checking both agree.
fn same_analysis_at_either_depth(file: &str, own_depth: usize) -> (KernelSpec, Analysis) {
    let spec = parse(file);
    assert_eq!(
        PrevvConfig::prevv16().for_kernel(&spec).depth,
        own_depth,
        "{file}: the resolver reads the directive"
    );
    let own = analyze_at(&spec, own_depth);
    let default = analyze_at(&spec, 16);
    assert!(
        matches!(own.synth, Some(Ok(_))),
        "{file}: the driver synthesizes"
    );
    assert_eq!(
        fingerprint(&default),
        fingerprint(&own),
        "{file}: a depth-16 run must analyze at the directive's depth"
    );
    (spec, own)
}

/// The checker's state count at an explicit queue depth, bypassing the
/// driver (and so the directive).
fn states_at(spec: &KernelSpec, depth: usize) -> usize {
    let popts = ProtocolOptions::for_config(&PrevvConfig::with_depth(depth));
    check_protocol(spec, &popts)
        .expect("checker runs")
        .stats
        .states
}

#[test]
fn throughput_cliff_is_analyzed_and_run_at_depth_4() {
    let (spec, a) = same_analysis_at_either_depth("kernels/bad/throughput_cliff.pvk", 4);
    // The perf and circuit passes saw the 4-slot queue, not 16 slots.
    assert!(
        !a.report.with_code(Code::QueueBound).is_empty(),
        "PV402 names the undersized queue"
    );
    assert!(!a.report.with_code(Code::FrontierCapacity).is_empty());
    // So did the checker: depth 4 explores a different space than 16.
    let states = a.protocol.as_ref().expect("ran").stats.states;
    assert_eq!(states, states_at(&spec, 4));
    assert_ne!(states, states_at(&spec, 16));
    // And the controller `runkernel` attaches for `--controller prevv16`.
    let controller = Controller::Prevv(PrevvConfig::prevv16().for_kernel(&spec));
    assert_eq!(controller.name(), "PreVV4");
}

#[test]
fn gen_19_is_analyzed_at_depth_32() {
    let (spec, a) = same_analysis_at_either_depth("tests/fuzz_corpus/gen_19.pvk", 32);
    let states = a.protocol.as_ref().expect("ran").stats.states;
    assert_eq!(states, states_at(&spec, 32));
    assert_ne!(states, states_at(&spec, 16));
}
