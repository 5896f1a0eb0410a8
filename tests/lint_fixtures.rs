//! Fixture tests for the static analyzer: the `kernels/bad/` sources must
//! produce exactly the advertised diagnostic codes (kernel-level PV0xx and
//! circuit-level PV1xx alike), the stock paper kernels must lint clean of
//! errors, and the PV004 arbiter bypass must be active (and correct) on a
//! real paper kernel — with the symbolic dependence engine alone proving
//! every bypassed pair.

use std::path::PathBuf;

use prevv::analyze::{self, AnalyzeOptions, Code, ControllerModel, Severity};
use prevv::ir::parse::parse_kernel;
use prevv::ir::symdep::{classify_accesses, PairClass};
use prevv::{
    run_kernel, run_kernel_with, CircuitOptions, Controller, PrevvConfig, SimConfig, SynthOptions,
};

fn read_fixture(rel: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("fixture has a stem")
        .to_string();
    (name, source)
}

#[test]
fn out_of_bounds_fixture_is_pv001_and_refused_by_synthesis() {
    let (name, source) = read_fixture("kernels/bad/oob.pvk");
    let report = analyze::lint_source(&name, &source, &AnalyzeOptions::default());
    assert!(report.has_errors());
    let d = report.with_code(Code::OutOfBounds);
    assert_eq!(d.len(), 1, "exactly one PV001: {:?}", report.diagnostics);
    assert_eq!(d[0].severity, Severity::Error);

    // Checked synthesis refuses the kernel with the PV001 report attached.
    let spec = parse_kernel(&name, &source).expect("parses");
    match analyze::synthesize(&spec) {
        Err(analyze::AnalyzeError::Rejected(r)) => {
            assert!(!r.with_code(Code::OutOfBounds).is_empty());
        }
        other => panic!("expected PV001 rejection, got {other:?}"),
    }
}

#[test]
fn undeclared_array_fixture_is_pv000() {
    let (name, source) = read_fixture("kernels/bad/undeclared.pvk");
    assert!(parse_kernel(&name, &source).is_err());
    let report = analyze::lint_source(&name, &source, &AnalyzeOptions::default());
    assert!(report.has_errors());
    let d = report.with_code(Code::Parse);
    assert_eq!(d.len(), 1, "exactly one PV000: {:?}", report.diagnostics);
    assert!(d[0].span.is_some(), "parse errors carry their offset");
}

#[test]
fn guarded_fixture_is_pv002_note_normally_and_error_without_fake_tokens() {
    let (name, source) = read_fixture("kernels/bad/guarded_nofake.pvk");
    let normal = analyze::lint_source(&name, &source, &AnalyzeOptions::default());
    assert!(!normal.has_errors(), "fake tokens make the shape safe");
    assert_eq!(normal.with_code(Code::DeadlockRisk).len(), 1);
    assert_eq!(
        normal.with_code(Code::DeadlockRisk)[0].severity,
        Severity::Note
    );

    let no_fakes = analyze::lint_source(
        &name,
        &source,
        &AnalyzeOptions {
            fake_tokens: false,
            ..AnalyzeOptions::default()
        },
    );
    assert!(no_fakes.has_errors(), "prevv-lint exits nonzero here");
    assert_eq!(
        no_fakes.with_code(Code::DeadlockRisk)[0].severity,
        Severity::Error
    );
}

#[test]
fn stock_guarded_kernel_emits_the_pv002_note() {
    let (name, source) = read_fixture("kernels/guarded.pvk");
    let report = analyze::lint_source(&name, &source, &AnalyzeOptions::default());
    assert!(!report.has_errors());
    let d = report.with_code(Code::DeadlockRisk);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].severity, Severity::Note);
}

#[test]
fn all_stock_kernels_lint_clean_of_errors() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("kernels");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("kernels dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("pvk") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("readable");
        let name = path.file_stem().and_then(|s| s.to_str()).expect("stem");
        let report = analyze::lint_source(name, &source, &AnalyzeOptions::default());
        assert!(
            !report.has_errors(),
            "{name} must lint clean of errors:\n{}",
            report.render(name, Some(&source))
        );
        checked += 1;
    }
    assert!(
        checked >= 5,
        "expected the five stock kernels, saw {checked}"
    );
}

#[test]
fn every_fixture_diagnostic_is_emittable_as_json() {
    for rel in [
        "kernels/bad/oob.pvk",
        "kernels/bad/undeclared.pvk",
        "kernels/bad/guarded_nofake.pvk",
        "kernels/guarded.pvk",
        "kernels/fig2a.pvk",
    ] {
        let (name, source) = read_fixture(rel);
        let report = analyze::lint_source(
            &name,
            &source,
            &AnalyzeOptions {
                fake_tokens: false,
                ..AnalyzeOptions::default()
            },
        );
        let json = report.to_json(Some(&source));
        assert!(json.starts_with('{') && json.ends_with('}'));
        for d in &report.diagnostics {
            let dj = d.to_json(Some(&source));
            assert!(
                json.contains(&dj),
                "report JSON embeds every diagnostic's JSON"
            );
            assert!(dj.contains(&format!("\"code\":\"{}\"", d.code)));
            assert!(dj.contains(&format!("\"severity\":\"{}\"", d.severity)));
        }
    }
}

#[test]
fn combinational_loop_fixture_is_pv103_under_direct_memory_only() {
    let (name, source) = read_fixture("kernels/bad/combinational_loop.pvk");

    // Against a combinational direct memory, the load→store value path
    // closes a zero-slack handshake cycle: exactly one PV103, as an error.
    let direct = analyze::lint_source_with_circuit(
        &name,
        &source,
        &AnalyzeOptions::default(),
        &CircuitOptions {
            controller: ControllerModel::Direct,
        },
    );
    assert!(direct.has_errors());
    let d = direct.with_code(Code::UnbufferedCycle);
    assert_eq!(d.len(), 1, "exactly one PV103: {:?}", direct.diagnostics);
    assert_eq!(d[0].severity, Severity::Error);

    // A queued controller has elastic slots on the same cycle, so the
    // identical netlist lints clean under the default (premature-queue)
    // controller model.
    let queued = analyze::lint_source_with_circuit(
        &name,
        &source,
        &AnalyzeOptions::default(),
        &CircuitOptions::default(),
    );
    assert!(
        !queued.has_errors(),
        "queued controller breaks the cycle:\n{}",
        queued.render(&name, Some(&source))
    );

    // Checked synthesis refuses the kernel when the target memory model is
    // combinational, with PV103 in the rejection report.
    let spec = parse_kernel(&name, &source).expect("parses");
    let opts = AnalyzeOptions {
        circuit_controller: Some(ControllerModel::Direct),
        ..AnalyzeOptions::default()
    };
    match analyze::synthesize_with(&spec, &SynthOptions::default(), &opts) {
        Err(analyze::AnalyzeError::Rejected(r)) => {
            assert!(!r.with_code(Code::UnbufferedCycle).is_empty());
        }
        other => panic!("expected PV103 rejection, got {other:?}"),
    }
}

#[test]
fn undersized_queue_fixture_is_pv104_and_refused_by_synthesis() {
    let (name, source) = read_fixture("kernels/bad/undersized_queue.pvk");

    // 17 memory ops per iteration against the default capacity of 16:
    // PV104 fires as an error, anchored to the offending statement.
    let report = analyze::lint_source_with_circuit(
        &name,
        &source,
        &AnalyzeOptions::default(),
        &CircuitOptions::default(),
    );
    assert!(report.has_errors());
    let d = report.with_code(Code::FrontierCapacity);
    assert_eq!(d.len(), 1, "exactly one PV104: {:?}", report.diagnostics);
    assert_eq!(d[0].severity, Severity::Error);
    assert!(d[0].span.is_some(), "PV104 points at the statement");

    // With the kernel-level depth raised past the op count, PV003 no longer
    // masks the circuit check: an explicitly undersized controller model is
    // refused on PV104 alone.
    let spec = parse_kernel(&name, &source).expect("parses");
    let opts = AnalyzeOptions {
        depth: 32,
        circuit_controller: Some(ControllerModel::Queue { capacity: 16 }),
        ..AnalyzeOptions::default()
    };
    match analyze::synthesize_with(&spec, &SynthOptions::default(), &opts) {
        Err(analyze::AnalyzeError::Rejected(r)) => {
            assert!(r.with_code(Code::QueueDepth).is_empty(), "PV003 passes");
            assert!(!r.with_code(Code::FrontierCapacity).is_empty());
        }
        other => panic!("expected PV104 rejection, got {other:?}"),
    }
}

/// Negative fixtures for the circuit pass: every stock kernel's synthesized
/// netlist is free of PV1xx findings under the default controller model.
#[test]
fn all_stock_kernels_are_circuit_clean() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("kernels");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("kernels dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("pvk") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("readable");
        let name = path.file_stem().and_then(|s| s.to_str()).expect("stem");
        let report = analyze::lint_source_with_circuit(
            name,
            &source,
            &AnalyzeOptions::default(),
            &CircuitOptions::default(),
        );
        let circuit_findings: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code.as_str().starts_with("PV1"))
            .collect();
        assert!(
            circuit_findings.is_empty(),
            "{name} must be free of PV1xx findings: {circuit_findings:?}"
        );
        checked += 1;
    }
    assert!(
        checked >= 5,
        "expected the five stock kernels, saw {checked}"
    );
}

/// Acceptance: fig2a's three affine `b` pairs are provably disjoint, the
/// arbiter is bypassed for them at synthesis, and the bypassed circuit
/// still matches the golden interpreter (with the runtime-dependent `a`
/// pair still validated).
#[test]
fn fig2a_simulates_with_bypassed_arbiter_and_matches_golden() {
    let (name, source) = read_fixture("kernels/fig2a.pvk");
    let spec = parse_kernel(&name, &source).expect("parses");

    let bypassing = prevv::ir::synthesize(&spec).expect("synthesizes");
    assert_eq!(bypassing.bypassed.len(), 3, "three affine b-pairs bypassed");
    assert_eq!(
        bypassing.interface.pairs.len(),
        bypassing.deps.pairs.len() - 3,
        "the validated set shrinks by the bypassed pairs"
    );

    let run = run_kernel(&spec, Controller::Prevv(PrevvConfig::prevv16())).expect("runs");
    assert!(run.matches_golden, "bypassed arbiter still matches golden");

    // The conservative circuit (bypass disabled) agrees, so the bypass is
    // an optimization, not a behavior change.
    let conservative = run_kernel_with(
        &spec,
        Controller::Prevv(PrevvConfig::prevv16()),
        &SynthOptions {
            bypass_safe_pairs: false,
            ..SynthOptions::default()
        },
        &SimConfig::default(),
    )
    .expect("runs");
    assert!(conservative.matches_golden);
    assert_eq!(run.arrays, conservative.arrays);
}

/// The `kernels/bad/replay_livelock.pvk` fixture: with forwarding disabled
/// the same-address `a[0]` accumulation squashes and replays iteration 1
/// forever — PV202, pinned down to the code, severity, span text, and
/// counterexample size. The default configuration (forwarding on) is clean.
#[test]
fn replay_livelock_fixture_is_pv202_with_short_counterexample() {
    let (name, source) = read_fixture("kernels/bad/replay_livelock.pvk");
    let spec = parse_kernel(&name, &source).expect("parses");

    let opts = analyze::ProtocolOptions::for_config(&PrevvConfig {
        forwarding: false,
        ..PrevvConfig::default()
    });
    let result = analyze::check_protocol(&spec, &opts).expect("checks");
    assert!(result.report.has_errors());
    let d = result.report.with_code(Code::SquashLivelock);
    assert_eq!(d.len(), 1, "exactly one PV202: {:?}", result.report);
    assert_eq!(d[0].severity, Severity::Error);
    let span = d[0].span.expect("PV202 is span-annotated");
    assert_eq!(
        &source[span.start..span.end],
        "a[0]",
        "anchored at the livelocking load"
    );

    let cex = result
        .counterexamples
        .iter()
        .find(|c| c.code == Code::SquashLivelock)
        .expect("PV202 carries a counterexample");
    assert!(
        !cex.events.is_empty() && cex.events.len() <= 25,
        "minimal lasso, got {} events",
        cex.events.len()
    );
    assert!(cex.cycle_from.is_some(), "a livelock trace is a lasso");
    let outcome = analyze::replay_counterexample(&spec, &opts, cex).expect("replays");
    assert!(outcome.cycle_closed, "the lasso re-closes under replay");

    // Forwarding (the default) lets the replayed load take the resident
    // store's value: the identical kernel proves clean.
    let default_opts = analyze::ProtocolOptions::for_config(&PrevvConfig::default());
    let clean = analyze::check_protocol(&spec, &default_opts).expect("checks");
    assert!(
        !clean.report.has_errors(),
        "forwarding resolves the livelock:\n{}",
        clean.report.render(&name, Some(&source))
    );
}

/// The `kernels/bad/queue_too_small_mc.pvk` fixture: a 3-op stencil against
/// a depth-2 premature queue wedges on admission — PV203, pinned down to
/// the code, severity, span text, and counterexample size; the trace
/// replays to a genuinely stuck state. One extra slot resolves it.
#[test]
fn queue_too_small_fixture_is_pv203_with_short_counterexample() {
    let (name, source) = read_fixture("kernels/bad/queue_too_small_mc.pvk");
    let spec = parse_kernel(&name, &source).expect("parses");

    let opts = analyze::ProtocolOptions::for_config(&PrevvConfig {
        depth: 2,
        ..PrevvConfig::default()
    });
    let result = analyze::check_protocol(&spec, &opts).expect("checks");
    assert!(result.report.has_errors());
    let d = result.report.with_code(Code::QueueWedge);
    assert_eq!(d.len(), 1, "exactly one PV203: {:?}", result.report);
    assert_eq!(d[0].severity, Severity::Error);
    let span = d[0].span.expect("PV203 is span-annotated");
    assert_eq!(
        &source[span.start..span.end],
        "a[i]",
        "anchored at the unadmittable op"
    );

    let cex = result
        .counterexamples
        .iter()
        .find(|c| c.code == Code::QueueWedge)
        .expect("PV203 carries a counterexample");
    assert!(
        !cex.events.is_empty() && cex.events.len() <= 25,
        "minimal wedge trace, got {} events",
        cex.events.len()
    );
    let outcome = analyze::replay_counterexample(&spec, &opts, cex).expect("replays");
    assert!(outcome.deadlock, "the trace ends in a stuck state");
    assert!(outcome.admission_blocked, "stuck specifically on admission");

    // The static per-iteration bound (PV003) agrees with the reachability
    // result here, and depth 3 resolves both.
    let static_report = analyze::lint_source(
        &name,
        &source,
        &AnalyzeOptions {
            depth: 2,
            ..AnalyzeOptions::default()
        },
    );
    assert!(!static_report.with_code(Code::QueueDepth).is_empty());
    let deeper = analyze::ProtocolOptions::for_config(&PrevvConfig {
        depth: 3,
        ..PrevvConfig::default()
    });
    let clean = analyze::check_protocol(&spec, &deeper).expect("checks");
    assert!(
        !clean.report.has_errors(),
        "depth 3 admits the full iteration:\n{}",
        clean.report.render(&name, Some(&source))
    );
}

/// The `kernels/bad/deep_wedge.pvk` fixture: a distance-2 cross-iteration
/// hazard whose squash livelock (forwarding off) is only reachable once
/// three iterations are in flight together. Proof the horizon moved: the
/// old 2-iteration default proves it "clean"; the deeper default finds the
/// PV202 lasso — pinned to code, severity, and trace length.
#[test]
fn deep_wedge_fixture_fails_only_at_the_deeper_horizon() {
    let (name, source) = read_fixture("kernels/bad/deep_wedge.pvk");
    let spec = parse_kernel(&name, &source).expect("parses");

    let no_forwarding = PrevvConfig {
        forwarding: false,
        ..PrevvConfig::default()
    };

    // The old default horizon (2 iterations) never sees the colliding
    // iterations in flight together: falsely clean.
    let shallow = analyze::ProtocolOptions {
        iterations: 2,
        ..analyze::ProtocolOptions::for_config(&no_forwarding)
    };
    let clean = analyze::check_protocol(&spec, &shallow).expect("checks");
    assert!(
        !clean.report.has_errors(),
        "a 2-iteration horizon cannot reach the wedge:\n{}",
        clean.report.render(&name, Some(&source))
    );

    // The new default horizon (>= 3 iterations deep) reaches it.
    let opts = analyze::ProtocolOptions::for_config(&no_forwarding);
    let result = analyze::check_protocol(&spec, &opts).expect("checks");
    assert!(result.report.has_errors());
    let d = result.report.with_code(Code::SquashLivelock);
    assert_eq!(d.len(), 1, "exactly one PV202: {:?}", result.report);
    assert_eq!(d[0].severity, Severity::Error);
    assert!(d[0].span.is_some(), "PV202 is span-annotated");

    let cex = result
        .counterexamples
        .iter()
        .find(|c| c.code == Code::SquashLivelock)
        .expect("PV202 carries a counterexample");
    assert!(
        !cex.events.is_empty() && cex.events.len() <= 40,
        "bounded lasso, got {} events",
        cex.events.len()
    );
    assert!(cex.cycle_from.is_some(), "a livelock trace is a lasso");
    let outcome = analyze::replay_counterexample(&spec, &opts, cex).expect("replays");
    assert!(outcome.cycle_closed, "the lasso re-closes under replay");

    // Forwarding (the default config) hands the premature load the resident
    // store's value instead of squashing: the identical kernel is clean
    // even at the deep horizon.
    let defaults = analyze::ProtocolOptions::for_config(&PrevvConfig::default());
    let forwarded = analyze::check_protocol(&spec, &defaults).expect("checks");
    assert!(
        !forwarded.report.has_errors(),
        "forwarding resolves the wedge:\n{}",
        forwarded.report.render(&name, Some(&source))
    );
}

/// The checker renders event text only for the traces it emits: every
/// event of every counterexample over the `kernels/bad/` fixtures — PV201,
/// PV202 and PV203 lassos and prefixes alike — must carry its description,
/// and each trace's rendering must list every event.
#[test]
fn every_emitted_counterexample_event_is_described() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("kernels/bad");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("fixture directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".pvk"))
        .collect();
    files.sort();
    let mut codes = Vec::new();
    for file in &files {
        let (name, source) = read_fixture(&format!("kernels/bad/{file}"));
        // The circuit-sizing fixture's wide body spans ~65k states per
        // configuration and carries no protocol violation.
        if name == "undersized_queue" {
            continue;
        }
        let Ok(spec) = parse_kernel(&name, &source) else {
            continue;
        };
        for (depth, forwarding, fake_tokens) in [
            (16, true, true),
            (16, false, true),
            (16, true, false),
            (2, true, true),
        ] {
            // Three iterations reach every fixture's violation (deep_wedge
            // needs them all) at a fraction of the default horizon's cost.
            let opts = analyze::ProtocolOptions {
                fake_tokens,
                iterations: 3,
                ..analyze::ProtocolOptions::for_config(&PrevvConfig {
                    depth,
                    forwarding,
                    ..PrevvConfig::default()
                })
            };
            let Ok(result) = analyze::check_protocol(&spec, &opts) else {
                continue;
            };
            for cex in &result.counterexamples {
                codes.push(cex.code);
                let rendered = cex.render();
                for (i, e) in cex.events.iter().enumerate() {
                    assert!(
                        !e.desc.is_empty(),
                        "{name}: {:?} event {} has no description",
                        cex.code,
                        i + 1
                    );
                    assert!(rendered.contains(&e.desc), "{name}: {rendered}");
                }
            }
        }
    }
    for code in [
        Code::ProtocolDeadlock,
        Code::SquashLivelock,
        Code::QueueWedge,
    ] {
        assert!(
            codes.contains(&code),
            "no {code:?} trace among the fixtures"
        );
    }
}

/// The symbolic GCD/Banerjee fast path alone proves every pair that
/// brute-force enumeration proves on fig2a: all three affine `b` pairs are
/// classified same-iteration-only (their collisions are program-order
/// protected), and the runtime-dependent `a` pair stays unproven.
#[test]
fn fig2a_affine_pairs_are_proven_by_the_symbolic_engine_alone() {
    let (name, source) = read_fixture("kernels/fig2a.pvk");
    let spec = parse_kernel(&name, &source).expect("parses");
    let deps = prevv::ir::depend::analyze(&spec);

    let mut affine = 0;
    let mut runtime = 0;
    for pair in &deps.pairs {
        let load = &deps.ops[pair.load];
        let store = &deps.ops[pair.store];
        if load.index.is_runtime_dependent() || store.index.is_runtime_dependent() {
            runtime += 1;
            continue;
        }
        affine += 1;
        assert_eq!(
            classify_accesses(&spec, &load.index, &store.index, load.array),
            PairClass::SameIterationOnly,
            "symbolic engine must prove the affine pair (load {} / store {})",
            pair.load,
            pair.store,
        );
    }
    assert_eq!(affine, 3, "fig2a has three affine b-pairs");
    assert_eq!(runtime, 1, "and one runtime-dependent a-pair");
}

/// The `kernels/bad/throughput_cliff.pvk` fixture: a perfectly parallel
/// stream kernel (three loads + one store per iteration, no hazards) whose
/// premature queue becomes the binding resource once undersized. At
/// `--depth 4` PV402 fires naming the queue with the §V-A matched-sizing
/// recommendation; at the default depth the PV4xx pass is clean. The cliff
/// is real: simulating at depth 4 costs over 1.5× the depth-16 cycles
/// while staying deadlock- and squash-free, so nothing but the queue's
/// serialization explains the loss.
#[test]
fn throughput_cliff_fixture_is_pv402_with_a_real_cliff() {
    let (name, source) = read_fixture("kernels/bad/throughput_cliff.pvk");

    let shallow_perf = analyze::PerfOptions {
        config: PrevvConfig::with_depth(4),
    };
    let (report, summary) = analyze::lint_source_with_perf(
        &name,
        &source,
        &AnalyzeOptions::default(),
        None,
        &shallow_perf,
    );
    let summary = summary.expect("perf pass produces a summary");
    let d = report.with_code(Code::QueueBound);
    assert_eq!(d.len(), 1, "exactly one PV402: {:?}", report.diagnostics);
    assert_eq!(d[0].severity, Severity::Warning);
    assert!(
        d[0].message.contains("premature-queue") && d[0].message.contains("depth 4"),
        "PV402 names the premature queue and its depth: {}",
        d[0].message
    );
    let help = d[0].help.as_deref().expect("PV402 carries sizing help");
    assert!(
        help.contains("depth_q") && help.contains('8'),
        "help recommends the §V-A matched depth: {help}"
    );
    assert_eq!(summary.recommended_depth, Some(8));
    let sugg = d[0]
        .suggestion
        .as_ref()
        .expect("the depth_q directive makes the resize machine-applicable");
    assert_eq!(sugg.replacement, "depth_q = 8;");
    assert!(
        summary.predicted_ii >= 2.0 * summary.ii_bound - 1e-9,
        "queue serialization ({:.2}) dominates the datapath bound ({:.2})",
        summary.predicted_ii,
        summary.ii_bound
    );

    // Without the in-source directive (which pins the undersized depth 4
    // and overrides any configured default), the default depth absorbs the
    // stream: no PV402, no recommendation.
    let undirected: String = source
        .lines()
        .filter(|l| !l.trim_start().starts_with("depth_q"))
        .collect::<Vec<_>>()
        .join("\n");
    let (clean_report, clean_summary) = analyze::lint_source_with_perf(
        &name,
        &undirected,
        &AnalyzeOptions::default(),
        None,
        &analyze::PerfOptions::default(),
    );
    assert!(clean_report.with_code(Code::QueueBound).is_empty());
    assert_eq!(clean_summary.expect("summary").recommended_depth, None);

    // The predicted cliff exists in simulation, without deadlocking.
    let spec = parse_kernel(&name, &source).expect("parses");
    let shallow = run_kernel(&spec, Controller::Prevv(PrevvConfig::with_depth(4)))
        .expect("depth 4 throttles but never deadlocks");
    let deep = run_kernel(&spec, Controller::Prevv(PrevvConfig::prevv16())).expect("runs");
    assert!(shallow.matches_golden && deep.matches_golden);
    assert!(
        shallow.squash_log.is_empty() && deep.squash_log.is_empty(),
        "the slowdown is pure queue serialization, not replay"
    );
    assert!(
        shallow.report.cycles as f64 > 1.5 * deep.report.cycles as f64,
        "undersizing the queue must cost >1.5x the cycles ({} vs {})",
        shallow.report.cycles,
        deep.report.cycles
    );
}

/// The `kernels/bad/infeasible_guard.pvk` fixture: the interval domain
/// proves `i < 0` false on every iteration of `0 <= i < 8`, so PV501 names
/// the dead statement with a machine-applicable removal — and the patched
/// source must re-lint free of PV501 (`--fix` is a fixpoint, not a loop).
#[test]
fn infeasible_guard_fixture_is_pv501_with_a_removal_fix() {
    let (name, source) = read_fixture("kernels/bad/infeasible_guard.pvk");
    let report = analyze::lint_source(&name, &source, &AnalyzeOptions::default());
    assert!(!report.has_errors(), "PV501 is a warning, not an error");

    let d = report.with_code(Code::InfeasibleGuard);
    assert_eq!(d.len(), 1, "exactly one PV501: {:?}", report.diagnostics);
    assert_eq!(d[0].severity, Severity::Warning);
    let span = d[0].span.expect("PV501 points at the dead statement");
    assert_eq!(&source[span.start..span.end], "if (i < 0) a[i] = 1;");

    let sugg = d[0]
        .suggestion
        .as_ref()
        .expect("a multi-statement kernel makes the removal machine-applicable");
    assert!(sugg.replacement.is_empty(), "the fix deletes the statement");

    // Applying the fix leaves a valid kernel that is clean of PV501.
    let mut fixed = source.clone();
    fixed.replace_range(sugg.span.start..sugg.span.end, &sugg.replacement);
    let refixed = analyze::lint_source(&name, &fixed, &AnalyzeOptions::default());
    assert!(
        refixed.with_code(Code::Parse).is_empty(),
        "fix must re-parse"
    );
    assert!(
        refixed.with_code(Code::InfeasibleGuard).is_empty(),
        "the fix discharges PV501: {:?}",
        refixed.diagnostics
    );
}

/// The `kernels/bad/range_oob.pvk` fixture: the store address `a[b[i]]` is
/// runtime-indirect, so the affine PV001 check is blind — but `b` is
/// store-free and its initializer puts 9 in range, past the end of `a[4]`,
/// so the value analysis proves the violation where the dependence engine
/// alone could only shrug.
#[test]
fn range_oob_fixture_is_pv500_where_pv001_is_blind() {
    let (name, source) = read_fixture("kernels/bad/range_oob.pvk");
    let report = analyze::lint_source(&name, &source, &AnalyzeOptions::default());

    assert!(
        report.with_code(Code::OutOfBounds).is_empty(),
        "the affine PV001 check must be blind to the indirect index"
    );
    let d = report.with_code(Code::RangeOutOfBounds);
    assert_eq!(d.len(), 1, "exactly one PV500: {:?}", report.diagnostics);
    assert_eq!(d[0].severity, Severity::Warning);
    assert!(
        d[0].message.contains('9') && d[0].message.contains("length 4"),
        "PV500 names the witness index and the array bound: {}",
        d[0].message
    );
    assert!(d[0].span.is_some(), "PV500 points at the offending store");
}
