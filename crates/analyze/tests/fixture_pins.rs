//! Pins the behavior of the checked-in bad-kernel fixtures, so the divide
//! of labor between the static lints and the runtime simulator stays fixed:
//! `kernels/bad/combinational_loop.pvk` is refused *statically* by PV103
//! under a direct (combinational, capacity-0) controller. It never reaches
//! the simulator's `CombinationalCycle` runtime detector — that path is
//! exercised by hand-built netlists in the dataflow crate's scheduler tests,
//! because no lint-clean kernel synthesizes a value-rewriting unbuffered
//! loop.

use prevv_analyze::{lint_text, AnalyzeOptions, CircuitOptions, Code, ControllerModel, Severity};

fn fixture(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels/bad/");
    std::fs::read_to_string(format!("{path}{name}")).expect("fixture present")
}

#[test]
fn combinational_loop_fixture_is_refused_by_pv103_under_direct_controller() {
    let source = fixture("combinational_loop.pvk");
    let circuit = CircuitOptions {
        controller: ControllerModel::Direct,
    };
    let report = lint_text(
        "combinational_loop.pvk",
        &source,
        &AnalyzeOptions::default(),
        Some(&circuit),
    )
    .report;
    assert!(report.has_errors(), "the fixture must not lint clean");
    let pv103 = report.with_code(Code::UnbufferedCycle);
    assert!(
        !pv103.is_empty(),
        "expected PV103 (unbuffered handshake cycle), got: {}",
        report.render("combinational_loop.pvk", Some(&source))
    );
    assert!(pv103.iter().all(|d| d.severity == Severity::Error));
    // The diagnostic names the cycle through the memory node, so a reader
    // can see *where* the zero-slack loop closes.
    assert!(
        pv103.iter().any(|d| d.message.contains("cycle")),
        "PV103 message should describe the cycle: {:?}",
        pv103.iter().map(|d| &d.message).collect::<Vec<_>>()
    );
}

#[test]
fn combinational_loop_fixture_lints_clean_with_queued_controller() {
    // The same netlist is fine once an elastic (queued) controller breaks
    // the loop — the fixture documents exactly this contrast.
    let source = fixture("combinational_loop.pvk");
    let report = lint_text(
        "combinational_loop.pvk",
        &source,
        &AnalyzeOptions::default(),
        Some(&CircuitOptions::default()),
    )
    .report;
    assert!(
        report.with_code(Code::UnbufferedCycle).is_empty(),
        "queued controller must break the cycle: {}",
        report.render("combinational_loop.pvk", Some(&source))
    );
}
