//! Consumer agreement: every reader of a pair's verdict sees the same one.
//!
//! `prevv::ir::depend::analyze` decides each ambiguous load/store pair once.
//! Synthesis validates `Dependences::validated` and bypasses the rest, PV301
//! reports exactly the bypassed pairs, and the model checker's pair counts
//! partition the conservative
//! set. This suite checks that on every parseable kernel file (stock, bad
//! and the pinned fuzz corpus), on the paper kernels at twice their default
//! size, and on the first 200 kernels of the `runkernel --fuzz 200 --seed
//! 0xPREVV` gate.

use std::collections::BTreeSet;
use std::path::Path;

use prevv::analyze::{self, AnalyzeOptions, Code, ProtocolOptions};
use prevv::ir::depend::{self, AmbiguousPair, Proof};
use prevv::ir::parse::parse_kernel;
use prevv::ir::KernelSpec;
use prevv::kernels::{gen, paper};

/// `runkernel --seed`'s hash of a non-numeric seed string (FNV-1a).
fn hash_seed(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `runkernel --fuzz`'s i-th kernel seed (splitmix64 mix of the base).
fn kernel_seed(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parseable_files(dir: &str) -> Vec<KernelSpec> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pvk"))
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| {
            let name = p.file_stem()?.to_string_lossy().into_owned();
            let source = std::fs::read_to_string(p).ok()?;
            parse_kernel(&name, &source).ok()
        })
        .collect()
}

/// Where PV301 anchors a pair: the load's span, else the store's, with the
/// array and the value-invariant reason its message names. Notes with equal
/// anchor, array and reason are one diagnostic after
/// `Report::normalize`, so the expected count is the number of distinct
/// anchors.
fn anchor(
    spec: &KernelSpec,
    deps: &depend::Dependences,
    pair: AmbiguousPair,
    proof: Option<Proof>,
) -> (Option<(usize, usize)>, usize, Option<&'static str>) {
    let span = |id: usize| {
        let op = &deps.ops[id];
        let first = deps
            .ops
            .iter()
            .position(|o| o.stmt == op.stmt)
            .expect("own statement");
        spec.body[op.stmt].op_span(id - first)
    };
    let span = span(pair.load).or(span(pair.store));
    let reason = match proof {
        Some(Proof::Invariant(reason)) => Some(reason.describe()),
        _ => None,
    };
    (
        span.map(|s| (s.start, s.end)),
        deps.ops[pair.load].array.0,
        reason,
    )
}

fn assert_consumers_agree(spec: &KernelSpec) {
    let name = &spec.name;
    let deps = depend::analyze(spec);
    let proved: Vec<(AmbiguousPair, Option<Proof>)> = deps
        .pairs
        .iter()
        .zip(&deps.verdicts)
        .filter(|(_, v)| v.proof().is_some())
        .map(|(&p, v)| (p, v.proof()))
        .collect();

    let synth = prevv::ir::synthesize(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
    let bypassed: Vec<AmbiguousPair> = proved.iter().map(|&(p, _)| p).collect();
    assert_eq!(synth.bypassed, bypassed, "{name}: synthesis bypass");
    let validated: Vec<AmbiguousPair> = deps.validated().map(|(p, _)| p).collect();
    assert_eq!(synth.interface.pairs, validated, "{name}: validated set");
    assert_eq!(
        synth.deps, deps,
        "{name}: synthesis reads the same verdicts"
    );

    let anchors: BTreeSet<_> = proved
        .iter()
        .map(|&(p, v)| anchor(spec, &deps, p, v))
        .collect();
    let report = analyze::analyze(spec, &AnalyzeOptions::default());
    assert_eq!(
        report.with_code(Code::ProvenDisjoint).len(),
        anchors.len(),
        "{name}: PV301 notes vs proved pairs {proved:?}"
    );

    // One iteration of horizon is enough: the counts are fixed before the
    // search starts.
    let opts = ProtocolOptions {
        iterations: 1,
        ..ProtocolOptions::default()
    };
    let stats = analyze::check_protocol(spec, &opts)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .stats
        .pairs;
    assert_eq!(stats.conservative, deps.pairs.len(), "{name}");
    assert_eq!(
        stats.conservative,
        stats.discharged + stats.must_alias + stats.residual,
        "{name}: {stats:?}"
    );
    assert!(stats.discharged >= proved.len(), "{name}: {stats:?}");
}

#[test]
fn kernel_files_agree_across_consumers() {
    let mut checked = 0;
    for dir in ["kernels", "kernels/bad", "tests/fuzz_corpus"] {
        for spec in parseable_files(dir) {
            assert_consumers_agree(&spec);
            checked += 1;
        }
    }
    assert!(checked >= 40, "only {checked} kernel files parsed");
}

#[test]
fn paper_kernels_at_twice_default_size_agree_across_consumers() {
    use paper::default_sizes::{GAUSSIAN, MM, POLY, TRIANGULAR};
    for spec in [
        paper::polyn_mult(POLY * 2),
        paper::mm2(MM * 2),
        paper::mm3(MM * 2),
        paper::gaussian(GAUSSIAN * 2),
        paper::triangular(TRIANGULAR * 2),
    ] {
        assert_consumers_agree(&spec);
    }
}

#[test]
fn fuzz_gate_kernels_agree_across_consumers() {
    let base = hash_seed("0xPREVV");
    for i in 0..200 {
        assert_consumers_agree(&gen::generate(
            kernel_seed(base, i),
            &gen::GenConfig::default(),
        ));
    }
}
