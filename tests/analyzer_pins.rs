//! Pinned analyzer output.
//!
//! `tests/fuzz_corpus/analyzer_digests.tsv` records, for every stock kernel
//! (`kernels/*.pvk`), every negative fixture (`kernels/bad/*.pvk`) and every
//! corpus kernel (`tests/fuzz_corpus/*.pvk`), two digests:
//!
//! - the `prevv-lint --circuit --perf` pass (`lint_source_with_perf` with
//!   the default options): each diagnostic (code, severity, span, message,
//!   help, suggestion) and the [`PerfSummary`];
//! - a direct `check_protocol` call at the default queue depth 16 on one
//!   thread, whatever `depth_q` directive the file carries: the checker's
//!   diagnostics and its states / transitions / enabled counts. This is
//!   not what `prevv-lint --protocol` checks on a directive kernel — that
//!   runs the checker at the kernel's own depth (e.g. `gen_27` at depth
//!   32: 208,299 states, several seconds in release).
//!
//! Timings and thread counts are excluded, so the digests are exact and
//! deterministic. A refactor that changes any PV0xx–PV5xx finding, any
//! PV4xx prediction, or the model checker's exploration fails here. To
//! re-pin after an intentional change, run
//! `cargo test --test analyzer_pins -- --ignored write_manifest`.
//!
//! The files are checked in four shards so `cargo test` runs them in
//! parallel.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use prevv::analyze::{
    check_protocol, lint_source_with_perf, AnalyzeOptions, CircuitOptions, ControllerModel,
    PerfOptions, ProtocolOptions, Report,
};
use prevv::PrevvConfig;

const MANIFEST: &str = "tests/fuzz_corpus/analyzer_digests.tsv";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every pinned `.pvk` file, as a path relative to the repository root.
fn kernel_files() -> Vec<String> {
    let mut out = Vec::new();
    for dir in ["kernels", "kernels/bad", "tests/fuzz_corpus"] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(root().join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "pvk"))
            .collect();
        files.sort();
        out.extend(files.iter().map(|p| {
            format!(
                "{dir}/{}",
                p.file_name().expect("file name").to_string_lossy()
            )
        }));
    }
    out
}

/// FNV-1a, 64 bit: stable across platforms and releases.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render_report(out: &mut String, report: &Report) {
    for d in &report.diagnostics {
        writeln!(
            out,
            "{} {:?} {:?} {:?} {:?} {:?}",
            d.code, d.severity, d.span, d.message, d.help, d.suggestion
        )
        .expect("write to string");
    }
}

/// Digests of the circuit+perf pass and of the protocol pass for one file,
/// with the options `prevv-lint` uses by default.
fn digests(file: &str) -> (u64, u64) {
    let source =
        std::fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let name = Path::new(file)
        .file_stem()
        .expect("file stem")
        .to_string_lossy()
        .into_owned();
    let opts = AnalyzeOptions::default();
    let circuit = CircuitOptions {
        controller: ControllerModel::Queue {
            capacity: opts.depth,
        },
    };
    let perf = PerfOptions {
        config: PrevvConfig {
            depth: opts.depth,
            pair_reduction: opts.pair_reduction,
            ..PrevvConfig::default()
        },
    };
    let (report, summary) = lint_source_with_perf(&name, &source, &opts, Some(&circuit), &perf);
    let mut lint = String::new();
    render_report(&mut lint, &report);
    writeln!(lint, "{summary:?}").expect("write to string");

    let mut protocol = String::new();
    if let Ok(spec) = prevv::ir::parse::parse_kernel(&name, &source) {
        let mut popts = ProtocolOptions::for_config(&perf.config);
        popts.fake_tokens = opts.fake_tokens;
        match check_protocol(&spec, &popts) {
            Ok(result) => {
                render_report(&mut protocol, &result.report);
                let s = &result.stats;
                writeln!(
                    protocol,
                    "states={} transitions={} enabled={} truncated={}",
                    s.states, s.transitions, s.enabled, s.truncated_by_budget
                )
                .expect("write to string");
            }
            Err(e) => writeln!(protocol, "error: {e}").expect("write to string"),
        }
    }
    (fnv1a(&lint), fnv1a(&protocol))
}

fn manifest() -> BTreeMap<String, (u64, u64)> {
    let text = std::fs::read_to_string(root().join(MANIFEST)).expect("analyzer manifest exists");
    let hex = |s: &str| {
        u64::from_str_radix(s.strip_prefix("0x").expect("0x-prefixed digest"), 16)
            .expect("hex digest")
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 3, "malformed manifest line {line:?}");
            (cols[0].to_string(), (hex(cols[1]), hex(cols[2])))
        })
        .collect()
}

fn check_shard(shard: usize, shards: usize) {
    let manifest = manifest();
    let files = kernel_files();
    let mut sorted: Vec<&String> = files.iter().collect();
    sorted.sort();
    assert_eq!(
        sorted,
        manifest.keys().collect::<Vec<_>>(),
        "the manifest must list exactly the pinned kernel files"
    );
    for file in files.iter().skip(shard).step_by(shards) {
        let (lint, protocol) = digests(file);
        let (want_lint, want_protocol) = manifest[file];
        assert_eq!(
            lint, want_lint,
            "{file}: circuit+perf findings drifted from {MANIFEST}"
        );
        assert_eq!(
            protocol, want_protocol,
            "{file}: protocol findings or exploration drifted from {MANIFEST}"
        );
    }
}

#[test]
fn analyzer_shard_0_is_pinned() {
    check_shard(0, 4);
}

#[test]
fn analyzer_shard_1_is_pinned() {
    check_shard(1, 4);
}

#[test]
fn analyzer_shard_2_is_pinned() {
    check_shard(2, 4);
}

#[test]
fn analyzer_shard_3_is_pinned() {
    check_shard(3, 4);
}

/// Regenerates the manifest from the current analyzer.
#[test]
#[ignore = "rewrites the pinned manifest"]
fn write_manifest() {
    let mut text = String::new();
    for file in kernel_files() {
        let (lint, protocol) = digests(&file);
        writeln!(text, "{file}\t{lint:#018x}\t{protocol:#018x}").expect("write to string");
    }
    std::fs::write(root().join(MANIFEST), text).expect("write manifest");
}
