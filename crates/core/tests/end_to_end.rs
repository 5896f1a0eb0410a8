//! End-to-end differential tests: synthesized circuits with the PreVV
//! controller must reproduce the golden (sequential C) semantics on every
//! hazard pattern the paper discusses — and deadlock exactly when the paper
//! says they would (§V-C without fake tokens).

use prevv_core::{PrevvConfig, PrevvMemory, PrevvStats};
use prevv_dataflow::components::{BinOp, LoopLevel};
use prevv_dataflow::{SimConfig, SimError, SimReport, Simulator};
use prevv_ir::{
    golden, synthesize_with, ArrayDecl, ArrayId, Expr, KernelSpec, OpaqueFn, Stmt, SynthOptions,
};

#[derive(Debug)]
struct RunOutcome {
    arrays: Vec<Vec<i64>>,
    report: SimReport,
    stats: PrevvStats,
}

fn run_prevv(spec: &KernelSpec, config: PrevvConfig) -> RunOutcome {
    run_prevv_with(spec, config, &SynthOptions::default()).expect("simulation completes")
}

fn run_prevv_with(
    spec: &KernelSpec,
    config: PrevvConfig,
    opts: &SynthOptions,
) -> Result<RunOutcome, SimError> {
    let mut s = synthesize_with(spec, opts).expect("synthesizes");
    let (ctrl, ram, stats) =
        PrevvMemory::new(s.interface.clone(), config, s.bus.clone()).expect("queue deep enough");
    s.netlist.add("prevv", ctrl);
    let mut sim = Simulator::new(s.netlist, s.bus)?.with_config(SimConfig {
        max_cycles: 2_000_000,
        watchdog: 2_000,
        ..SimConfig::default()
    });
    let report = sim.run()?;
    let ram = ram.borrow();
    let arrays = s
        .interface
        .split_ram(ram.image())
        .into_iter()
        .map(<[i64]>::to_vec)
        .collect();
    let stats = *stats.borrow();
    Ok(RunOutcome {
        arrays,
        report,
        stats,
    })
}

fn assert_matches_golden(spec: &KernelSpec, out: &RunOutcome) {
    let gold = golden::execute(spec);
    for (i, decl) in spec.arrays.iter().enumerate() {
        assert_eq!(
            out.arrays[i], gold.arrays[i],
            "array `{}` of kernel `{}` diverged from golden",
            decl.name, spec.name
        );
    }
}

/// Paper Fig. 2(a): sequential-update RAW.
fn fig2a(n: i64) -> KernelSpec {
    let a = ArrayId(0);
    let b = ArrayId(1);
    KernelSpec::new(
        "fig2a",
        vec![LoopLevel::upto(n)],
        vec![
            ArrayDecl::zeroed("a", 2 * n as usize),
            ArrayDecl::with_values("b", (0..n).map(|i| i % 5).collect()),
        ],
        vec![
            // a[b[i]] += 7
            Stmt::store(
                a,
                Expr::load(b, Expr::var(0)),
                Expr::load(a, Expr::load(b, Expr::var(0))).add(Expr::lit(7)),
            ),
            // b[i] += 3
            Stmt::store(
                b,
                Expr::var(0),
                Expr::load(b, Expr::var(0)).add(Expr::lit(3)),
            ),
        ],
    )
    .expect("valid kernel")
}

/// Paper Fig. 2(b): function-dependent RAW with runtime-only indices.
fn fig2b(n: i64, range: i64) -> KernelSpec {
    let a = ArrayId(0);
    let b = ArrayId(1);
    let f = OpaqueFn::new(101, range);
    let g = OpaqueFn::new(202, range);
    let a_idx = Expr::load(b, Expr::var(0)).add(Expr::var(0).opaque(f));
    let b_idx = Expr::var(0).add(Expr::var(0).opaque(g));
    KernelSpec::new(
        "fig2b",
        vec![LoopLevel::upto(n)],
        vec![
            ArrayDecl::zeroed("a", (2 * range) as usize),
            ArrayDecl::with_values("b", (0..n).map(|i| i % range).collect()),
        ],
        vec![
            Stmt::store(a, a_idx.clone(), Expr::load(a, a_idx).add(Expr::lit(1))),
            Stmt::store(b, b_idx.clone(), Expr::load(b, b_idx).add(Expr::lit(2))),
        ],
    )
    .expect("valid kernel")
}

/// Worst-case hazard: every iteration updates the same cell.
fn serial_reduction(n: i64) -> KernelSpec {
    let s = ArrayId(0);
    KernelSpec::new(
        "reduce",
        vec![LoopLevel::upto(n)],
        vec![ArrayDecl::zeroed("s", 4)],
        vec![Stmt::store(
            s,
            Expr::lit(0),
            Expr::load(s, Expr::lit(0)).add(Expr::var(0)),
        )],
    )
    .expect("valid kernel")
}

/// Histogram with controllable collision rate (smaller `bins` = more RAW).
fn histogram(n: i64, bins: i64) -> KernelSpec {
    let h = ArrayId(0);
    let idx = Expr::var(0).opaque(OpaqueFn::new(31, bins));
    KernelSpec::new(
        "histogram",
        vec![LoopLevel::upto(n)],
        vec![ArrayDecl::zeroed("h", bins as usize)],
        vec![Stmt::store(
            h,
            idx.clone(),
            Expr::load(h, idx).add(Expr::lit(1)),
        )],
    )
    .expect("valid kernel")
}

/// The §V-C shape: a guarded update that would starve the arbiter.
fn guarded(n: i64) -> KernelSpec {
    let a = ArrayId(0);
    KernelSpec::new(
        "guarded",
        vec![LoopLevel::upto(n)],
        vec![ArrayDecl::zeroed("a", 8)],
        vec![Stmt::guarded(
            a,
            Expr::lit(3),
            Expr::load(a, Expr::lit(3)).add(Expr::lit(1)),
            Expr::bin(
                BinOp::Eq,
                Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(3)),
                Expr::lit(0),
            ),
        )],
    )
    .expect("valid kernel")
}

#[test]
fn fig2a_matches_golden() {
    let spec = fig2a(24);
    let out = run_prevv(&spec, PrevvConfig::prevv16());
    assert_matches_golden(&spec, &out);
}

#[test]
fn fig2b_matches_golden_and_exercises_validation() {
    let spec = fig2b(32, 6);
    let out = run_prevv(&spec, PrevvConfig::prevv16());
    assert_matches_golden(&spec, &out);
    assert!(out.stats.validations > 0, "ambiguous ops must be validated");
}

#[test]
fn serial_reduction_squashes_and_recovers() {
    let spec = serial_reduction(48);
    let out = run_prevv(&spec, PrevvConfig::prevv16());
    assert_matches_golden(&spec, &out);
    assert!(
        out.stats.squashes > 0,
        "every iteration conflicts; premature execution must mis-speculate at least once"
    );
    assert_eq!(out.report.squashes, out.stats.squashes);
}

#[test]
fn dense_histogram_is_correct_under_heavy_collisions() {
    let spec = histogram(96, 4);
    let out = run_prevv(&spec, PrevvConfig::prevv16());
    assert_matches_golden(&spec, &out);
    let total: i64 = out.arrays[0].iter().sum();
    assert_eq!(total, 96);
}

#[test]
fn sparse_histogram_rarely_squashes() {
    let sparse = histogram(64, 512);
    let dense = histogram(64, 2);
    let out_sparse = run_prevv(&sparse, PrevvConfig::prevv16());
    let out_dense = run_prevv(&dense, PrevvConfig::prevv16());
    assert_matches_golden(&sparse, &out_sparse);
    assert_matches_golden(&dense, &out_dense);
    assert!(
        out_sparse.stats.squashes <= out_dense.stats.squashes,
        "collision rate should drive the squash rate: sparse {} vs dense {}",
        out_sparse.stats.squashes,
        out_dense.stats.squashes
    );
}

#[test]
fn guarded_kernel_completes_with_fake_tokens() {
    let spec = guarded(24);
    let out = run_prevv(&spec, PrevvConfig::prevv16());
    assert_matches_golden(&spec, &out);
    assert!(
        out.stats.fakes > 0,
        "untaken guards must deliver fake tokens"
    );
}

#[test]
fn guarded_kernel_deadlocks_without_fake_tokens() {
    // The paper's §V-C deadlock: with a small queue and no fake tokens, the
    // arbiter waits forever for arrivals of untaken iterations and the full
    // queue stalls the pipeline.
    let spec = guarded(64);
    let opts = SynthOptions { fake_tokens: false };
    let err = run_prevv_with(&spec, PrevvConfig::with_depth(4), &opts)
        .expect_err("must deadlock without fake tokens");
    assert!(
        matches!(err, SimError::Deadlock { .. }),
        "expected deadlock, got {err}"
    );
}

/// Adjacent-producer chain engineered so the store arrives *before* the
/// consuming load completes and stays uncommitted for a while:
/// `a[i] = i + 1` (fast store), `b[i] = a[i*1 - 1]` (slow load address via a
/// multiplier), and `c[i] = ((i*i)*i)*i` (a deep multiplier chain that delays
/// iteration completion, holding the frontier — and thus commits — back).
fn adjacent_chain(n: i64) -> KernelSpec {
    let a = ArrayId(0);
    let b = ArrayId(1);
    let c = ArrayId(2);
    KernelSpec::new(
        "chain",
        vec![LoopLevel::upto(n)],
        vec![
            ArrayDecl::zeroed("a", n as usize),
            ArrayDecl::zeroed("b", n as usize),
            ArrayDecl::zeroed("c", n as usize),
        ],
        vec![
            Stmt::store(a, Expr::var(0), Expr::var(0).add(Expr::lit(1))),
            Stmt::store(
                b,
                Expr::var(0),
                Expr::load(a, Expr::var(0).mul(Expr::lit(1)).sub(Expr::lit(1))),
            ),
            Stmt::store(
                c,
                Expr::var(0),
                Expr::var(0)
                    .mul(Expr::var(0))
                    .mul(Expr::var(0))
                    .mul(Expr::var(0)),
            ),
        ],
    )
    .expect("valid kernel")
}

#[test]
fn forwarding_mode_reduces_squashes_on_adjacent_chain() {
    let spec = adjacent_chain(48);
    let mut plain_cfg = PrevvConfig::prevv16();
    plain_cfg.forwarding = false;
    let plain = run_prevv(&spec, plain_cfg);
    assert_matches_golden(&spec, &plain);
    let fwd = run_prevv(&spec, PrevvConfig::prevv16());
    assert_matches_golden(&spec, &fwd);
    assert!(
        fwd.stats.squashes <= plain.stats.squashes,
        "forwarding must not squash more: {} vs {}",
        fwd.stats.squashes,
        plain.stats.squashes
    );
    assert!(
        fwd.stats.forwards > 0 || plain.stats.squashes == 0,
        "on this chain forwarding should trigger whenever plain mode squashes          (plain squashes: {}, forwards: {})",
        plain.stats.squashes,
        fwd.stats.forwards
    );
}

#[test]
fn pure_squash_mode_stays_correct_on_the_reduction() {
    let spec = serial_reduction(48);
    let mut cfg = PrevvConfig::prevv16();
    cfg.forwarding = false;
    let out = run_prevv(&spec, cfg);
    assert_matches_golden(&spec, &out);
    assert!(
        out.stats.squashes > 0,
        "without bypass every reuse squashes"
    );
}

#[test]
fn tiny_queue_is_correct_but_stalls() {
    let spec = fig2a(24);
    let small = run_prevv(&spec, PrevvConfig::with_depth(6));
    let large = run_prevv(&spec, PrevvConfig::prevv64());
    assert_matches_golden(&spec, &small);
    assert_matches_golden(&spec, &large);
    assert!(
        small.stats.queue_high_water <= 6,
        "queue must respect depth_q"
    );
    assert!(
        large.report.cycles <= small.report.cycles,
        "deeper premature queue must not be slower: {} vs {}",
        large.report.cycles,
        small.report.cycles
    );
}

#[test]
fn two_level_accumulation_matches_golden() {
    // 2mm-style: c[i*4+j] accumulated over k — the ambiguous pattern of the
    // paper's matrix kernels.
    let c = ArrayId(0);
    let spec = KernelSpec::new(
        "accum2",
        vec![LoopLevel::upto(4), LoopLevel::upto(4), LoopLevel::upto(4)],
        vec![ArrayDecl::zeroed("c", 16)],
        vec![Stmt::store(
            c,
            Expr::var(0).mul(Expr::lit(4)).add(Expr::var(1)),
            Expr::load(c, Expr::var(0).mul(Expr::lit(4)).add(Expr::var(1)))
                .add(Expr::var(2).mul(Expr::lit(3))),
        )],
    )
    .expect("valid");
    let out = run_prevv(&spec, PrevvConfig::prevv16());
    assert_matches_golden(&spec, &out);
}

#[test]
fn prevv_beats_or_matches_nothing_but_stays_correct_on_triangular() {
    use prevv_dataflow::components::Bound;
    let a = ArrayId(0);
    let spec = KernelSpec::new(
        "tri",
        vec![
            LoopLevel::upto(6),
            LoopLevel::new(Bound::OuterPlus(0, 0), Bound::Const(6)),
        ],
        vec![ArrayDecl::zeroed("a", 36)],
        vec![Stmt::store(
            a,
            Expr::var(0).mul(Expr::lit(6)).add(Expr::var(1)),
            Expr::load(a, Expr::var(1).mul(Expr::lit(6)).add(Expr::var(0))).add(Expr::lit(1)),
        )],
    )
    .expect("valid");
    let out = run_prevv(&spec, PrevvConfig::prevv16());
    assert_matches_golden(&spec, &out);
}

#[test]
fn replay_statistics_are_consistent() {
    let spec = serial_reduction(40);
    let out = run_prevv(&spec, PrevvConfig::prevv16());
    if out.stats.squashes > 0 {
        assert!(
            out.stats.replayed_iters >= out.stats.squashes,
            "each squash replays at least one iteration"
        );
    }
    assert!(out.stats.ram_writes >= 40, "every iteration stores once");
}
