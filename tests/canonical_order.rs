//! The canonical-order contract between the golden interpreter and the
//! static op enumeration.
//!
//! PV005's dead-store replay and the model checker take an access's op id
//! straight from `MemEvent::seq`, and the checker feeds recorded operand
//! values to `Expr::eval` in the order it asks for them. Both rest on two
//! facts checked here over the `.pvk` files (stock, negative fixtures,
//! corpus), the paper kernels and generated kernels:
//!
//! - every `golden::execute` event's `seq` is the `depend::enumerate_ops`
//!   id of an op with the same kind and array (and, for an affine index,
//!   the same address);
//! - `Expr::eval` requests loads in `Expr::loads()` order, each with the
//!   raw index its own index expression evaluates to.

use std::path::Path;

use prevv::dataflow::Value;
use prevv::ir::depend::enumerate_ops;
use prevv::ir::{golden, ArrayId, Expr, KernelSpec};
use prevv::kernels::{gen, paper};

/// A deterministic stand-in for memory contents, so index loads feed
/// distinguishable values into the expressions above them.
fn fake_load(array: ArrayId, raw: Value) -> Value {
    raw.wrapping_mul(31).wrapping_add(array.0 as Value * 7 + 3) % 64
}

fn assert_eval_follows_loads(name: &str, e: &Expr, row: &[Value]) {
    let mut requested = Vec::new();
    e.eval(row, &mut |a, raw| {
        requested.push((a, raw));
        fake_load(a, raw)
    });
    let expected: Vec<(ArrayId, Value)> = e
        .loads()
        .into_iter()
        .map(|(a, idx)| (a, idx.eval(row, &mut fake_load)))
        .collect();
    assert_eq!(
        requested, expected,
        "{name}: `{e}` requests loads out of `Expr::loads()` order"
    );
}

fn assert_canonical_order(spec: &KernelSpec) {
    let name = &spec.name;
    let ops = enumerate_ops(spec);
    let space: Vec<_> = spec.iterations().collect();
    let result = golden::execute(spec);
    for ev in &result.trace {
        let op = ops
            .get(ev.seq as usize)
            .unwrap_or_else(|| panic!("{name}: event seq {} has no static op", ev.seq));
        assert_eq!(op.id, ev.seq as usize, "{name}: op ids are dense");
        assert_eq!(
            (op.kind, op.array),
            (ev.kind, ev.array),
            "{name}: event {ev:?} disagrees with op {}",
            op.id
        );
        if !op.index.is_runtime_dependent() {
            let row = &space[ev.iter as usize];
            let addr = spec.resolve_index(op.array, op.index.eval_affine(row));
            assert_eq!(addr, ev.index, "{name}: event {ev:?} at the wrong address");
        }
    }
    for row in space.iter().take(8) {
        for stmt in &spec.body {
            assert_eval_follows_loads(name, &stmt.index, row);
            assert_eval_follows_loads(name, &stmt.value, row);
        }
    }
}

fn parseable_files(dir: &str) -> Vec<KernelSpec> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pvk"))
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| {
            let source = std::fs::read_to_string(p).expect("readable kernel file");
            let name = p.file_stem().expect("file stem").to_string_lossy();
            prevv::ir::parse::parse_kernel(&name, &source).ok()
        })
        .collect()
}

#[test]
fn kernel_files_follow_the_canonical_order() {
    let mut checked = 0;
    for dir in ["kernels", "kernels/bad", "tests/fuzz_corpus"] {
        for spec in parseable_files(dir) {
            assert_canonical_order(&spec);
            checked += 1;
        }
    }
    assert!(checked >= 45, "only {checked} kernel files parsed");
}

#[test]
fn paper_kernels_follow_the_canonical_order() {
    for spec in paper::all_default() {
        assert_canonical_order(&spec);
    }
}

#[test]
fn generated_kernels_follow_the_canonical_order() {
    for seed in 0..64 {
        assert_canonical_order(&gen::generate(seed, &gen::GenConfig::default()));
        assert_canonical_order(&gen::generate(seed, &gen::GenConfig::corpus()));
    }
}
