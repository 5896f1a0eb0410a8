//! The component library holds what synthesis emits and nothing more.
//!
//! `ir::synthesize` is the only netlist builder in the crates, benches,
//! examples and benchmark package, so a component kind it never
//! instantiates is dead code. This test pins the set of `type_name`s that
//! synthesis instantiates over every stock and fuzz-corpus kernel, and
//! checks that every component `prevv_dataflow::components` exports is in
//! that set.

use std::collections::BTreeSet;
use std::path::Path;

use prevv::dataflow::components::{
    BinOp, BinaryAlu, Branch, Buffer, Constant, Fork, IterSource, Sink, UnOp, UnaryAlu,
};
use prevv::dataflow::{ChannelId, Component};
use prevv::ir::parse::parse_kernel;

/// Exports of `components` that are not components.
const NON_COMPONENTS: [&str; 5] = ["BinOp", "UnOp", "Bound", "LoopLevel", "IterSpace"];

/// One instance of every exported component, by exported name.
fn library() -> Vec<(&'static str, Box<dyn Component>)> {
    let ch = ChannelId::from_index;
    vec![
        (
            "BinaryAlu",
            Box::new(BinaryAlu::new(BinOp::Add, ch(0), ch(1), ch(2))),
        ),
        ("UnaryAlu", Box::new(UnaryAlu::new(UnOp::Neg, ch(0), ch(1)))),
        ("Branch", Box::new(Branch::new(ch(0), ch(1), ch(2), ch(3)))),
        ("Constant", Box::new(Constant::new(1, ch(0), ch(1)))),
        ("Fork", Box::new(Fork::new(ch(0), vec![ch(1)]))),
        ("Sink", Box::new(Sink::new(vec![ch(0)]))),
        ("Buffer", Box::new(Buffer::new(1, ch(0), ch(1)))),
        ("IterSource", Box::new(IterSource::new(vec![], vec![ch(0)]))),
    ]
}

/// The capitalized names `components/mod.rs` re-exports.
fn exported_names() -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/dataflow/src/components/mod.rs");
    let source = std::fs::read_to_string(&path).expect("read components/mod.rs");
    let mut names = BTreeSet::new();
    let mut in_use = false;
    for line in source.lines() {
        let line = line.trim();
        in_use |= line.starts_with("pub use ");
        if !in_use {
            continue;
        }
        let items = line.rsplit("::").next().unwrap_or(line);
        for item in items.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if item.starts_with(|c: char| c.is_ascii_uppercase()) {
                names.insert(item.to_string());
            }
        }
        in_use = !line.ends_with(';');
    }
    names
}

/// Every `type_name` synthesis instantiates over the stock and corpus
/// kernels.
fn synthesized_kinds() -> BTreeSet<&'static str> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut kinds = BTreeSet::new();
    let mut files = 0;
    for dir in ["kernels", "tests/fuzz_corpus"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("read kernel dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "pvk") {
                continue;
            }
            let name = path.file_stem().and_then(|s| s.to_str()).expect("stem");
            let source = std::fs::read_to_string(&path).expect("read kernel");
            let spec = parse_kernel(name, &source).unwrap_or_else(|e| panic!("{name}: {e}"));
            let synth = prevv::ir::synthesize(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            kinds.extend(synth.netlist.iter().map(|(_, _, c)| c.type_name()));
            files += 1;
        }
    }
    assert!(files > 30, "only {files} kernel files found");
    kinds
}

#[test]
fn synthesis_instantiates_every_exported_component() {
    let kinds = synthesized_kinds();
    assert_eq!(
        kinds,
        BTreeSet::from([
            "binary_alu",
            "binary_alu_div",
            "binary_alu_mul",
            "branch",
            "buffer",
            "constant",
            "fork",
            "iter_source",
            "sink",
            "unary_alu",
        ]),
        "the component kinds synthesis emits changed"
    );

    let library = library();
    let listed: BTreeSet<String> = library.iter().map(|(n, _)| n.to_string()).collect();
    let mut exported = exported_names();
    for name in NON_COMPONENTS {
        assert!(exported.remove(name), "`{name}` is no longer exported");
    }
    assert_eq!(
        exported, listed,
        "a component was added to or removed from `components`; list it here"
    );
    for (name, component) in &library {
        assert!(
            kinds.contains(component.type_name()),
            "`{name}` ({}) is exported but no kernel synthesizes it",
            component.type_name()
        );
    }
}
