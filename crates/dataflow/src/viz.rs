//! Graphviz (DOT) export of netlists.
//!
//! Dynamatic ships a DOT view of its elastic circuits; this module provides
//! the same for synthesized netlists, which makes reviewing a generated
//! circuit (or a bug report about one) dramatically easier:
//!
//! ```text
//! cargo run --release --example quickstart   # or any netlist you build
//! dot -Tsvg circuit.dot -o circuit.svg
//! ```

use std::collections::HashMap;

use crate::netlist::Netlist;
use crate::signal::ChannelId;

/// Renders the netlist as a Graphviz digraph.
///
/// Components become boxes labeled `instance\n(type)`; every channel
/// becomes an edge from its producer to its consumer, labeled with the
/// channel id. Channels with a missing producer or consumer (the open
/// memory ports of a not-yet-attached kernel) are rendered as dashed edges
/// to a point node so incomplete circuits remain inspectable.
pub fn to_dot(net: &Netlist) -> String {
    let mut producers: HashMap<ChannelId, usize> = HashMap::new();
    let mut consumers: HashMap<ChannelId, usize> = HashMap::new();
    for (node, _, c) in net.iter() {
        let ports = c.ports();
        for ch in ports.outputs {
            producers.insert(ch, node.index());
        }
        for ch in ports.inputs {
            consumers.insert(ch, node.index());
        }
    }

    let mut out = String::from(
        "digraph netlist {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    for (node, label, c) in net.iter() {
        let shape = match c.type_name() {
            "iter_source" => ", shape=invhouse",
            "sink" => ", shape=house",
            "buffer" => ", shape=box3d",
            t if t.contains("memory") || t == "lsq" => ", shape=cylinder",
            _ => "",
        };
        out.push_str(&format!(
            "  n{} [label=\"{}\\n({})\"{}];\n",
            node.index(),
            escape(label),
            c.type_name(),
            shape
        ));
    }
    for i in 0..net.channel_count() {
        let ch = ChannelId::from_index(i);
        match (producers.get(&ch), consumers.get(&ch)) {
            (Some(&p), Some(&c)) => {
                out.push_str(&format!("  n{p} -> n{c} [label=\"{ch}\"];\n"));
            }
            (Some(&p), None) => {
                out.push_str(&format!(
                    "  open{i} [shape=point]; n{p} -> open{i} [label=\"{ch}\", style=dashed];\n"
                ));
            }
            (None, Some(&c)) => {
                out.push_str(&format!(
                    "  open{i} [shape=point]; open{i} -> n{c} [label=\"{ch}\", style=dashed];\n"
                ));
            }
            (None, None) => {}
        }
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{Constant, IterSource, Sink};

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut net = Netlist::new();
        let trig = net.channel();
        let out = net.channel();
        net.add("src", IterSource::new(vec![vec![0]], vec![trig]));
        net.add("one", Constant::new(1, trig, out));
        net.add("sink", Sink::new(vec![out]));
        let dot = to_dot(&net);
        assert!(dot.starts_with("digraph netlist {"));
        assert!(dot.contains("src\\n(iter_source)"));
        assert!(dot.contains("one\\n(constant)"));
        assert!(dot.contains("n0 -> n1"), "source feeds constant: {dot}");
        assert!(dot.contains("n1 -> n2"), "constant feeds sink");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn open_channels_render_dashed() {
        let mut net = Netlist::new();
        let out = net.channel();
        net.add("src", IterSource::new(vec![vec![0]], vec![out]));
        // `out` has no consumer.
        let dot = to_dot(&net);
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("shape=point"));
    }

    #[test]
    fn labels_are_escaped() {
        let mut net = Netlist::new();
        let a = net.channel();
        net.add("weird\"name", Sink::new(vec![a]));
        let dot = to_dot(&net);
        assert!(dot.contains("weird\\\"name"));
    }
}
