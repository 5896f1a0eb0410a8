//! PV1xx circuit-level verification: structural lints over a synthesized
//! [`Netlist`].
//!
//! The PV0xx lints analyze the *kernel*; nothing there protects against a
//! malformed *circuit* — a dangling channel, a multiply-driven channel, or a
//! handshake cycle with no elastic buffer, which only surface as runtime
//! stalls or wrong golden traces. This pass promotes those properties to a
//! pre-simulation static check, using the graph-introspection API of
//! `prevv-dataflow` ([`Netlist::channel_endpoints`]) to view the netlist as
//! a directed graph: component → channel → component.
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | PV101 | error    | channel with no producer or no consumer |
//! | PV102 | error    | channel with multiple producers or consumers |
//! | PV103 | error    | handshake cycle with no elastic buffer (structural deadlock) |
//! | PV104 | error/warn | controller capacity inconsistent with the in-flight iteration frontier |
//! | PV105 | warning  | component unreachable from any token source |
//!
//! ## The channel-graph model
//!
//! Each component is a node; every channel with a producer and a consumer
//! contributes an edge producer → consumer. A node's *capacity*
//! ([`Component::capacity`](prevv_dataflow::Component::capacity)) is its
//! elastic storage: a positive capacity means output `valid` and input
//! `ready` come from registers, so the node breaks any handshake cycle it
//! sits on. A strongly connected component in which **every** node has
//! capacity zero is a combinational handshake loop: each node's `valid`
//! waits on its own `ready` through the cycle, the fixpoint never fires a
//! transfer, and the circuit deadlocks on the first token — hence PV103 is
//! an error, the elastic-circuit analogue of a combinational loop.
//!
//! ## Modeling the controller
//!
//! A freshly synthesized kernel leaves its memory ports *open* by design
//! (the controller is attached later), so the port channels would trip
//! PV101 vacuously. [`lint_circuit`] therefore closes them with a virtual
//! controller node per [`ControllerModel`]: `Direct` is a combinational
//! memory (capacity 0 — a load result that feeds a store input of the same
//! memory forms a zero-slack loop), `Queue` is a premature queue and `Lsq`
//! a load/store queue of the given capacity, and `None` leaves the ports
//! open and exempts exactly those channels from PV101/PV105.

use std::collections::HashSet;

use prevv_core::PrevvConfig;
use prevv_dataflow::{ChannelId, Netlist, NodeId};
use prevv_ir::SynthesizedKernel;

use crate::diag::{Code, Diagnostic, Report};

/// How [`lint_circuit`] models the not-yet-attached memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerModel {
    /// No controller: port channels stay open and are exempt from PV101;
    /// PV104/PV105 are skipped (there is nothing to size and the load
    /// results have no producer to be reached from).
    None,
    /// A combinational direct memory (capacity 0): stores apply and loads
    /// answer in the same handshake instant, so the virtual node does not
    /// break cycles through memory.
    Direct,
    /// A premature queue holding up to `capacity` operations. A kernel's
    /// `depth_q = N;` directive resizes it in the analysis driver
    /// ([`crate::lint_kernel`]).
    Queue {
        /// Operation slots (`depth_q`).
        capacity: usize,
    },
    /// A load/store queue holding up to `capacity` operations; the
    /// `depth_q` directive does not apply to it.
    Lsq {
        /// Operation slots (load plus store depth).
        capacity: usize,
    },
}

/// Options of the circuit pass.
#[derive(Debug, Clone)]
pub struct CircuitOptions {
    /// Controller model closing the open memory ports.
    pub controller: ControllerModel,
}

impl Default for CircuitOptions {
    fn default() -> Self {
        CircuitOptions {
            controller: ControllerModel::Queue {
                capacity: PrevvConfig::default().depth,
            },
        }
    }
}

/// Index of the virtual controller node, when present.
const CONTROLLER: &str = "<controller>";

/// The directed channel graph the lints run on: the netlist's components
/// plus, optionally, one virtual controller node closing the memory ports.
struct CircuitGraph {
    /// `label(type)` per node, for diagnostics.
    names: Vec<String>,
    /// Elastic storage per node.
    caps: Vec<usize>,
    /// Nodes with no input channels (token sources).
    is_source: Vec<bool>,
    /// `producers[ch]` / `consumers[ch]` as node indices.
    producers: Vec<Vec<usize>>,
    consumers: Vec<Vec<usize>>,
    /// Channels exempt from connectivity checks (open ports under
    /// [`ControllerModel::None`]).
    exempt: HashSet<u32>,
}

impl CircuitGraph {
    fn from_netlist(net: &Netlist) -> Self {
        let ends = net.channel_endpoints();
        let to_idx = |v: &[NodeId]| v.iter().map(|n| n.index()).collect::<Vec<_>>();
        CircuitGraph {
            names: net
                .iter()
                .map(|(node, _, _)| net.display_name(node))
                .collect(),
            caps: net.iter().map(|(_, _, c)| c.capacity()).collect(),
            is_source: net
                .iter()
                .map(|(_, _, c)| c.ports().inputs.is_empty())
                .collect(),
            producers: ends.producers.iter().map(|v| to_idx(v)).collect(),
            consumers: ends.consumers.iter().map(|v| to_idx(v)).collect(),
            exempt: HashSet::new(),
        }
    }

    /// Adds one extra node consuming `inputs` and producing `outputs`.
    fn add_virtual(
        &mut self,
        name: &str,
        capacity: usize,
        inputs: &[ChannelId],
        outputs: &[ChannelId],
    ) {
        let idx = self.names.len();
        self.names.push(name.to_string());
        self.caps.push(capacity);
        self.is_source.push(inputs.is_empty());
        for ch in inputs {
            self.consumers[ch.index()].push(idx);
        }
        for ch in outputs {
            self.producers[ch.index()].push(idx);
        }
    }

    fn channel_count(&self) -> usize {
        self.producers.len()
    }

    /// PV101 + PV102: every non-exempt channel needs exactly one producer
    /// and one consumer.
    fn check_channels(&self, report: &mut Report) {
        for ch in 0..self.channel_count() {
            if self.exempt.contains(&(ch as u32)) {
                continue;
            }
            let prods = &self.producers[ch];
            let cons = &self.consumers[ch];
            let describe = |nodes: &[usize]| {
                nodes
                    .iter()
                    .map(|&n| format!("`{}`", self.names[n]))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            if prods.is_empty() {
                let ctx = if cons.is_empty() {
                    "no consumer either".to_string()
                } else {
                    format!("consumed by {}", describe(cons))
                };
                report.push(
                    Diagnostic::error(
                        Code::DanglingChannel,
                        format!("channel c{ch} has no producer ({ctx})"),
                    )
                    .with_help("every channel must be driven by exactly one component output"),
                );
            } else if prods.len() > 1 {
                report.push(
                    Diagnostic::error(
                        Code::MultiDrivenChannel,
                        format!(
                            "channel c{ch} is driven by {} producers: {}",
                            prods.len(),
                            describe(prods)
                        ),
                    )
                    .with_help(
                        "give each producer its own channel — shared wires corrupt the handshake",
                    ),
                );
            }
            if cons.is_empty() {
                if !prods.is_empty() {
                    report.push(
                        Diagnostic::error(
                            Code::DanglingChannel,
                            format!(
                                "channel c{ch} has no consumer (produced by {})",
                                describe(prods)
                            ),
                        )
                        .with_help("attach a Sink if the value is intentionally discarded"),
                    );
                }
            } else if cons.len() > 1 {
                report.push(
                    Diagnostic::error(
                        Code::MultiDrivenChannel,
                        format!(
                            "channel c{ch} is consumed by {} components: {}",
                            cons.len(),
                            describe(cons)
                        ),
                    )
                    .with_help(
                        "fan out explicitly with a Fork — shared ready wires corrupt the handshake",
                    ),
                );
            }
        }
    }

    /// Successor adjacency derived from fully connected channels.
    fn successors(&self) -> Vec<Vec<usize>> {
        let mut succ = vec![Vec::new(); self.names.len()];
        for ch in 0..self.channel_count() {
            for &p in &self.producers[ch] {
                for &c in &self.consumers[ch] {
                    succ[p].push(c);
                }
            }
        }
        succ
    }

    /// PV103: a strongly connected component whose every node has zero
    /// elastic storage is a combinational handshake loop.
    fn check_cycles(&self, report: &mut Report) {
        let succ = self.successors();
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        tarjan(
            succ.len(),
            0..succ.len() as u32,
            |v| succ[v as usize].iter().map(|&w| w as u32),
            // Listed as the stack pops them.
            |scc| sccs.push(scc.iter().rev().map(|&v| v as usize).collect()),
        );
        for scc in sccs {
            let cyclic = scc.len() > 1 || succ[scc[0]].contains(&scc[0]);
            if !cyclic {
                continue;
            }
            let max_cap = scc.iter().map(|&n| self.caps[n]).max().unwrap_or(0);
            if max_cap == 0 {
                let members = scc
                    .iter()
                    .map(|&n| format!("`{}`", self.names[n]))
                    .collect::<Vec<_>>()
                    .join(" -> ");
                let through_memory = scc.iter().any(|&n| self.names[n] == CONTROLLER);
                let mut d = Diagnostic::error(
                    Code::UnbufferedCycle,
                    format!(
                        "handshake cycle with no elastic buffer: {members}; every transfer \
                         on the loop waits on itself, deadlocking the circuit on the first \
                         token"
                    ),
                );
                d = if through_memory {
                    d.with_help(
                        "a load result reaches a store input of the same memory with no \
                         registered stage between them; use a queued controller or buffer \
                         the value path",
                    )
                } else {
                    d.with_help("place a Buffer on the feedback path to register the handshake")
                };
                report.push(d);
            }
        }
    }

    /// PV105: nodes with no directed path from any token source. Such a
    /// component can never see a token — it is dead hardware, and anything
    /// joining on its output deadlocks.
    fn check_reachability(&self, report: &mut Report) {
        let succ = self.successors();
        let mut seen = vec![false; self.names.len()];
        let mut queue: Vec<usize> = (0..self.names.len())
            .filter(|&n| self.is_source[n])
            .collect();
        for &n in &queue {
            seen[n] = true;
        }
        while let Some(n) = queue.pop() {
            for &m in &succ[n] {
                if !seen[m] {
                    seen[m] = true;
                    queue.push(m);
                }
            }
        }
        for (name, _) in self.names.iter().zip(&seen).filter(|(_, &s)| !s) {
            report.push(
                Diagnostic::warning(
                    Code::UnreachableComponent,
                    format!(
                        "`{name}` is unreachable from any token source: no token can ever \
                         arrive, so it is dead hardware (and a deadlock for anything \
                         joining on its output)"
                    ),
                )
                .with_help("remove the component or wire it to the live datapath"),
            );
        }
    }
}

/// Tarjan's strongly connected components of a graph on `0..n`, by an
/// iterative depth-first search: from each of `roots` not yet visited, in
/// order, taking each node's `succ` edges in order. Calls `component` with
/// each component's nodes as it completes, in the order the search reached
/// them. Nodes no root reaches are in no component.
pub(crate) fn tarjan<I: Iterator<Item = u32>>(
    n: usize,
    roots: impl IntoIterator<Item = u32>,
    succ: impl Fn(u32) -> I,
    mut component: impl FnMut(&[u32]),
) {
    const UNSEEN: u32 = u32::MAX;
    // A completed node's index becomes DONE, which no `min` ever picks.
    const DONE: u32 = u32::MAX - 1;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    // The search path: each node with the rest of its edges.
    let mut path: Vec<(u32, I)> = Vec::new();
    let mut next = 0u32;
    for root in roots {
        if index[root as usize] != UNSEEN {
            continue;
        }
        path.push((root, succ(root)));
        while let Some((v, edges)) = path.last_mut() {
            let v = *v as usize;
            if index[v] == UNSEEN {
                (index[v], low[v]) = (next, next);
                next += 1;
                stack.push(v as u32);
            }
            if let Some(w) = edges.next() {
                if index[w as usize] == UNSEEN {
                    path.push((w, succ(w)));
                } else {
                    low[v] = low[v].min(index[w as usize]);
                }
                continue;
            }
            path.pop();
            if let Some(&(p, _)) = path.last() {
                low[p as usize] = low[p as usize].min(low[v]);
            }
            if low[v] == index[v] {
                let at = stack
                    .iter()
                    .rposition(|&w| w as usize == v)
                    .expect("on the stack");
                component(&stack[at..]);
                for &w in &stack[at..] {
                    index[w as usize] = DONE;
                }
                stack.truncate(at);
            }
        }
    }
}

/// Runs the structural circuit lints (PV101, PV102, PV103, PV105) over a
/// *closed* netlist — one whose every channel is meant to be fully wired,
/// e.g. after a controller has been attached, or a hand-built test circuit.
pub fn lint_netlist(net: &Netlist, report: &mut Report) {
    let g = CircuitGraph::from_netlist(net);
    g.check_channels(report);
    g.check_cycles(report);
    g.check_reachability(report);
}

/// Runs the full PV1xx pass over a synthesized kernel, closing the open
/// memory ports with a virtual controller per
/// [`CircuitOptions::controller`]. Findings reuse the PV0xx diagnostic
/// stream ([`Report`]), so text and JSON rendering are identical.
pub fn lint_circuit(synth: &SynthesizedKernel, opts: &CircuitOptions) -> Report {
    let mut report = Report::default();
    let mut g = CircuitGraph::from_netlist(&synth.netlist);

    // Channels the controller would close.
    let mut inputs = vec![synth.interface.alloc_in];
    let mut outputs = Vec::new();
    for p in &synth.interface.ports {
        inputs.push(p.addr_in);
        inputs.extend(p.data_in);
        inputs.extend(p.fake_in);
        outputs.extend(p.data_out);
    }

    match opts.controller {
        ControllerModel::None => {
            // Open by design: exempt exactly the port channels from the
            // connectivity checks, and skip reachability (load results have
            // no producer, so their consumers would be flagged vacuously).
            for ch in inputs.iter().chain(&outputs) {
                g.exempt.insert(ch.index() as u32);
            }
            g.check_channels(&mut report);
            g.check_cycles(&mut report);
        }
        ControllerModel::Direct => {
            g.add_virtual(CONTROLLER, 0, &inputs, &outputs);
            g.check_channels(&mut report);
            g.check_cycles(&mut report);
            g.check_reachability(&mut report);
        }
        ControllerModel::Queue { capacity } | ControllerModel::Lsq { capacity } => {
            g.add_virtual(CONTROLLER, capacity, &inputs, &outputs);
            g.check_channels(&mut report);
            g.check_cycles(&mut report);
            g.check_reachability(&mut report);
            check_frontier_capacity(synth, capacity, &mut report);
        }
    }
    report
}

/// Maximum number of iterations the circuit keeps in flight: the iteration
/// source runs ahead until the least-provisioned consumer path of its
/// outputs fills. Synthesis decouples every induction-variable use with an
/// elastic buffer (`SynthOptions::slack`), so the bound is the minimum
/// elastic storage within two hops of the source, plus the row the source
/// itself holds — capped by the total iteration count.
fn iteration_frontier(synth: &SynthesizedKernel) -> usize {
    let net = &synth.netlist;
    let ends = net.channel_endpoints();
    let mut min_slack: Option<usize> = None;
    let mut note = |cap: usize| {
        min_slack = Some(min_slack.map_or(cap, |m| m.min(cap)));
    };
    for (_, _, comp) in net
        .iter()
        .filter(|(_, _, c)| c.type_name() == "iter_source")
    {
        for out in comp.ports().outputs {
            if out == synth.interface.alloc_in {
                continue; // consumed by the controller, sized separately
            }
            for &consumer in &ends.consumers[out.index()] {
                let c = net.component(consumer);
                if c.type_name() == "sink" {
                    continue; // sinks never backpressure
                }
                if c.capacity() > 0 {
                    note(c.capacity());
                    continue;
                }
                // Combinational fan-out (a fork): the slack sits one hop
                // further, in the per-use buffers.
                for out2 in c.ports().outputs {
                    for &c2 in &ends.consumers[out2.index()] {
                        let cc = net.component(c2);
                        if cc.type_name() != "sink" {
                            note(cc.capacity());
                        }
                    }
                }
            }
        }
    }
    (1 + min_slack.unwrap_or(0)).min(synth.interface.iterations.max(1))
}

/// PV104: premature-queue/arbiter capacity versus the in-flight frontier.
///
/// With fewer slots than one iteration's memory ops the completion frontier
/// can never advance — the controller itself refuses to build
/// (`QueueTooShallow`), so synthesis must refuse too (error). With multiple
/// iterations in flight but fewer than two iterations' worth of slots, the
/// queue cannot double-buffer: premature execution of iteration *i+1*
/// stalls on retirement of *i*, forfeiting the overlap the paper's §V-A
/// sizing model assumes (warning).
fn check_frontier_capacity(synth: &SynthesizedKernel, capacity: usize, report: &mut Report) {
    let ops = synth.spec.mem_ops_per_iter();
    let span = synth.spec.body.first().and_then(|s| s.span());
    if capacity < ops {
        report.push(
            Diagnostic::error(
                Code::FrontierCapacity,
                format!(
                    "controller capacity {capacity} cannot hold one iteration's {ops} memory \
                     ops; the completion frontier can never advance and the circuit wedges on \
                     iteration 0"
                ),
            )
            .with_span(span)
            .with_help(format!("configure a queue capacity of at least {ops}")),
        );
        return;
    }
    let frontier = iteration_frontier(synth);
    if frontier > 1 && capacity < 2 * ops {
        report.push(
            Diagnostic::warning(
                Code::FrontierCapacity,
                format!(
                    "controller capacity {capacity} holds fewer than two iterations' worth of \
                     memory ops ({ops} per iteration) while the circuit keeps up to {frontier} \
                     iterations in flight; premature execution cannot overlap retirement"
                ),
            )
            .with_span(span)
            .with_help(format!(
                "configure a queue capacity of at least {} to double-buffer the frontier",
                2 * ops
            )),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use prevv_dataflow::components::{Buffer, Constant, IterSource, Sink};

    fn report_of(net: &Netlist) -> Report {
        let mut r = Report::default();
        lint_netlist(net, &mut r);
        r
    }

    fn source_to_sink(net: &mut Netlist) {
        let ch = net.channel();
        net.add("src", IterSource::new(vec![vec![1], vec![2]], vec![ch]));
        net.add("sink", Sink::new(vec![ch]));
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        let mut net = Netlist::new();
        source_to_sink(&mut net);
        assert!(report_of(&net).is_empty());
    }

    #[test]
    fn pv101_flags_dangling_channels() {
        let mut net = Netlist::new();
        source_to_sink(&mut net);
        let orphan = net.channel(); // no producer, no consumer
        let produced = net.channel();
        let trigger = net.channel();
        net.add("lone", Constant::new(1, trigger, produced));
        net.add("consume_orphan", Sink::new(vec![orphan]));
        let r = report_of(&net);
        let d = r.with_code(Code::DanglingChannel);
        // orphan: no producer; trigger: no producer; produced: no consumer.
        assert_eq!(d.len(), 3, "{:?}", r.diagnostics);
        assert!(d.iter().all(|d| d.severity == Severity::Error));
        assert!(d.iter().any(|d| d.message.contains("no producer")));
        assert!(d.iter().any(|d| d.message.contains("no consumer")));
    }

    #[test]
    fn pv102_flags_shared_channels() {
        let mut net = Netlist::new();
        let ch = net.channel();
        net.add("src_a", IterSource::new(vec![vec![1]], vec![ch]));
        net.add("src_b", IterSource::new(vec![vec![2]], vec![ch]));
        net.add("sink1", Sink::new(vec![ch]));
        net.add("sink2", Sink::new(vec![ch]));
        let r = report_of(&net);
        let d = r.with_code(Code::MultiDrivenChannel);
        assert_eq!(d.len(), 2, "{:?}", r.diagnostics);
        assert!(d.iter().any(|d| d.message.contains("2 producers")));
        assert!(d.iter().any(|d| d.message.contains("2 components")));
    }

    #[test]
    fn pv103_flags_unbuffered_ring_and_buffer_clears_it() {
        // Two constants chasing each other's outputs: a zero-capacity ring.
        let mut net = Netlist::new();
        source_to_sink(&mut net);
        let x = net.channel();
        let y = net.channel();
        net.add("k1", Constant::new(1, x, y));
        net.add("k2", Constant::new(2, y, x));
        let r = report_of(&net);
        let d = r.with_code(Code::UnbufferedCycle);
        assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0].message.contains("k1") && d[0].message.contains("k2"));

        // The same ring with an elastic buffer on it is legal (a registered
        // feedback loop).
        let mut net = Netlist::new();
        source_to_sink(&mut net);
        let x = net.channel();
        let y = net.channel();
        let z = net.channel();
        net.add("k1", Constant::new(1, x, y));
        net.add("reg", Buffer::new(1, y, z));
        net.add("k2", Constant::new(2, z, x));
        let r = report_of(&net);
        assert!(r.with_code(Code::UnbufferedCycle).is_empty());
        // ...but it is unreachable from the source, which PV105 reports.
        assert_eq!(r.with_code(Code::UnreachableComponent).len(), 3);
    }

    #[test]
    fn pv105_flags_components_cut_off_from_sources() {
        let mut net = Netlist::new();
        source_to_sink(&mut net);
        let x = net.channel();
        let y = net.channel();
        net.add("island_a", Constant::new(1, x, y));
        net.add("island_b", Buffer::new(1, y, x));
        let r = report_of(&net);
        let d = r.with_code(Code::UnreachableComponent);
        assert_eq!(d.len(), 2, "{:?}", r.diagnostics);
        assert!(d.iter().all(|d| d.severity == Severity::Warning));
        assert!(d.iter().any(|d| d.message.contains("island_a")));
    }

    #[test]
    fn validate_and_pv101_102_agree() {
        // Satellite check: `Netlist::validate` delegates to the same
        // structural walk the lints report through.
        let mut net = Netlist::new();
        let a = net.channel();
        let b = net.channel();
        net.add("c", Constant::new(3, a, b));
        net.add("s1", Sink::new(vec![b]));
        net.add("s2", Sink::new(vec![b]));
        let errors = net.structural_errors();
        assert!(net.validate().is_err());
        let r = report_of(&net);
        let lint_count =
            r.with_code(Code::DanglingChannel).len() + r.with_code(Code::MultiDrivenChannel).len();
        assert_eq!(errors.len(), lint_count);
    }
}
