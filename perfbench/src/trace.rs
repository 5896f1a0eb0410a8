//! Span recorder for the traced passes.
//!
//! The traced pass mirrors each public entry point call for call and wraps
//! every call into a layer's public function in a span. Spans stay in
//! memory; the driver folds them into per-layer self times after each pass
//! and writes them out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// A layer of the pipeline, named after the module that implements it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ir::parse::parse_kernel`, `ir::pretty::render`.
    Parse,
    /// `ir::synthesize` / `ir::synthesize_with`.
    Synth,
    /// `ir::golden::execute`.
    Golden,
    /// `analyze::analyze` (PV0xx/3xx/5xx).
    Lints,
    /// `analyze::lint_circuit` (PV1xx).
    Circuit,
    /// `analyze::lint_perf` (PV4xx).
    Perf,
    /// `analyze::check_protocol`, `analyze::replay_counterexample` (PV2xx).
    ModelCheck,
    /// Controller constructors plus `Simulator::new`.
    Attach,
    /// `Simulator::run`.
    Sim,
    /// `PrevvStats` read after each PreVV run (counters only).
    Prevv,
    /// `LsqStats` read after each LSQ run (counters only).
    Lsq,
    /// `area::estimate`.
    Area,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Parse,
        Layer::Synth,
        Layer::Golden,
        Layer::Lints,
        Layer::Circuit,
        Layer::Perf,
        Layer::ModelCheck,
        Layer::Attach,
        Layer::Sim,
        Layer::Prevv,
        Layer::Lsq,
        Layer::Area,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "ir.parse",
            Layer::Synth => "ir.synth",
            Layer::Golden => "ir.golden",
            Layer::Lints => "analyze.lints",
            Layer::Circuit => "analyze.circuit",
            Layer::Perf => "analyze.perf",
            Layer::ModelCheck => "analyze.modelcheck",
            Layer::Attach => "attach",
            Layer::Sim => "dataflow.sim",
            Layer::Prevv => "core.prevv",
            Layer::Lsq => "mem.lsq",
            Layer::Area => "area",
        }
    }

    /// Whether the layer's calls are timed. The controller counters are
    /// read from outside after the run; their time is inside
    /// `dataflow.sim`, which the benchmark cannot split without
    /// instrumenting the crates.
    pub fn timed(self) -> bool {
        !matches!(self, Layer::Prevv | Layer::Lsq)
    }
}

/// One recorded interval. `layer` is `None` for an item's root span.
#[derive(Debug, Clone)]
struct Span {
    item: u32,
    parent: Option<u32>,
    layer: Option<Layer>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-pass totals folded from the spans and counters.
#[derive(Debug, Clone, Default)]
pub struct PassTotals {
    /// Self time per layer (seconds), in [`Layer::ALL`] order.
    pub self_s: [f64; 12],
    /// Calls per layer, in [`Layer::ALL`] order.
    pub calls: [u64; 12],
    /// Named counters (full metric names).
    pub counters: BTreeMap<&'static str, f64>,
}

impl PassTotals {
    /// Self time of one layer.
    pub fn layer_s(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    /// A counter, 0 when never touched.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

/// Records spans and counters for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    item_span: Option<u32>,
    next_item: u32,
    calls: [u64; 12],
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; `first_item` keeps
    /// item ids unique across the passes of one run.
    pub fn new(origin: Instant, first_item: u32) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            item_span: None,
            next_item: first_item,
            calls: [0; 12],
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of the next item; every layer span until
    /// [`Tracer::end_item`] is its child.
    pub fn begin_item(&mut self) {
        let start_ns = self.now_ns();
        self.item_span = Some(self.spans.len() as u32);
        self.spans.push(Span {
            item: self.next_item,
            parent: None,
            layer: None,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the current item's root span.
    pub fn end_item(&mut self) {
        if let Some(i) = self.item_span.take() {
            let end_ns = self.now_ns();
            self.spans[i as usize].end_ns = end_ns;
            self.next_item += 1;
        }
    }

    /// Id the next item will get.
    pub fn next_item(&self) -> u32 {
        self.next_item
    }

    /// Runs `f` as one call into `layer`, recording its span.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            item: self.next_item,
            parent: self.item_span,
            layer: Some(layer),
            start_ns,
            end_ns,
        });
        self.calls[layer as usize] += 1;
        r
    }

    /// Counts one untimed call into `layer` (a stats read).
    pub fn touch(&mut self, layer: Layer) {
        self.calls[layer as usize] += 1;
    }

    /// Adds `v` to a counter.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Raises a counter to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let c = self.counters.entry(name).or_insert(0.0);
        *c = c.max(v);
    }

    /// Folds the pass into per-layer self times, calls and counters. A
    /// span's self time is its duration minus its children's; layer spans
    /// are leaves, so theirs is the whole duration.
    pub fn totals(&self) -> PassTotals {
        let mut t = PassTotals {
            calls: self.calls,
            counters: self.counters.clone(),
            ..PassTotals::default()
        };
        for s in &self.spans {
            if let Some(layer) = s.layer {
                t.self_s[layer as usize] += (s.end_ns - s.start_ns) as f64 * 1e-9;
            }
        }
        t
    }

    /// Appends the spans as TSV rows: item, span id, parent id, name,
    /// start ns, end ns. `base` offsets span ids so they stay unique
    /// across passes; returns the next free id.
    pub fn write_tsv(&self, out: &mut impl Write, base: u64) -> std::io::Result<u64> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "-".to_string(), |p| (base + u64::from(p)).to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.item,
                base + i as u64,
                parent,
                s.layer.map_or("item", Layer::name),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(base + self.spans.len() as u64)
    }
}
