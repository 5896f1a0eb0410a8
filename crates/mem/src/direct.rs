//! A memory controller with **no** disambiguation.
//!
//! Loads and stores issue the moment their operands arrive, subject only to
//! RAM latency and port bandwidth. On hazard-free kernels this is the
//! fastest possible controller; on kernels with inter-iteration dependences
//! it produces *wrong results* — the demonstration of why dynamically
//! scheduled HLS needs an LSQ or PreVV at all.

use prevv_dataflow::{Component, Ports, Signals, Token};
use prevv_ir::MemoryInterface;

use crate::delay::DelayLine;
use crate::portio::PortIo;
use crate::ram::{shared, Ram, SharedRam};
use crate::MemTiming;

/// The unprotected controller.
#[derive(Debug)]
pub struct DirectMemory {
    io: PortIo,
    ram: SharedRam,
    timing: MemTiming,
    reads: DelayLine<(usize, usize, u64)>,
    writes: DelayLine<(usize, prevv_dataflow::Value)>,
    /// Did the last commit mutate the io adapter — the only state `eval`
    /// reads? Backs [`Component::eval_invalidated`].
    eval_dirty: bool,
}

impl DirectMemory {
    /// Creates the controller over a fresh RAM initialized from the
    /// interface's array images.
    pub fn new(iface: MemoryInterface, timing: MemTiming) -> (Self, SharedRam) {
        let ram = shared(Ram::new(iface.initial_ram()));
        let ctrl = DirectMemory {
            io: PortIo::new(iface),
            ram: ram.clone(),
            timing,
            reads: DelayLine::new(),
            writes: DelayLine::new(),
            eval_dirty: true,
        };
        (ctrl, ram)
    }
}

impl Component for DirectMemory {
    fn type_name(&self) -> &'static str {
        "direct_memory"
    }

    fn ports(&self) -> Ports {
        self.io.channel_ports()
    }

    fn eval(&self, sig: &mut Signals) {
        self.io.eval(sig);
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        // In-flight RAM operations ticking below are internal motion even
        // when no queue changes, so capture it before the drain loops.
        let ticking = !self.reads.is_empty() || !self.writes.is_empty();
        self.io.commit_io(sig);

        // Completions first so a read pushed this cycle waits its full
        // latency.
        for (port, addr, iter) in self.reads.tick() {
            let value = self.ram.borrow().read(addr);
            self.io.push_result(port, Token::new(value, iter));
        }
        for (addr, value) in self.writes.tick() {
            self.ram.borrow_mut().write(addr, value);
        }

        // Allocation tokens are irrelevant without ordering: drain them.
        while self.io.take_alloc().is_some() {}

        let mut read_budget = self.timing.read_ports;
        let mut write_budget = self.timing.write_ports;
        for p in 0..self.io.port_count() {
            // Fake tokens: loads still owe a (dummy) result token so the
            // datapath's token balance holds; stores are simply dropped.
            while let Some(f) = self.io.take_fake(p) {
                if self.io.port(p).is_load() {
                    self.io.push_result(p, Token::new(0, f.iter));
                }
            }
            if self.io.port(p).is_load() {
                while read_budget > 0 {
                    let Some(a) = self.io.take_addr(p) else { break };
                    let addr = self.io.resolve(p, a.value);
                    self.reads.push(self.timing.read_latency, (p, addr, a.iter));
                    read_budget -= 1;
                }
            } else {
                while write_budget > 0 {
                    let (Some(a), Some(_)) = (self.io.peek_addr(p), self.io.peek_data(p)) else {
                        break;
                    };
                    debug_assert_eq!(
                        a.iter,
                        self.io.peek_data(p).expect("peeked").iter,
                        "store address/data streams must stay paired"
                    );
                    let a = self.io.take_addr(p).expect("peeked");
                    let d = self.io.take_data(p).expect("peeked");
                    let addr = self.io.resolve(p, a.value);
                    self.writes.push(self.timing.write_latency, (addr, d.value));
                    write_budget -= 1;
                }
            }
        }
        self.eval_dirty = self.io.take_dirty();
        self.eval_dirty || ticking
    }

    fn eval_invalidated(&self) -> bool {
        self.eval_dirty
    }

    fn flush(&mut self, from_iter: u64) {
        self.eval_dirty = true;
        self.io.flush(from_iter);
        self.reads.flush_if(|&(_, _, iter)| iter >= from_iter);
        // Writes are not flushed: once issued they are architectural.
    }

    fn is_idle(&self) -> bool {
        self.io.is_idle() && self.reads.is_empty() && self.writes.is_empty()
    }

    fn occupancy(&self) -> usize {
        self.io.occupancy() + self.reads.len() + self.writes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_dataflow::components::LoopLevel;
    use prevv_dataflow::{SimConfig, Simulator};
    use prevv_ir::{golden, synthesize, ArrayDecl, ArrayId, Expr, KernelSpec, Stmt};

    /// Hazard-free kernel: b[i] = a[i] * 3.
    fn hazard_free() -> KernelSpec {
        let a = ArrayId(0);
        let b = ArrayId(1);
        KernelSpec::new(
            "scale",
            vec![LoopLevel::upto(16)],
            vec![
                ArrayDecl::with_values("a", (0..16).collect()),
                ArrayDecl::zeroed("b", 16),
            ],
            vec![Stmt::store(
                b,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).mul(Expr::lit(3)),
            )],
        )
        .expect("valid")
    }

    /// Loop-carried accumulation with reuse distance 1: s[0] += i is
    /// guaranteed to break without disambiguation once the pipeline
    /// overlaps.
    fn hazardous() -> KernelSpec {
        let s = ArrayId(0);
        KernelSpec::new(
            "reduce",
            vec![LoopLevel::upto(32)],
            vec![ArrayDecl::zeroed("s", 4)],
            vec![Stmt::store(
                s,
                Expr::lit(0),
                Expr::load(s, Expr::lit(0)).add(Expr::var(0)),
            )],
        )
        .expect("valid")
    }

    fn run(spec: &KernelSpec) -> (Vec<Vec<i64>>, prevv_dataflow::SimReport) {
        let mut s = synthesize(spec).expect("synth");
        let (ctrl, ram) = DirectMemory::new(s.interface.clone(), MemTiming::default());
        s.netlist.add("mem", ctrl);
        let mut sim = Simulator::new(s.netlist, s.bus)
            .expect("valid netlist")
            .with_config(SimConfig {
                max_cycles: 100_000,
                watchdog: 500,
                ..SimConfig::default()
            });
        let report = sim.run().expect("completes");
        let ram = ram.borrow();
        let arrays = s
            .interface
            .split_ram(ram.image())
            .into_iter()
            .map(<[i64]>::to_vec)
            .collect();
        (arrays, report)
    }

    #[test]
    fn hazard_free_kernel_is_correct_and_fast() {
        let spec = hazard_free();
        let gold = golden::execute(&spec);
        let (arrays, report) = run(&spec);
        assert_eq!(arrays[1], gold.array(ArrayId(1)));
        assert!(
            report.cycles < 16 * 8,
            "pipelined execution expected, got {} cycles",
            report.cycles
        );
    }

    #[test]
    fn hazardous_kernel_goes_wrong_without_disambiguation() {
        let spec = hazardous();
        let gold = golden::execute(&spec);
        let (arrays, _) = run(&spec);
        assert_ne!(
            arrays[0],
            gold.array(ArrayId(0)),
            "direct memory must mis-execute the loop-carried reduction \
             (this failing would mean the pipeline never overlapped)"
        );
    }
}
