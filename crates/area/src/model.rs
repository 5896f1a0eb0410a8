//! Resource vectors and the component inventory.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use prevv_dataflow::Netlist;

/// FPGA resource usage, in the units of the paper's Table I. DSPs are not
/// modeled — as the paper notes, neither the LSQ nor PreVV uses them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Resources {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops (registers).
    pub ffs: u64,
    /// Multiplexers (as reported separately by Vivado for 7-series).
    pub muxes: u64,
}

impl Resources {
    /// Creates a resource vector.
    pub fn new(luts: u64, ffs: u64, muxes: u64) -> Self {
        Resources { luts, ffs, muxes }
    }

    /// The zero vector.
    pub fn zero() -> Self {
        Self::default()
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            luts: self.luts + rhs.luts,
            ffs: self.ffs + rhs.ffs,
            muxes: self.muxes + rhs.muxes,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for Resources {
    type Output = Resources;
    fn mul(self, k: u64) -> Resources {
        Resources {
            luts: self.luts * k,
            ffs: self.ffs * k,
            muxes: self.muxes * k,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::zero(), Add::add)
    }
}

impl std::fmt::Display for Resources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} LUT / {} FF / {} mux",
            self.luts, self.ffs, self.muxes
        )
    }
}

/// Counts of datapath components extracted from a synthesized netlist.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CircuitInventory {
    /// Simple ALUs (add/sub/compare/logic).
    pub alus_simple: usize,
    /// Multiplier-class ALUs.
    pub alus_mul: usize,
    /// Divider-class ALUs.
    pub alus_div: usize,
    /// Opaque-function units.
    pub alus_unary: usize,
    /// Fork fan-out ports (sum over forks of their output count).
    pub fork_ports: usize,
    /// Elastic buffers.
    pub buffers: usize,
    /// Branches (guard steering).
    pub branches: usize,
    /// Constants.
    pub constants: usize,
    /// Iteration-source output streams (loop-control rings).
    pub source_streams: usize,
    /// Memory access ports (load + store).
    pub mem_ports: usize,
}

impl CircuitInventory {
    /// Builds the inventory by walking a netlist. Memory ports are counted
    /// from the component implementing the controller interface (its
    /// outputs are the load-result channels; inputs minus outputs
    /// approximates port channels), so pass the *datapath-only* netlist or
    /// the full one — controller components are recognized by type name and
    /// excluded from datapath counts.
    pub fn from_netlist(net: &Netlist) -> Self {
        let mut inv = CircuitInventory::default();
        for (_, _, c) in net.iter() {
            let ports = c.ports();
            match c.type_name() {
                "binary_alu" => inv.alus_simple += 1,
                "binary_alu_mul" => inv.alus_mul += 1,
                "binary_alu_div" => inv.alus_div += 1,
                "unary_alu" => inv.alus_unary += 1,
                "fork" => inv.fork_ports += ports.outputs.len(),
                "buffer" => inv.buffers += 1,
                "branch" => inv.branches += 1,
                "constant" => inv.constants += 1,
                "iter_source" => inv.source_streams += ports.outputs.len(),
                // Controllers and sinks are priced separately.
                _ => {}
            }
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resources_add_and_scale() {
        let a = Resources::new(10, 20, 3);
        let b = Resources::new(1, 2, 1);
        assert_eq!(a + b, Resources::new(11, 22, 4));
        assert_eq!(b * 3, Resources::new(3, 6, 3));
        let s: Resources = [a, b].into_iter().sum();
        assert_eq!(s, Resources::new(11, 22, 4));
    }

    #[test]
    fn inventory_counts_a_synthesized_kernel() {
        use prevv_dataflow::components::LoopLevel;
        use prevv_ir::{synthesize, ArrayDecl, ArrayId, Expr, KernelSpec, Stmt};
        let a = ArrayId(0);
        let spec = KernelSpec::new(
            "inv",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0))
                    .mul(Expr::lit(3))
                    .add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let s = synthesize(&spec).expect("synth");
        let inv = CircuitInventory::from_netlist(&s.netlist);
        assert_eq!(inv.alus_mul, 1);
        assert_eq!(inv.alus_simple, 1, "one add");
        assert_eq!(inv.constants, 2, "literal 3 and literal 1");
        assert!(inv.fork_ports >= 3, "i used by addr + const triggers");
        assert!(inv.buffers >= 3, "slack buffers on every fork output");
    }
}
