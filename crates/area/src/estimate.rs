//! Design-level resource and timing estimation.

use std::collections::HashSet;

use prevv_core::reduce;
use prevv_ir::SynthesizedKernel;

use crate::calib;
use crate::model::{CircuitInventory, Resources};

/// Which disambiguation controller a design uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// Plain Dynamatic \[15\]: one LSQ per ambiguous array, slow group
    /// allocation network.
    Dynamatic {
        /// Queue depth per LSQ (load and store queues each).
        depth: usize,
    },
    /// Fast-allocation LSQ \[8\]: one shared LSQ, fast-token delivery network.
    FastLsq {
        /// Queue depth.
        depth: usize,
    },
    /// PreVV: shared premature queue plus one arbiter per ambiguous array.
    Prevv {
        /// Premature queue depth (`depth_q`).
        depth: usize,
        /// Apply the §V-B pair reduction to the arbiter merge network.
        pair_reduction: bool,
    },
    /// Hypothetical naive PreVV that replicates queue + arbiter per
    /// ambiguous pair (the 2^n blow-up of paper Eq. 11) — used only by the
    /// scalability experiment.
    NaivePrevvPerPair {
        /// Premature queue depth per instance.
        depth: usize,
    },
}

/// A priced design: datapath + controller + clock period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignReport {
    /// Datapath (computation) resources.
    pub datapath: Resources,
    /// Disambiguation controller resources.
    pub controller: Resources,
    /// Estimated achieved clock period, ns.
    pub clock_period_ns: f64,
}

impl DesignReport {
    /// Total resources.
    pub fn total(&self) -> Resources {
        self.datapath + self.controller
    }

    /// Fraction of LUTs spent on the controller — the paper's Fig. 1 metric.
    pub fn controller_lut_share(&self) -> f64 {
        let total = self.total().luts;
        if total == 0 {
            0.0
        } else {
            self.controller.luts as f64 / total as f64
        }
    }
}

fn res3(t: (u64, u64, u64)) -> Resources {
    Resources::new(t.0, t.1, t.2)
}

/// Prices the datapath of a synthesized kernel from its netlist inventory.
pub fn datapath_cost(synth: &SynthesizedKernel) -> Resources {
    let inv = CircuitInventory::from_netlist(&synth.netlist);
    datapath_cost_of(&inv, synth.interface.ports.len())
}

/// Prices an explicit inventory (unit-testable without synthesis).
pub fn datapath_cost_of(inv: &CircuitInventory, mem_ports: usize) -> Resources {
    let mut r = Resources::zero();
    r += res3(calib::ALU_SIMPLE) * inv.alus_simple as u64;
    r += res3(calib::ALU_MUL) * inv.alus_mul as u64;
    r += res3(calib::ALU_DIV) * inv.alus_div as u64;
    r += res3(calib::ALU_UNARY) * inv.alus_unary as u64;
    r += res3(calib::FORK_PORT) * inv.fork_ports as u64;
    r += res3(calib::BUFFER) * inv.buffers as u64;
    r += res3(calib::BRANCH) * inv.branches as u64;
    r += res3(calib::CONSTANT) * inv.constants as u64;
    r += res3(calib::SOURCE_STREAM) * inv.source_streams as u64;
    r += res3(calib::MEM_PORT) * mem_ports as u64;
    r
}

/// Number of arrays involved in at least one ambiguous pair — the
/// granularity at which \[15\] instantiates LSQs and PreVV instantiates
/// arbiters.
pub fn ambiguous_array_count(synth: &SynthesizedKernel) -> usize {
    let ambiguous = synth.interface.validated_ops();
    let arrays: HashSet<usize> = synth
        .interface
        .ports
        .iter()
        .enumerate()
        .filter(|(pid, _)| ambiguous.contains(pid))
        .map(|(_, p)| p.op.array.0)
        .collect();
    arrays.len().max(1)
}

/// Prices one LSQ instance of the given depth.
pub fn lsq_instance_cost(depth: usize) -> Resources {
    let d = depth as u64;
    Resources::new(
        calib::LSQ_BASE_LUTS + calib::LSQ_CAM_LUTS_PER_PAIR * d * d + calib::LSQ_ENTRY_LUTS * 2 * d,
        calib::LSQ_BASE_FFS + calib::LSQ_ENTRY_FFS * 2 * d + calib::LSQ_CAM_FFS_PER_PAIR * d * d,
        calib::LSQ_ENTRY_MUXES * 2 * d,
    )
}

/// Prices one PreVV instance: the shared premature queue plus one arbiter
/// per ambiguous pair (the paper's Fig. 3 applies PreVV to each pair; the
/// queue is shared after the §V-B reduction).
pub fn prevv_instance_cost(depth: usize, arbiters: usize, validated_ports: usize) -> Resources {
    let d = depth as u64;
    let queue = Resources::new(
        calib::PQ_BASE_LUTS + calib::PQ_ENTRY_LUTS * d,
        calib::PQ_ENTRY_FFS * d,
        calib::PQ_ENTRY_MUXES * d,
    );
    let arbiter = Resources::new(
        calib::ARB_BASE_LUTS + calib::ARB_LUTS_PER_ENTRY * d,
        calib::ARB_BASE_FFS,
        4,
    ) * arbiters as u64
        + Resources::new(calib::ARB_LUTS_PER_VALIDATED_PORT, 24, 1) * validated_ports as u64;
    queue + arbiter
}

/// Prices a controller for a synthesized kernel.
pub fn controller_cost(synth: &SynthesizedKernel, kind: ControllerKind) -> Resources {
    let ports = synth.interface.ports.len() as u64;
    let n_arrays = ambiguous_array_count(synth) as u64;
    match kind {
        ControllerKind::Dynamatic { depth } => {
            lsq_instance_cost(depth) * n_arrays
                + Resources::new(
                    calib::LSQ_ALLOC_LUTS_PER_PORT * ports,
                    40 * ports,
                    2 * ports,
                )
        }
        ControllerKind::FastLsq { depth } => {
            // The fast-allocation plugin shares one LSQ per (dual-port)
            // memory controller, i.e. per two ambiguous arrays — which is
            // exactly the step the paper's Table I shows between 2mm (one
            // LSQ) and 3mm (two).
            let instances = n_arrays.div_ceil(2);
            lsq_instance_cost(depth) * instances
                + Resources::new(
                    calib::FAST_TOKEN_LUTS_PER_PORT * ports,
                    calib::FAST_TOKEN_FFS_PER_PORT * ports,
                    ports,
                )
        }
        ControllerKind::Prevv {
            depth,
            pair_reduction,
        } => {
            let _ = n_arrays;
            let red = reduce::reduce(
                &synth.deps.ops,
                synth.interface.validated_ops(),
                pair_reduction,
            );
            let pairs = synth.interface.pairs.len().max(1);
            prevv_instance_cost(depth, pairs, red.validated.len())
        }
        ControllerKind::NaivePrevvPerPair { depth } => {
            let pairs = synth.interface.pairs.len().max(1);
            // Eq. 11: overlapped pairs double validation hardware — each
            // pair gets its own private queue and a mirrored arbiter for
            // every op shared with another pair.
            (prevv_instance_cost(depth, 2, 2) + prevv_instance_cost(depth, 0, 0)) * pairs as u64
        }
    }
}

/// Estimates the achieved clock period of a design.
pub fn clock_period_ns(synth: &SynthesizedKernel, kind: ControllerKind) -> f64 {
    let inv = CircuitInventory::from_netlist(&synth.netlist);
    let ports = synth.interface.ports.len() as f64;
    let levels = synth.spec.levels.len() as f64;
    let mut cp = calib::CP_BASE_NS;
    if inv.alus_mul + inv.alus_div > 0 {
        cp += calib::CP_MUL_NS;
    }
    let ctrl = match kind {
        ControllerKind::Dynamatic { depth } => {
            (depth as f64).log2() * calib::CP_LSQ_PER_LOG_DEPTH_NS
                + ports * calib::CP_LSQ_PER_PORT_NS
                + levels * calib::CP_ALLOC_PER_LEVEL_NS
        }
        ControllerKind::FastLsq { depth } => {
            (depth as f64).log2() * calib::CP_LSQ_PER_LOG_DEPTH_NS
                + ports * calib::CP_LSQ_PER_PORT_NS
        }
        ControllerKind::Prevv { depth, .. } => {
            (depth as f64).log2() * calib::CP_PREVV_PER_LOG_DEPTH_NS
        }
        ControllerKind::NaivePrevvPerPair { depth } => {
            // Eq. 12: naive replication degrades frequency with the pair
            // count.
            let n = synth.interface.pairs.len().max(1) as f64;
            (depth as f64).log2() * calib::CP_PREVV_PER_LOG_DEPTH_NS * (1.0 + n.log2().max(0.0))
        }
    };
    cp + ctrl
}

/// Full design estimate.
pub fn estimate(synth: &SynthesizedKernel, kind: ControllerKind) -> DesignReport {
    DesignReport {
        datapath: datapath_cost(synth),
        controller: controller_cost(synth, kind),
        clock_period_ns: clock_period_ns(synth, kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_ir::synthesize;
    use prevv_kernels::paper;

    fn synth(spec: prevv_ir::KernelSpec) -> SynthesizedKernel {
        synthesize(&spec).expect("synthesizes")
    }

    #[test]
    fn lsq_dominates_dynamatic_designs() {
        // The paper's Fig. 1 claim: >80% of resources go to the LSQ.
        for spec in paper::all_default() {
            let s = synth(spec);
            let rep = estimate(&s, ControllerKind::Dynamatic { depth: 16 });
            assert!(
                rep.controller_lut_share() > 0.8,
                "{}: LSQ share {:.2} should exceed 0.8",
                s.spec.name,
                rep.controller_lut_share()
            );
        }
    }

    #[test]
    fn prevv16_saves_substantial_luts_vs_fast_lsq() {
        // Table I shape: PreVV16 cuts LUTs substantially vs [8]
        // (paper: 17-53% per kernel, geomean 44%).
        let mut log_sum = 0.0;
        let mut n = 0usize;
        for spec in paper::all_default() {
            let s = synth(spec);
            let lsq = estimate(&s, ControllerKind::FastLsq { depth: 16 }).total();
            let prevv = estimate(
                &s,
                ControllerKind::Prevv {
                    depth: 16,
                    pair_reduction: true,
                },
            )
            .total();
            let ratio = prevv.luts as f64 / lsq.luts as f64;
            assert!(
                (0.15..0.85).contains(&ratio),
                "{}: PreVV16/[8] LUT ratio {:.2} out of band",
                s.spec.name,
                ratio
            );
            log_sum += ratio.ln();
            n += 1;
        }
        let geomean_saving = 1.0 - (log_sum / n as f64).exp();
        assert!(
            (0.25..0.70).contains(&geomean_saving),
            "geomean LUT saving {geomean_saving:.2} should be near the paper's 44%"
        );
    }

    #[test]
    fn prevv64_saves_less_than_prevv16() {
        let s = synth(paper::mm2(paper::default_sizes::MM));
        let p16 = estimate(
            &s,
            ControllerKind::Prevv {
                depth: 16,
                pair_reduction: true,
            },
        )
        .total();
        let p64 = estimate(
            &s,
            ControllerKind::Prevv {
                depth: 64,
                pair_reduction: true,
            },
        )
        .total();
        assert!(p64.luts > p16.luts);
        assert!(p64.ffs > p16.ffs);
    }

    #[test]
    fn dynamatic_multiplies_lsqs_per_ambiguous_array() {
        let s2 = synth(paper::mm2(paper::default_sizes::MM));
        let s3 = synth(paper::mm3(paper::default_sizes::MM));
        assert_eq!(ambiguous_array_count(&s2), 2, "tmp and D");
        assert_eq!(ambiguous_array_count(&s3), 3, "E, F and G");
        let d2 = estimate(&s2, ControllerKind::Dynamatic { depth: 16 });
        let d3 = estimate(&s3, ControllerKind::Dynamatic { depth: 16 });
        assert!(d3.controller.luts > d2.controller.luts);
    }

    #[test]
    fn clock_periods_fall_in_the_papers_band() {
        for spec in paper::all_default() {
            let s = synth(spec);
            for kind in [
                ControllerKind::Dynamatic { depth: 16 },
                ControllerKind::FastLsq { depth: 16 },
                ControllerKind::Prevv {
                    depth: 16,
                    pair_reduction: true,
                },
                ControllerKind::Prevv {
                    depth: 64,
                    pair_reduction: true,
                },
            ] {
                let cp = clock_period_ns(&s, kind);
                assert!(
                    (6.5..9.5).contains(&cp),
                    "{}: CP {cp:.2} ns out of band for {kind:?}",
                    s.spec.name
                );
            }
        }
    }

    #[test]
    fn prevv_cp_beats_lsq_cp() {
        let s = synth(paper::gaussian(paper::default_sizes::GAUSSIAN));
        let lsq = clock_period_ns(&s, ControllerKind::FastLsq { depth: 16 });
        let prevv = clock_period_ns(
            &s,
            ControllerKind::Prevv {
                depth: 16,
                pair_reduction: true,
            },
        );
        assert!(
            prevv < lsq,
            "PreVV removes the search logic: {prevv} vs {lsq}"
        );
    }

    #[test]
    fn naive_per_pair_replication_blows_up() {
        let s = synth(paper::mm3(paper::default_sizes::MM));
        let shared = controller_cost(
            &s,
            ControllerKind::Prevv {
                depth: 16,
                pair_reduction: true,
            },
        );
        let naive = controller_cost(&s, ControllerKind::NaivePrevvPerPair { depth: 16 });
        assert!(
            naive.luts > 2 * shared.luts,
            "per-pair replication must cost multiples: {} vs {}",
            naive.luts,
            shared.luts
        );
    }
}
