//! PreVV configuration and presets.

use prevv_ir::KernelSpec;
use prevv_mem::MemTiming;

/// Configuration of the PreVV memory controller.
#[derive(Debug, Clone)]
pub struct PrevvConfig {
    /// Premature queue capacity — the paper's `depth_q`. Smaller queues use
    /// fewer resources but stall more (paper §V-A); the paper evaluates 16
    /// and 64.
    pub depth: usize,
    /// RAM timing and port bandwidth.
    pub timing: MemTiming,
    /// Arrivals accepted and validated per cycle. The paper instantiates
    /// one arbiter per ambiguous pair (Fig. 3), so validations proceed in
    /// parallel; the default models eight parallel arbiters.
    pub validations_per_cycle: u32,
    /// Queue-head retirements per cycle.
    pub retire_per_cycle: u32,
    /// Queue bypass: an arriving load whose youngest older store is resident
    /// takes that store's value instead of squashing. Without it, every
    /// short-reuse-distance accumulation (the paper's matrix kernels!)
    /// would squash once per iteration, far above the ~10% cycle overhead
    /// Table II reports — so we treat bypass as part of the architecture and
    /// keep the pure squash-on-mismatch variant as an ablation
    /// (`forwarding = false`).
    pub forwarding: bool,
    /// Apply the §V-B pair reduction: only one representative of each run of
    /// consecutive same-kind ambiguous ops triggers validation.
    pub pair_reduction: bool,
}

impl Default for PrevvConfig {
    fn default() -> Self {
        PrevvConfig {
            depth: 16,
            timing: MemTiming::default(),
            validations_per_cycle: 8,
            retire_per_cycle: 8,
            forwarding: true,
            pair_reduction: true,
        }
    }
}

impl PrevvConfig {
    /// The paper's *PreVV16*: premature queue depth 16.
    pub fn prevv16() -> Self {
        PrevvConfig {
            depth: 16,
            ..Self::default()
        }
    }

    /// The paper's *PreVV64*: premature queue depth 64.
    pub fn prevv64() -> Self {
        PrevvConfig {
            depth: 64,
            ..Self::default()
        }
    }

    /// A preset with an explicit queue depth.
    pub fn with_depth(depth: usize) -> Self {
        PrevvConfig {
            depth,
            ..Self::default()
        }
    }

    /// This configuration as `spec` runs it: a `depth_q = N;` directive in
    /// the kernel source overrides [`Self::depth`] — the file records the
    /// queue it was sized for (paper §V-A). This is the one place the
    /// directive is applied; the analyzer's passes, the attached controller
    /// and the differential oracle all read its result.
    pub fn for_kernel(mut self, spec: &KernelSpec) -> Self {
        if let Some((depth, _)) = spec.depth_hint() {
            self.depth = depth;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_depths() {
        assert_eq!(PrevvConfig::prevv16().depth, 16);
        assert_eq!(PrevvConfig::prevv64().depth, 64);
        assert_eq!(PrevvConfig::with_depth(32).depth, 32);
    }

    #[test]
    fn defaults_enable_queue_bypass() {
        let c = PrevvConfig::default();
        assert!(c.forwarding, "queue bypass is part of the architecture");
        assert!(c.pair_reduction);
    }

    #[test]
    fn depth_directive_overrides_the_configured_depth() {
        let src = "depth_q = 4;\nint a[8];\nfor (int i = 0; i < 8; ++i) { a[i] += 1; }\n";
        let spec = prevv_ir::parse::parse_kernel("hinted", src).expect("parses");
        assert_eq!(PrevvConfig::prevv64().for_kernel(&spec).depth, 4);
        let plain = prevv_ir::parse::parse_kernel("plain", &src[13..]).expect("parses");
        assert_eq!(PrevvConfig::prevv64().for_kernel(&plain).depth, 64);
    }
}
