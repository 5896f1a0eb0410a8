//! Simulation statistics and reports.

use std::fmt;

use crate::signal::ChannelId;

/// Summary of a completed simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Total clock cycles executed until quiescence.
    pub cycles: u64,
    /// Total number of channel transfers (token movements).
    pub transfers: u64,
    /// Total channel-cycles spent stalled (valid but not ready).
    pub stall_cycles: u64,
    /// Number of pipeline squashes applied.
    pub squashes: u64,
    /// Always 0; removed when the benchmark stops reading it (ROADMAP
    /// item 4). The controller counts replays in its own statistics.
    pub replayed_iters: u64,
    /// Per-channel stall attribution: every channel that spent at least one
    /// cycle stalled (valid but not ready), sorted by stall count
    /// descending. The measured counterpart of the PV400 critical cycle —
    /// where backpressure actually bit, channel by channel.
    pub stalled_channels: Vec<(ChannelId, u64)>,
}

impl SimReport {
    /// Average transfers per cycle — a crude activity measure.
    pub fn activity(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.transfers as f64 / self.cycles as f64
        }
    }

    /// The `n` most-stalled channels.
    pub fn top_stalled(&self, n: usize) -> &[(ChannelId, u64)] {
        &self.stalled_channels[..n.min(self.stalled_channels.len())]
    }

    /// Field-by-field comparison against `other`, naming the first few
    /// mismatches — `None` when the reports are identical. Built for the
    /// scheduler-equivalence tests, where "`assert_eq!` on two 40-line
    /// structs failed" is useless without knowing *which* counter diverged.
    pub fn diff(&self, other: &SimReport) -> Option<String> {
        let mut lines = Vec::new();
        if self.cycles != other.cycles {
            lines.push(format!("cycles: {} vs {}", self.cycles, other.cycles));
        }
        if self.transfers != other.transfers {
            lines.push(format!(
                "transfers: {} vs {}",
                self.transfers, other.transfers
            ));
        }
        if self.stall_cycles != other.stall_cycles {
            lines.push(format!(
                "stall_cycles: {} vs {}",
                self.stall_cycles, other.stall_cycles
            ));
        }
        if self.squashes != other.squashes {
            lines.push(format!("squashes: {} vs {}", self.squashes, other.squashes));
        }
        if self.replayed_iters != other.replayed_iters {
            lines.push(format!(
                "replayed_iters: {} vs {}",
                self.replayed_iters, other.replayed_iters
            ));
        }
        if self.stalled_channels != other.stalled_channels {
            let first = self
                .stalled_channels
                .iter()
                .zip(&other.stalled_channels)
                .find(|(a, b)| a != b);
            lines.push(match first {
                Some((a, b)) => format!(
                    "stalled_channels: first mismatch {}={} vs {}={} (lengths {} vs {})",
                    a.0,
                    a.1,
                    b.0,
                    b.1,
                    self.stalled_channels.len(),
                    other.stalled_channels.len()
                ),
                None => format!(
                    "stalled_channels: lengths {} vs {}",
                    self.stalled_channels.len(),
                    other.stalled_channels.len()
                ),
            });
        }
        if lines.is_empty() {
            None
        } else {
            Some(lines.join("; "))
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {} transfers ({:.2}/cycle), {} stall-cycles, {} squash(es), {} iter(s) replayed",
            self.cycles,
            self.transfers,
            self.activity(),
            self.stall_cycles,
            self.squashes,
            self.replayed_iters
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_handles_zero_cycles() {
        let r = SimReport::default();
        assert_eq!(r.activity(), 0.0);
    }

    #[test]
    fn diff_names_the_divergent_field() {
        let a = SimReport {
            cycles: 10,
            transfers: 20,
            stall_cycles: 3,
            squashes: 0,
            replayed_iters: 0,
            stalled_channels: vec![(ChannelId(1), 3)],
        };
        assert_eq!(a.diff(&a), None);
        let mut b = a.clone();
        b.stall_cycles = 4;
        b.stalled_channels = vec![(ChannelId(1), 4)];
        let d = a.diff(&b).expect("differs");
        assert!(d.contains("stall_cycles: 3 vs 4"), "{d}");
        assert!(d.contains("stalled_channels"), "{d}");
        assert!(!d.contains("cycles: 10"), "unchanged fields omitted: {d}");
    }

    #[test]
    fn display_mentions_squashes() {
        let r = SimReport {
            cycles: 10,
            transfers: 20,
            stall_cycles: 3,
            squashes: 2,
            replayed_iters: 5,
            stalled_channels: vec![(ChannelId(1), 3)],
        };
        let s = r.to_string();
        assert!(s.contains("10 cycles"));
        assert!(s.contains("2 squash"));
    }
}
