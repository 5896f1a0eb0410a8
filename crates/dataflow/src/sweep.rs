//! Sharded multi-simulation driver.
//!
//! A [`Netlist`](crate::Netlist) is deliberately not `Send` (components are
//! `Box<dyn Component>` sharing `Rc`-based squash buses), so simulations
//! cannot migrate between threads. Parameter sweeps don't need them to:
//! each *job description* (kernel name, config, seed — plain data) is
//! `Sync`, and every worker builds, runs, and tears down its own simulator
//! entirely inside one thread.
//!
//! [`run`] shards the job list across the available cores and returns the
//! results **in job order, bit-identical at any thread count**: each job's
//! result is written into its own slot, so neither scheduling nor
//! `RAYON_NUM_THREADS` can reorder or perturb the output. The per-job
//! closure must itself be deterministic for the overall guarantee to hold —
//! seed any randomness from the job description, never from wall-clock or
//! thread identity.
//!
//! ```
//! use prevv_dataflow::sweep;
//!
//! let depths = [4usize, 8, 16];
//! let cycles: Vec<usize> = sweep::run(&depths, |&d| d * 100 /* run a sim */);
//! assert_eq!(cycles, vec![400, 800, 1600]);
//! ```

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

/// Runs `f` over every job, sharded across the default thread count
/// (`RAYON_NUM_THREADS` or all cores). Results are in job order.
pub fn run<J, R, F>(jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    jobs.par_iter().map(f).collect()
}

/// [`run`] with an explicit worker count — the hook the determinism tests
/// use to prove thread count cannot affect the output.
pub fn run_with_threads<J, R, F>(jobs: &[J], threads: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(|| jobs.par_iter().map(f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{BinOp, BinaryAlu, Constant, Fork, IterSource, Sink};
    use crate::{Netlist, SimConfig, Simulator, SquashBus};

    /// A tiny but real simulation job: `n` iterations through an adder.
    fn run_adder(n: i64) -> (u64, Vec<i64>) {
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let src = net.channel();
        let f1 = net.channel();
        let f2 = net.channel();
        let one = net.channel();
        let sum = net.channel();
        let rows = (0..n).map(|i| vec![i]).collect();
        net.add("src", IterSource::new(rows, vec![src]));
        net.add("fork", Fork::new(src, vec![f1, f2]));
        net.add("one", Constant::new(1, f2, one));
        net.add("add", BinaryAlu::with_latency(BinOp::Add, 1, f1, one, sum));
        let (sink, store) = Sink::collecting(vec![sum]);
        net.add("sink", sink);
        let mut sim = Simulator::new(net, bus)
            .expect("valid")
            .with_config(SimConfig::default());
        let report = sim.run().expect("completes");
        let values = store.borrow().iter().map(|t| t.value).collect();
        (report.cycles, values)
    }

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<i64> = vec![5, 1, 3, 8, 2];
        let got = run(&jobs, |&n| run_adder(n));
        for (job, (_, values)) in jobs.iter().zip(&got) {
            let expected: Vec<i64> = (0..*job).map(|i| i + 1).collect();
            assert_eq!(values, &expected);
        }
    }

    #[test]
    fn output_is_identical_at_any_thread_count() {
        let jobs: Vec<i64> = (1..20).collect();
        let reference = run_with_threads(&jobs, 1, |&n| run_adder(n));
        for threads in [2, 3, 7, 16] {
            let got = run_with_threads(&jobs, threads, |&n| run_adder(n));
            assert_eq!(got, reference, "thread count {threads}");
        }
    }
}
