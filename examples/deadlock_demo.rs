//! The paper's §V-C deadlock, live: a guarded update whose untaken
//! iterations starve the arbiter. With fake tokens the circuit completes;
//! without them the premature queue fills and the pipeline wedges — caught
//! by the simulator's no-progress watchdog.
//!
//! ```text
//! cargo run --release --example deadlock_demo
//! ```

use prevv::kernels::extra;
use prevv::{run_kernel_with, Controller, PrevvConfig, SimConfig, SynthOptions};

fn main() {
    // if (i % 3 == 0) a[3] += 1  — two of three iterations send no memory
    // traffic for the guarded statement.
    let spec = extra::guarded_update(96, 3);
    let config = || Controller::Prevv(PrevvConfig::with_depth(4));
    let sim = SimConfig {
        max_cycles: 200_000,
        watchdog: 1_500,
        ..SimConfig::default()
    };

    println!("guarded kernel, premature queue depth 4\n");

    let with_fakes = run_kernel_with(&spec, config(), &SynthOptions::default(), &sim)
        .expect("fake tokens keep the queue draining");
    let stats = with_fakes.prevv.expect("prevv stats");
    println!(
        "fake tokens ON :  completed in {} cycles, {} fake tokens delivered, result correct: {}",
        with_fakes.report.cycles, stats.fakes, with_fakes.matches_golden
    );

    let no_fakes = SynthOptions { fake_tokens: false };
    match run_kernel_with(&spec, config(), &no_fakes, &sim) {
        Err(e) => println!("fake tokens OFF:  {e}"),
        Ok(r) => println!(
            "fake tokens OFF:  unexpectedly completed in {} cycles (did the guard ever evaluate false?)",
            r.report.cycles
        ),
    }

    println!(
        "\nWithout fake tokens the arbiter never learns that untaken iterations\n\
         contribute no memory op, so retirement stalls, the depth-4 queue fills,\n\
         and backpressure freezes the whole pipeline — exactly the failure the\n\
         paper's §V-C tag-and-fake mechanism eliminates."
    );
}
