//! Failure-mode coverage on *generated* kernels: the no-progress watchdog
//! and the combinational-cycle detector must fire — identically under both
//! schedulers — on wedged circuits that came out of the fuzzer, not just on
//! hand-written netlists.
//!
//! Two wedge recipes:
//!
//! 1. **Premature-queue deadlock** (paper §V-C): synthesize a generated
//!    kernel whose every statement is guarded, with fake tokens *disabled*.
//!    The first skipped iteration starves the PreVV queue's in-order head
//!    and the watchdog must declare [`SimError::Deadlock`].
//! 2. **Divergent combinational loop**: graft the canonical unbuffered
//!    merge→mux→fork feedback gadget onto a generated kernel's synthesized
//!    netlist. Both schedulers must reject with
//!    [`SimError::CombinationalCycle`] at the same cycle, naming the same
//!    gadget channels.

use prevv::dataflow::components::{Branch, Buffer, Fork, IterSource, Merge, Mux, Sink};
use prevv::dataflow::Simulator;
use prevv::kernels::gen::{generate, GenConfig};
use prevv::{
    run_kernel_with, Controller, PrevvConfig, RunError, Scheduler, SimConfig, SimError,
    SynthOptions,
};

fn sim_config(scheduler: Scheduler) -> SimConfig {
    SimConfig {
        scheduler,
        watchdog: 300,
        max_cycles: 200_000,
    }
}

/// Generated all-guarded kernels, synthesized without fake tokens, must be
/// declared dead by the event scheduler's watchdog — and the dense
/// scheduler must agree. Re-enabling fake tokens must cure the same kernel.
#[test]
fn watchdog_catches_generated_premature_queue_deadlock() {
    let cfg = GenConfig {
        require_guard: true,
        // Keep the PreVV depth choice out of the picture: prevv16 for all.
        allow_depth_hint: false,
        ..GenConfig::corpus()
    };
    let starved = SynthOptions {
        fake_tokens: false,
        ..SynthOptions::default()
    };
    let controller = Controller::Prevv(PrevvConfig::prevv16());

    let mut wedged = 0usize;
    for seed in 0..64u64 {
        let spec = generate(seed, &cfg);
        let event = run_kernel_with(
            &spec,
            controller.clone(),
            &starved,
            &sim_config(Scheduler::EventDriven),
        );
        let (cycle, detail) = match event {
            Err(RunError::Sim(SimError::Deadlock { cycle, detail })) => (cycle, detail),
            // A kernel whose guards all happen to pass never starves the
            // queue; it must then run to completion and match golden.
            Ok(r) => {
                assert!(
                    r.matches_golden,
                    "{}: un-wedged kernel must be correct",
                    spec.name
                );
                continue;
            }
            Err(other) => panic!("{}: expected deadlock or success, got {other}", spec.name),
        };
        wedged += 1;
        assert!(
            cycle > 0,
            "{}: watchdog fired before any progress window",
            spec.name
        );
        assert!(
            !detail.is_empty(),
            "{}: deadlock diagnostic must name the stall",
            spec.name
        );

        // The dense reference sweep must reach the same verdict.
        match run_kernel_with(
            &spec,
            controller.clone(),
            &starved,
            &sim_config(Scheduler::Dense),
        ) {
            Err(RunError::Sim(SimError::Deadlock { .. })) => {}
            other => panic!(
                "{}: dense scheduler disagrees on the wedge: {other:?}",
                spec.name
            ),
        }

        // Fake tokens are exactly the cure the paper prescribes.
        for scheduler in [Scheduler::Dense, Scheduler::EventDriven] {
            let cured = run_kernel_with(
                &spec,
                controller.clone(),
                &SynthOptions::default(),
                &sim_config(scheduler),
            )
            .unwrap_or_else(|e| panic!("{}: fake tokens must cure the wedge: {e}", spec.name));
            assert!(
                cured.matches_golden,
                "{}: cured run must match golden",
                spec.name
            );
        }

        if wedged >= 3 {
            return;
        }
    }
    panic!("no generated kernel wedged in 64 seeds; generator guards are degenerate");
}

/// Grafts the unbuffered merge→mux→fork feedback loop onto a synthesized
/// generated kernel and returns the simulation error plus the gadget's
/// three loop channels.
fn run_with_divergent_gadget(
    seed: u64,
    scheduler: Scheduler,
) -> (SimError, [prevv::dataflow::ChannelId; 3]) {
    let cfg = GenConfig {
        // Guards squash; keep the host kernel plain so the only pathology
        // is the injected gadget.
        allow_guards: false,
        ..GenConfig::corpus()
    };
    let spec = generate(seed, &cfg);
    let mut circuit = prevv::ir::synthesize(&spec).expect("generated kernels synthesize");
    Controller::FastLsq {
        depth: 16.max(spec.mem_ops_per_iter()),
    }
    .attach(&mut circuit)
    .expect("fast LSQ attaches");

    // The canonical divergent gadget: iteration 1 routes a token into an
    // unbuffered merge→mux→fork loop, so the combinational fixpoint churns.
    let net = &mut circuit.netlist;
    let data = net.channel();
    let cond = net.channel();
    let v_f = net.channel();
    let v_t = net.channel();
    let bv_f = net.channel();
    let bv_t = net.channel();
    let enter = net.channel();
    let safe = net.channel();
    let loop_back = net.channel();
    let sel = net.channel();
    let mux_out = net.channel();
    let spill = net.channel();
    let rows = vec![vec![7, 0, 1, 0], vec![7, 1, 1, 0]];
    net.add(
        "wedge_src",
        IterSource::new(rows, vec![data, cond, v_f, v_t], circuit.bus.clone()),
    );
    net.add("wedge_bf", Buffer::new(2, v_f, bv_f));
    net.add("wedge_bt", Buffer::new(2, v_t, bv_t));
    net.add("wedge_gate", Branch::new(data, cond, enter, safe));
    net.add("wedge_safe", Sink::new(vec![safe]));
    net.add("wedge_merge", Merge::new(vec![loop_back, enter], sel));
    net.add("wedge_mux", Mux::new(sel, bv_f, bv_t, mux_out));
    net.add("wedge_fork", Fork::new(mux_out, vec![loop_back, spill]));
    net.add("wedge_spill", Sink::new(vec![spill]));

    let mut sim = Simulator::new(circuit.netlist, circuit.bus)
        .expect("structurally valid")
        .with_config(sim_config(scheduler));
    let err = sim.run().expect_err("the gadget must wedge the circuit");
    (err, [sel, mux_out, loop_back])
}

#[test]
fn combinational_cycle_detected_in_generated_kernel_netlists() {
    for seed in [3u64, 11, 42] {
        let mut verdicts = Vec::new();
        for scheduler in [Scheduler::Dense, Scheduler::EventDriven] {
            let (err, loop_channels) = run_with_divergent_gadget(seed, scheduler);
            match err {
                SimError::CombinationalCycle { cycle, channels } => {
                    for ch in loop_channels {
                        assert!(
                            channels.contains(&ch),
                            "seed {seed} {scheduler:?}: loop channel {ch} unnamed in {channels:?}"
                        );
                    }
                    verdicts.push((cycle, channels));
                }
                other => {
                    panic!("seed {seed} {scheduler:?}: expected CombinationalCycle, got {other:?}")
                }
            }
        }
        assert_eq!(
            verdicts[0], verdicts[1],
            "seed {seed}: schedulers must agree on cycle and channel set"
        );
    }
}
