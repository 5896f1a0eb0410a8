//! Circuit introspection: export a synthesized kernel as Graphviz DOT and
//! watch its memory-port channels as ASCII waveforms while it runs — the
//! reproduction's stand-in for Dynamatic's DOT viewer plus a ModelSim wave
//! window.
//!
//! ```text
//! cargo run --release --example circuit_debug
//! dot -Tsvg /tmp/prevv_circuit.dot -o circuit.svg   # if graphviz is installed
//! ```

use prevv::dataflow::trace::TraceRecorder;
use prevv::dataflow::{viz, SimConfig, Simulator};
use prevv::kernels::extra;
use prevv::{Controller, PrevvConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = extra::fig2a(12, (0..12).map(|i| i % 4).collect());
    println!("kernel source:\n{}", prevv::ir::pretty::render(&spec));

    let mut synth = prevv::ir::synthesize(&spec)?;

    // Watch the first load port's address and result channels plus the
    // first store port's address channel.
    let mut watch = Vec::new();
    for p in synth.interface.ports.iter().take(3) {
        watch.push(p.addr_in);
        if let Some(out) = p.data_out {
            watch.push(out);
        }
    }
    let attached = Controller::Prevv(PrevvConfig::prevv16()).attach(&mut synth)?;

    let dot = viz::to_dot(&synth.netlist);
    std::fs::write("/tmp/prevv_circuit.dot", &dot)?;
    println!(
        "wrote /tmp/prevv_circuit.dot ({} nodes, {} channels)\n",
        synth.netlist.node_count(),
        synth.netlist.channel_count()
    );

    let mut sim = Simulator::new(synth.netlist, synth.bus)?.with_config(SimConfig {
        max_cycles: 50_000,
        watchdog: 2_000,
        ..SimConfig::default()
    });
    sim.attach_recorder(TraceRecorder::new(watch));
    let run = attached.finish(&spec, &synth.interface, sim.run()?);

    println!("simulation: {}", run.report);
    println!("final a[] = {:?}", &run.arrays[0][..8]);
    println!("controller stats: {:?}\n", run.prevv.expect("PreVV stats"));
    println!("memory-port waveforms (T = transfer, s = stall, . = idle):");
    let rec = sim.take_recorder().expect("attached");
    // Print the first 100 cycles of each watched channel.
    for &ch in rec.channels() {
        let t = rec.trace(ch).expect("watched");
        let wave: String = t.render().chars().take(100).collect();
        println!("{ch:>6}  {wave}");
    }
    Ok(())
}
