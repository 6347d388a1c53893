//! The paper's motivating scenario (§3): attacking a *non-speculative
//! secret* held by constant-time code — and the overhead of protecting it.
//!
//! Part 1 runs the `ct_secret` attack: a key byte loaded by a retired load
//! (never passed to any transmitter) is exfiltrated through a mistrained
//! indirect jump. STT does **not** block this — the data is not
//! speculatively accessed. SPT does.
//!
//! Part 2 measures what that protection costs on real constant-time
//! kernels (ChaCha20, a bitsliced permutation, a sorting network):
//! SecureBaseline pays heavily; SPT runs near baseline speed — the
//! paper's headline result.
//!
//! ```text
//! cargo run --release --example constant_time
//! ```

use spt_repro::core::{Config, ThreatModel};
use spt_repro::mem::Level;
use spt_repro::ooo::{CoreConfig, Machine, RunLimits};
use spt_repro::workloads::{attacks, ct, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: the attack ----
    let attack = attacks::ct_secret();
    println!("Part 1 — leaking a non-speculative secret (key byte = {})", attack.secret);
    println!("{:<24} {:>10}", "configuration", "LEAKED?");
    let threat = ThreatModel::Futuristic;
    for config in [
        Config::unsafe_baseline(threat),
        Config::stt(threat),
        Config::spt_full(threat),
        Config::secure_baseline(threat),
    ] {
        let mut m = Machine::new(attack.workload.program.clone(), CoreConfig::default(), config);
        *m.mem_mut().store() = attack.workload.image.clone();
        m.run(RunLimits::default())?;
        let leaked = m.probe(attack.leak_addr()) != Level::Dram;
        println!("{:<24} {:>10}", format!("{config}"), if leaked { "LEAKED" } else { "safe" });
    }
    println!("\nSTT leaks here: the secret was accessed *non-speculatively*, outside");
    println!("its protection scope. SPT keeps it tainted because the program never");
    println!("transmits it — it is a non-speculative secret (paper §3).\n");

    // ---- Part 2: the cost of protection on constant-time kernels ----
    println!("Part 2 — protection overhead on constant-time kernels (Futuristic)");
    println!("{:<12} {:>14} {:>16} {:>10}", "kernel", "UnsafeBase", "SecureBaseline", "SPT");
    for w in ct::suite(Scale::Bench) {
        let mut cycles = Vec::new();
        for config in [
            Config::unsafe_baseline(threat),
            Config::secure_baseline(threat),
            Config::spt_full(threat),
        ] {
            let mut m = Machine::new(w.program.clone(), CoreConfig::default(), config);
            *m.mem_mut().store() = w.image.clone();
            let out = m.run(RunLimits::retired(20_000))?;
            cycles.push(out.cycles as f64);
        }
        println!(
            "{:<12} {:>14.2} {:>16.2} {:>10.2}",
            w.name,
            1.0,
            cycles[1] / cycles[0],
            cycles[2] / cycles[0]
        );
    }
    println!("\nSPT extends constant-time guarantees to speculative execution at a");
    println!("fraction of SecureBaseline's cost (paper: 2.8x -> 1.10x, an 18x reduction).");
    Ok(())
}
