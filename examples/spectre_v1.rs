//! Spectre V1 penetration test (paper §9.1): run the bounds-check-bypass
//! attack against every configuration and report which ones leak.
//!
//! The receiver is an in-simulator cache-timing observer: after the victim
//! runs, it checks which probe-array line became cached — exactly the
//! signal Flush+Reload measures via latency.
//!
//! ```text
//! cargo run --release --example spectre_v1
//! ```

use spt_repro::core::{Config, ThreatModel};
use spt_repro::mem::Level;
use spt_repro::ooo::{CoreConfig, Machine, RunLimits};
use spt_repro::workloads::attacks::{self, Attack};

fn leak(attack: &Attack, config: Config) -> bool {
    let mut m = Machine::new(attack.workload.program.clone(), CoreConfig::default(), config);
    *m.mem_mut().store() = attack.workload.image.clone();
    m.run(RunLimits::default()).expect("attack runs");
    m.probe(attack.leak_addr()) != Level::Dram
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let attacks = [attacks::spectre_v1(), attacks::ct_secret(), attacks::implicit_branch()];
    println!("Penetration testing (paper §9.1) — three attacks, four defenses:\n");
    println!("  spectre_v1      transient out-of-bounds read (explicit channel)");
    println!("  ct_secret       transmit gadget on a non-speculative secret");
    println!("  implicit_branch transient resolution redirect on a secret predicate\n");

    for threat in [ThreatModel::Futuristic, ThreatModel::Spectre] {
        println!("--- {threat} model ---");
        print!("{:<18}", "attack");
        for name in ["Unsafe", "SecureBase", "SPT", "STT"] {
            print!("{name:>12}");
        }
        println!();
        for attack in &attacks {
            print!("{:<18}", attack.workload.name);
            for config in [
                Config::unsafe_baseline(threat),
                Config::secure_baseline(threat),
                Config::spt_full(threat),
                Config::stt(threat),
            ] {
                let l = leak(attack, config);
                print!("{:>12}", if l { "LEAKED" } else { "safe" });
            }
            println!();
        }
        println!();
    }
    println!("Spectre V1 reads *speculatively accessed* data: STT's scope covers it.");
    println!("The other two leak *non-speculative secrets* — data a constant-time");
    println!("program loaded architecturally but never transmitted. Only SPT (and the");
    println!("slow SecureBaseline) block those; STT's protection scope misses them.");
    Ok(())
}
