//! Dynamic verification of the paper's Theorem 1 (§8): every untaint
//! decision SPT makes during real workload runs must be independently
//! derivable by the model attacker from non-speculatively-leaked operands
//! and the public instruction stream. See `spt_ooo::validate`.

use spt_repro::core::{Config, ThreatModel};
use spt_repro::ooo::{CoreConfig, Machine, RunLimits};
use spt_repro::workloads::{attacks, full_suite, Scale, Workload};

fn validate(w: &Workload, config: Config, budget: u64) -> (u64, Vec<String>) {
    let mut m = Machine::new(w.program.clone(), CoreConfig::default(), config);
    *m.mem_mut().store() = w.image.clone();
    m.enable_validation();
    m.run(RunLimits::retired(budget)).unwrap_or_else(|e| panic!("{} under {config}: {e}", w.name));
    m.validation_report().expect("validator enabled")
}

#[test]
fn theorem1_holds_on_every_workload_under_full_spt() {
    let mut total_checks = 0;
    for w in full_suite(Scale::Test) {
        for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
            let (passed, violations) = validate(&w, Config::spt_full(threat), 4_000);
            assert!(
                violations.is_empty(),
                "{} [{threat}]: Theorem 1 violated:\n{}",
                w.name,
                violations.join("\n")
            );
            total_checks += passed;
        }
    }
    assert!(
        total_checks > 1_000,
        "the validator must actually exercise untaint decisions, got {total_checks}"
    );
}

#[test]
fn theorem1_holds_under_every_spt_variant() {
    // One representative gather-heavy workload across all SPT variants
    // (these exercise every untaint mechanism).
    let suite = full_suite(Scale::Test);
    let w = suite.iter().find(|w| w.name == "xalancbmk").expect("present");
    for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
        for config in [
            Config::secure_baseline(threat),
            Config::spt_fwd(threat),
            Config::spt_bwd(threat),
            Config::spt_full(threat),
            Config::spt_shadow_mem(threat),
            Config::spt_ideal(threat),
        ] {
            let (_, violations) = validate(w, config, 4_000);
            assert!(
                violations.is_empty(),
                "{config}: Theorem 1 violated:\n{}",
                violations.join("\n")
            );
        }
    }
}

#[test]
fn theorem1_holds_during_the_attacks() {
    // The attacks are the adversarial case: mis-speculation, mistrained
    // predictors, deferred squashes. No untaint may outrun the attacker.
    for attack in [attacks::spectre_v1(), attacks::ct_secret(), attacks::implicit_branch()] {
        for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
            for config in [Config::spt_full(threat), Config::spt_ideal(threat)] {
                let (_, violations) = validate(&attack.workload, config, 100_000);
                assert!(
                    violations.is_empty(),
                    "{} under {config}: Theorem 1 violated:\n{}",
                    attack.workload.name,
                    violations.join("\n")
                );
            }
        }
    }
}

#[test]
fn validator_catches_a_planted_unsound_untaint() {
    // Negative control: feed the validator a broadcast that SPT never
    // justified and confirm it is flagged — the validator is not
    // vacuously happy.
    use spt_repro::core::UntaintKind;
    use spt_repro::ooo::SecurityValidator;

    let mut v = SecurityValidator::new();
    // A load of secret data into p5 (no declassification whatsoever).
    v.on_rename(
        1,
        0,
        spt_repro::isa::Inst::Load {
            rd: spt_repro::isa::Reg::R5,
            base: spt_repro::isa::Reg::R1,
            index: spt_repro::isa::Reg::R0,
            scale: 0,
            offset: 0,
            size: spt_repro::isa::MemSize::B8,
        },
        [Some(4), None, None],
        Some(5),
        false,
    );
    v.on_mem_addr(1, 0x1000);
    // Plant an unjustified "shadow says public" broadcast.
    v.on_broadcast(5, UntaintKind::ShadowL1);
    v.finish(|_| Some(0xdead_beef));
    assert!(!v.violations().is_empty(), "the planted unsound untaint must be reported");
}
