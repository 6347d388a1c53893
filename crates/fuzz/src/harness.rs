//! The two fuzzing oracles: architectural equivalence (differential) and
//! secret non-interference of the attacker observation (relational).

use crate::generator::{TestProgram, SECRET_BASE, SECRET_FLIP, SECRET_LEN};
use spt_core::{Config, ProtectionKind, ThreatModel};
use spt_isa::interp::{Interp, LeakEvent, LeakKind, SparseMem};
use spt_isa::Reg;
use spt_mem::{HierarchyConfig, MemSystem};
use spt_ooo::{CoreConfig, Machine, RunLimits};

/// Step budget for the reference interpreter.
pub const INTERP_BUDGET: u64 = 400_000;
/// Cycle budget for one pipeline run (generated programs retire a few
/// thousand instructions; SecureBaseline delays every transmitter to its
/// VP, so allow generous headroom).
pub const CYCLE_BUDGET: u64 = 4_000_000;

/// Both paper threat models, in report order.
pub const THREATS: [ThreatModel; 2] = [ThreatModel::Spectre, ThreatModel::Futuristic];

/// What kind of bug a [`Finding`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// Pipeline architectural end-state diverged from the interpreter.
    Differential,
    /// A protected configuration's observation digest depended on the
    /// secret.
    RelationalLeak,
    /// A pipeline run deadlocked or exhausted its cycle budget.
    Timeout,
    /// The generator's own invariants failed (interpreter error, or the
    /// taint discipline mis-predicted whether the leak trace diverges).
    Generator,
}

impl FindingKind {
    /// Stable lowercase label used in reports and reproducer file names.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::Differential => "differential",
            FindingKind::RelationalLeak => "relational-leak",
            FindingKind::Timeout => "timeout",
            FindingKind::Generator => "generator",
        }
    }
}

/// One confirmed divergence, attributed to a configuration when one is
/// involved.
#[derive(Clone, Debug)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// The configuration under which it happened (`None` for generator
    /// anomalies, which involve only the reference interpreter).
    pub config: Option<Config>,
    /// Deterministic human-readable detail.
    pub detail: String,
}

impl Finding {
    /// `"<config> [<threat>]"`, or `"generator"` when no config applies.
    pub fn location(&self) -> String {
        match self.config {
            Some(c) => format!("{} [{}]", c.name(), c.threat),
            None => "generator".to_string(),
        }
    }
}

/// Architectural end-state of a reference-interpreter run.
pub struct InterpRun {
    /// All 32 architectural registers.
    pub regs: Vec<u64>,
    /// Instructions retired (including `Halt`).
    pub retired: u64,
    /// Final memory.
    pub mem: SparseMem,
    /// Non-speculative leak trace (empty unless tracing was on).
    pub trace: Vec<LeakEvent>,
}

/// Runs the reference interpreter to completion from `mem` (see
/// [`TestProgram::memory`]).
pub fn run_interp(
    tp: &TestProgram,
    mem: SparseMem,
    with_trace: bool,
) -> Result<InterpRun, Finding> {
    let mut it = Interp::with_memory(&tp.program, mem);
    if with_trace {
        it.enable_trace();
    }
    match it.run(INTERP_BUDGET) {
        Ok(()) => Ok(InterpRun {
            regs: Reg::all().map(|r| it.reg(r)).collect(),
            retired: it.retired(),
            trace: it.trace().map(<[LeakEvent]>::to_vec).unwrap_or_default(),
            mem: it.mem().clone(),
        }),
        Err(e) => Err(Finding {
            kind: FindingKind::Generator,
            config: None,
            detail: format!("reference interpreter failed: {e}"),
        }),
    }
}

/// Runs the pipeline under `cfg` to completion (error on deadlock or
/// budget exhaustion).
pub fn run_machine(tp: &TestProgram, secret: &[u8], cfg: Config) -> Result<Machine, Finding> {
    run_machine_on(tp, tp.memory(secret), cfg)
}

/// [`run_machine`] from an already built memory.
fn run_machine_on(tp: &TestProgram, store: SparseMem, cfg: Config) -> Result<Machine, Finding> {
    let mut mem = MemSystem::new(HierarchyConfig::default());
    *mem.store() = store;
    let mut m = Machine::with_memory(tp.program.clone(), CoreConfig::default(), cfg, mem);
    let limits = RunLimits { max_cycles: CYCLE_BUDGET, max_retired: u64::MAX };
    match m.run(limits) {
        Err(e) => Err(Finding {
            kind: FindingKind::Timeout,
            config: Some(cfg),
            detail: format!("pipeline error: {e}"),
        }),
        Ok(_) if !m.halted() => Err(Finding {
            kind: FindingKind::Timeout,
            config: Some(cfg),
            detail: format!("no halt within {CYCLE_BUDGET} cycles"),
        }),
        Ok(_) => Ok(m),
    }
}

/// First architectural mismatch between a halted machine and the reference
/// run, if any.
fn diff_compare(interp: &InterpRun, m: &Machine) -> Option<String> {
    let regs = m.arch_regs();
    for (i, (&got, &want)) in regs.iter().zip(interp.regs.iter()).enumerate() {
        if got != want {
            return Some(format!("r{i} = {got:#x} (pipeline) vs {want:#x} (interp)"));
        }
    }
    let retired = m.stats().retired;
    if retired != interp.retired {
        return Some(format!("retired {} (pipeline) vs {} (interp)", retired, interp.retired));
    }
    for (base, len) in TestProgram::footprint() {
        let got = m.mem().store_ref().read_bytes(base, len as usize);
        let want = interp.mem.read_bytes(base, len as usize);
        if got != want {
            let at = got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(0);
            return Some(format!(
                "mem[{:#x}] = {:#04x} (pipeline) vs {:#04x} (interp)",
                base + at as u64,
                got[at],
                want[at]
            ));
        }
    }
    None
}

/// Differential oracle: under every Table-2 configuration and both threat
/// models, the pipeline must reproduce the interpreter's architectural
/// end-state exactly.
pub fn differential(tp: &TestProgram) -> Vec<Finding> {
    let image = tp.memory(&tp.secret).freeze();
    let reference = match run_interp(tp, image.clone(), false) {
        Ok(r) => r,
        Err(f) => return vec![f],
    };
    let mut out = Vec::new();
    for threat in THREATS {
        for cfg in Config::table2(threat) {
            match run_machine_on(tp, image.clone(), cfg) {
                Err(f) => out.push(f),
                Ok(m) => {
                    if let Some(detail) = diff_compare(&reference, &m) {
                        out.push(Finding {
                            kind: FindingKind::Differential,
                            config: Some(cfg),
                            detail,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Outcome of the relational (secret-swap) oracle for one program.
#[derive(Clone, Debug, Default)]
pub struct RelOutcome {
    /// The non-speculative leak traces of the two secret variants differ:
    /// the program leaks architecturally, so no configuration is expected
    /// to hide the secret and the per-config asserts are skipped.
    pub arch_leak: bool,
    /// The program loads or stores inside the secret region
    /// non-speculatively. STT by design does not protect such data, so its
    /// relational assert is skipped (SPT's is not — this gap is the
    /// paper's headline).
    pub secret_read: bool,
    /// At least one unsafe-baseline pair ran to completion.
    pub unsafe_checked: bool,
    /// An unsafe-baseline observation digest depended on the secret (the
    /// expected outcome for gadget-bearing programs).
    pub unsafe_diverged: bool,
    /// Confirmed bugs.
    pub findings: Vec<Finding>,
}

/// Secret variant B: every byte XORed with [`SECRET_FLIP`].
pub fn swapped_secret(secret: &[u8]) -> Vec<u8> {
    secret.iter().map(|b| b ^ SECRET_FLIP).collect()
}

fn touches_secret(trace: &[LeakEvent]) -> bool {
    trace.iter().any(|e| {
        matches!(e.kind, LeakKind::LoadAddr | LeakKind::StoreAddr)
            && e.value < SECRET_BASE + SECRET_LEN
            && e.value + 8 > SECRET_BASE
    })
}

/// Relational oracle: with only the secret bytes varied, every protected
/// configuration must produce identical attacker-observation digests,
/// while gadget programs must make the unsafe baseline diverge.
pub fn relational(tp: &TestProgram) -> RelOutcome {
    let mut out = RelOutcome::default();
    let image_a = tp.memory(&tp.secret).freeze();
    let image_b = tp.memory(&swapped_secret(&tp.secret)).freeze();
    let a = match run_interp(tp, image_a.clone(), true) {
        Ok(r) => r,
        Err(f) => {
            out.findings.push(f);
            return out;
        }
    };
    let b = match run_interp(tp, image_b.clone(), true) {
        Ok(r) => r,
        Err(f) => {
            out.findings.push(f);
            return out;
        }
    };
    out.arch_leak = a.trace != b.trace;
    if out.arch_leak != tp.expect_arch_leak {
        out.findings.push(Finding {
            kind: FindingKind::Generator,
            config: None,
            detail: format!(
                "taint discipline mis-predicted the leak trace: expected \
                 arch_leak={}, traces {}",
                tp.expect_arch_leak,
                if out.arch_leak { "differ" } else { "are equal" }
            ),
        });
    }
    if out.arch_leak {
        // Both variants' architectural behaviour differs; relational
        // equality is not expected of any configuration.
        return out;
    }
    out.secret_read = touches_secret(&a.trace);
    for threat in THREATS {
        for cfg in Config::table2(threat) {
            if cfg.protected() && cfg.kind == ProtectionKind::Stt && out.secret_read {
                continue;
            }
            let ma = match run_machine_on(tp, image_a.clone(), cfg) {
                Ok(m) => m,
                Err(f) => {
                    out.findings.push(f);
                    continue;
                }
            };
            let mb = match run_machine_on(tp, image_b.clone(), cfg) {
                Ok(m) => m,
                Err(f) => {
                    out.findings.push(f);
                    continue;
                }
            };
            let (da, db) = (ma.observation_digest(), mb.observation_digest());
            if cfg.protected() {
                if da != db {
                    out.findings.push(Finding {
                        kind: FindingKind::RelationalLeak,
                        config: Some(cfg),
                        detail: format!(
                            "observation digest depends on the secret: \
                             {da:#018x} vs {db:#018x}"
                        ),
                    });
                }
            } else {
                out.unsafe_checked = true;
                if da != db {
                    out.unsafe_diverged = true;
                }
            }
        }
    }
    out
}

/// Re-checks whether `tp` still exhibits finding `f` (the shrinker's
/// predicate).
pub fn reproduces(tp: &TestProgram, f: &Finding) -> bool {
    match f.kind {
        FindingKind::Generator => {
            // Either interpreter failure or a taint-discipline violation.
            let a = match run_interp(tp, tp.memory(&tp.secret), true) {
                Ok(r) => r,
                Err(_) => return true,
            };
            let b = match run_interp(tp, tp.memory(&swapped_secret(&tp.secret)), true) {
                Ok(r) => r,
                Err(_) => return true,
            };
            (a.trace != b.trace) != tp.expect_arch_leak
        }
        FindingKind::Timeout => {
            let cfg = f.config.expect("timeout findings carry a config");
            run_machine(tp, &tp.secret, cfg).is_err()
        }
        FindingKind::Differential => {
            let cfg = f.config.expect("differential findings carry a config");
            let reference = match run_interp(tp, tp.memory(&tp.secret), false) {
                Ok(r) => r,
                Err(_) => return false,
            };
            match run_machine(tp, &tp.secret, cfg) {
                Ok(m) => diff_compare(&reference, &m).is_some(),
                Err(_) => false,
            }
        }
        FindingKind::RelationalLeak => {
            let cfg = f.config.expect("relational findings carry a config");
            let secret_b = swapped_secret(&tp.secret);
            let (a, b) = match (
                run_interp(tp, tp.memory(&tp.secret), true),
                run_interp(tp, tp.memory(&secret_b), true),
            ) {
                (Ok(a), Ok(b)) => (a, b),
                _ => return false,
            };
            if a.trace != b.trace {
                return false;
            }
            match (run_machine(tp, &tp.secret, cfg), run_machine(tp, &secret_b, cfg)) {
                (Ok(ma), Ok(mb)) => ma.observation_digest() != mb.observation_digest(),
                _ => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn clean_program_passes_both_oracles() {
        // Pick a deterministic seed whose program has no deliberate leak.
        let tp = (0..64)
            .map(generate)
            .find(|t| !t.expect_arch_leak && !t.has_gadget)
            .expect("a quiet program exists in the first 64 seeds");
        let diffs = differential(&tp);
        assert!(diffs.is_empty(), "unexpected differential findings: {diffs:?}");
        let rel = relational(&tp);
        assert!(rel.findings.is_empty(), "unexpected relational findings: {:?}", rel.findings);
        assert!(!rel.arch_leak);
    }

    #[test]
    fn gadget_program_diverges_only_under_unsafe() {
        let tp = (0..64)
            .map(generate)
            .find(|t| t.has_gadget && !t.expect_arch_leak)
            .expect("a gadget program exists in the first 64 seeds");
        let rel = relational(&tp);
        assert!(rel.findings.is_empty(), "protected configs leaked: {:?}", rel.findings);
        assert!(rel.unsafe_checked);
        assert!(rel.unsafe_diverged, "gadget did not move the unsafe observation digest");
    }

    #[test]
    fn secret_branch_is_classified_as_arch_leak() {
        let tp = (0..128)
            .map(generate)
            .find(|t| t.expect_arch_leak)
            .expect("an arch-leaking program exists in the first 128 seeds");
        let rel = relational(&tp);
        assert!(rel.arch_leak, "secret-bit branch must split the leak traces");
        assert!(
            rel.findings.is_empty(),
            "classification should not be a finding: {:?}",
            rel.findings
        );
    }
}
