//! Protection configurations (paper Table 2) and threat models.

use std::fmt;

/// The speculation attack model, which determines the *visibility point*
/// (VP): the point at which an instruction is considered non-speculative
/// (paper §2.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ThreatModel {
    /// Covers control-flow speculation only: an instruction reaches the VP
    /// when all older control-flow instructions have resolved.
    Spectre,
    /// Covers all forms of speculation: an instruction reaches the VP when
    /// it can no longer be squashed (all older instructions have completed
    /// and all older control flow has resolved).
    Futuristic,
}

impl fmt::Display for ThreatModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreatModel::Spectre => f.write_str("spectre"),
            ThreatModel::Futuristic => f.write_str("futuristic"),
        }
    }
}

/// Which untaint propagation rules are enabled (paper Table 2, and the
/// artifact's `--untaint-method` flag).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UntaintMethod {
    /// No untaint propagation at all: every transmitter waits for its VP.
    /// This is the paper's SecureBaseline.
    None,
    /// Forward (output) untainting only (§6.6).
    Fwd,
    /// Forward plus backward (input) untainting (§6.6).
    Bwd,
    /// Idealized single-cycle transitive closure over the whole in-flight
    /// dataflow graph, with unbounded broadcast width (§9.1).
    Ideal,
}

impl UntaintMethod {
    /// Whether forward rules run.
    pub fn forward(self) -> bool {
        self >= UntaintMethod::Fwd
    }

    /// Whether backward rules run.
    pub fn backward(self) -> bool {
        self >= UntaintMethod::Bwd
    }

    /// Whether propagation iterates to a fixpoint each cycle with unbounded
    /// broadcast width.
    pub fn ideal(self) -> bool {
        self == UntaintMethod::Ideal
    }
}

/// Memory taint tracking mode (paper §6.8, Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShadowMode {
    /// No memory taint: loaded data is always conservatively tainted.
    None,
    /// Shadow L1: byte-granular taint for L1D-resident lines (§7.5).
    L1,
    /// Idealized byte-granular taint for all of memory.
    Mem,
}

/// How unsafe (tainted-operand) transmitters are protected (paper §6.3:
/// "we use a 'delayed execution' policy ... However, SPT can use other
/// comprehensive policies such as executing a transmitter in a
/// data-oblivious fashion that does not leak its operands" — i.e. SDO).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Delay the transmitter until its operands untaint or it reaches the
    /// visibility point (the paper's evaluated policy).
    Delay,
    /// Execute tainted loads immediately but *obliviously* (SDO-style):
    /// worst-case latency, no cache state change, so execution reveals
    /// nothing about the operands. Stores never touch the cache before
    /// retire in this simulator, so only loads change behaviour.
    Oblivious,
}

/// Top-level protection scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtectionKind {
    /// No protection: the unmodified insecure processor.
    Unsafe,
    /// Speculative Privacy Tracking (this paper). With
    /// [`UntaintMethod::None`] this degrades to the SecureBaseline that
    /// delays all transmitters to the VP.
    Spt,
    /// Speculative Taint Tracking (MICRO'19): protects only
    /// speculatively-accessed data. Included as the narrower-scope
    /// comparison point (paper §9.2).
    Stt,
}

/// A complete simulator protection configuration.
///
/// Use the named constructors to obtain the exact variants of paper
/// Table 2.
///
/// # Example
///
/// ```
/// use spt_core::{Config, ThreatModel};
/// let c = Config::spt_full(ThreatModel::Futuristic);
/// assert_eq!(c.name(), "SPT{Bwd,ShadowL1}");
/// assert!(c.untaint.backward());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    /// Protection scheme.
    pub kind: ProtectionKind,
    /// Attack model (determines the VP).
    pub threat: ThreatModel,
    /// Enabled untaint rules (SPT only).
    pub untaint: UntaintMethod,
    /// Memory taint tracking (SPT only).
    pub shadow: ShadowMode,
    /// Maximum untainted registers broadcast per cycle (§7.3; Table 1
    /// value: 3). Ignored under [`UntaintMethod::Ideal`].
    pub broadcast_width: usize,
    /// Protection policy for unsafe transmitters.
    pub policy: Policy,
    /// Whether variable-time instructions (§2.1's third transmitter class)
    /// are protected like transmitters. The paper's evaluation defines
    /// transmitters as loads and stores only (§9.1), so this is off by
    /// default; turning it on closes the operand-dependent-latency channel.
    pub variable_time_transmitters: bool,
}

impl Config {
    /// Paper Table 1 broadcast width.
    pub const DEFAULT_BROADCAST_WIDTH: usize = 3;

    fn spt_base(threat: ThreatModel, untaint: UntaintMethod, shadow: ShadowMode) -> Config {
        Config {
            kind: ProtectionKind::Spt,
            threat,
            untaint,
            shadow,
            broadcast_width: Self::DEFAULT_BROADCAST_WIDTH,
            policy: Policy::Delay,
            variable_time_transmitters: false,
        }
    }

    /// UnsafeBaseline: the unmodified, insecure processor.
    pub fn unsafe_baseline(threat: ThreatModel) -> Config {
        Config {
            kind: ProtectionKind::Unsafe,
            threat,
            untaint: UntaintMethod::None,
            shadow: ShadowMode::None,
            broadcast_width: Self::DEFAULT_BROADCAST_WIDTH,
            policy: Policy::Delay,
            variable_time_transmitters: false,
        }
    }

    /// SecureBaseline: loads and stores delayed until reaching the VP.
    pub fn secure_baseline(threat: ThreatModel) -> Config {
        Self::spt_base(threat, UntaintMethod::None, ShadowMode::None)
    }

    /// SPT {Fwd, NoShadowL1}.
    pub fn spt_fwd(threat: ThreatModel) -> Config {
        Self::spt_base(threat, UntaintMethod::Fwd, ShadowMode::None)
    }

    /// SPT {Bwd, NoShadowL1}.
    pub fn spt_bwd(threat: ThreatModel) -> Config {
        Self::spt_base(threat, UntaintMethod::Bwd, ShadowMode::None)
    }

    /// SPT {Bwd, ShadowL1} — the full SPT design.
    pub fn spt_full(threat: ThreatModel) -> Config {
        Self::spt_base(threat, UntaintMethod::Bwd, ShadowMode::L1)
    }

    /// SPT {Bwd, ShadowMem} — idealized all-memory taint tracking.
    pub fn spt_shadow_mem(threat: ThreatModel) -> Config {
        Self::spt_base(threat, UntaintMethod::Bwd, ShadowMode::Mem)
    }

    /// SPT {Ideal, ShadowMem} — idealized untainting and memory tracking.
    pub fn spt_ideal(threat: ThreatModel) -> Config {
        Self::spt_base(threat, UntaintMethod::Ideal, ShadowMode::Mem)
    }

    /// STT: protects speculatively-accessed data only.
    pub fn stt(threat: ThreatModel) -> Config {
        Config {
            kind: ProtectionKind::Stt,
            threat,
            untaint: UntaintMethod::None,
            shadow: ShadowMode::None,
            broadcast_width: Self::DEFAULT_BROADCAST_WIDTH,
            policy: Policy::Delay,
            variable_time_transmitters: false,
        }
    }

    /// SPT{Bwd,ShadowL1} with the SDO-style oblivious policy instead of
    /// delayed execution — the alternative the paper points to in §6.3.
    pub fn spt_sdo(threat: ThreatModel) -> Config {
        Config { policy: Policy::Oblivious, ..Self::spt_full(threat) }
    }

    /// All eight Table-2 configurations for one threat model, in the
    /// paper's presentation order.
    pub fn table2(threat: ThreatModel) -> Vec<Config> {
        vec![
            Self::unsafe_baseline(threat),
            Self::secure_baseline(threat),
            Self::spt_fwd(threat),
            Self::spt_bwd(threat),
            Self::spt_full(threat),
            Self::spt_shadow_mem(threat),
            Self::spt_ideal(threat),
            Self::stt(threat),
        ]
    }

    /// The paper's display name for this configuration.
    pub fn name(&self) -> &'static str {
        if self.policy == Policy::Oblivious {
            return "SPT{Bwd,ShadowL1}+SDO";
        }
        match (self.kind, self.untaint, self.shadow) {
            (ProtectionKind::Unsafe, ..) => "UnsafeBaseline",
            (ProtectionKind::Stt, ..) => "STT",
            (ProtectionKind::Spt, UntaintMethod::None, _) => "SecureBaseline",
            (ProtectionKind::Spt, UntaintMethod::Fwd, _) => "SPT{Fwd,NoShadowL1}",
            (ProtectionKind::Spt, UntaintMethod::Bwd, ShadowMode::None) => "SPT{Bwd,NoShadowL1}",
            (ProtectionKind::Spt, UntaintMethod::Bwd, ShadowMode::L1) => "SPT{Bwd,ShadowL1}",
            (ProtectionKind::Spt, UntaintMethod::Bwd, ShadowMode::Mem) => "SPT{Bwd,ShadowMem}",
            (ProtectionKind::Spt, UntaintMethod::Ideal, _) => "SPT{Ideal,ShadowMem}",
        }
    }

    /// Whether any protection (SPT, STT, or SecureBaseline) is active.
    pub fn protected(&self) -> bool {
        self.kind != ProtectionKind::Unsafe
    }
}

/// `name [threat]`, plus ` (width N)` when the broadcast width is not
/// the Table-1 default, so the cells of a width ablation stay distinct.
impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name(), self.threat)?;
        if self.broadcast_width != Self::DEFAULT_BROADCAST_WIDTH {
            write!(f, " (width {})", self.broadcast_width)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_eight_distinct_names() {
        let configs = Config::table2(ThreatModel::Spectre);
        assert_eq!(configs.len(), 8);
        let names: std::collections::BTreeSet<_> = configs.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn untaint_method_ordering() {
        assert!(!UntaintMethod::None.forward());
        assert!(UntaintMethod::Fwd.forward());
        assert!(!UntaintMethod::Fwd.backward());
        assert!(UntaintMethod::Bwd.backward());
        assert!(UntaintMethod::Ideal.backward());
        assert!(UntaintMethod::Ideal.ideal());
    }

    #[test]
    fn display_includes_threat() {
        let c = Config::stt(ThreatModel::Futuristic);
        assert_eq!(c.to_string(), "STT [futuristic]");
    }

    #[test]
    fn display_tells_width_cells_apart() {
        let full = Config::spt_full(ThreatModel::Futuristic);
        assert_eq!(full.to_string(), "SPT{Bwd,ShadowL1} [futuristic]");
        let narrow = Config { broadcast_width: 1, ..full };
        assert_eq!(narrow.to_string(), "SPT{Bwd,ShadowL1} [futuristic] (width 1)");
        assert_eq!(narrow.name(), full.name(), "the paper name stays the configuration's");
    }

    #[test]
    fn secure_baseline_is_spt_with_no_untaint() {
        let c = Config::secure_baseline(ThreatModel::Spectre);
        assert_eq!(c.kind, ProtectionKind::Spt);
        assert_eq!(c.untaint, UntaintMethod::None);
        assert!(c.protected());
        assert!(!Config::unsafe_baseline(ThreatModel::Spectre).protected());
    }
}
