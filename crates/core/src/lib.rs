//! Speculative Privacy Tracking (SPT) — the core taint-tracking library.
//!
//! This crate implements the contribution of *"Speculative Privacy
//! Tracking (SPT): Leaking Information From Speculative Execution Without
//! Compromising Privacy"* (MICRO 2021), independent of any particular
//! pipeline:
//!
//! * [`TaintMask`] — register taint with the paper's partial-width access
//!   fields (§7.2);
//! * [`algebra`] — the declassification/untaint algebra: forward and
//!   backward rules as pure functions of instruction class and taint (§5,
//!   §6.6);
//! * [`TaintEngine`] — rename-time tainting, visibility-point
//!   declassification, and the two-phase, bounded-broadcast-width untaint
//!   propagation of §7.3 (plus the idealized single-cycle variant);
//! * [`shadow`] — the byte-granular shadow L1 (§6.8, §7.5) and the
//!   idealized whole-memory shadow;
//! * [`stt`] — the STT (MICRO'19) s-taint tracker used as the
//!   narrower-scope comparison scheme;
//! * [`Config`] — the eight evaluated configurations of paper Table 2 and
//!   the two attack models (Spectre / Futuristic);
//! * [`SptStats`] — the untaint-event taxonomy behind Figures 8 and 9.
//!
//! The out-of-order pipeline in `spt-ooo` drives these components; see its
//! documentation for how they plug into rename, issue, the LSQ and retire.
//!
//! # Example: the paper's Figure 4 untaint chain
//!
//! ```
//! use spt_core::{Config, TaintEngine, ThreatModel, UntaintKind};
//! use spt_core::engine::RenameInfo;
//! use spt_isa::{InstClass, OperandRole};
//!
//! let mut e = TaintEngine::new(Config::spt_full(ThreatModel::Futuristic), 16);
//! // I1: r0 = r1 + r2
//! e.rename(RenameInfo {
//!     seq: 1,
//!     class: InstClass::Invertible2,
//!     srcs: [Some((1, OperandRole::Data)), Some((2, OperandRole::Data)), None],
//!     dest: Some(0),
//!     load_bytes: None,
//! });
//! // I2: load r3 <- (r0)
//! e.rename(RenameInfo {
//!     seq: 2,
//!     class: InstClass::Load,
//!     srcs: [Some((0, OperandRole::Address)), None, None],
//!     dest: Some(3),
//!     load_bytes: Some(8),
//! });
//! // I2 reaches the visibility point: r0 is declassified and propagates.
//! e.declassify_vp(2);
//! let step = e.step();
//! assert_eq!(step.broadcasts, vec![(0, UntaintKind::DeclassifyTransmit)]);
//! ```

pub mod algebra;
pub mod config;
pub mod engine;
pub mod gates;
pub mod shadow;
pub mod stats;
pub mod stt;
pub mod taint;

pub use config::{Config, Policy, ProtectionKind, ShadowMode, ThreatModel, UntaintMethod};
pub use engine::{PhysReg, RenameInfo, Seq, StepResult, TaintEngine};
pub use shadow::ShadowTaint;
pub use stats::{SptStats, UntaintCounts, UntaintKind};
pub use stt::SttTracker;
pub use taint::TaintMask;
