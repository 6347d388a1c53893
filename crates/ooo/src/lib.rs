//! A cycle-level out-of-order core simulator with pluggable speculative-
//! execution protections, reproducing the evaluation platform of the SPT
//! paper (MICRO 2021, Table 1): an 8-wide core with a 192-entry ROB, 32/32
//! load/store queues, an LTAGE-style branch predictor, and a three-level
//! cache hierarchy.
//!
//! The simulator models exactly the mechanisms SPT's overhead comes from:
//!
//! * register renaming with rename-time taint computation;
//! * a reorder buffer with per-threat-model visibility-point tracking;
//! * delayed execution of tainted transmitters (loads/stores);
//! * deferred branch-resolution effects (wrong-path fetch continues while
//!   a tainted predicate blocks the squash);
//! * a load/store queue with store-to-load forwarding, memory-dependence
//!   speculation, deferred violation squashes, and `STLPublic` gating;
//! * the shadow L1 mirroring L1D fills/evictions.
//!
//! Architectural behaviour is independent of the protection configuration:
//! integration tests check every workload produces bit-identical results
//! on every Table-2 configuration and on the reference interpreter.
//!
//! # Example
//!
//! ```
//! use spt_ooo::{CoreConfig, Machine, RunLimits};
//! use spt_core::{Config, ThreatModel};
//! use spt_isa::asm::Assembler;
//! use spt_isa::Reg;
//!
//! let mut a = Assembler::new();
//! a.mov_imm(Reg::R1, 0x1000);
//! a.mov_imm(Reg::R2, 7);
//! a.st(Reg::R2, Reg::R1, 0);
//! a.ld(Reg::R3, Reg::R1, 0);
//! a.halt();
//! let program = a.assemble()?;
//!
//! for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
//!     let mut m = Machine::new(program.clone(), CoreConfig::default(),
//!                              Config::spt_full(threat));
//!     m.run(RunLimits::default())?;
//!     assert_eq!(m.reg(Reg::R3), 7);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod machine;
mod protection;
pub mod rename;
pub mod rob;
mod sched;
pub mod stats;
pub mod telemetry;
pub mod validate;

pub use config::CoreConfig;
pub use machine::{Machine, RunLimits};
pub use stats::{MachineStats, RunOutcome, SimError, StopReason};
pub use telemetry::Telemetry;
pub use validate::SecurityValidator;
