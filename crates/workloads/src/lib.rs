//! Workloads for the SPT reproduction: SPEC CPU2017 proxies, constant-time
//! (data-oblivious) kernels, and the penetration-test attack programs
//! (paper §9.1).
//!
//! SPEC binaries cannot run on the simulator's toy ISA, so each SPEC
//! benchmark is represented by a synthetic kernel engineered to reproduce
//! its microarchitectural character — the properties that drive SPT's
//! behaviour: whether load outputs feed addresses (pointer chasing), whether
//! branches depend on loaded data, working-set size relative to the cache
//! hierarchy, and store/load locality. See [`spec`] for the per-benchmark
//! rationale.
//!
//! The constant-time kernels in [`ct`] are *genuine* data-oblivious
//! computations (a real ChaCha20 block function, a bitsliced χ-permutation
//! in the style of bitslice AES, and a sorting network in the style of
//! djbsort): secrets flow only through data, never into addresses or branch
//! predicates. That is the property the paper's headline result relies on.
//!
//! # Example
//!
//! ```
//! use spt_workloads::{ct, Scale};
//!
//! let w = ct::chacha20(Scale::Test);
//! let mut interp = w.interp();
//! interp.run(1_000_000)?;
//! assert!(interp.halted());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod attacks;
pub mod ct;
pub mod spec;

use std::sync::atomic::{AtomicU64, Ordering};

use spt_isa::interp::{Interp, SparseMem};
use spt_isa::Program;

/// Process-wide seed mixed into every workload's input-data RNG stream.
///
/// The default of 0 reproduces the historical per-workload streams exactly
/// (the mix is a plain XOR of a zero term), so paper-figure regeneration
/// stays bit-stable unless a seed is requested explicitly.
static INPUT_SEED: AtomicU64 = AtomicU64::new(0);

/// Sets the workload input seed (the experiment binaries' `--seed N`).
/// Affects workloads constructed *after* the call.
pub fn set_input_seed(seed: u64) {
    INPUT_SEED.store(seed, Ordering::Relaxed);
}

/// The current workload input seed (0 = historical default streams).
pub fn input_seed() -> u64 {
    INPUT_SEED.load(Ordering::Relaxed)
}

/// Problem-size selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small iteration counts that halt quickly — for correctness tests
    /// against the reference interpreter.
    Test,
    /// Large iteration counts — benchmark runs stop on a retired-
    /// instruction budget instead of at `Halt`.
    Bench,
}

impl Scale {
    /// Picks an iteration count by scale.
    pub fn iters(self, test: u64, bench: u64) -> u64 {
        match self {
            Scale::Test => test,
            Scale::Bench => bench,
        }
    }
}

/// Workload category (used for Figure 7 grouping and averages).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// SPEC CPU2017 integer proxy.
    SpecInt,
    /// SPEC CPU2017 floating-point proxy (integer arithmetic stand-in).
    SpecFp,
    /// Constant-time / data-oblivious kernel.
    ConstantTime,
}

impl Category {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Category::SpecInt => "SPECint",
            Category::SpecFp => "SPECfp",
            Category::ConstantTime => "const-time",
        }
    }
}

/// A runnable workload: program, initial memory, and metadata.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name (the SPEC benchmark it proxies, or the kernel name).
    pub name: &'static str,
    /// Grouping category.
    pub category: Category,
    /// One-line description of the microarchitectural character.
    pub description: &'static str,
    /// The assembled program.
    pub program: Program,
    /// Initial memory contents, frozen (see [`SparseMem::freeze`]): every
    /// machine and interpreter starts from a clone of this image and copies
    /// only the pages it writes.
    pub image: SparseMem,
    /// Address ranges `(base, len)` holding secret inputs (constant-time
    /// kernels only): data the program never leaks non-speculatively.
    pub secret_ranges: Vec<(u64, u64)>,
}

impl Workload {
    /// Builds a reference interpreter over a clone of the initial image.
    pub fn interp(&self) -> Interp<'_> {
        Interp::with_memory(&self.program, self.image.clone())
    }
}

/// The full SPEC-proxy suite (22 benchmarks) at the given scale.
pub fn spec_suite(scale: Scale) -> Vec<Workload> {
    spec::suite(scale)
}

/// The constant-time kernel suite (3 kernels) at the given scale.
pub fn ct_suite(scale: Scale) -> Vec<Workload> {
    ct::suite(scale)
}

/// Every evaluation workload (SPEC proxies then constant-time kernels), as
/// in paper Figure 7.
pub fn full_suite(scale: Scale) -> Vec<Workload> {
    let mut v = spec_suite(scale);
    v.extend(ct_suite(scale));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(spec_suite(Scale::Test).len(), 22);
        assert_eq!(ct_suite(Scale::Test).len(), 3);
        assert_eq!(full_suite(Scale::Test).len(), 25);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> =
            full_suite(Scale::Test).iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 25);
    }

    #[test]
    fn every_test_scale_workload_halts_on_the_interpreter() {
        for w in full_suite(Scale::Test) {
            let mut i = w.interp();
            i.run(3_000_000).unwrap_or_else(|e| panic!("workload {} did not halt: {e}", w.name));
            assert!(i.halted(), "{}", w.name);
        }
    }

    #[test]
    fn images_are_frozen() {
        for scale in [Scale::Test, Scale::Bench] {
            for w in full_suite(scale) {
                assert_eq!(w.image.private_pages(), 0, "{} must freeze its image", w.name);
            }
        }
    }

    #[test]
    fn ct_kernels_declare_secrets() {
        for w in ct_suite(Scale::Test) {
            assert!(!w.secret_ranges.is_empty(), "{} must declare its secret inputs", w.name);
        }
    }
}
