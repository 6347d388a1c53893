//! Performance-shape assertions: the qualitative relationships the paper's
//! evaluation (§9.2) establishes must hold in the reproduction —
//! orderings and crossovers, not absolute numbers.
//!
//! Every comparison reads one memoized cell store (the structure
//! `reproduce` regenerates the paper's figures from): the cells below are
//! simulated once per process, on the bench crate's worker pool, and
//! asking for a cell outside them panics instead of simulating on the side.

use spt_bench::reproduce::{CellStore, Plan};
use spt_bench::runner::SweepOptions;
use spt_repro::core::{Config, ThreatModel};
use spt_repro::workloads::{ct_suite, full_suite, spec_suite, Scale, Workload};
use std::sync::OnceLock;

// Smaller budget under debug builds keeps `cargo test --workspace` fast;
// the qualitative relationships asserted here hold at either size (and the
// full-budget numbers live in EXPERIMENTS.md).
const BUDGET: u64 = if cfg!(debug_assertions) { 4_000 } else { 8_000 };

/// Every Table-2 configuration under the Futuristic model, and the four
/// the tests compare across models under Spectre, on every workload.
fn store() -> &'static CellStore {
    static STORE: OnceLock<CellStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let suite = full_suite(Scale::Bench);
        let spectre = ThreatModel::Spectre;
        let mut plan = Plan::default();
        for w in &suite {
            for cfg in Config::table2(ThreatModel::Futuristic) {
                plan.add(w.name, cfg);
            }
            for cfg in [
                Config::unsafe_baseline(spectre),
                Config::secure_baseline(spectre),
                Config::spt_full(spectre),
                Config::stt(spectre),
            ] {
                plan.add(w.name, cfg);
            }
        }
        CellStore::simulate(plan, &suite, SweepOptions::new(BUDGET))
            .unwrap_or_else(|e| panic!("simulation wedged: {e}"))
    })
}

fn mean_normalized(
    suite: &[Workload],
    config: impl Fn(ThreatModel) -> Config,
    threat: ThreatModel,
) -> f64 {
    let store = store();
    suite.iter().map(|w| store.normalized(w.name, config(threat))).sum::<f64>() / suite.len() as f64
}

#[test]
fn spt_beats_secure_baseline_on_average() {
    // §9.2: "SPT effectively reduces the overhead compared to
    // SecureBaseline" — in both attack models.
    let suite = full_suite(Scale::Bench);
    for threat in [ThreatModel::Futuristic, ThreatModel::Spectre] {
        let secure = mean_normalized(&suite, Config::secure_baseline, threat);
        let spt = mean_normalized(&suite, Config::spt_full, threat);
        assert!(spt < secure, "{threat}: SPT ({spt:.3}) must beat SecureBaseline ({secure:.3})");
        assert!(
            (secure - 1.0) / (spt - 1.0).max(0.01) > 2.0,
            "{threat}: overhead reduction should be substantial (paper: 3-3.6x)"
        );
    }
}

#[test]
fn futuristic_costs_more_than_spectre() {
    // The Futuristic VP is strictly later, so protection overhead is
    // strictly higher on average (paper: 45% vs 11%).
    let suite = spec_suite(Scale::Bench);
    let fut = mean_normalized(&suite, Config::spt_full, ThreatModel::Futuristic);
    let spe = mean_normalized(&suite, Config::spt_full, ThreatModel::Spectre);
    assert!(fut > spe, "Futuristic ({fut:.3}) must cost more than Spectre ({spe:.3})");
}

#[test]
fn constant_time_kernels_run_near_baseline_under_spt() {
    // The headline use case (§9.2): constant-time code regains its speed
    // under SPT while SecureBaseline pays heavily.
    let suite = ct_suite(Scale::Bench);
    let threat = ThreatModel::Futuristic;
    let secure = mean_normalized(&suite, Config::secure_baseline, threat);
    let spt = mean_normalized(&suite, Config::spt_full, threat);
    assert!(secure > 1.2, "SecureBaseline must visibly hurt CT kernels, got {secure:.3}");
    assert!(spt < 1.15, "SPT must keep CT kernels near baseline, got {spt:.3}");
}

#[test]
fn each_untaint_mechanism_never_hurts_on_average() {
    // Incremental configurations (Fwd -> Bwd -> ShadowL1) each reduce (or
    // preserve) mean overhead, as in the paper's incremental evaluation.
    let suite = full_suite(Scale::Bench);
    let threat = ThreatModel::Futuristic;
    let secure = mean_normalized(&suite, Config::secure_baseline, threat);
    let fwd = mean_normalized(&suite, Config::spt_fwd, threat);
    let bwd = mean_normalized(&suite, Config::spt_bwd, threat);
    let full = mean_normalized(&suite, Config::spt_full, threat);
    let eps = 0.01;
    assert!(fwd < secure, "forward untainting must help: {fwd:.3} vs {secure:.3}");
    assert!(bwd <= fwd + eps, "backward untainting must not hurt: {bwd:.3} vs {fwd:.3}");
    assert!(full <= bwd + eps, "shadow L1 must not hurt: {full:.3} vs {bwd:.3}");
}

#[test]
fn ideal_propagation_is_close_to_bounded_width() {
    // §9.2: "SPT{Ideal,ShadowMem} provides negligible improvement over
    // SPT{Bwd,ShadowMem}": width 3 does not bottleneck propagation.
    let suite = spec_suite(Scale::Bench);
    let threat = ThreatModel::Futuristic;
    let smem = mean_normalized(&suite, Config::spt_shadow_mem, threat);
    let ideal = mean_normalized(&suite, Config::spt_ideal, threat);
    assert!(
        (smem - ideal).abs() < 0.05,
        "ideal ({ideal:.3}) should be within noise of bounded ({smem:.3})"
    );
}

#[test]
fn stt_is_cheaper_than_spt() {
    // STT's narrower protection scope costs less (paper: SPT adds 3.3/26.1
    // percentage points over STT).
    let suite = full_suite(Scale::Bench);
    for threat in [ThreatModel::Futuristic, ThreatModel::Spectre] {
        let stt = mean_normalized(&suite, Config::stt, threat);
        let spt = mean_normalized(&suite, Config::spt_full, threat);
        assert!(
            stt <= spt + 0.01,
            "{threat}: STT ({stt:.3}) must not cost more than SPT ({spt:.3})"
        );
    }
}

#[test]
fn unsafe_baseline_is_the_fastest() {
    let suite = full_suite(Scale::Bench);
    let threat = ThreatModel::Futuristic;
    let cycles = |w: &Workload, cfg: Config| store().row(w.name, cfg).cycles;
    for w in suite.iter().take(8) {
        let base = cycles(w, Config::unsafe_baseline(threat));
        for c in [cycles(w, Config::spt_full(threat)), cycles(w, Config::secure_baseline(threat))] {
            // 10% relative slack, not a fixed cycle count: protection can
            // legitimately run slightly *faster* than UnsafeBaseline on
            // pointer-chasing workloads (e.g. deepsjeng), because the
            // baseline's wrong-path loads of hashed addresses pollute the
            // cache, while delaying those transmitters leaves the cache
            // warm for the correct path. The paper's own Figure 7 shows
            // sub-1.0 cells for the same reason.
            assert!(
                c + base / 10 >= base,
                "{}: protection can't be meaningfully faster than no protection ({c} vs {base})",
                w.name
            );
        }
    }
}
