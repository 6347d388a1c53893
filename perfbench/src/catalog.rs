//! Every metric the benchmark reports, with unit and direction.
//!
//! `--trace 0` runs report exactly [`END_TO_END`]; `--trace 1` runs report
//! exactly [`PER_LAYER`]. `--list` prints both tables. A per-layer metric
//! whose layer a workload does not call reads 0 on that workload.

/// Which way is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// One-line meaning.
    pub meaning: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> Metric {
    Metric { name, unit, better, meaning }
}

use Better::{Higher, Lower};

/// Metrics of the untraced run, as a user of the simulator sees them. Every
/// time is thread CPU time rescaled to the reference host speed
/// ([`crate::calib`]).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, "median set-up time: suite build and expected outputs"),
    m("wall_s", "s", Lower, "the workload's fixed work: sum over ops of each op's median time"),
    m("ops_per_s", "1/s", Higher, "ops in the fixed work / wall_s"),
    m("op_ms_p50", "ms", Lower, "median per-op time (mean of the ops ranked 30-70 %)"),
    m("op_ms_p90", "ms", Lower, "90th percentile per-op time (mean of the ops ranked 85-95 %)"),
    m(
        "sim_mcycles_per_s",
        "Mcycles/s",
        Higher,
        "simulated cycles / host seconds in Machine::run (per op its median)",
    ),
    m("peak_rss_mb", "MB", Lower, "VmHWM of the benchmark process"),
    m("spt_norm_time", "ratio", Lower, "geomean SPT{Bwd,ShadowL1} / UnsafeBaseline cycles"),
];

/// Metrics of the traced run, one group per layer.
pub const PER_LAYER: &[Metric] = &[
    // spt-workloads
    m("workloads.build_s", "s", Lower, "median full_suite build time during set-up"),
    // spt-bench runner
    m("bench.prepare_ms", "ms", Lower, "mean time in prepare_machine per call"),
    m("bench.prepare_share", "fraction", Lower, "prepare_machine time / op time"),
    // spt-ooo
    m("ooo.run_share", "fraction", Lower, "untraced Machine::run time / op time"),
    m("ooo.ns_per_cycle.unsafe", "ns", Lower, "host ns per simulated cycle, UnsafeBaseline"),
    m("ooo.ns_per_cycle.secure", "ns", Lower, "host ns per simulated cycle, SecureBaseline"),
    m("ooo.ns_per_cycle.spt-fwd", "ns", Lower, "host ns per simulated cycle, SPT{Fwd,NoShadowL1}"),
    m("ooo.ns_per_cycle.spt-bwd", "ns", Lower, "host ns per simulated cycle, SPT{Bwd,NoShadowL1}"),
    m("ooo.ns_per_cycle.spt-full", "ns", Lower, "host ns per simulated cycle, SPT{Bwd,ShadowL1}"),
    m(
        "ooo.ns_per_cycle.spt-shadowmem",
        "ns",
        Lower,
        "host ns per simulated cycle, SPT{Bwd,ShadowMem}",
    ),
    m(
        "ooo.ns_per_cycle.spt-ideal",
        "ns",
        Lower,
        "host ns per simulated cycle, SPT{Ideal,ShadowMem}",
    ),
    m("ooo.ns_per_cycle.stt", "ns", Lower, "host ns per simulated cycle, STT"),
    // spt-core
    m("core.spt_overhead_ns_per_cycle", "ns", Lower, "ns_per_cycle.spt-full - ns_per_cycle.unsafe"),
    // spt-fuzz
    m("fuzz.generate_ms", "ms", Lower, "mean time in generate per program"),
    m("fuzz.differential_ms", "ms", Lower, "mean time in differential per program"),
    m("fuzz.relational_ms", "ms", Lower, "mean time in relational per program"),
    m("fuzz.generate_share", "fraction", Lower, "generate time / op time"),
    m("fuzz.differential_share", "fraction", Lower, "differential time / op time"),
    m("fuzz.relational_share", "fraction", Lower, "relational time / op time"),
    m("fuzz.machine_runs", "count", Lower, "machines run by the two oracles per pass"),
    m("fuzz.ms_per_machine_run", "ms", Lower, "oracle time / fuzz.machine_runs"),
    // spt-util trace and spt-attrib
    m("trace.overhead_ns_per_cycle", "ns", Lower, "traced - untraced ns per cycle, same cells"),
    m("trace.bytes", "bytes", Lower, "O3PipeView bytes written per pass"),
    m("trace.parse_mb_per_s", "MB/s", Higher, "trace bytes / time in parse_o3_trace"),
    m("attrib.align_ms", "ms", Lower, "mean time in align_retired per trace pair"),
    m("attrib.diff_ms", "ms", Lower, "mean time in diff_traces per trace pair"),
    m("attrib.align_rate", "fraction", Higher, "matched / max(retired) over the trace pairs"),
    // simulated counts, summed over one pass
    m("ooo.squashes", "count", Lower, "pipeline squashes"),
    m("ooo.branch_mispredicts", "count", Lower, "conditional-branch mispredictions"),
    m("ooo.mem_violations", "count", Lower, "memory-order violations"),
    m("ooo.stl_forwards", "count", Higher, "store-to-load forwards"),
    m("ooo.transmitter_delay_cycles", "count", Lower, "cycles a ready transmitter was gated"),
    m("ooo.resolution_delay_cycles", "count", Lower, "cycles branch resolution was deferred"),
    m("frontend.fetch_per_retired", "ratio", Lower, "fetched / retired instructions"),
    m("frontend.cond_predictions", "count", Lower, "conditional-branch predictions (TAGE lookups)"),
    m("core.untaint_events", "count", Higher, "untaint events, all mechanisms"),
    m("core.broadcasts_deferred", "count", Lower, "untaint broadcasts deferred by width"),
    m("core.untainting_cycles", "count", Lower, "cycles with at least one untaint"),
    m("mem.l1d_misses", "count", Lower, "L1D misses"),
    m("mem.l1d_miss_rate", "fraction", Lower, "L1D misses / L1D accesses"),
    m("mem.l2_misses", "count", Lower, "L2 misses"),
    m("mem.l3_misses", "count", Lower, "L3 misses"),
    m("mem.mshr_rejections", "count", Lower, "L1D accesses refused for want of an MSHR"),
    m("mem.icache_misses", "count", Lower, "L1I misses"),
    m("mem.dtlb_misses", "count", Lower, "data-TLB misses"),
    m("fuzz.unsafe_diverged", "count", Higher, "programs whose UnsafeBaseline digests diverged"),
    m("fuzz.unsafe_checked", "count", Higher, "programs with an UnsafeBaseline pair checked"),
    m("fuzz.arch_leak_programs", "count", Lower, "programs that leak architecturally"),
    m(
        "attrib.stall_cycles.delayed-transmitter",
        "count",
        Lower,
        "slowdown cycles: delayed transmitter",
    ),
    m("attrib.stall_cycles.shadow-l1-wait", "count", Lower, "slowdown cycles: shadow-L1 wait"),
    m(
        "attrib.stall_cycles.deferred-resolution",
        "count",
        Lower,
        "slowdown cycles: deferred resolution",
    ),
    m("attrib.stall_cycles.backpressure", "count", Lower, "slowdown cycles: backpressure"),
    // self time per pass of each span name after the prefix
    m("self_s.op", "s", Lower, "op time outside every layer call (benchmark glue)"),
    m("self_s.bench.prepare_machine", "s", Lower, "self time in prepare_machine"),
    m("self_s.ooo.run", "s", Lower, "self time in untraced Machine::run"),
    m("self_s.ooo.run_traced", "s", Lower, "self time in Machine::run with a trace sink"),
    m("self_s.ooo.stats", "s", Lower, "self time reading stats and digests"),
    m("self_s.fuzz.generate", "s", Lower, "self time in generate"),
    m("self_s.fuzz.differential", "s", Lower, "self time in differential"),
    m("self_s.fuzz.relational", "s", Lower, "self time in relational"),
    m("self_s.fuzz.run_machine", "s", Lower, "self time in run_machine (spt_norm_time probes)"),
    m("self_s.util.parse_o3_trace", "s", Lower, "self time in parse_o3_trace"),
    m("self_s.attrib.align_retired", "s", Lower, "self time in align_retired"),
    m("self_s.attrib.diff_traces", "s", Lower, "self time in diff_traces"),
    // the tracer itself
    m("spans.overhead_s", "s", Lower, "traced - untraced unscaled fixed work, same run"),
];

/// The listing printed by `--list`.
pub fn listing() -> String {
    let mut out = String::new();
    for (kind, table) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        out.push_str(&format!("# {kind} ({} metrics)\n", table.len()));
        for x in table {
            out.push_str(&format!(
                "{:<42} {:<10} {:<7} {}\n",
                x.name,
                x.unit,
                x.better.label(),
                x.meaning
            ));
        }
    }
    out.push_str(
        "# checked per op, reported as attempted/failed: error_rate = failed / attempted\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_util::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<_> = END_TO_END.iter().chain(PER_LAYER).map(|x| x.name).collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    /// `BENCHMARK.json` at the repository root must name exactly these
    /// metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            let got: Vec<_> = listed
                .iter()
                .map(|x| {
                    let field = |f: &str| x.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let want: Vec<_> = table
                .iter()
                .map(|x| (x.name.to_string(), x.unit.to_string(), x.better.label().to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }
}
