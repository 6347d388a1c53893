//! Turns a [`RunResult`] into the end-to-end or per-layer metrics.

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::work::RunResult;
use std::collections::BTreeMap;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Linear-interpolated quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of the samples ranked in `[lo, hi)` (fractions of the sample
/// count; at least one sample). Unlike an interpolated quantile it moves
/// smoothly when the samples form clusters with a gap at the quantile, as
/// the per-op times of a mix of programs do.
pub fn window_mean(samples: &[f64], lo: f64, hi: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let a = ((lo * n) as usize).min(s.len() - 1);
    let b = ((hi * n) as usize).clamp(a + 1, s.len());
    mean(&s[a..b])
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Mean of samples (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Fastest of samples (0 for none).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Unscaled fixed work in seconds: per op, its fastest execution in the
/// run, summed over the op list. The simulator is deterministic, so an
/// op's fastest execution is its least-disturbed one.
pub fn fixed_work_s(per_op_ms: &[Vec<f64>]) -> f64 {
    per_op_ms.iter().map(|s| fastest(s)).sum::<f64>() / 1e3
}

/// Geomean of SPT{Bwd,ShadowL1} / UnsafeBaseline cycles over the pairs.
fn spt_norm_time(norm: &[(String, bool, u64)]) -> f64 {
    let mut pairs: BTreeMap<&str, [u64; 2]> = BTreeMap::new();
    for (pair, spt, cycles) in norm {
        pairs.entry(pair).or_default()[usize::from(*spt)] = *cycles;
    }
    let logs: Vec<f64> = pairs
        .values()
        .filter(|[b, s]| *b > 0 && *s > 0)
        .map(|[b, s]| (*s as f64 / *b as f64).ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The end-to-end metrics of an untraced run. Times are rescaled to the
/// reference host speed ([`crate::calib`]), and each op's time is the
/// median of its rescaled executions: rescaling leaves noise on both sides,
/// and unlike the fastest, the median does not drop as a faster host fits
/// more executions into the run. `setup_s` comes rescaled.
pub fn end_to_end(r: &RunResult, setup_s: f64) -> Metrics {
    let (scaled_ms, scaled_run_ns) = r.scaled_untraced();
    let op_ms: Vec<f64> = scaled_ms.iter().map(|s| median(s)).collect();
    let wall_s = op_ms.iter().sum::<f64>() / 1e3;
    let run_ns: f64 = scaled_run_ns.iter().map(|s| median(s)).sum();
    let cycles: u64 = r.cycles.iter().sum();
    let m = Metrics::from([
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("ops_per_s", ratio(r.n_ops as f64, wall_s)),
        ("op_ms_p50", window_mean(&op_ms, 0.3, 0.7)),
        ("op_ms_p90", window_mean(&op_ms, 0.85, 0.95)),
        ("sim_mcycles_per_s", ratio(cycles as f64 * 1e3, run_ns)),
        ("peak_rss_mb", peak_rss_mb()),
        ("spt_norm_time", spt_norm_time(&r.norm)),
    ]);
    complete(m, END_TO_END)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(r: &RunResult, build_s: f64) -> Metrics {
    let spans = r.tracer.totals();
    let span = |name: &str| spans.get(name).copied().unwrap_or((0, 0, 0));
    let op_ns = span("op").1 as f64;
    let mean_ms = |name: &str| {
        let (calls, ns, _) = span(name);
        ratio(ns as f64 / 1e6, calls as f64)
    };
    let share = |name: &str| ratio(span(name).1 as f64, op_ns);
    let passes = r.traced_ops as f64 / r.n_ops as f64;
    let count = |name: &str| r.counts.get(name).copied().unwrap_or(0) as f64;

    let mut m = Metrics::new();
    m.insert("workloads.build_s", build_s);
    m.insert("bench.prepare_ms", mean_ms("bench.prepare_machine"));
    m.insert("bench.prepare_share", share("bench.prepare_machine"));
    m.insert("ooo.run_share", share("ooo.run"));

    let ns_per_cycle = |cfg: Option<&str>, traced: bool| {
        let runs = r.traced_runs.iter().filter(|x| x.traced == traced);
        let (ns, cycles) = runs
            .filter(|x| cfg.is_none_or(|c| x.cfg == c))
            .fold((0u64, 0u64), |(n, c), x| (n + x.ns, c + x.cycles));
        ratio(ns as f64, cycles as f64)
    };
    for x in PER_LAYER {
        if let Some(cfg) = x.name.strip_prefix("ooo.ns_per_cycle.") {
            m.insert(x.name, ns_per_cycle(Some(cfg), false));
        }
    }
    let overhead = m["ooo.ns_per_cycle.spt-full"] - m["ooo.ns_per_cycle.unsafe"];
    m.insert("core.spt_overhead_ns_per_cycle", overhead);

    m.insert("fuzz.generate_ms", mean_ms("fuzz.generate"));
    m.insert("fuzz.differential_ms", mean_ms("fuzz.differential"));
    m.insert("fuzz.relational_ms", mean_ms("fuzz.relational"));
    m.insert("fuzz.generate_share", share("fuzz.generate"));
    m.insert("fuzz.differential_share", share("fuzz.differential"));
    m.insert("fuzz.relational_share", share("fuzz.relational"));
    m.insert("fuzz.machine_runs", count("fuzz.machine_runs"));
    let oracle_ns = (span("fuzz.differential").1 + span("fuzz.relational").1) as f64;
    let oracle_runs = count("fuzz.machine_runs") * passes;
    m.insert("fuzz.ms_per_machine_run", ratio(oracle_ns / 1e6, oracle_runs));

    let traced = ns_per_cycle(None, true);
    let untraced_same_cells = if traced > 0.0 { ns_per_cycle(None, false) } else { 0.0 };
    m.insert("trace.overhead_ns_per_cycle", traced - untraced_same_cells);
    m.insert("trace.bytes", count("trace.bytes"));
    let parse_s = span("util.parse_o3_trace").1 as f64 / 1e9;
    m.insert("trace.parse_mb_per_s", ratio(count("trace.bytes") * passes / 1e6, parse_s));
    m.insert("attrib.align_ms", mean_ms("attrib.align_retired"));
    m.insert("attrib.diff_ms", mean_ms("attrib.diff_traces"));
    m.insert(
        "attrib.align_rate",
        ratio(count("attrib.align_matched"), count("attrib.align_denom")),
    );

    m.insert(
        "frontend.fetch_per_retired",
        ratio(count("frontend.fetched"), count("frontend.retired")),
    );
    m.insert("mem.l1d_miss_rate", ratio(count("mem.l1d_misses"), count("mem.l1d_accesses")));
    for x in PER_LAYER {
        if let Some(name) = x.name.strip_prefix("self_s.") {
            m.insert(x.name, ratio(span(name).2 as f64 / 1e9, passes));
        } else if !m.contains_key(x.name) && r.counts.contains_key(x.name) {
            m.insert(x.name, count(x.name));
        }
    }
    let traced_wall = fixed_work_s(&r.traced_ms);
    m.insert("spans.overhead_s", traced_wall - fixed_work_s(&r.untraced_ms));
    complete(m, PER_LAYER)
}

/// Fills every catalogued metric the workload did not touch with 0 and
/// rejects names outside the catalog.
fn complete(mut m: Metrics, table: &[Metric]) -> Metrics {
    for name in m.keys() {
        assert!(table.iter().any(|x| x.name == *name), "{name} is not in the catalog");
    }
    for x in table {
        m.entry(x.name).or_insert(0.0);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_mean_averages_the_ranked_window() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(window_mean(&v, 0.4, 0.6), 5.5);
        assert_eq!(window_mean(&v, 0.85, 0.95), 9.0);
        assert_eq!(window_mean(&[7.0], 0.85, 0.95), 7.0);
    }

    #[test]
    fn norm_time_is_a_geomean_of_pair_ratios() {
        let norm = vec![
            ("a".to_string(), false, 100),
            ("a".to_string(), true, 200),
            ("b".to_string(), true, 50),
            ("b".to_string(), false, 100),
        ];
        assert!((spt_norm_time(&norm) - 1.0).abs() < 1e-12);
    }
}
