//! The four workloads: set-up, op lists, op execution and the closed loop.
//!
//! One process runs one workload on one thread. The loop runs the
//! workload's fixed op list over and over, one op after another, until
//! `--seconds` have passed and every op has run at least once (in a traced
//! run: at least once untraced and once traced). Each fig7 cell starts
//! from a freshly built machine with empty caches, as the figure binaries
//! do.

use crate::calib::{self, Probe};
use crate::expect::{compare, lookup, Expected, Values};
use crate::spans::Tracer;
use spt_attrib::diff::ALL_CAUSES;
use spt_attrib::{align_retired, diff_traces};
use spt_bench::runner::prepare_machine;
use spt_core::{Config, ThreatModel};
use spt_fuzz::generate;
use spt_fuzz::harness::{differential, relational, run_machine};
use spt_ooo::{CoreConfig, Machine, RunLimits};
use spt_util::{parse_o3_trace, Fnv64, O3PipeViewSink, ParsedTrace};
use spt_workloads::{full_suite, set_input_seed, Scale, Workload};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// Retired-instruction budget of every fig7 cell.
pub const FIG7_BUDGET: u64 = 5_000;
/// Retired-instruction budget of every tracediff cell (an mcf SPT trace
/// grows by about 7 KB per retired instruction).
pub const TRACE_BUDGET: u64 = 5_000;
/// Programs in the fuzz workload's fixed stream.
pub const FUZZ_PROGRAMS: usize = 200;
/// Lowest alignment rate a same-workload trace pair may have.
pub const MIN_ALIGN_RATE: f64 = 0.99;

/// Programs with many squashes and a high fetched/retired ratio.
pub const BRANCHY: [&str; 10] = [
    "perlbench",
    "gcc",
    "mcf",
    "omnetpp",
    "xalancbmk",
    "deepsjeng",
    "leela",
    "exchange2",
    "povray",
    "cam4",
];
/// Programs that fetch almost only what they retire.
pub const STRAIGHT: [&str; 15] = [
    "x264",
    "xz",
    "bwaves",
    "cactuBSSN",
    "namd",
    "parest",
    "fotonik3d",
    "lbm",
    "wrf",
    "imagick",
    "nab",
    "roms",
    "chacha20",
    "bitslice",
    "djbsort",
];
/// Programs whose traces the tracediff workload diffs.
pub const TRACED: [&str; 2] = ["gcc", "mcf"];

const THREATS: [ThreatModel; 2] = [ThreatModel::Spectre, ThreatModel::Futuristic];
const SETUP_OP: usize = usize::MAX;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Branchy Figure-7 programs x 8 configs x 2 threat models.
    Fig7Branchy,
    /// Straight-line Figure-7 programs x 8 configs x 2 threat models.
    Fig7Straight,
    /// A fixed-seed stream of generated programs through both oracles.
    Fuzz,
    /// Traced gcc and mcf runs, parsed, aligned and diffed.
    TraceDiff,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [Kind::Fig7Branchy, Kind::Fig7Straight, Kind::Fuzz, Kind::TraceDiff];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig7Branchy => "fig7-branchy",
            Kind::Fig7Straight => "fig7-straight",
            Kind::Fuzz => "fuzz",
            Kind::TraceDiff => "tracediff",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The short config name used in metric names.
pub fn slug(cfg: &Config) -> &'static str {
    match cfg.name() {
        "UnsafeBaseline" => "unsafe",
        "SecureBaseline" => "secure",
        "SPT{Fwd,NoShadowL1}" => "spt-fwd",
        "SPT{Bwd,NoShadowL1}" => "spt-bwd",
        "SPT{Bwd,ShadowL1}" => "spt-full",
        "SPT{Bwd,ShadowMem}" => "spt-shadowmem",
        "SPT{Ideal,ShadowMem}" => "spt-ideal",
        "STT" => "stt",
        other => panic!("no metric name for config {other}"),
    }
}

fn threat_label(t: ThreatModel) -> &'static str {
    match t {
        ThreatModel::Spectre => "spectre",
        ThreatModel::Futuristic => "futuristic",
    }
}

/// SplitMix64-style mix deriving the i-th fuzz program seed from the run
/// seed (the same derivation `spt-fuzz` campaigns use).
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One unit of the fixed work.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `prepare_machine` + `Machine::run` + `Machine::stats` for one cell.
    Cell {
        /// Index into [`Setup::programs`].
        w: usize,
        /// Configuration.
        cfg: Config,
    },
    /// `generate` + `differential` + `relational`, then the two runs
    /// `spt_norm_time` needs.
    Program {
        /// Position in the stream.
        index: usize,
        /// Program seed.
        seed: u64,
    },
    /// One cell run untraced and traced, its trace parsed; the second cell
    /// of a pair also aligns and diffs the pair's traces.
    Traced {
        /// Index into [`Setup::programs`].
        w: usize,
        /// Configuration.
        cfg: Config,
        /// Whether this op closes a (baseline, SPT) pair.
        closes_pair: bool,
    },
}

/// A budgeted run stops within one retire group past its budget.
fn check_retired(retired: u64, budget: u64) -> Result<(), String> {
    let width = CoreConfig::default().retire_width as u64;
    if (budget..budget + width).contains(&retired) {
        Ok(())
    } else {
        Err(format!("retired {retired} for a budget of {budget}"))
    }
}

/// Everything a run needs before its first timed op.
pub struct Setup {
    /// Workload.
    pub kind: Kind,
    programs: Vec<Workload>,
    /// The fixed op list of one pass.
    pub ops: Vec<Op>,
    /// Stored expected outputs, for seeds that have them.
    pub expected: Option<Expected>,
    /// Host ns spent in `full_suite` (0 when the workload builds none).
    pub build_ns: u64,
}

/// Builds the set-up of `kind` for `seed`, loading the stored expected
/// outputs unless `recording` them.
pub fn setup(kind: Kind, seed: u64, recording: bool, tr: &mut Tracer) -> Result<Setup, String> {
    let names: &[&str] = match kind {
        Kind::Fig7Branchy => &BRANCHY,
        Kind::Fig7Straight => &STRAIGHT,
        Kind::TraceDiff => &TRACED,
        Kind::Fuzz => &[],
    };

    let mut programs = Vec::new();
    let mut build_ns = 0;
    if !names.is_empty() {
        set_input_seed(seed);
        let o = tr.begin("workloads.full_suite", SETUP_OP);
        let suite = full_suite(Scale::Bench);
        build_ns = tr.end(o);
        for name in names {
            let w = suite.iter().find(|w| w.name == *name);
            programs.push(w.ok_or_else(|| format!("workload {name} not in suite"))?.clone());
        }
    }

    let o = tr.begin("expect.load", SETUP_OP);
    let expected = if recording { None } else { crate::expect::load(seed)? };
    tr.end(o);

    let mut ops = Vec::new();
    match kind {
        Kind::Fig7Branchy | Kind::Fig7Straight => {
            for w in 0..programs.len() {
                for threat in THREATS {
                    ops.extend(Config::table2(threat).into_iter().map(|cfg| Op::Cell { w, cfg }));
                }
            }
        }
        Kind::Fuzz => {
            ops.extend(
                (0..FUZZ_PROGRAMS)
                    .map(|index| Op::Program { index, seed: mix(seed, index as u64) }),
            );
        }
        Kind::TraceDiff => {
            for w in 0..programs.len() {
                let base = Config::unsafe_baseline(ThreatModel::Futuristic);
                let spt = Config::spt_full(ThreatModel::Futuristic);
                ops.push(Op::Traced { w, cfg: base, closes_pair: false });
                ops.push(Op::Traced { w, cfg: spt, closes_pair: true });
            }
        }
    }
    Ok(Setup { kind, programs, ops, expected, build_ns })
}

impl Setup {
    /// The order in which pass `pass` runs the ops. The first pass runs
    /// them in list order; later fig7 and fuzz passes shuffle them (a fixed
    /// shuffle per pass number), so a slow spell of the host does not hit
    /// the same neighbouring ops in every pass. Tracediff keeps list order:
    /// the second cell of a pair diffs against the first's trace.
    fn pass_order(&self, pass: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.ops.len()).collect();
        if pass > 0 && self.kind != Kind::TraceDiff {
            for j in (1..order.len()).rev() {
                let r = mix(pass as u64, j as u64) % (j as u64 + 1);
                order.swap(j, r as usize);
            }
        }
        order
    }
}

/// The measurements behind the branchy/straight split: every Figure-7
/// program under SPT{Bwd,ShadowL1} (Futuristic), default seed, fig7 budget,
/// as a Markdown table.
pub fn split_table() -> Result<String, String> {
    set_input_seed(0);
    let cfg = Config::spt_full(ThreatModel::Futuristic);
    let mut out = String::from(
        "| Program | Workload | Fetched / retired | Squashes | Resolution-delay cycles | \
         Transmitter-delay cycles |\n|---|---|---|---|---|---|\n",
    );
    for w in full_suite(Scale::Bench) {
        let group = if BRANCHY.contains(&w.name) {
            Kind::Fig7Branchy
        } else if STRAIGHT.contains(&w.name) {
            Kind::Fig7Straight
        } else {
            return Err(format!("{} is in neither fig7 workload", w.name));
        };
        let mut m = prepare_machine(&w, cfg);
        m.run(RunLimits::retired(FIG7_BUDGET)).map_err(|e| format!("{}: {e}", w.name))?;
        let s = m.stats();
        out.push_str(&format!(
            "| {} | {} | {:.2} | {} | {} | {} |\n",
            w.name,
            group.name(),
            s.fetched as f64 / s.retired as f64,
            s.squashes,
            s.resolution_delay_cycles,
            s.transmitter_delay_cycles
        ));
    }
    Ok(out)
}

/// Simulated and derived counts, keyed by per-layer metric name (plus a
/// few denominators such as `frontend.retired`).
pub type Counts = BTreeMap<&'static str, u64>;

fn add_counts(into: &mut Counts, from: &Counts) {
    for (&k, &v) in from {
        *into.entry(k).or_default() += v;
    }
}

/// Host time of one `Machine::run` (or `run_machine`) call.
#[derive(Clone, Copy, Debug)]
pub struct RunTime {
    /// Config slug.
    pub cfg: &'static str,
    /// Host ns.
    pub ns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Whether a trace sink was attached.
    pub traced: bool,
}

/// What one op execution produced.
struct Outcome {
    op_ns: u64,
    runs: Vec<RunTime>,
    records: Vec<(String, Values)>,
    /// (program/threat pair, is the SPT side, cycles)
    norm: Vec<(String, bool, u64)>,
    counts: Counts,
    failure: Option<String>,
}

/// The checked outputs and counts of one finished machine.
struct Snap {
    cycles: u64,
    retired: u64,
    stats_digest: u64,
    observation_digest: u64,
    counts: Counts,
}

impl Snap {
    fn of(m: &Machine) -> Snap {
        let s = m.stats();
        let mem = m.mem();
        let l1 = mem.l1().stats();
        let (_, dtlb_misses) = m.dtlb_stats();
        let counts = Counts::from([
            ("ooo.squashes", s.squashes),
            ("ooo.branch_mispredicts", s.branch_mispredicts),
            ("ooo.mem_violations", s.mem_violations),
            ("ooo.stl_forwards", s.stl_forwards),
            ("ooo.transmitter_delay_cycles", s.transmitter_delay_cycles),
            ("ooo.resolution_delay_cycles", s.resolution_delay_cycles),
            ("frontend.fetched", s.fetched),
            ("frontend.retired", s.retired),
            ("frontend.cond_predictions", m.frontend_stats().cond_predictions),
            ("core.untaint_events", s.spt.events.total()),
            ("core.broadcasts_deferred", s.spt.broadcasts_deferred),
            ("core.untainting_cycles", s.spt.untainting_cycles),
            ("mem.l1d_accesses", l1.hits + l1.misses),
            ("mem.l1d_misses", l1.misses),
            ("mem.l2_misses", mem.l2().stats().misses),
            ("mem.l3_misses", mem.l3().stats().misses),
            ("mem.mshr_rejections", l1.mshr_rejections),
            ("mem.icache_misses", m.icache_stats().misses),
            ("mem.dtlb_misses", dtlb_misses),
        ]);
        let mut h = Fnv64::new();
        h.write_bytes(s.to_json().to_string().as_bytes());
        counts.values().for_each(|&v| h.write_u64(v));
        Snap {
            cycles: s.cycles,
            retired: s.retired,
            stats_digest: h.finish(),
            observation_digest: m.observation_digest(),
            counts,
        }
    }

    fn values(&self) -> Values {
        vec![
            ("cycles", self.cycles),
            ("retired", self.retired),
            ("stats_digest", self.stats_digest),
            ("observation_digest", self.observation_digest),
        ]
    }
}

/// A `Write` target shared with the caller, so a trace stays in memory.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn first_error(checks: impl IntoIterator<Item = Result<(), String>>) -> Option<String> {
    checks.into_iter().find_map(Result::err)
}

impl Setup {
    fn cell_key(&self, w: usize, cfg: &Config) -> String {
        let name = self.programs[w].name;
        format!("{}/{name}/{}/{}", self.kind.name(), cfg.name(), threat_label(cfg.threat))
    }

    fn norm_entry(&self, w: usize, cfg: &Config, cycles: u64) -> Option<(String, bool, u64)> {
        let pair = format!("{}/{}", self.programs[w].name, threat_label(cfg.threat));
        match slug(cfg) {
            "unsafe" => Some((pair, false, cycles)),
            "spt-full" => Some((pair, true, cycles)),
            _ => None,
        }
    }

    fn exec(&self, i: usize, tr: &mut Tracer, pending: &mut Option<ParsedTrace>) -> Outcome {
        match self.ops[i] {
            Op::Cell { w, cfg } => self.exec_cell(i, w, cfg, tr),
            Op::Program { index, seed } => exec_program(i, index, seed, tr),
            Op::Traced { w, cfg, closes_pair } => {
                self.exec_traced(i, w, cfg, closes_pair, tr, pending)
            }
        }
    }

    fn exec_cell(&self, i: usize, w: usize, cfg: Config, tr: &mut Tracer) -> Outcome {
        let op = tr.begin("op", i);
        let o = tr.begin("bench.prepare_machine", i);
        let mut m = prepare_machine(&self.programs[w], cfg);
        tr.end(o);
        let o = tr.begin("ooo.run", i);
        let res = m.run(RunLimits::retired(FIG7_BUDGET));
        let run_ns = tr.end(o);
        let o = tr.begin("ooo.stats", i);
        let snap = Snap::of(&m);
        tr.end(o);
        let op_ns = tr.end(op);

        let failure = first_error([
            res.map(drop).map_err(|e| e.to_string()),
            check_retired(snap.retired, FIG7_BUDGET),
        ]);
        Outcome {
            op_ns,
            runs: vec![RunTime { cfg: slug(&cfg), ns: run_ns, cycles: snap.cycles, traced: false }],
            records: vec![(self.cell_key(w, &cfg), snap.values())],
            norm: self.norm_entry(w, &cfg, snap.cycles).into_iter().collect(),
            counts: snap.counts,
            failure: failure.map(|e| format!("{}: {e}", self.cell_key(w, &cfg))),
        }
    }

    fn exec_traced(
        &self,
        i: usize,
        w: usize,
        cfg: Config,
        closes_pair: bool,
        tr: &mut Tracer,
        pending: &mut Option<ParsedTrace>,
    ) -> Outcome {
        let wl = &self.programs[w];
        let limits = RunLimits::retired(TRACE_BUDGET);
        let op = tr.begin("op", i);
        let o = tr.begin("bench.prepare_machine", i);
        let mut m = prepare_machine(wl, cfg);
        tr.end(o);
        let o = tr.begin("ooo.run", i);
        let res = m.run(limits);
        let run_ns = tr.end(o);
        let o = tr.begin("ooo.stats", i);
        let snap = Snap::of(&m);
        tr.end(o);

        let o = tr.begin("bench.prepare_machine", i);
        let mut mt = prepare_machine(wl, cfg);
        tr.end(o);
        let buf = SharedBuf::default();
        mt.set_trace_sink(Box::new(O3PipeViewSink::with_events(buf.clone())));
        let o = tr.begin("ooo.run_traced", i);
        let res_t = mt.run(limits);
        let traced_ns = tr.end(o);
        let flushed = mt.take_trace_sink().map_or(Ok(()), |mut s| s.flush());
        let o = tr.begin("ooo.stats", i);
        let snap_t = Snap::of(&mt);
        tr.end(o);
        let bytes = std::mem::take(&mut *buf.0.borrow_mut());
        let trace_bytes = bytes.len() as u64;
        let o = tr.begin("util.parse_o3_trace", i);
        let parsed = String::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_o3_trace(&text));
        tr.end(o);

        let mut diff = None;
        let mut failure = None;
        match parsed {
            Err(e) => failure = Some(format!("trace does not parse: {e}")),
            Ok(trace) if closes_pair => match pending.take() {
                None => failure = Some("pair has no baseline trace".to_string()),
                Some(base) => {
                    let o = tr.begin("attrib.align_retired", i);
                    let alignment = align_retired(&base, &trace);
                    tr.end(o);
                    let o = tr.begin("attrib.diff_traces", i);
                    let d = diff_traces(&base, &trace);
                    tr.end(o);
                    if d.alignment.pairs != alignment.pairs {
                        failure = Some("diff_traces aligned differently".to_string());
                    }
                    diff = Some((d, trace.retired().count() as u64));
                }
            },
            Ok(trace) => {
                let retired = trace.retired().count() as u64;
                if retired != snap.retired {
                    failure = Some(format!("trace retires {retired}, machine {}", snap.retired));
                }
                *pending = Some(trace);
            }
        }
        let op_ns = tr.end(op);

        let key = self.cell_key(w, &cfg);
        let values = snap.values();
        let mut records = Vec::new();
        let mut counts = snap.counts;
        counts.insert("trace.bytes", trace_bytes);
        let mut checks = vec![
            res.map(drop).map_err(|e| e.to_string()),
            res_t.map(drop).map_err(|e| e.to_string()),
            flushed.map_err(|e| format!("trace sink: {e}")),
            check_retired(snap.retired, TRACE_BUDGET),
            compare("traced run", &snap_t.values(), |n| lookup(&values, n)),
        ];
        if let Some((d, retired_b)) = diff {
            let rate = d.alignment.rate();
            if rate < MIN_ALIGN_RATE {
                checks.push(Err(format!("alignment rate {rate:.4} < {MIN_ALIGN_RATE}")));
            }
            if retired_b != snap.retired {
                checks.push(Err(format!("trace retires {retired_b}, machine {}", snap.retired)));
            }
            let mut stalls: Values =
                ALL_CAUSES.iter().map(|&c| (stall_metric(c.label()), d.cause_cycles(c))).collect();
            stalls.push(("aligned_pairs", d.alignment.pairs.len() as u64));
            for &(name, v) in &stalls {
                counts.insert(name, v);
            }
            counts.insert("attrib.align_matched", d.alignment.pairs.len() as u64);
            let denom = d.alignment.retired_a.max(d.alignment.retired_b) as u64;
            counts.insert("attrib.align_denom", denom);
            records.push((format!("{}/{}/stalls", self.kind.name(), wl.name), stalls));
        }
        failure = failure.or_else(|| first_error(checks));
        let mut cell_values = values;
        cell_values.push(("trace_bytes", trace_bytes));
        records.insert(0, (key.clone(), cell_values));
        Outcome {
            op_ns,
            runs: vec![
                RunTime { cfg: slug(&cfg), ns: run_ns, cycles: snap.cycles, traced: false },
                RunTime { cfg: slug(&cfg), ns: traced_ns, cycles: snap_t.cycles, traced: true },
            ],
            records,
            norm: self.norm_entry(w, &cfg, snap.cycles).into_iter().collect(),
            counts,
            failure: failure.map(|e| format!("{key}: {e}")),
        }
    }
}

/// The per-layer metric name of a stall cause.
fn stall_metric(label: &str) -> &'static str {
    match label {
        "delayed-transmitter" => "attrib.stall_cycles.delayed-transmitter",
        "shadow-l1-wait" => "attrib.stall_cycles.shadow-l1-wait",
        "deferred-resolution" => "attrib.stall_cycles.deferred-resolution",
        "backpressure" => "attrib.stall_cycles.backpressure",
        other => panic!("no metric name for stall cause {other}"),
    }
}

fn exec_program(i: usize, index: usize, seed: u64, tr: &mut Tracer) -> Outcome {
    let op = tr.begin("op", i);
    let o = tr.begin("fuzz.generate", i);
    let tp = generate(seed);
    tr.end(o);
    let o = tr.begin("fuzz.differential", i);
    let findings = differential(&tp);
    tr.end(o);
    let o = tr.begin("fuzz.relational", i);
    let rel = relational(&tp);
    tr.end(o);
    let mut runs = Vec::new();
    let mut machines = Vec::new();
    let mut failure = findings
        .first()
        .or(rel.findings.first())
        .map(|f| format!("{} at {}: {}", f.kind.label(), f.location(), f.detail));
    for cfg in [
        Config::unsafe_baseline(ThreatModel::Futuristic),
        Config::spt_full(ThreatModel::Futuristic),
    ] {
        let o = tr.begin("fuzz.run_machine", i);
        let res = run_machine(&tp, &tp.secret, cfg);
        let ns = tr.end(o);
        match res {
            Ok(m) => {
                runs.push(RunTime { cfg: slug(&cfg), ns, cycles: m.cycle(), traced: false });
                machines.push(m);
            }
            Err(f) => failure = failure.or(Some(format!("{}: {}", f.location(), f.detail))),
        }
    }
    let o = tr.begin("ooo.stats", i);
    let snaps: Vec<Snap> = machines.iter().map(Snap::of).collect();
    tr.end(o);
    let op_ns = tr.end(op);

    let machine_runs = 16
        + if rel.arch_leak {
            0
        } else if rel.secret_read {
            28
        } else {
            32
        };
    let mut counts = Counts::from([
        ("fuzz.unsafe_diverged", u64::from(rel.unsafe_diverged)),
        ("fuzz.unsafe_checked", u64::from(rel.unsafe_checked)),
        ("fuzz.arch_leak_programs", u64::from(rel.arch_leak)),
        ("fuzz.machine_runs", machine_runs),
    ]);
    let mut values: Values = vec![
        ("program_seed", seed),
        ("instructions", tp.program.len() as u64),
        ("arch_leak", u64::from(rel.arch_leak)),
        ("secret_read", u64::from(rel.secret_read)),
        ("unsafe_checked", u64::from(rel.unsafe_checked)),
        ("unsafe_diverged", u64::from(rel.unsafe_diverged)),
    ];
    let key = format!("fuzz/program-{index}");
    let mut norm = Vec::new();
    if let [base, spt] = &snaps[..] {
        add_counts(&mut counts, &base.counts);
        add_counts(&mut counts, &spt.counts);
        values.extend([
            ("unsafe_cycles", base.cycles),
            ("unsafe_observation_digest", base.observation_digest),
            ("spt_cycles", spt.cycles),
            ("spt_observation_digest", spt.observation_digest),
        ]);
        norm.push((key.clone(), false, base.cycles));
        norm.push((key.clone(), true, spt.cycles));
    }
    Outcome {
        op_ns,
        runs,
        records: vec![(key.clone(), values)],
        norm,
        counts,
        failure: failure.map(|e| format!("{key}: {e}")),
    }
}

/// Everything one run measured.
pub struct RunResult {
    /// Ops executed.
    pub attempted: u64,
    /// Ops (and fuzz passes) whose outputs failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Ops per pass.
    pub n_ops: usize,
    /// Per op: host ms of every untraced execution.
    pub untraced_ms: Vec<Vec<f64>>,
    /// Per op: host ms of every traced execution.
    pub traced_ms: Vec<Vec<f64>>,
    /// Per op: host ns in untraced `Machine::run` of every untraced
    /// execution.
    pub untraced_run_ns: Vec<Vec<f64>>,
    /// Per op: the execution number of every untraced execution, which
    /// indexes [`RunResult::probe_ns`].
    pub untraced_exec: Vec<Vec<usize>>,
    /// Host ns of the calibration probe run before each execution, in
    /// execution order.
    pub probe_ns: Vec<u64>,
    /// Per op: simulated cycles of its untraced machine runs.
    pub cycles: Vec<u64>,
    /// Every machine run made by traced executions.
    pub traced_runs: Vec<RunTime>,
    /// Op executions with span recording on.
    pub traced_ops: u64,
    /// Counts of the first pass.
    pub counts: Counts,
    /// `spt_norm_time` inputs of the first pass.
    pub norm: Vec<(String, bool, u64)>,
    /// Checked records of the first pass.
    pub records: BTreeMap<String, Values>,
    /// Wall seconds of each completed pass, in order.
    pub pass_s: Vec<f64>,
    /// The span recorder.
    pub tracer: Tracer,
}

/// Runs the closed loop for `seconds` (at least one full pass; with
/// `record_spans`, at least one untraced and one traced pass, alternating),
/// each pass in [`Setup::pass_order`]. `between` runs, untimed, between ops
/// once a second.
pub fn run(
    setup: &Setup,
    seconds: f64,
    record_spans: bool,
    mut tracer: Tracer,
    mut between: impl FnMut(),
) -> RunResult {
    let n = setup.ops.len();
    let mut r = RunResult {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        n_ops: n,
        untraced_ms: vec![Vec::new(); n],
        traced_ms: vec![Vec::new(); n],
        untraced_run_ns: vec![Vec::new(); n],
        untraced_exec: vec![Vec::new(); n],
        probe_ns: Vec::new(),
        cycles: vec![0; n],
        traced_runs: Vec::new(),
        traced_ops: 0,
        counts: Counts::new(),
        norm: Vec::new(),
        records: BTreeMap::new(),
        pass_s: Vec::new(),
        tracer: Tracer::new(),
    };
    let min_execs = if record_spans { 2 * n } else { n };
    let mut pass_counts = Counts::new();
    let mut pending = None;
    let probe = Probe::new();
    let start = Instant::now();
    let mut pass_start = start;
    let mut last_between = start;
    let mut k = 0;
    let mut order = Vec::new();
    while k < min_execs || start.elapsed().as_secs_f64() < seconds {
        let (pass, pos) = (k / n, k % n);
        if pos == 0 {
            order = setup.pass_order(pass);
        }
        let i = order[pos];
        let traced = record_spans && pass % 2 == 1;
        tracer.set_recording(traced);
        r.probe_ns.push(probe.run());
        let out = setup.exec(i, &mut tracer, &mut pending);
        r.attempted += 1;

        let mut failure = out.failure;
        for (key, values) in &out.records {
            failure = failure.or(r.check_record(setup, pass, key, values).err());
        }
        if let Some(e) = failure {
            r.fail(e);
        }

        let run_ns: u64 = out.runs.iter().filter(|x| !x.traced).map(|x| x.ns).sum();
        if traced {
            r.traced_ms[i].push(out.op_ns as f64 / 1e6);
            r.traced_runs.extend(&out.runs);
            r.traced_ops += 1;
        } else {
            r.untraced_ms[i].push(out.op_ns as f64 / 1e6);
            r.untraced_run_ns[i].push(run_ns as f64);
            r.untraced_exec[i].push(k);
        }
        add_counts(&mut pass_counts, &out.counts);
        if pass == 0 {
            r.cycles[i] = out.runs.iter().filter(|x| !x.traced).map(|x| x.cycles).sum();
            r.norm.extend(out.norm);
        }
        if pos == n - 1 {
            r.end_pass(setup, pass, std::mem::take(&mut pass_counts));
            r.pass_s.push(pass_start.elapsed().as_secs_f64());
            pass_start = Instant::now();
        }
        k += 1;
        if last_between.elapsed().as_secs_f64() >= 1.0 {
            let paused = Instant::now();
            between();
            pass_start += paused.elapsed();
            last_between = Instant::now();
        }
    }
    r.tracer = tracer;
    r
}

impl RunResult {
    /// Per op, the host ms of every untraced execution and the host ns of
    /// its `Machine::run` calls, each rescaled to the reference host speed
    /// ([`crate::calib`]).
    pub fn scaled_untraced(&self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let scale = calib::scales(&self.probe_ns);
        let rescale = |times: &[Vec<f64>]| -> Vec<Vec<f64>> {
            times
                .iter()
                .zip(&self.untraced_exec)
                .map(|(t, ks)| t.iter().zip(ks).map(|(&x, &k)| x * scale[k]).collect())
                .collect()
        };
        (rescale(&self.untraced_ms), rescale(&self.untraced_run_ns))
    }

    /// Checks one record: against the stored expectation on the first
    /// pass, against the first pass afterwards.
    fn check_record(
        &mut self,
        setup: &Setup,
        pass: usize,
        key: &str,
        values: &Values,
    ) -> Result<(), String> {
        if pass == 0 {
            self.records.insert(key.to_string(), values.clone());
            return setup.expected.as_ref().map_or(Ok(()), |e| e.check(key, values));
        }
        let first = self.records.get(key).ok_or_else(|| format!("{key}: not in the first pass"))?;
        compare(key, values, |n| lookup(first, n)).map_err(|e| format!("not repeated: {e}"))
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(e);
        }
    }

    /// Pass-level checks: the fuzz positive control (the unsafe baseline's
    /// digests must diverge on some program) and its stored count.
    fn end_pass(&mut self, setup: &Setup, pass: usize, counts: Counts) {
        if setup.kind == Kind::Fuzz {
            let key = "fuzz/pass".to_string();
            let values: Values =
                ["fuzz.unsafe_diverged", "fuzz.unsafe_checked", "fuzz.arch_leak_programs"]
                    .iter()
                    .map(|&n| (n, counts.get(n).copied().unwrap_or(0)))
                    .collect();
            let verdict = self.check_record(setup, pass, &key, &values);
            let control = if values[0].1 == 0 {
                Err(format!("{key}: positive control never fired"))
            } else {
                Ok(())
            };
            if let Some(e) = first_error([verdict, control]) {
                self.fail(e);
            }
        }
        if pass == 0 {
            self.counts = counts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the first `ops` ops of `kind` once on the default seed, after
    /// `adjust` has edited the set-up's expectations.
    fn run_first(kind: Kind, ops: usize, adjust: impl FnOnce(&mut Setup)) -> RunResult {
        let mut setup = setup(kind, 0, false, &mut Tracer::new()).expect("set-up");
        setup.ops.truncate(ops);
        adjust(&mut setup);
        run(&setup, 0.0, false, Tracer::new(), || ())
    }

    fn expected(setup: &mut Setup) -> &mut Expected {
        setup.expected.as_mut().expect("seed 0 has stored outputs")
    }

    #[test]
    fn later_passes_shuffle_every_workload_but_tracediff() {
        for kind in Kind::ALL {
            let s = setup(kind, 0, false, &mut Tracer::new()).expect("set-up");
            let natural: Vec<usize> = (0..s.ops.len()).collect();
            assert_eq!(s.pass_order(0), natural, "{kind:?}");
            let mut later = s.pass_order(1);
            assert_eq!(later == natural, kind == Kind::TraceDiff, "{kind:?}");
            assert_eq!(later, s.pass_order(1), "{kind:?}: fixed per pass number");
            later.sort_unstable();
            assert_eq!(later, natural, "{kind:?}: a permutation");
        }
    }

    #[test]
    fn a_perturbed_digest_fails_the_output_check() {
        let clean = run_first(Kind::Fig7Straight, 2, |_| {});
        assert_eq!((clean.attempted, clean.failed), (2, 0), "{:?}", clean.failures);

        let key = "fig7-straight/x264/SecureBaseline/spectre";
        let broken = run_first(Kind::Fig7Straight, 2, |s| {
            let stored = expected(s).0[key]["observation_digest"];
            expected(s).set(key, "observation_digest", stored ^ 1);
        });
        assert_eq!(broken.failed, 1, "exactly the perturbed cell fails");
        assert!(broken.failures[0].contains("observation_digest"), "{:?}", broken.failures);
    }

    #[test]
    fn a_wrong_positive_control_count_fails_the_output_check() {
        // The stored pass record covers the whole stream; store the counts of
        // the first ten programs (two of which fire the control) instead.
        let programs = 10;
        let unchecked = run_first(Kind::Fuzz, programs, |s| s.expected = None);
        let pass = unchecked.records["fuzz/pass"].clone();
        let diverged = lookup(&pass, "fuzz.unsafe_diverged").expect("counted");
        assert_eq!(diverged, 2);
        let with_count = |count: u64| {
            let pass = pass.clone();
            move |s: &mut Setup| {
                for &(name, v) in &pass {
                    expected(s).set("fuzz/pass", name, v);
                }
                expected(s).set("fuzz/pass", "fuzz.unsafe_diverged", count);
            }
        };
        let clean = run_first(Kind::Fuzz, programs, with_count(diverged));
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);
        let broken = run_first(Kind::Fuzz, programs, with_count(diverged + 1));
        assert_eq!(broken.failed, 1, "{:?}", broken.failures);
        assert!(broken.failures[0].contains("fuzz.unsafe_diverged"), "{:?}", broken.failures);
    }
}
