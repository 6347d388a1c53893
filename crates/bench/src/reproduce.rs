//! The whole §9 evaluation as one pass: plan, simulate once, render.
//!
//! Every artifact under `results/` is a `Figure`: the (workload,
//! configuration) cells it reads and a renderer that turns their rows into
//! the file's exact text. [`plan`] takes the union of every figure's cells,
//! so a cell two figures share (Figure 8's full-SPT column is also a
//! Figure-7 column) is simulated once, and [`CellStore::simulate`] runs
//! that union on the [`run_indexed`] pool into pre-indexed slots: every
//! rendered byte is independent of the worker count. Asking the store for
//! a cell outside its plan panics, so a renderer that drifts from its
//! figure's declaration fails loudly instead of missing or adding a cell.
//!
//! [`write()`] puts each artifact under `results/` and splices it into the
//! matching `<!-- reproduce:FILE -->` block of `EXPERIMENTS.md`.

use crate::runner::{run_indexed, run_workload, RunRow, SweepError, SweepOptions};
use spt_core::{Config, ThreatModel, UntaintKind};
use spt_workloads::{Category, Workload};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::{fs, io};

/// One simulation: a workload name and the full configuration (threat
/// model, broadcast width and protection policy included).
pub type Cell = (&'static str, Config);

/// The distinct cells a set of figures reads, in first-declared order.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    cells: Vec<Cell>,
    index: HashMap<Cell, usize>,
}

impl Plan {
    /// Adds a cell unless it is already planned.
    pub fn add(&mut self, workload: &'static str, cfg: Config) {
        let next = self.cells.len();
        self.index.entry((workload, cfg)).or_insert_with(|| {
            self.cells.push((workload, cfg));
            next
        });
    }

    /// Number of distinct cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether nothing is planned.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells in simulation order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

/// The row of every cell of a [`Plan`], each simulated exactly once.
#[derive(Debug)]
pub struct CellStore {
    plan: Plan,
    rows: Vec<RunRow>,
    pub(crate) budget: u64,
    pub(crate) seed: u64,
    simulated: usize,
}

impl CellStore {
    /// Simulates every planned cell for `opts.budget` retired instructions
    /// on `opts.jobs` workers. The workload input seed in force now is the
    /// one the renderers report.
    ///
    /// # Errors
    ///
    /// Returns the first wedged cell in plan order.
    ///
    /// # Panics
    ///
    /// Panics if a planned workload is not in `suite`.
    pub fn simulate(
        plan: Plan,
        suite: &[Workload],
        opts: SweepOptions,
    ) -> Result<CellStore, SweepError> {
        let simulated = AtomicUsize::new(0);
        let rows = run_indexed(plan.len(), opts.jobs, |i| {
            let (name, cfg) = plan.cells[i];
            let w = suite
                .iter()
                .find(|w| w.name == name)
                .unwrap_or_else(|| panic!("planned workload `{name}` is not in the suite"));
            if opts.verbose {
                eprintln!("  running {name} under {cfg} ...");
            }
            simulated.fetch_add(1, Ordering::Relaxed);
            run_workload(w, cfg, opts.budget)
        });
        Ok(CellStore {
            rows: rows.into_iter().collect::<Result<_, _>>()?,
            plan,
            budget: opts.budget,
            seed: spt_workloads::input_seed(),
            simulated: simulated.into_inner(),
        })
    }

    /// The row of one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not in the plan.
    pub fn row(&self, workload: &'static str, cfg: Config) -> &RunRow {
        match self.plan.index.get(&(workload, cfg)) {
            Some(&i) => &self.rows[i],
            None => panic!("cell {workload} under {cfg} is not in the plan"),
        }
    }

    /// Cycles of `cfg` over UnsafeBaseline's under the same threat model.
    pub fn normalized(&self, workload: &'static str, cfg: Config) -> f64 {
        let base = self.row(workload, Config::unsafe_baseline(cfg.threat)).cycles;
        self.row(workload, cfg).cycles as f64 / base as f64
    }

    /// Every row, in plan order.
    pub fn rows(&self) -> &[RunRow] {
        &self.rows
    }

    /// The plan this store simulated.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// How many simulations ran to fill the store.
    pub fn simulated(&self) -> usize {
        self.simulated
    }

    /// `budget N retired, seed S`, for report headers.
    fn provenance(&self) -> String {
        format!("budget {} retired, seed {}", self.budget, self.seed)
    }
}

/// One artifact under `results/`: the cells it reads and its renderer.
struct Figure {
    /// File name under `results/`, also its `EXPERIMENTS.md` marker name.
    file: &'static str,
    /// Declares every cell `render` reads.
    cells: fn(&[Workload], &mut Plan),
    /// Renders the file's exact text.
    render: fn(&CellStore, &[Workload]) -> String,
}

const MODELS: [ThreatModel; 2] = [ThreatModel::Futuristic, ThreatModel::Spectre];
const WIDTH_WORKLOADS: [&str; 6] = ["perlbench", "mcf", "omnetpp", "namd", "povray", "chacha20"];
const WIDTHS: [usize; 6] = [1, 2, 3, 4, 8, 16];

/// Every artifact of the evaluation, in `results/` listing order.
const FIGURES: [Figure; 9] = [
    Figure { file: "fig7_full.txt", cells: |s, p| table2_cells(&MODELS, s, p), render: fig7_full },
    Figure {
        file: "fig7_futuristic.csv",
        cells: |s, p| table2_cells(&[ThreatModel::Futuristic], s, p),
        render: |st, s| fig7_csv(st, s, ThreatModel::Futuristic),
    },
    Figure {
        file: "fig7_spectre.csv",
        cells: |s, p| table2_cells(&[ThreatModel::Spectre], s, p),
        render: |st, s| fig7_csv(st, s, ThreatModel::Spectre),
    },
    Figure { file: "fig8.txt", cells: fig8_cells, render: fig8 },
    Figure { file: "fig9.txt", cells: fig9_cells, render: fig9 },
    Figure { file: "headline.txt", cells: |s, p| table2_cells(&MODELS, s, p), render: headline },
    Figure { file: "sdo.txt", cells: sdo_cells, render: sdo },
    Figure { file: "table3.txt", cells: |_, _| {}, render: |_, _| table3() },
    Figure { file: "width_sweep.txt", cells: width_cells, render: width_sweep },
];

/// The union of every figure's cells.
pub fn plan(suite: &[Workload]) -> Plan {
    let mut plan = Plan::default();
    for f in &FIGURES {
        (f.cells)(suite, &mut plan);
    }
    plan
}

/// Renders every figure as `(file, text)`.
pub fn render(store: &CellStore, suite: &[Workload]) -> Vec<(&'static str, String)> {
    FIGURES.iter().map(|f| (f.file, (f.render)(store, suite))).collect()
}

/// Writes each artifact to `root/results/FILE` and splices them into
/// `root/EXPERIMENTS.md`.
///
/// # Errors
///
/// Any file that cannot be written, a missing `EXPERIMENTS.md`, or a
/// marker that [`splice`] rejects; the error names the path.
pub fn write(root: &Path, artifacts: &[(&'static str, String)]) -> io::Result<()> {
    let at =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let results = root.join("results");
    fs::create_dir_all(&results).map_err(|e| at(&results, e))?;
    for (file, text) in artifacts {
        let path = results.join(file);
        fs::write(&path, text).map_err(|e| at(&path, e))?;
    }
    let path = root.join("EXPERIMENTS.md");
    let doc = fs::read_to_string(&path).map_err(|e| at(&path, e))?;
    let spliced = splice(&doc, artifacts)
        .map_err(|e| at(&path, io::Error::new(io::ErrorKind::InvalidData, e)))?;
    fs::write(&path, spliced).map_err(|e| at(&path, e))
}

/// Replaces the body of every `<!-- reproduce:FILE -->` …
/// `<!-- /reproduce:FILE -->` block of `doc` with FILE's text, less its
/// leading and trailing blank lines, in a fenced block. Everything
/// outside the blocks is kept byte for byte.
///
/// # Errors
///
/// Names the first marker whose FILE is not among `artifacts` or whose
/// block is not closed.
pub fn splice(doc: &str, artifacts: &[(&str, String)]) -> Result<String, String> {
    const OPEN: &str = "<!-- reproduce:";
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc;
    while let Some(start) = rest.find(OPEN) {
        let name_at = start + OPEN.len();
        let open_end = rest[name_at..].find("-->").ok_or("unterminated reproduce marker")?;
        let name = rest[name_at..name_at + open_end].trim();
        let text = artifacts
            .iter()
            .find(|(file, _)| *file == name)
            .map(|(_, text)| text)
            .ok_or_else(|| format!("no artifact named `{name}`"))?;
        let close = format!("<!-- /reproduce:{name} -->");
        let body_at = name_at + open_end + 3;
        let close_at = rest[body_at..]
            .find(&close)
            .ok_or_else(|| format!("`{name}` block has no `{close}`"))?;
        out.push_str(&rest[..body_at]);
        let _ = write!(out, "\n```text\n{}\n```\n{close}", text.trim_matches('\n'));
        rest = &rest[body_at + close_at + close.len()..];
    }
    out.push_str(rest);
    Ok(out)
}

fn table2_cells(models: &[ThreatModel], suite: &[Workload], plan: &mut Plan) {
    for &t in models {
        for w in suite {
            for cfg in Config::table2(t) {
                plan.add(w.name, cfg);
            }
        }
    }
}

fn is_spec(w: &&Workload) -> bool {
    w.category != Category::ConstantTime
}

/// Arithmetic mean of normalized execution time over `ws`.
fn mean(store: &CellStore, ws: &[&Workload], cfg: Config) -> f64 {
    assert!(!ws.is_empty(), "mean over no workloads for {cfg}");
    ws.iter().map(|w| store.normalized(w.name, cfg)).sum::<f64>() / ws.len() as f64
}

/// Paper Figure 7: every Table-2 configuration on every workload,
/// normalized to UnsafeBaseline, with suite means, for both models.
fn fig7_full(store: &CellStore, suite: &[Workload]) -> String {
    let all: Vec<&Workload> = suite.iter().collect();
    let spec: Vec<&Workload> = suite.iter().filter(is_spec).collect();
    let ct: Vec<&Workload> = suite.iter().filter(|w| !is_spec(w)).collect();
    let mut out = String::new();
    for t in MODELS {
        let configs = Config::table2(t);
        let _ = writeln!(
            out,
            "\nFigure 7 — execution time normalized to UnsafeBaseline ({t} model, {})\n",
            store.provenance()
        );
        let _ = write!(out, "{:<12}", "benchmark");
        for c in &configs {
            let _ = write!(out, "{:>22}", c.name());
        }
        out.push('\n');
        for w in suite {
            let _ = write!(out, "{:<12}", w.name);
            for &c in &configs {
                let _ = write!(out, "{:>22.3}", store.normalized(w.name, c));
            }
            out.push('\n');
        }
        for (label, subset) in [("avg(SPEC)", &spec), ("avg(CT)", &ct), ("avg(all)", &all)] {
            let _ = write!(out, "{label:<12}");
            for &c in &configs {
                let _ = write!(out, "{:>22.3}", mean(store, subset, c));
            }
            out.push('\n');
        }
    }
    out
}

/// One model's Figure-7 matrix as CSV. Configuration names are quoted:
/// `SPT{Fwd,NoShadowL1}` holds a comma.
fn fig7_csv(store: &CellStore, suite: &[Workload], t: ThreatModel) -> String {
    let configs = Config::table2(t);
    let mut out = String::from("benchmark");
    for c in &configs {
        let _ = write!(out, ",\"{}\"", c.name());
    }
    out.push('\n');
    for w in suite {
        out.push_str(w.name);
        for &c in &configs {
            let _ = write!(out, ",{:.6}", store.normalized(w.name, c));
        }
        out.push('\n');
    }
    out
}

/// Paper §9.2's headline numbers, from the Figure-7 cells.
fn headline(store: &CellStore, suite: &[Workload]) -> String {
    let all: Vec<&Workload> = suite.iter().collect();
    let ct: Vec<&Workload> = suite.iter().filter(|w| !is_spec(w)).collect();
    let pct = |x: f64| format!("{:.1}%", (x - 1.0) * 100.0);
    let mut out = String::new();
    for t in MODELS {
        let avg = |cfg: Config| mean(store, &all, cfg);
        let oh = |cfg: Config| avg(cfg) - 1.0;
        let pts = |a: Config, b: Config| format!("{:+.1} pts", (avg(a) - avg(b)) * 100.0);
        let secure = Config::secure_baseline(t);
        let (fwd, bwd, full) = (Config::spt_fwd(t), Config::spt_bwd(t), Config::spt_full(t));
        let (smem, ideal) = (Config::spt_shadow_mem(t), Config::spt_ideal(t));
        let ct_secure = mean(store, &ct, secure);
        let ct_full = mean(store, &ct, full);
        let lines = [
            ("SPT{Bwd,ShadowL1} overhead vs UnsafeBaseline", pct(avg(full))),
            ("SecureBaseline overhead vs UnsafeBaseline", pct(avg(secure))),
            ("overhead reduction, SPT vs SecureBaseline", ratio(oh(secure), oh(full))),
            ("overhead reduction, Fwd-only vs SecureBase", ratio(oh(secure), oh(fwd))),
            ("backward untainting gain (Fwd -> Bwd)", pts(fwd, bwd)),
            ("shadow-L1 gain (Bwd -> ShadowL1)", pts(bwd, full)),
            ("shadow-mem gain (ShadowL1 -> ShadowMem)", pts(full, smem)),
            ("ideal-propagation gain (ShadowMem -> Ideal)", pts(smem, ideal)),
            ("extra overhead vs STT (scope cost)", pts(full, Config::stt(t))),
            ("constant-time kernels, SecureBaseline", format!("{ct_secure:.2}x")),
            ("constant-time kernels, SPT", format!("{ct_full:.2}x")),
            ("CT overhead reduction", ratio(ct_secure - 1.0, ct_full - 1.0)),
        ];
        let _ = writeln!(
            out,
            "\n=== Headline numbers, {t} model (paper §9.2; seed {}) ===",
            store.seed
        );
        for (label, value) in lines {
            let _ = writeln!(out, "{label:<44} : {value}");
        }
    }
    out.push_str(
        "\n(Compare against paper §9.2: 45%/11% SPT overhead, 3.6x/3x vs SecureBaseline,\n",
    );
    out.push_str(" 3.1x/1.9x for Fwd-only, CT kernels 2.8x -> 1.10x = 18x reduction,\n");
    out.push_str(" +26.1/+3.3 pts vs STT in the Futuristic/Spectre models respectively.)\n");
    out
}

/// An overhead ratio like the paper's "3.6x"; a non-positive denominator
/// is clamped so a zero overhead reads as a large ratio, not a division
/// by zero.
fn ratio(num: f64, den: f64) -> String {
    format!("{:.2}x", num / den.max(1e-9))
}

fn fig8_cells(suite: &[Workload], plan: &mut Plan) {
    for w in suite {
        for t in MODELS {
            plan.add(w.name, Config::spt_full(t));
        }
    }
}

/// Paper Figure 8: untaint events of full SPT by (exclusive) mechanism.
fn fig8(store: &CellStore, suite: &[Workload]) -> String {
    let mut out =
        String::from("Figure 8 — untaint-event breakdown for SPT{Bwd,ShadowL1} (% of events)\n");
    let _ = writeln!(out, "F = Futuristic model, S = Spectre model; {}\n", store.provenance());
    let _ = write!(out, "{:<14}{:>2}", "benchmark", "");
    for k in UntaintKind::ALL {
        let _ = write!(out, "{:>14}", k.label());
    }
    let _ = writeln!(out, "{:>12}", "total");
    for w in suite {
        for (t, tag) in MODELS.into_iter().zip(["F", "S"]) {
            let events = &store.row(w.name, Config::spt_full(t)).stats.spt.events;
            let _ = write!(out, "{:<14}{tag:>2}", w.name);
            for k in UntaintKind::ALL {
                let pct = 100.0 * events[k] as f64 / events.total().max(1) as f64;
                let _ = write!(out, "{pct:>13.1}%");
            }
            let _ = writeln!(out, "{:>12}", events.total());
        }
    }
    out
}

fn fig9_cells(suite: &[Workload], plan: &mut Plan) {
    for w in suite.iter().filter(is_spec) {
        plan.add(w.name, Config::spt_ideal(ThreatModel::Futuristic));
    }
}

/// Paper Figure 9: share of untainting cycles that untaint at most N
/// registers, SPT{Ideal,ShadowMem} on the SPEC proxies.
fn fig9(store: &CellStore, suite: &[Workload]) -> String {
    let spec: Vec<&Workload> = suite.iter().filter(is_spec).collect();
    let mut out =
        String::from("Figure 9 — % of untainting cycles untainting at most N registers\n");
    let _ = writeln!(
        out,
        "(SPT{{Ideal,ShadowMem}}, Futuristic model, SPEC proxies; budget {}, seed {})\n",
        store.budget, store.seed
    );
    let _ = write!(out, "{:<14}", "benchmark");
    for n in 1..=10 {
        let _ = write!(out, "{:>8}", format!("<={n}"));
    }
    out.push('\n');
    let mut avg = [0.0f64; 10];
    for w in &spec {
        let spt = &store.row(w.name, Config::spt_ideal(ThreatModel::Futuristic)).stats.spt;
        let _ = write!(out, "{:<14}", w.name);
        for n in 1..=10usize {
            let cdf = 100.0 * spt.cdf_at_most(n);
            avg[n - 1] += cdf / spec.len() as f64;
            let _ = write!(out, "{cdf:>8.1}");
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<14}", "average");
    for v in avg {
        let _ = write!(out, "{v:>8.1}");
    }
    let _ = writeln!(
        out,
        "\n\n=> {:.1}% of untainting cycles untaint at most 3 registers — the paper picks\n   \
         a broadcast width of 3 as the coverage/complexity trade-off (§9.4).",
        avg[2]
    );
    out
}

fn sdo_configs() -> [Config; 3] {
    let t = ThreatModel::Futuristic;
    [Config::unsafe_baseline(t), Config::spt_full(t), Config::spt_sdo(t)]
}

fn sdo_cells(suite: &[Workload], plan: &mut Plan) {
    for w in suite {
        for cfg in sdo_configs() {
            plan.add(w.name, cfg);
        }
    }
}

/// §6.3 protection-policy ablation: delayed execution against SDO-style
/// oblivious execution of tainted loads.
fn sdo(store: &CellStore, suite: &[Workload]) -> String {
    let [_, delay_cfg, obliv_cfg] = sdo_configs();
    let mut out = String::from(
        "Protection-policy ablation — Futuristic model, normalized to UnsafeBaseline\n",
    );
    let _ = writeln!(out, "({})\n", store.provenance());
    let _ = writeln!(
        out,
        "{:<14}{:>14}{:>14}{:>22}",
        "benchmark", "SPT(delay)", "SPT+SDO", "oblivious better?"
    );
    let (mut sum_d, mut sum_o) = (0.0, 0.0);
    for w in suite {
        let delay = store.normalized(w.name, delay_cfg);
        let obliv = store.normalized(w.name, obliv_cfg);
        sum_d += delay;
        sum_o += obliv;
        let better = if obliv < delay - 0.005 { "yes" } else { "" };
        let _ = writeln!(out, "{:<14}{delay:>14.3}{obliv:>14.3}{better:>22}", w.name);
    }
    let n = suite.len() as f64;
    let _ = writeln!(out, "{:<14}{:>14.3}{:>14.3}", "average", sum_d / n, sum_o / n);
    out.push_str("\nSDO trades transmitter stalls for worst-case-latency oblivious accesses:\n");
    out.push_str("it wins when delays dominate (gather-heavy code) and loses when the\n");
    out.push_str("delayed loads would have hit the cache quickly anyway.\n");
    out
}

fn width_cfg(width: usize) -> Config {
    Config { broadcast_width: width, ..Config::spt_full(ThreatModel::Futuristic) }
}

fn width_cells(suite: &[Workload], plan: &mut Plan) {
    for w in suite.iter().filter(|w| WIDTH_WORKLOADS.contains(&w.name)) {
        for width in WIDTHS {
            plan.add(w.name, width_cfg(width));
        }
    }
}

/// §7.6/§9.4 ablation: full SPT at each untaint broadcast width,
/// normalized to the widest.
fn width_sweep(store: &CellStore, suite: &[Workload]) -> String {
    let mut out = String::from("Broadcast-width ablation — SPT{Bwd,ShadowL1}, Futuristic model\n");
    let _ = writeln!(out, "cells: execution time normalized to width=16; {}\n", store.provenance());
    let _ = write!(out, "{:<14}", "benchmark");
    for w in WIDTHS {
        let _ = write!(out, "{:>10}", format!("W={w}"));
    }
    let _ = writeln!(out, "{:>12}", "deferred@3");
    for w in suite.iter().filter(|w| WIDTH_WORKLOADS.contains(&w.name)) {
        let widest = store.row(w.name, width_cfg(16)).cycles as f64;
        let _ = write!(out, "{:<14}", w.name);
        for width in WIDTHS {
            let _ =
                write!(out, "{:>10.3}", store.row(w.name, width_cfg(width)).cycles as f64 / widest);
        }
        let deferred = store.row(w.name, width_cfg(3)).stats.spt.broadcasts_deferred;
        let _ = writeln!(out, "{deferred:>12}");
    }
    out.push_str("\n(Expect width 3 to be within noise of unbounded width — paper §9.4.)\n");
    out
}

/// Paper Table 3: the related-work taxonomy. Static: it records the
/// literature survey, not a measurement.
fn table3() -> String {
    const ROWS: [(&str, &str, &str, &str, &str); 17] = [
        ("InvisiSpec [76]", "Spec/Non-spec accessed data", "Cache-based", "CC, ST", "yes"),
        ("SafeSpec [39]", "Spec/Non-spec accessed data", "Cache-based", "CC, ST", "yes"),
        ("DAWG [40]", "Spec/Non-spec accessed data", "Cache-based", "CC, ST", "yes"),
        ("Delay-on-miss [59]", "Spec/Non-spec accessed data", "Cache-based", "CC, ST", "yes"),
        ("Cond. Spec. [44]", "Spec/Non-spec accessed data", "Cache-based", "CC, ST", "yes"),
        ("MuonTrap [7]", "Spec/Non-spec accessed data", "Cache-based", "CC, ST", "yes"),
        ("CleanupSpec [58]", "Spec/Non-spec accessed data", "Cache-based", "CC, ST", "yes"),
        ("CSF [69]", "Spec/Non-spec accessed data", "Cache-based", "CC, ST", ANNOTATES),
        ("MI6 [18]", "Spec/Non-spec accessed data", "All", "CC, ST", "yes"),
        ("ConTExT [61]", "Spec/Non-spec accessed data", "All", "CC, ST, SMT", ANNOTATES),
        ("OISA [81]", "Spec/Non-spec accessed data", "All", "CC, ST, SMT", ANNOTATES),
        ("STT [83]", "Spec accessed data", "All", "CC, ST, SMT", "yes"),
        ("SDO [82]", "Spec accessed data", "All", "CC, ST, SMT", "yes"),
        ("SpecShield [11]", "Spec accessed data", "All", "CC, ST, SMT", "yes"),
        ("NDA [74]", "Spec/Non-spec accessed data", "All", "CC, ST, SMT", "yes"),
        ("Dolma [46]", "Spec/Non-spec accessed data", "All", "CC, ST", "yes"),
        ("SPT (this work)", "Non-spec secrets", "All", "CC, ST, SMT", "yes"),
    ];
    const ANNOTATES: &str = "no, user annotates secrets";
    let mut out = String::from(
        "Table 3 — prior hardware-based mitigations for speculative execution attacks\n\n",
    );
    let _ = writeln!(
        out,
        "{:<20} {:<30} {:<13} {:<13} Transparent?",
        "Scheme", "Data protection scope", "Transmitters", "Receivers"
    );
    let _ = writeln!(out, "{}", "-".repeat(100));
    for (scheme, scope, tx, rx, transparent) in ROWS {
        let _ = writeln!(out, "{scheme:<20} {scope:<30} {tx:<13} {rx:<13} {transparent}");
    }
    out.push_str("\nCC = CrossCore, ST = SameThread, SMT = simultaneous-multithreading sibling.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_keeps_one_copy_of_each_cell_in_first_declared_order() {
        let mut plan = Plan::default();
        let full = Config::spt_full(ThreatModel::Spectre);
        plan.add("mcf", full);
        plan.add("gcc", full);
        plan.add("mcf", full);
        let narrow = Config { broadcast_width: 1, ..full };
        plan.add("mcf", narrow);
        assert_eq!(plan.cells(), &[("mcf", full), ("gcc", full), ("mcf", narrow)]);
    }

    #[test]
    #[should_panic(expected = "is not in the plan")]
    fn an_unplanned_cell_panics() {
        let suite = spt_workloads::ct_suite(spt_workloads::Scale::Bench);
        let mut plan = Plan::default();
        plan.add(suite[1].name, Config::unsafe_baseline(ThreatModel::Spectre));
        let store = CellStore::simulate(plan, &suite, SweepOptions::new(200).jobs(1)).unwrap();
        assert_eq!(store.simulated(), 1);
        store.row(suite[1].name, Config::stt(ThreatModel::Spectre));
    }

    #[test]
    fn splice_replaces_block_bodies_and_keeps_the_rest() {
        let doc = "a\n<!-- reproduce:x.txt -->\nstale\n<!-- /reproduce:x.txt -->\nb\n";
        let artifacts = [("x.txt", "1 2\n".to_string())];
        let once = splice(doc, &artifacts).unwrap();
        assert_eq!(
            once,
            "a\n<!-- reproduce:x.txt -->\n```text\n1 2\n```\n<!-- /reproduce:x.txt -->\nb\n"
        );
        assert_eq!(splice(&once, &artifacts).unwrap(), once, "splicing is idempotent");
        assert!(splice("<!-- reproduce:y.txt -->", &artifacts).unwrap_err().contains("y.txt"));
        assert!(splice("<!-- reproduce:x.txt -->", &artifacts).unwrap_err().contains("no `<!--"));
    }

    #[test]
    fn a_missing_experiments_md_is_an_error() {
        let root = std::env::temp_dir().join("spt_reproduce_no_experiments");
        let _ = fs::remove_dir_all(&root);
        let err = write(&root, &[("x.txt", String::new())]).unwrap_err();
        assert!(err.to_string().contains("EXPERIMENTS.md"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }
}
