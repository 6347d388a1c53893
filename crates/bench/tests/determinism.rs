//! The whole `reproduce` pipeline is one plan, simulated once per cell,
//! and its output does not depend on the worker count: every results file
//! and the spliced `EXPERIMENTS.md` come out byte-identical at `--jobs 1`
//! and `--jobs 4`. Forcing four workers exercises the parallel path even
//! on a single-core machine.

use spt_bench::reproduce::{self, CellStore};
use spt_bench::runner::{bench_suite, SweepOptions};
use spt_bench::statsdoc::{rows_document, ROWS_DOC};
use spt_util::schema::validate;
use spt_util::Json;
use std::collections::HashSet;
use std::fs;

const BUDGET: u64 = 300;

/// 400 Figure-7 cells (25 workloads × 8 configurations × 2 threat models),
/// 25 SDO cells and 30 non-default broadcast widths; Figures 8 and 9, the
/// headline numbers and the rest of the ablations reuse Figure-7 cells.
const DISTINCT_CELLS: usize = 455;

#[test]
fn one_plan_renders_byte_identical_artifacts_at_any_job_count() {
    let suite = bench_suite();
    let experiments = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let experiments = fs::read_to_string(experiments).expect("EXPERIMENTS.md readable");
    let mut outputs = Vec::new();
    for jobs in [1usize, 4] {
        let plan = reproduce::plan(&suite);
        assert_eq!(plan.len(), DISTINCT_CELLS, "distinct cells in the full-suite plan");
        let distinct: HashSet<_> = plan.cells().iter().collect();
        assert_eq!(distinct.len(), DISTINCT_CELLS, "planned cells are distinct");

        let store = CellStore::simulate(plan, &suite, SweepOptions::new(BUDGET).jobs(jobs))
            .expect("every cell runs to completion");
        assert_eq!(store.simulated(), DISTINCT_CELLS, "the store ran each cell once");
        let doc = Json::parse(&rows_document(&store).to_string()).expect("stats JSON parses");
        validate(&doc, &[&ROWS_DOC]).expect("rows document passes the schema checker");
        assert_eq!(
            doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(DISTINCT_CELLS)
        );

        let root = std::env::temp_dir().join(format!("spt_reproduce_jobs{jobs}"));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("temp dir");
        fs::write(root.join("EXPERIMENTS.md"), &experiments).expect("EXPERIMENTS.md copied");
        let artifacts = reproduce::render(&store, &suite);
        reproduce::write(&root, &artifacts).expect("artifacts written");
        let files: Vec<(String, Vec<u8>)> = artifacts
            .iter()
            .map(|(file, _)| format!("results/{file}"))
            .chain(["EXPERIMENTS.md".to_string()])
            .map(|file| {
                let bytes = fs::read(root.join(&file)).expect("artifact read back");
                (file, bytes)
            })
            .collect();
        outputs.push(files);
        let _ = fs::remove_dir_all(&root);
    }
    assert_eq!(outputs[0].len(), outputs[1].len());
    for ((file, one), (_, four)) in outputs[0].iter().zip(&outputs[1]) {
        assert!(one == four, "{file} differs between --jobs 1 and --jobs 4");
    }
}
