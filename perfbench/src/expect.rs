//! Expected outputs and result-document provenance.
//!
//! Every op yields records: a key such as
//! `fig7-branchy/gcc/STT/futuristic` and named exact values (cycles,
//! retired, digests, counts). For the seeds stored in
//! `expected/outputs.txt`, each record must equal the stored one; on every
//! seed, each later pass must repeat the first pass's records.

use crate::work::{Kind, FIG7_BUDGET, FUZZ_PROGRAMS, TRACE_BUDGET};
use spt_core::{Config, ThreatModel};
use spt_util::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Schema of the stored expected-output files.
pub const EXPECTED_SCHEMA: &str = "perfbench-expected-v1";
/// Schema of the per-run result documents written under `out/`.
pub const RESULT_SCHEMA: &str = "perfbench-result-v1";
/// Seeds whose outputs are stored: the default and one held out.
pub const STORED_SEEDS: [u64; 2] = [0, 7];

/// Named exact values of one record.
pub type Values = Vec<(&'static str, u64)>;

/// Stored records by key.
#[derive(Clone, Debug, Default)]
pub struct Expected(pub BTreeMap<String, BTreeMap<String, u64>>);

impl Expected {
    /// Compares one record against its stored counterpart.
    pub fn check(&self, key: &str, values: &Values) -> Result<(), String> {
        let stored = self.0.get(key).ok_or_else(|| format!("{key}: no stored expectation"))?;
        compare(key, values, |name| stored.get(name).copied())
    }

    /// Overwrites one stored value (used to show that a check can fail).
    pub fn set(&mut self, key: &str, name: &str, value: u64) {
        self.0.entry(key.to_string()).or_default().insert(name.to_string(), value);
    }
}

/// The value named `name` in `values`.
pub fn lookup(values: &Values, name: &str) -> Option<u64> {
    values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// Compares `values` against `lookup`, naming the first mismatch.
pub fn compare(
    key: &str,
    values: &Values,
    lookup: impl Fn(&str) -> Option<u64>,
) -> Result<(), String> {
    for &(name, got) in values {
        match lookup(name) {
            Some(want) if want == got => {}
            Some(want) => return Err(format!("{key}: {name} = {got}, expected {want}")),
            None => return Err(format!("{key}: {name} has no expected value")),
        }
    }
    Ok(())
}

/// The benchmark package directory (where `expected/` and `out/` live).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The stored expectations of every seed in [`STORED_SEEDS`], one record
/// per line: `<seed> <key> <name>=<value>...`, after `#` header lines.
/// Every run parses the whole file, so loading costs the same on every
/// seed.
pub fn path() -> PathBuf {
    bench_dir().join("expected").join("outputs.txt")
}

/// Loads the stored expectations for `seed`, or `None` for a seed without
/// stored outputs.
pub fn load(seed: u64) -> Result<Option<Expected>, String> {
    let path = path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if text.lines().next() != Some(&format!("# {EXPECTED_SCHEMA}")) {
        return Err(format!("{}: first line is not `# {EXPECTED_SCHEMA}`", path.display()));
    }
    let mut by_seed: BTreeMap<u64, Expected> = BTreeMap::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.starts_with('#')) {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let mut fields = line.split_whitespace();
        let stored = fields.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("no seed"))?;
        let key = fields.next().ok_or_else(|| bad("no key"))?;
        let expected = by_seed.entry(stored).or_default();
        for field in fields {
            let (name, value) = field.split_once('=').ok_or_else(|| bad("field without `=`"))?;
            expected.set(key, name, value.parse().map_err(|_| bad("value is not a u64"))?);
        }
    }
    Ok(by_seed.remove(&seed))
}

/// Writes the records of every stored seed.
pub fn save(by_seed: &BTreeMap<u64, BTreeMap<String, Values>>) -> Result<PathBuf, String> {
    let mut text =
        format!("# {EXPECTED_SCHEMA}\n# {}\n", provenance(EXPECTED_SCHEMA, None, &STORED_SEEDS));
    for (seed, records) in by_seed {
        for (key, values) in records {
            text.push_str(&format!("{seed} {key}"));
            for (name, v) in values {
                text.push_str(&format!(" {name}={v}"));
            }
            text.push('\n');
        }
    }
    let path = path();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Writes a JSON document, creating its directory.
pub fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The header every document carries: schema, seed, budgets, configs,
/// threat models, git revision and host parallelism.
pub fn provenance(schema: &str, kind: Option<Kind>, seeds: &[u64]) -> Json {
    let threats = [ThreatModel::Spectre, ThreatModel::Futuristic];
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("schema", Json::str(schema)),
        ("workload", kind.map_or(Json::str("all"), |k| Json::str(k.name()))),
        ("seeds", Json::arr(seeds.iter().map(|&s| Json::U64(s)))),
        (
            "budget",
            Json::obj([
                ("fig7_retired", Json::U64(FIG7_BUDGET)),
                ("tracediff_retired", Json::U64(TRACE_BUDGET)),
                ("fuzz_programs", Json::U64(FUZZ_PROGRAMS as u64)),
            ]),
        ),
        ("configs", Json::arr(Config::table2(threats[0]).iter().map(|c| Json::str(c.name())))),
        ("threat_models", Json::arr(threats.iter().map(|t| Json::str(t.to_string())))),
        ("git_revision", Json::str(git_revision())),
        ("nproc", Json::U64(nproc)),
        ("worker_threads", Json::U64(1)),
    ])
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_names_the_first_mismatch() {
        let values: Values = vec![("cycles", 10), ("retired", 5)];
        assert!(compare("k", &values, |n| Some(if n == "cycles" { 10 } else { 5 })).is_ok());
        let err = compare("k", &values, |n| Some(if n == "cycles" { 10 } else { 6 }));
        assert_eq!(err.unwrap_err(), "k: retired = 5, expected 6");
        assert!(compare("k", &values, |_| None).is_err());
    }
}
