//! Observability-layer guarantees:
//!
//! * attaching a trace sink and enabling telemetry, or the §8 validator, is
//!   *measurement only* — cycle counts, statistics and attacker-observation
//!   digests are bit-identical to a plain run of the same (workload,
//!   config) cell;
//! * the emitted trace is well-formed O3PipeView and covers every retired
//!   and squashed instruction, and parsing it back gives exactly what a
//!   `ParsedTrace` sink captures from the same run;
//! * a cloned machine keeps its telemetry but not its trace sink;
//! * a wedged program surfaces as a [`SweepError`] wrapping
//!   [`SimError::Deadlock`] carrying the cell identity, not a panic.

use spt_bench::runner::{prepare_machine, run_prepared, run_workload, SweepError};
use spt_repro::core::{Config, ThreatModel};
use spt_repro::isa::asm::Assembler;
use spt_repro::isa::interp::SparseMem;
use spt_repro::isa::Reg;
use spt_repro::ooo::{RunLimits, SimError};
use spt_repro::workloads::{ct_suite, spec_suite, Category, Scale, Workload};
use spt_util::{parse_o3_trace, O3PipeViewSink, ParsedTrace, SptTraceEvent};
use std::cell::RefCell;
use std::rc::Rc;

const BUDGET: u64 = 2_000;

/// Every Table-2 configuration under both threat models, plus the
/// SDO-style oblivious policy.
fn observed_configs() -> Vec<Config> {
    let mut v = Vec::new();
    for t in [ThreatModel::Spectre, ThreatModel::Futuristic] {
        v.extend(Config::table2(t));
        v.push(Config::spt_sdo(t));
    }
    v
}

/// Tracing with telemetry, and the §8 validator, are each measurement
/// only: cycles, the attacker-observation digest and every statistic equal
/// a plain run's.
#[test]
fn tracing_and_telemetry_are_zero_cost() {
    let spec = spec_suite(Scale::Bench);
    let workloads = [
        ct_suite(Scale::Bench)[1].clone(), // chacha20
        spec[1].clone(),                   // gcc: branchy
        // omnetpp: hundreds of store-to-load forwards, and the shadow L1
        // moves its cycle count, so the §6.7/§6.8 passes matter.
        spec.iter().find(|w| w.name == "omnetpp").expect("omnetpp in suite").clone(),
    ];
    for w in &workloads {
        for cfg in observed_configs() {
            let mut plain = prepare_machine(w, cfg);
            let base = run_prepared(&mut plain, w, cfg, BUDGET).expect("plain run completes");

            let mut traced = prepare_machine(w, cfg);
            traced.set_trace_sink(Box::new(ParsedTrace::default()));
            traced.enable_telemetry();
            let mut validated = prepare_machine(w, cfg);
            validated.enable_validation();
            for (what, m) in [("tracing", &mut traced), ("validation", &mut validated)] {
                let row = run_prepared(m, w, cfg, BUDGET).expect("observed run completes");
                let cell = format!("{} under {cfg} with {what} on", w.name);
                assert_eq!(base.cycles, row.cycles, "{cell}: cycle count changed");
                assert_eq!(base.retired, row.retired, "{cell}: retired changed");
                assert_eq!(base.stats, row.stats, "{cell}: statistics changed");
                assert_eq!(
                    plain.observation_digest(),
                    m.observation_digest(),
                    "{cell}: attacker-observation digest changed"
                );
            }
            assert!(
                traced.telemetry().expect("telemetry enabled").rob_occupancy.samples() > 0,
                "telemetry sampled nothing"
            );
        }
    }
}

#[test]
fn o3_trace_is_well_formed_and_complete() {
    let w = &ct_suite(Scale::Bench)[1]; // chacha20
    let cfg = Config::spt_full(ThreatModel::Futuristic);
    let dir = std::env::temp_dir().join("spt_observability_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.out");
    {
        let mut m = prepare_machine(w, cfg);
        let file = std::fs::File::create(&path).expect("create trace file");
        m.set_trace_sink(Box::new(O3PipeViewSink::new(file)));
        run_prepared(&mut m, w, cfg, BUDGET).expect("run completes");
        m.take_trace_sink().expect("sink attached").flush().expect("flush");
    }
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_dir_all(&dir);
    let summary = parse_o3_trace(&text).expect("well-formed O3PipeView").summary();
    assert!(summary.retired >= BUDGET, "trace covers every retired instruction");
    assert_eq!(
        summary.instructions,
        summary.retired + summary.squashed,
        "every traced instruction either retired or was squashed"
    );
}

#[test]
fn event_emitting_sink_is_also_zero_cost() {
    // `O3PipeViewSink::with_events` adds SPTEvent lines to the output
    // stream; like the plain sink, attaching it must not perturb timing.
    // Parsed back, the text must equal what a `ParsedTrace` sink captures
    // from the same cell: records, events and their interleaving
    // (`after_block`), so the text format loses nothing.
    let w = &spec_suite(Scale::Bench)[2]; // mcf: transmitter-heavy
    let cfg = Config::spt_full(ThreatModel::Futuristic);
    let plain = run_workload(w, cfg, BUDGET).expect("plain run completes");

    let dir = std::env::temp_dir().join("spt_observability_events");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.trace");
    let mut m = prepare_machine(w, cfg);
    let file = std::fs::File::create(&path).expect("create trace file");
    m.set_trace_sink(Box::new(O3PipeViewSink::with_events(file)));
    let row = run_prepared(&mut m, w, cfg, BUDGET).expect("traced run completes");
    m.take_trace_sink().expect("sink attached").flush().expect("flush");
    assert_eq!(plain.cycles, row.cycles, "event sink changed cycle count");
    assert_eq!(plain.stats.transmitter_delay_cycles, row.stats.transmitter_delay_cycles);

    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_dir_all(&dir);
    let parsed = parse_o3_trace(&text).expect("event trace parses");
    let summary = parsed.summary();
    assert!(summary.events > 0, "SPT run under with_events must record events");
    assert!(
        parsed.events.iter().any(|e| matches!(e.event, SptTraceEvent::TransmitterDelayed { .. })),
        "mcf under SPT must log transmitter delays"
    );
    for kind in ["taint", "untaint", "resolve-defer"] {
        assert!(text.contains(&format!("\nSPTEvent:{kind}:")), "no {kind} events");
    }
    assert!(summary.squashed > 0, "mcf under SPT must squash");

    let captured = Rc::new(RefCell::new(ParsedTrace::default()));
    let mut m = prepare_machine(w, cfg);
    m.set_trace_sink(Box::new(Rc::clone(&captured)));
    run_prepared(&mut m, w, cfg, BUDGET).expect("captured run completes");
    drop(m.take_trace_sink());
    let captured = captured.take();
    assert_eq!(parsed.records, captured.records, "instruction records differ");
    assert_eq!(parsed.events, captured.events, "events or their interleaving differ");
}

#[test]
fn a_clone_keeps_telemetry_and_has_no_sink() {
    let w = &ct_suite(Scale::Bench)[1]; // chacha20
    let cfg = Config::spt_full(ThreatModel::Futuristic);
    let mut m = prepare_machine(w, cfg);
    m.set_trace_sink(Box::new(ParsedTrace::default()));
    m.enable_telemetry();
    m.run(RunLimits::retired(500)).expect("run completes");

    let mut clone = m.clone();
    let json = |m: &spt_repro::ooo::Machine| m.telemetry().expect("telemetry enabled").to_json();
    assert_eq!(json(&clone), json(&m), "the clone keeps the histograms");
    assert!(json(&m).get("rob_occupancy").is_some());
    assert!(clone.take_trace_sink().is_none(), "the clone has no sink");
    assert!(m.take_trace_sink().is_some(), "the original keeps its sink");
    // The clone's telemetry keeps recording.
    let before = clone.telemetry().expect("enabled").rob_occupancy.samples();
    clone.run(RunLimits::retired(1_000)).expect("clone runs on");
    assert!(clone.telemetry().expect("enabled").rob_occupancy.samples() > before);
}

#[test]
fn squash_epochs_are_distinguished_by_fresh_seqs() {
    // A re-fetched instruction after a branch misprediction must be
    // distinguishable from its squashed first fetch. The machine never
    // reuses sequence numbers, so the same PC appears once squashed and
    // once retired under *different* seqs — assert exactly that on a
    // workload with guaranteed mispredictions.
    let w = &spec_suite(Scale::Bench)[1]; // branchy SPEC proxy
    let cfg = Config::unsafe_baseline(ThreatModel::Futuristic);
    let shared = Rc::new(RefCell::new(ParsedTrace::default()));
    let mut m = prepare_machine(w, cfg);
    m.set_trace_sink(Box::new(Rc::clone(&shared)));
    run_prepared(&mut m, w, cfg, BUDGET).expect("run completes");
    drop(m.take_trace_sink());
    let mem = shared.take();
    let mut seen = std::collections::HashSet::new();
    let mut squashed_pcs = std::collections::HashSet::new();
    let mut refetched = 0usize;
    for rec in &mem.records {
        assert!(seen.insert(rec.seq), "seq {} reused across squash epochs", rec.seq);
        if rec.retire_cycle.is_none() {
            squashed_pcs.insert(rec.pc);
        } else if squashed_pcs.contains(&rec.pc) {
            refetched += 1;
        }
    }
    let squashes = mem.records.iter().filter(|r| r.retire_cycle.is_none()).count();
    assert!(squashes > 0, "branchy workload must squash");
    assert!(
        refetched > 0,
        "at least one squashed PC must be re-fetched and retired under a fresh seq"
    );
}

/// A program whose only path runs off the end without `Halt`: fetch
/// stalls waiting for a redirect that never comes, nothing retires, and
/// the watchdog must fire.
fn wedged_workload() -> Workload {
    let mut a = Assembler::new();
    a.mov_imm(Reg::R1, 7);
    a.mov_imm(Reg::R2, 9);
    let program = a.assemble().expect("assembles");
    Workload {
        name: "wedged",
        category: Category::SpecInt,
        description: "runs off the end without halting (watchdog test)",
        program,
        image: SparseMem::new(),
        secret_ranges: vec![],
    }
}

#[test]
fn deadlock_watchdog_reports_cell_identity() {
    let w = wedged_workload();
    let cfg = Config::spt_full(ThreatModel::Futuristic);
    let err: SweepError =
        run_workload(&w, cfg, BUDGET).expect_err("wedged program must not complete");
    assert_eq!(err.workload, "wedged");
    assert_eq!(err.config, cfg.to_string());
    assert_eq!(err.threat, ThreatModel::Futuristic);
    match err.source {
        SimError::Deadlock { cycle, retired, head_pc } => {
            assert!(cycle > 100_000, "watchdog horizon respected (fired at {cycle})");
            assert_eq!(retired, 2, "both movs retired before the wedge");
            assert_eq!(head_pc, None, "ROB drained before the stall");
        }
    }
    let text = err.to_string();
    assert!(text.contains("wedged"), "display names the workload: {text}");
    assert!(text.contains("deadlock"), "display names the failure: {text}");
    // A width-ablation cell names its width, so its error is told apart
    // from the default-width cell's.
    let narrow = Config { broadcast_width: 1, ..cfg };
    let err = run_workload(&w, narrow, BUDGET).expect_err("wedged program must not complete");
    assert_eq!(err.config, "SPT{Bwd,ShadowL1} [futuristic] (width 1)");
    assert!(err.to_string().contains("(width 1)"), "{err}");
}
