//! Lockstep contract for quiet-cycle fast-forward.
//!
//! `Machine::run` skips the cycles that would repeat a quiet cycle (one in
//! which nothing but the delay counters changed) and replays their
//! counters, trace events and telemetry samples. `Machine::step_cycle`
//! always simulates exactly one cycle, so stepping a machine cycle by
//! cycle is the reference. Every cell here is also run with one `run`
//! call and with `run` in short slices, and all three must end with
//! identical cycles, `MachineStats` JSON, attacker-observation digest and
//! telemetry JSON. The observed cells must also produce identical
//! O3PipeView bytes (with SPT events) and validator reports.

use spt_bench::runner::{default_jobs, prepare_machine, run_indexed};
use spt_fuzz::TestProgram;
use spt_repro::core::{Config, ThreatModel};
use spt_repro::isa::asm::Assembler;
use spt_repro::isa::Reg;
use spt_repro::mem::{HierarchyConfig, MemSystem};
use spt_repro::ooo::{CoreConfig, Machine, RunLimits, SimError};
use spt_repro::workloads::{full_suite, set_input_seed, Scale, Workload};
use spt_util::O3PipeViewSink;
use std::io::Write;
use std::sync::{Arc, Mutex};

const BUDGET: u64 = 2_000;
const WORKLOADS: [&str; 5] = ["chacha20", "mcf", "gcc", "lbm", "djbsort"];
const FUZZ_PROGRAMS: u64 = 24;
/// Generated programs halt long before this; it only bounds a hang.
const FUZZ_CYCLES: u64 = 4_000_000;

fn configs() -> Vec<Config> {
    [ThreatModel::Futuristic, ThreatModel::Spectre].into_iter().flat_map(Config::table2).collect()
}

/// The workloads under test, built with input seed `seed`. The seed is
/// process-global, so every suite is built under one lock.
fn workloads(seed: u64) -> Vec<Workload> {
    static SEED_LOCK: Mutex<()> = Mutex::new(());
    let _guard = SEED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_input_seed(seed);
    let suite = full_suite(Scale::Bench);
    set_input_seed(0);
    WORKLOADS
        .iter()
        .map(|name| suite.iter().find(|w| w.name == *name).expect("workload in suite").clone())
        .collect()
}

/// Whether `run` with `limits` would simulate another cycle.
fn unfinished(m: &Machine, limits: RunLimits) -> bool {
    !m.halted() && m.cycle() < limits.max_cycles && m.stats().retired < limits.max_retired
}

/// The reference: `step_cycle` alone, stopping where `run` would.
fn step_only(m: &mut Machine, limits: RunLimits) {
    while unfinished(m, limits) {
        m.step_cycle();
    }
}

/// `run` in slices of 1 to 41 cycles. Each slice ends on a cycle budget,
/// so fast-forward also starts from cycles a single run never stops at.
fn run_in_slices(label: &str, m: &mut Machine, limits: RunLimits) {
    let mut len = 1;
    while unfinished(m, limits) {
        let max_cycles = (m.cycle() + len).min(limits.max_cycles);
        m.run(RunLimits { max_cycles, ..limits }).unwrap_or_else(|e| panic!("{label}: {e}"));
        len = len % 41 + 1;
    }
}

fn assert_same_state(label: &str, want: &Machine, got: &Machine) {
    assert_eq!(want.cycle(), got.cycle(), "{label}: cycles");
    assert_eq!(want.stats().to_json().to_string(), got.stats().to_json().to_string(), "{label}");
    assert_eq!(want.observation_digest(), got.observation_digest(), "{label}: observation");
    let telemetry = |m: &Machine| m.telemetry().map(|t| t.to_json().to_string());
    assert_eq!(telemetry(want), telemetry(got), "{label}: telemetry");
    let memory = |m: &Machine| {
        let mem = m.mem();
        let caches = [mem.l1().stats(), mem.l2().stats(), mem.l3().stats(), m.icache_stats()];
        format!("{caches:?} {:?} {:?}", m.dtlb_stats(), m.frontend_stats())
    };
    assert_eq!(memory(want), memory(got), "{label}: cache, TLB and predictor counters");
}

/// Builds three identical machines, steps one, runs one and runs one in
/// slices, and asserts that all three end in the same state. Returns the
/// machine that ran in one call.
fn lockstep(label: &str, build: impl Fn() -> Machine, limits: RunLimits) -> Machine {
    let mut stepped = build();
    step_only(&mut stepped, limits);
    assert_eq!(stepped.fast_forwarded_cycles(), 0, "{label}: step_cycle never skips");
    let mut ran = build();
    ran.run(limits).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_same_state(label, &stepped, &ran);
    let mut sliced = build();
    run_in_slices(label, &mut sliced, limits);
    assert_same_state(&format!("{label}, run in slices"), &stepped, &sliced);
    ran
}

fn fuzz_machine(tp: &TestProgram, cfg: Config) -> Machine {
    let mut mem = MemSystem::default();
    *mem.store() = tp.memory(&tp.secret);
    Machine::with_memory(tp.program.clone(), CoreConfig::default(), cfg, mem)
}

#[test]
fn run_matches_stepping_on_workloads() {
    let cfgs = configs();
    for seed in [1, 7] {
        let wls = workloads(seed);
        let cells = wls.len() * cfgs.len();
        let skipped = run_indexed(cells, default_jobs(), |i| {
            let (w, cfg) = (&wls[i / cfgs.len()], cfgs[i % cfgs.len()]);
            let label = format!("{} under {cfg} [seed {seed}]", w.name);
            let build = || {
                let mut m = prepare_machine(w, cfg);
                m.enable_telemetry();
                m
            };
            let ran = lockstep(&label, build, RunLimits::retired(BUDGET));
            (w.name, ran.fast_forwarded_cycles())
        });
        let mcf: u64 = skipped.iter().filter(|(name, _)| *name == "mcf").map(|(_, n)| n).sum();
        assert!(mcf > 0, "fast-forward never engaged on mcf at seed {seed}");
    }
}

#[test]
fn run_matches_stepping_on_generated_programs() {
    let programs: Vec<TestProgram> = (0..FUZZ_PROGRAMS).map(spt_fuzz::generate).collect();
    let cfgs = configs();
    run_indexed(programs.len() * cfgs.len(), default_jobs(), |i| {
        let (seed, cfg) = (i / cfgs.len(), cfgs[i % cfgs.len()]);
        let tp = &programs[seed];
        let label = format!("generated program {seed} under {cfg}");
        let ran = lockstep(&label, || fuzz_machine(tp, cfg), RunLimits::cycles(FUZZ_CYCLES));
        assert!(ran.halted(), "{label}: no halt");
    });
}

/// Steps `m` to the end of `limits`, asserting after every cycle that the
/// frontend snapshot ring holds at most one snapshot per control-flow
/// instruction in flight plus the open one. Returns the violation squashes
/// (squashes that were not mispredicts), which restore a snapshot instead
/// of recovering past one. The goldens cannot see a ring that leaks.
fn step_checking_snapshots(label: &str, m: &mut Machine, limits: RunLimits) -> u64 {
    while unfinished(m, limits) {
        m.step_cycle();
        let (snaps, cf) = m.snapshot_occupancy();
        assert!(
            snaps <= cf + 1,
            "{label}: {snaps} snapshots for {cf} control-flow instructions at cycle {}",
            m.cycle()
        );
    }
    let s = m.stats();
    s.squashes - s.branch_mispredicts - s.indirect_mispredicts
}

#[test]
fn snapshot_ring_is_bounded_by_control_flow_in_flight() {
    let mcf = &workloads(0)[1];
    for threat in [ThreatModel::Futuristic, ThreatModel::Spectre] {
        let cfg = Config::spt_full(threat);
        let mut m = prepare_machine(mcf, cfg);
        step_checking_snapshots(&format!("mcf under {cfg}"), &mut m, RunLimits::retired(BUDGET));
        assert!(m.stats().branch_mispredicts > 0, "mcf under {cfg}: no mispredict recovery");
    }
    // Generated programs alias stores and loads, so some memory-order
    // violations squash and restore the victim's snapshot.
    let mut violation_squashes = 0;
    for seed in 0..FUZZ_PROGRAMS {
        let tp = spt_fuzz::generate(seed);
        for cfg in [
            Config::spt_full(ThreatModel::Futuristic),
            Config::unsafe_baseline(ThreatModel::Spectre),
        ] {
            let mut m = fuzz_machine(&tp, cfg);
            let label = format!("generated program {seed} under {cfg}");
            violation_squashes +=
                step_checking_snapshots(&label, &mut m, RunLimits::cycles(FUZZ_CYCLES));
            assert!(m.halted(), "{label}: no halt");
        }
    }
    assert!(violation_squashes > 0, "no generated program squashed on a violation");
}

/// An in-memory writer whose bytes stay readable after the sink that
/// owns it is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Everything an observed run reports besides the machine state.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: Vec<u8>,
    report: Option<(u64, Vec<String>)>,
}

fn observe(m: &mut Machine, buf: &SharedBuf) -> Observed {
    let mut sink = m.take_trace_sink().expect("sink attached");
    sink.flush().expect("trace flush");
    drop(sink);
    Observed { trace: buf.0.lock().expect("buffer lock").clone(), report: m.validation_report() }
}

#[test]
fn traced_telemetry_and_validated_runs_fast_forward_too() {
    let mcf = &workloads(0)[1];
    for threat in [ThreatModel::Futuristic, ThreatModel::Spectre] {
        let cfg = Config::spt_full(threat);
        let label = format!("observed mcf under {cfg}");
        let build = |buf: &SharedBuf| {
            let mut m = prepare_machine(mcf, cfg);
            m.set_trace_sink(Box::new(O3PipeViewSink::with_events(buf.clone())));
            m.enable_telemetry();
            m.enable_validation();
            m
        };
        let (stepped_buf, ran_buf) = (SharedBuf::default(), SharedBuf::default());
        let (mut stepped, mut ran) = (build(&stepped_buf), build(&ran_buf));
        step_only(&mut stepped, RunLimits::retired(BUDGET));
        ran.run(RunLimits::retired(BUDGET)).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_same_state(&label, &stepped, &ran);
        assert!(ran.fast_forwarded_cycles() > 0, "{label}: fast-forward never engaged");
        let (want, got) = (observe(&mut stepped, &stepped_buf), observe(&mut ran, &ran_buf));
        assert!(!want.trace.is_empty(), "{label}: empty trace");
        assert!(want.report.is_some(), "{label}: validator not attached");
        assert_eq!(want.report, got.report, "{label}: validator report");
        assert!(want.trace == got.trace, "{label}: trace bytes differ");
    }
}

#[test]
fn deadlock_is_reported_at_the_stepped_cycle() {
    // Two movs and no halt: the pipeline drains and then idles until the
    // watchdog fires, so a skip must stop exactly at the watchdog cycle.
    let mut a = Assembler::new();
    a.mov_imm(Reg::R1, 7);
    a.mov_imm(Reg::R2, 9);
    let program = a.assemble().expect("assembles");
    let cfg = Config::spt_full(ThreatModel::Futuristic);
    let build = || Machine::new(program.clone(), CoreConfig::default(), cfg);

    let mut stepped = build();
    let mut last_retire = 0;
    while stepped.cycle() - last_retire <= 100_000 {
        let retired = stepped.stats().retired;
        stepped.step_cycle();
        if stepped.stats().retired != retired {
            last_retire = stepped.cycle() - 1;
        }
    }
    let mut ran = build();
    match ran.run(RunLimits::default()) {
        Err(SimError::Deadlock { cycle, retired, .. }) => {
            assert_eq!(cycle, stepped.cycle(), "watchdog cycle");
            assert_eq!(retired, 2);
        }
        other => panic!("wedged program must deadlock, got {other:?}"),
    }
    assert_same_state("wedged program", &stepped, &ran);
    assert!(ran.fast_forwarded_cycles() > 99_000, "the idle stretch is skipped");
}

#[test]
fn mshr_busy_retries_are_not_skipped() {
    // Independent loads to distinct lines through a two-MSHR L1: most
    // issue attempts find every MSHR busy while the pipeline otherwise
    // waits. A busy attempt still counts a miss and touches the TLB and
    // LRU state, so those cycles must be simulated, not skipped.
    let mut a = Assembler::new();
    a.mov_imm(Reg::R1, 0x10_0000);
    a.mov_imm(Reg::R2, 0);
    a.mov_imm(Reg::R3, 48);
    a.label("loop");
    a.ld(Reg::R4, Reg::R1, 0);
    a.add(Reg::R5, Reg::R5, Reg::R4);
    a.addi(Reg::R1, Reg::R1, 4096 + 64);
    a.addi(Reg::R2, Reg::R2, 1);
    a.blt(Reg::R2, Reg::R3, "loop");
    a.halt();
    let program = a.assemble().expect("assembles");
    let mut hierarchy = HierarchyConfig::default();
    hierarchy.l1.mshrs = 2;
    let mut busy = 0;
    for cfg in configs() {
        let label = format!("two-MSHR load stream under {cfg}");
        let build = || {
            let mem = MemSystem::new(hierarchy);
            Machine::with_memory(program.clone(), CoreConfig::default(), cfg, mem)
        };
        let ran = lockstep(&label, build, RunLimits::default());
        assert!(ran.halted(), "{label}: no halt");
        // Each busy attempt counts one more L1 miss.
        busy += usize::from(ran.mem().l1().stats().misses > 2 * 48);
    }
    assert!(busy > 0, "the MSHRs were never busy");
}
