//! Cross-crate correctness: every workload produces bit-identical
//! architectural results on the reference interpreter and on the pipeline
//! under every Table-2 configuration × threat model. Protections change
//! timing, never semantics.

use spt_repro::core::{Config, ThreatModel};
use spt_repro::isa::interp::SparseMem;
use spt_repro::ooo::{CoreConfig, Machine, RunLimits};
use spt_repro::workloads::{full_suite, Scale, Workload};

/// Memory regions each workload writes, to compare after the run.
/// (Reading the whole sparse space is wasteful; these cover all outputs.)
fn output_ranges(w: &Workload) -> Vec<(u64, usize)> {
    match w.name {
        "chacha20" => vec![(spt_repro::workloads::ct::CHACHA_OUT, 128)],
        "bitslice" => vec![(spt_repro::workloads::ct::BITSLICE_OUT, 40)],
        "djbsort" => vec![(spt_repro::workloads::ct::CTSORT_DATA, 8 * 64)],
        _ => vec![],
    }
}

fn run_reference(w: &Workload) -> (u64, SparseMem) {
    let mut i = w.interp();
    i.run(5_000_000).unwrap_or_else(|e| panic!("{} interp: {e}", w.name));
    assert!(i.halted(), "{}", w.name);
    (i.retired(), i.mem().clone())
}

#[test]
fn every_workload_matches_the_interpreter_under_every_config() {
    for w in full_suite(Scale::Test) {
        let (ref_retired, ref_mem) = run_reference(&w);
        for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
            for config in Config::table2(threat) {
                let mut m = Machine::new(w.program.clone(), CoreConfig::default(), config);
                *m.mem_mut().store() = w.image.clone();
                let out = m
                    .run(RunLimits::default())
                    .unwrap_or_else(|e| panic!("{} under {config}: {e}", w.name));
                assert_eq!(out.retired, ref_retired, "{} under {config}: retired count", w.name);
                for (base, len) in output_ranges(&w) {
                    let got = m.mem().store_ref().read_bytes(base, len);
                    let want = ref_mem.read_bytes(base, len);
                    assert_eq!(got, want, "{} under {config}: output bytes @{base:#x}", w.name);
                }
            }
        }
    }
}

#[test]
fn tiny_core_configuration_is_also_correct() {
    // A 2-wide, 16-entry-ROB core stresses structural-hazard paths
    // (ROB/RS/LSQ full, free-list exhaustion) that the big core rarely hits.
    for w in full_suite(Scale::Test).into_iter().take(6) {
        let (ref_retired, _) = run_reference(&w);
        for config in [
            Config::unsafe_baseline(ThreatModel::Futuristic),
            Config::spt_full(ThreatModel::Futuristic),
            Config::secure_baseline(ThreatModel::Spectre),
        ] {
            let mut m = Machine::new(w.program.clone(), CoreConfig::tiny(), config);
            *m.mem_mut().store() = w.image.clone();
            let out = m
                .run(RunLimits::default())
                .unwrap_or_else(|e| panic!("{} tiny under {config}: {e}", w.name));
            assert_eq!(out.retired, ref_retired, "{} tiny under {config}", w.name);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let w = &full_suite(Scale::Test)[0];
    let config = Config::spt_full(ThreatModel::Futuristic);
    let run = || {
        let mut m = Machine::new(w.program.clone(), CoreConfig::default(), config);
        *m.mem_mut().store() = w.image.clone();
        let out = m.run(RunLimits::default()).expect("runs");
        (out.cycles, out.retired, m.stats().spt.events.total())
    };
    assert_eq!(run(), run(), "bit-identical reruns");
}

#[test]
fn chacha20_rfc_vector_on_the_pipeline() {
    // The RFC 8439 §2.3.2 keystream, produced by the out-of-order machine
    // under full SPT protection.
    let expected: [u64; 16] = [
        0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033, 0x9aaa2204,
        0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9, 0xd19c12b5, 0xb94e16de,
        0xe883d0cb, 0x4e3c50a2,
    ];
    let w = spt_repro::workloads::ct::chacha20_blocks(1);
    let mut m = Machine::new(
        w.program.clone(),
        CoreConfig::default(),
        Config::spt_full(ThreatModel::Futuristic),
    );
    *m.mem_mut().store() = w.image.clone();
    m.run(RunLimits::default()).expect("runs");
    for (k, &e) in expected.iter().enumerate() {
        let got = m.mem().store_ref().read(spt_repro::workloads::ct::CHACHA_OUT + 8 * k as u64, 8);
        assert_eq!(got, e, "keystream word {k}");
    }
}

#[test]
fn division_through_the_pipeline() {
    // Variable-time Div/Rem: correct values under every configuration,
    // including divide-by-zero (RISC-V semantics).
    use spt_repro::isa::asm::Assembler;
    use spt_repro::isa::Reg;
    let mut a = Assembler::new();
    a.mov_imm(Reg::R1, 1000);
    a.mov_imm(Reg::R2, 7);
    a.div(Reg::R3, Reg::R1, Reg::R2);
    a.rem(Reg::R4, Reg::R1, Reg::R2);
    a.div(Reg::R5, Reg::R1, Reg::R0); // divide by zero
    a.rem(Reg::R6, Reg::R1, Reg::R0);
    a.divi(Reg::R7, Reg::R1, 13);
    a.halt();
    let p = a.assemble().unwrap();
    for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
        for config in Config::table2(threat) {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), config);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R3), 142, "{config}");
            assert_eq!(m.reg(Reg::R4), 6, "{config}");
            assert_eq!(m.reg(Reg::R5), u64::MAX, "{config}");
            assert_eq!(m.reg(Reg::R6), 1000, "{config}");
            assert_eq!(m.reg(Reg::R7), 76, "{config}");
        }
    }
}

#[test]
fn parsed_programs_run_identically_to_built_ones() {
    // The text parser's output must be execution-equivalent to the builder
    // API's for a real workload.
    use spt_repro::isa::parse::parse_program;
    let w = &spt_repro::workloads::ct_suite(Scale::Test)[1]; // chacha20
    let text = w.program.to_string();
    let reparsed = parse_program(&text).expect("workload listing parses");
    assert_eq!(reparsed.insts(), w.program.insts());

    let mut m1 = Machine::new(
        w.program.clone(),
        CoreConfig::default(),
        Config::spt_full(ThreatModel::Futuristic),
    );
    *m1.mem_mut().store() = w.image.clone();
    let out1 = m1.run(RunLimits::default()).unwrap();

    let mut m2 =
        Machine::new(reparsed, CoreConfig::default(), Config::spt_full(ThreatModel::Futuristic));
    *m2.mem_mut().store() = w.image.clone();
    let out2 = m2.run(RunLimits::default()).unwrap();
    assert_eq!(out1.cycles, out2.cycles, "identical programs take identical cycles");
    assert_eq!(out1.retired, out2.retired);
}
