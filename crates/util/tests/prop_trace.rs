//! Property test: the O3PipeView emitter and parser are exact inverses.
//!
//! Arbitrary instruction lifecycles (retired and squashed, with stages
//! legally skipped) interleaved with arbitrary `SPTEvent:` lines are
//! emitted through `O3PipeViewSink::with_events`, parsed back with
//! `parse_o3_trace`, and re-emitted with `ParsedTrace::reemit` — the
//! round trip must be byte-identical, the recovered cycle fields exact,
//! and the parsed trace equal to a `ParsedTrace` that captured the same
//! calls as a sink.

use proptest::prelude::*;
use spt_util::trace::{
    parse_o3_trace, InstRecord, O3PipeViewSink, ParsedTrace, SptTraceEvent, TraceSink,
};

/// One generated trace element: an instruction lifecycle or an event.
#[derive(Clone, Debug)]
enum Element {
    Inst {
        pc: u64,
        disasm_tag: u64,
        fetch: u64,
        rename_gap: u64,
        issue_gap: u64,
        complete_gap: u64,
        retire_gap: u64,
        /// 0 = retired, 1 = squashed before issue, 2 = squashed after
        /// complete.
        fate: u8,
    },
    Event(u64, SptTraceEvent),
}

fn event_strategy() -> impl Strategy<Value = Element> {
    let cycle = 0u64..100_000;
    prop_oneof![
        (cycle.clone(), any::<u64>(), 0u32..256)
            .prop_map(|(c, seq, phys)| Element::Event(c, SptTraceEvent::TaintDest { seq, phys })),
        (cycle.clone(), 0u32..256, 0usize..4, any::<u64>()).prop_map(|(c, phys, mech, seq)| {
            let mechanism = ["forward", "backward", "shadow-l1", "stl-fwd"][mech];
            Element::Event(c, SptTraceEvent::Untaint { phys, mechanism: mechanism.into(), seq })
        }),
        (cycle.clone(), any::<u64>(), any::<u64>()).prop_map(|(c, seq, pc)| Element::Event(
            c,
            SptTraceEvent::TransmitterDelayed { seq, pc }
        )),
        (cycle, any::<u64>(), any::<u64>()).prop_map(|(c, seq, pc)| Element::Event(
            c,
            SptTraceEvent::ResolutionDeferred { seq, pc }
        )),
    ]
}

fn inst_strategy() -> impl Strategy<Value = Element> {
    (any::<u64>(), 0u64..1_000, 0u64..10_000, 0u64..16, 0u64..64, 0u64..512, 0u64..64, 0u8..3)
        .prop_map(
            |(pc, disasm_tag, fetch, rename_gap, issue_gap, complete_gap, retire_gap, fate)| {
                Element::Inst {
                    pc,
                    disasm_tag,
                    fetch,
                    rename_gap,
                    issue_gap,
                    complete_gap,
                    retire_gap,
                    fate,
                }
            },
        )
}

fn element_strategy() -> impl Strategy<Value = Vec<Element>> {
    proptest::collection::vec(prop_oneof![inst_strategy(), event_strategy()], 0..40)
}

proptest! {
    #[test]
    fn o3_roundtrip_is_byte_identical(elements in element_strategy()) {
        let mut buf = Vec::new();
        let mut captured = ParsedTrace::default();
        {
            let mut sink = O3PipeViewSink::with_events(&mut buf);
            let mut seq = 0u64;
            for el in &elements {
                match el {
                    Element::Event(cycle, ev) => {
                        sink.event(*cycle, ev);
                        captured.event(*cycle, ev);
                    }
                    Element::Inst {
                        pc,
                        disasm_tag,
                        fetch,
                        rename_gap,
                        issue_gap,
                        complete_gap,
                        retire_gap,
                        fate,
                    } => {
                        seq += 1;
                        let rename = fetch + rename_gap;
                        let issue = rename + issue_gap;
                        let complete = issue + complete_gap;
                        let retire = complete + retire_gap;
                        let disasm = format!("op{disasm_tag} r1, r2");
                        let rec = match fate {
                            // Retired: all stages populated.
                            0 => InstRecord {
                                seq,
                                pc: *pc,
                                disasm: &disasm,
                                fetch_cycle: *fetch,
                                rename_cycle: rename,
                                issue_cycle: Some(issue),
                                complete_cycle: Some(complete),
                                retire_cycle: Some(retire),
                            },
                            // Squashed before issue.
                            1 => InstRecord {
                                seq,
                                pc: *pc,
                                disasm: &disasm,
                                fetch_cycle: *fetch,
                                rename_cycle: rename,
                                issue_cycle: None,
                                complete_cycle: None,
                                retire_cycle: None,
                            },
                            // Squashed after completing (wrong path ran to
                            // the end).
                            _ => InstRecord {
                                seq,
                                pc: *pc,
                                disasm: &disasm,
                                fetch_cycle: *fetch,
                                rename_cycle: rename,
                                issue_cycle: Some(issue),
                                complete_cycle: Some(complete),
                                retire_cycle: None,
                            },
                        };
                        sink.inst(&rec);
                        captured.inst(&rec);
                    }
                }
            }
            sink.flush().expect("in-memory flush");
        }
        let text = String::from_utf8(buf).expect("emitter writes utf8");
        let parsed = parse_o3_trace(&text).expect("emitter output parses");
        prop_assert_eq!(parsed.reemit(), text);
        prop_assert_eq!(&parsed, &captured);

        // Parsed counts match what was generated.
        let insts =
            elements.iter().filter(|e| matches!(e, Element::Inst { .. })).count() as u64;
        let squashed = elements
            .iter()
            .filter(|e| matches!(e, Element::Inst { fate: 1 | 2, .. }))
            .count() as u64;
        let events = elements.iter().filter(|e| matches!(e, Element::Event(..))).count() as u64;
        let summary = parsed.summary();
        prop_assert_eq!(summary.instructions, insts);
        prop_assert_eq!(summary.squashed, squashed);
        prop_assert_eq!(summary.events, events);

        // Cycle fields survive the tick encoding exactly.
        let mut gen_iter = elements.iter().filter_map(|e| match e {
            Element::Inst { fetch, rename_gap, .. } => Some((*fetch, fetch + rename_gap)),
            _ => None,
        });
        for rec in &parsed.records {
            let (fetch, rename) = gen_iter.next().expect("record count matches");
            prop_assert_eq!(rec.fetch_cycle, fetch);
            prop_assert_eq!(rec.rename_cycle, rename);
        }
    }
}
