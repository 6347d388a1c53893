//! Pipeline trace plumbing: the [`TraceSink`] trait the simulator's probe
//! reports to, a gem5 O3PipeView-compatible emitter whose output loads
//! directly in Konata — and the matching strict parser
//! ([`parse_o3_trace`]) the attribution tooling (`spt-attrib`) builds on.
//! A [`ParsedTrace`] is both what the parser returns and an in-memory
//! sink, so a captured run and a parsed text trace compare with `==`.
//!
//! The design goal is *zero cost when disabled*: the machine holds its
//! sink inside an optional probe and tests it for null before formatting
//! anything. Timestamps the sink needs are plain `u64` stores into the ROB
//! entry that happen unconditionally; they never feed back into timing, so
//! cycle counts and attacker-observation digests are bit-identical with
//! tracing on or off.
//!
//! # O3PipeView format
//!
//! gem5's `O3PipeView` debug-flag format, one record block per retired
//! (or squashed) instruction, ticks at 500 per cycle (the 2 GHz gem5
//! convention Konata expects):
//!
//! ```text
//! O3PipeView:fetch:500:0x0000000000000040:0:12:ld      r3, [r1]
//! O3PipeView:decode:1000
//! O3PipeView:rename:1000
//! O3PipeView:dispatch:1500
//! O3PipeView:issue:2000
//! O3PipeView:complete:2500
//! O3PipeView:retire:3000:store:0
//! ```
//!
//! Squashed instructions carry `retire:0` (Konata greys them out). Records
//! are flushed per instruction at retire/squash time, so all lines of one
//! instruction are contiguous as the parser requires.
//!
//! # SPT event lines
//!
//! A sink built with [`O3PipeViewSink::with_events`] additionally writes
//! one `SPTEvent:` line per SPT security event, in stream order (always
//! *between* instruction blocks, never inside one, because each block is
//! written atomically at retire/squash):
//!
//! ```text
//! SPTEvent:taint:<cycle>:<seq>:<phys>
//! SPTEvent:untaint:<cycle>:<phys>:<mechanism>:<producer-seq>
//! SPTEvent:xmit-delay:<cycle>:<seq>:0x<pc>
//! SPTEvent:resolve-defer:<cycle>:<seq>:0x<pc>
//! ```
//!
//! Cycles in event lines are plain machine cycles (not ticks). Konata and
//! gem5's own tooling key on the `O3PipeView:` prefix and skip foreign
//! lines; strict consumers can drop them with `grep -v '^SPTEvent:'`.
//! [`o3_event_line`] is the only writer of these lines, and
//! [`parse_o3_trace`] understands both line families and preserves the
//! interleaving, so emit → parse → [`ParsedTrace::reemit`] is
//! byte-identical.

use std::borrow::Cow;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

/// Ticks per simulated cycle in emitted O3PipeView traces (gem5's 2 GHz
/// default tick rate, which Konata's importer assumes).
pub const TICKS_PER_CYCLE: u64 = 500;

/// Per-instruction lifecycle timestamps, handed to the sink when the
/// instruction leaves the pipeline (retire or squash).
///
/// Cycles are absolute machine cycles. `None` means the instruction never
/// reached that stage (e.g. squashed before issue).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstRecord<'a> {
    /// Global sequence number (fetch order).
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Disassembly for the trace viewer.
    pub disasm: &'a str,
    /// Cycle the instruction entered the fetch queue.
    pub fetch_cycle: u64,
    /// Cycle it was renamed into the ROB.
    pub rename_cycle: u64,
    /// Cycle it issued to a functional unit / memory port.
    pub issue_cycle: Option<u64>,
    /// Cycle its result wrote back.
    pub complete_cycle: Option<u64>,
    /// Cycle it retired (`None` if squashed).
    pub retire_cycle: Option<u64>,
}

/// SPT-specific events, emitted as they happen (not buffered per
/// instruction), and read back from `SPTEvent:` lines by
/// [`parse_o3_trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SptTraceEvent {
    /// `SPTEvent:taint:` — an instruction's destination register was born
    /// tainted.
    TaintDest {
        /// Sequence number of the producing instruction.
        seq: u64,
        /// Physical register that became tainted.
        phys: u32,
    },
    /// `SPTEvent:untaint:` — a physical register was untainted.
    Untaint {
        /// Physical register that became untainted.
        phys: u32,
        /// Untaint mechanism label (e.g. `"forward"`, `"shadow-l1"`):
        /// borrowed from a static label when the machine emits it, owned
        /// when parsed back from text.
        mechanism: Cow<'static, str>,
        /// Sequence number of the instruction whose rename tainted `phys`
        /// (the producer of the taint episode that just ended); 0 when the
        /// birth was not observed (e.g. sink attached mid-run). Lets the
        /// attribution tooling tie an untaint broadcast back to the
        /// instruction whose output it declassifies.
        seq: u64,
    },
    /// `SPTEvent:xmit-delay:` — a ready transmitter was held back this
    /// cycle because an operand was still tainted.
    TransmitterDelayed {
        /// Sequence number of the blocked transmitter.
        seq: u64,
        /// Its program counter.
        pc: u64,
    },
    /// `SPTEvent:resolve-defer:` — a resolved branch's squash/redirect (or
    /// a store's pending violation squash) was deferred because it was
    /// still tainted.
    ResolutionDeferred {
        /// Sequence number of the deferred branch or store.
        seq: u64,
        /// Its program counter.
        pc: u64,
    },
}

/// Consumer of pipeline trace events.
///
/// Implementations must not influence simulation state; the machine calls
/// them only when tracing is enabled and never reads anything back.
pub trait TraceSink {
    /// One instruction left the pipeline (retired or squashed).
    fn inst(&mut self, rec: &InstRecord<'_>);
    /// An SPT security event occurred at `cycle`.
    fn event(&mut self, cycle: u64, ev: &SptTraceEvent) {
        let _ = (cycle, ev);
    }
    /// Flush buffered output (called once at end of run).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A shared sink: the caller keeps a clone of the `Rc` and reads what the
/// sink captured after the machine has consumed the boxed handle.
impl<S: TraceSink + ?Sized> TraceSink for Rc<RefCell<S>> {
    fn inst(&mut self, rec: &InstRecord<'_>) {
        self.borrow_mut().inst(rec);
    }
    fn event(&mut self, cycle: u64, ev: &SptTraceEvent) {
        self.borrow_mut().event(cycle, ev);
    }
    fn flush(&mut self) -> io::Result<()> {
        self.borrow_mut().flush()
    }
}

/// Renders one 7-line O3PipeView record block, exactly as
/// [`O3PipeViewSink`] writes it (shared with [`ParsedTrace::reemit`] so
/// round-tripping is byte-identical).
pub fn o3_block(rec: &InstRecord<'_>) -> String {
    use std::fmt::Write as _;
    let tick = |c: u64| c * TICKS_PER_CYCLE;
    // fetch tick 0 is reserved-ish in viewers; the machine's first
    // fetch happens at cycle 0, so shift every stage by one cycle.
    let fetch = tick(rec.fetch_cycle + 1);
    let rename = tick(rec.rename_cycle + 1);
    let mut out = String::with_capacity(160 + rec.disasm.len());
    let _ = writeln!(
        out,
        "O3PipeView:fetch:{fetch}:0x{pc:016x}:0:{seq}:{disasm}",
        pc = rec.pc,
        seq = rec.seq,
        disasm = rec.disasm
    );
    // This pipeline has no distinct decode stage; gem5's importer
    // requires the line, so it coincides with fetch-queue entry.
    let _ = writeln!(out, "O3PipeView:decode:{fetch}");
    let _ = writeln!(out, "O3PipeView:rename:{rename}");
    // Rename and dispatch are a single stage here.
    let _ = writeln!(out, "O3PipeView:dispatch:{rename}");
    let issue = rec.issue_cycle.map(|c| tick(c + 1)).unwrap_or(0);
    let _ = writeln!(out, "O3PipeView:issue:{issue}");
    let complete = rec.complete_cycle.map(|c| tick(c + 1)).unwrap_or(0);
    let _ = writeln!(out, "O3PipeView:complete:{complete}");
    // Squashed instructions carry retire tick 0.
    let retire = rec.retire_cycle.map(|c| tick(c + 1)).unwrap_or(0);
    let _ = writeln!(out, "O3PipeView:retire:{retire}:store:0");
    out
}

/// Renders one `SPTEvent:` line: the only writer of the format, shared by
/// [`O3PipeViewSink`] and [`ParsedTrace::reemit`] so round-tripping is
/// byte-identical.
pub fn o3_event_line(cycle: u64, ev: &SptTraceEvent) -> String {
    match ev {
        SptTraceEvent::TaintDest { seq, phys } => format!("SPTEvent:taint:{cycle}:{seq}:{phys}\n"),
        SptTraceEvent::Untaint { phys, mechanism, seq } => {
            format!("SPTEvent:untaint:{cycle}:{phys}:{mechanism}:{seq}\n")
        }
        SptTraceEvent::TransmitterDelayed { seq, pc } => {
            format!("SPTEvent:xmit-delay:{cycle}:{seq}:0x{pc:016x}\n")
        }
        SptTraceEvent::ResolutionDeferred { seq, pc } => {
            format!("SPTEvent:resolve-defer:{cycle}:{seq}:0x{pc:016x}\n")
        }
    }
}

/// Writes gem5 O3PipeView records to any [`Write`] target, optionally
/// interleaved with `SPTEvent:` lines (see the module docs).
pub struct O3PipeViewSink<W: Write> {
    out: io::BufWriter<W>,
    error: Option<io::Error>,
    events: bool,
}

impl<W: Write> O3PipeViewSink<W> {
    /// Creates a sink writing pure O3PipeView record blocks to `out`.
    pub fn new(out: W) -> Self {
        O3PipeViewSink { out: io::BufWriter::new(out), error: None, events: false }
    }

    /// Creates a sink that also writes one `SPTEvent:` line per SPT
    /// security event — the format the `tracediff` attribution tool
    /// expects (viewers that key on the `O3PipeView:` prefix skip them).
    pub fn with_events(out: W) -> Self {
        O3PipeViewSink { out: io::BufWriter::new(out), error: None, events: true }
    }

    fn write_str(&mut self, s: &str) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(s.as_bytes()) {
                self.error = Some(e);
            }
        }
    }
}

impl<W: Write> TraceSink for O3PipeViewSink<W> {
    fn inst(&mut self, rec: &InstRecord<'_>) {
        let block = o3_block(rec);
        self.write_str(&block);
    }

    fn event(&mut self, cycle: u64, ev: &SptTraceEvent) {
        if self.events {
            let line = o3_event_line(cycle, ev);
            self.write_str(&line);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// An [`InstRecord`] with an owned disassembly string.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OwnedInstRecord {
    /// See [`InstRecord::seq`].
    pub seq: u64,
    /// See [`InstRecord::pc`].
    pub pc: u64,
    /// See [`InstRecord::disasm`].
    pub disasm: String,
    /// See [`InstRecord::fetch_cycle`].
    pub fetch_cycle: u64,
    /// See [`InstRecord::rename_cycle`].
    pub rename_cycle: u64,
    /// See [`InstRecord::issue_cycle`].
    pub issue_cycle: Option<u64>,
    /// See [`InstRecord::complete_cycle`].
    pub complete_cycle: Option<u64>,
    /// See [`InstRecord::retire_cycle`].
    pub retire_cycle: Option<u64>,
}

impl OwnedInstRecord {
    /// A borrowed view suitable for re-emission through a [`TraceSink`].
    pub fn as_record(&self) -> InstRecord<'_> {
        InstRecord {
            seq: self.seq,
            pc: self.pc,
            disasm: &self.disasm,
            fetch_cycle: self.fetch_cycle,
            rename_cycle: self.rename_cycle,
            issue_cycle: self.issue_cycle,
            complete_cycle: self.complete_cycle,
            retire_cycle: self.retire_cycle,
        }
    }

    /// Whether the record describes a retired (vs. squashed) instruction.
    pub fn retired(&self) -> bool {
        self.retire_cycle.is_some()
    }
}

/// Summary returned by [`ParsedTrace::summary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct O3TraceSummary {
    /// Instruction record blocks (one `fetch` line each).
    pub instructions: u64,
    /// Blocks with a non-zero retire tick.
    pub retired: u64,
    /// Blocks with retire tick 0 (squashed).
    pub squashed: u64,
    /// `SPTEvent:` lines.
    pub events: u64,
}

/// One SPT event with its cycle and its position in the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Machine cycle the event occurred.
    pub cycle: u64,
    /// Number of instruction blocks that preceded this line — preserves
    /// the emission interleaving so [`ParsedTrace::reemit`] is exact.
    pub after_block: u64,
    /// The event payload.
    pub event: SptTraceEvent,
}

/// A trace held in memory: instruction records in emission order plus
/// every SPT event with its interleaving position. [`parse_o3_trace`]
/// builds one from text; as a [`TraceSink`] it captures a run directly,
/// and the two agree exactly on traces written with
/// [`O3PipeViewSink::with_events`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedTrace {
    /// Instruction records, in emission (retire/squash) order.
    pub records: Vec<OwnedInstRecord>,
    /// Events, in emission order.
    pub events: Vec<ParsedEvent>,
}

impl ParsedTrace {
    /// Instruction and event counts.
    pub fn summary(&self) -> O3TraceSummary {
        let retired = self.records.iter().filter(|r| r.retired()).count() as u64;
        O3TraceSummary {
            instructions: self.records.len() as u64,
            retired,
            squashed: self.records.len() as u64 - retired,
            events: self.events.len() as u64,
        }
    }

    /// Re-emits the trace text. For traces produced by
    /// [`O3PipeViewSink`], the output is byte-identical to the input of
    /// [`parse_o3_trace`] (the round-trip the proptest pins).
    pub fn reemit(&self) -> String {
        let mut out = String::new();
        let mut ev = self.events.iter().peekable();
        for (i, rec) in self.records.iter().enumerate() {
            while let Some(e) = ev.next_if(|e| e.after_block <= i as u64) {
                out.push_str(&o3_event_line(e.cycle, &e.event));
            }
            out.push_str(&o3_block(&rec.as_record()));
        }
        for e in ev {
            out.push_str(&o3_event_line(e.cycle, &e.event));
        }
        out
    }

    /// The retired records, in retire order (the order blocks are
    /// emitted), paired with their 0-based retire rank.
    pub fn retired(&self) -> impl Iterator<Item = (u64, &OwnedInstRecord)> {
        self.records.iter().filter(|r| r.retired()).enumerate().map(|(i, r)| (i as u64, r))
    }

    /// Cycle of the last retirement (0 for a trace with no retired
    /// records).
    pub fn last_retire_cycle(&self) -> u64 {
        self.records.iter().filter_map(|r| r.retire_cycle).max().unwrap_or(0)
    }
}

impl TraceSink for ParsedTrace {
    fn inst(&mut self, rec: &InstRecord<'_>) {
        self.records.push(OwnedInstRecord {
            seq: rec.seq,
            pc: rec.pc,
            disasm: rec.disasm.to_string(),
            fetch_cycle: rec.fetch_cycle,
            rename_cycle: rec.rename_cycle,
            issue_cycle: rec.issue_cycle,
            complete_cycle: rec.complete_cycle,
            retire_cycle: rec.retire_cycle,
        });
    }

    fn event(&mut self, cycle: u64, ev: &SptTraceEvent) {
        let after_block = self.records.len() as u64;
        self.events.push(ParsedEvent { cycle, after_block, event: ev.clone() });
    }
}

/// Converts a non-zero O3PipeView tick back to the machine cycle the
/// emitter encoded (`tick = (cycle + 1) * TICKS_PER_CYCLE`).
fn tick_to_cycle(tick: u64, lineno: usize) -> Result<u64, String> {
    if !tick.is_multiple_of(TICKS_PER_CYCLE) || tick == 0 {
        return Err(format!(
            "line {lineno}: tick {tick} is not a positive multiple of {TICKS_PER_CYCLE}"
        ));
    }
    Ok(tick / TICKS_PER_CYCLE - 1)
}

fn parse_event_line(rest: &str, lineno: usize, after_block: u64) -> Result<ParsedEvent, String> {
    let err = |what: &str| format!("line {lineno}: {what}");
    let fields: Vec<&str> = rest.split(':').collect();
    let num = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>().map_err(|_| err(&format!("bad {what} `{s}`")))
    };
    let pc_of = |s: &str| -> Result<u64, String> {
        let hex = s.strip_prefix("0x").ok_or_else(|| err(&format!("bad pc `{s}`")))?;
        u64::from_str_radix(hex, 16).map_err(|_| err(&format!("bad pc `{s}`")))
    };
    let event = match fields.first().copied() {
        Some("taint") if fields.len() == 4 => SptTraceEvent::TaintDest {
            seq: num(fields[2], "seq")?,
            phys: num(fields[3], "phys")? as u32,
        },
        Some("untaint") if fields.len() == 5 => SptTraceEvent::Untaint {
            phys: num(fields[2], "phys")? as u32,
            mechanism: Cow::Owned(fields[3].to_string()),
            seq: num(fields[4], "seq")?,
        },
        Some("xmit-delay") if fields.len() == 4 => {
            SptTraceEvent::TransmitterDelayed { seq: num(fields[2], "seq")?, pc: pc_of(fields[3])? }
        }
        Some("resolve-defer") if fields.len() == 4 => {
            SptTraceEvent::ResolutionDeferred { seq: num(fields[2], "seq")?, pc: pc_of(fields[3])? }
        }
        _ => return Err(err("malformed SPTEvent record")),
    };
    let cycle = num(fields[1], "cycle")?;
    Ok(ParsedEvent { cycle, after_block, event })
}

/// Strictly parses an O3PipeView trace (optionally with interleaved
/// `SPTEvent:` lines) into instruction records and events;
/// [`ParsedTrace::summary`] gives the block and event counts.
///
/// Every `O3PipeView:` line must belong to a well-formed 7-line record
/// block (`fetch`, `decode`, `rename`, `dispatch`, `issue`, `complete`,
/// `retire`) with monotone non-decreasing ticks within a block (ignoring
/// the 0 "never reached" marker), ticks must be positive multiples of
/// [`TICKS_PER_CYCLE`], and `SPTEvent:` lines may only appear between
/// blocks.
///
/// # Errors
///
/// Returns a message naming the first offending line (1-based).
pub fn parse_o3_trace(text: &str) -> Result<ParsedTrace, String> {
    const STAGES: [&str; 7] =
        ["fetch", "decode", "rename", "dispatch", "issue", "complete", "retire"];
    let mut trace = ParsedTrace::default();
    let mut stage_idx = 0usize; // next expected stage within the block
    let mut last_tick = 0u64;
    // Fields of the block being assembled.
    let mut cur = OwnedInstRecord::default();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if let Some(rest) = line.strip_prefix("SPTEvent:") {
            if stage_idx != 0 {
                return Err(format!("line {lineno}: SPTEvent inside a record block"));
            }
            trace.events.push(parse_event_line(rest, lineno, trace.records.len() as u64)?);
            continue;
        }
        let rest = line
            .strip_prefix("O3PipeView:")
            .ok_or_else(|| format!("line {lineno}: missing O3PipeView prefix"))?;
        let expected = STAGES[stage_idx];
        let rest = rest
            .strip_prefix(expected)
            .and_then(|r| r.strip_prefix(':'))
            .ok_or_else(|| format!("line {lineno}: expected `{expected}` record"))?;
        let tick_str = rest.split(':').next().unwrap_or("");
        let tick: u64 =
            tick_str.parse().map_err(|_| format!("line {lineno}: bad tick `{tick_str}`"))?;
        match expected {
            "fetch" => {
                // fetch:<tick>:0x<pc>:0:<seq>:<disasm>
                let fields: Vec<&str> = rest.splitn(5, ':').collect();
                if fields.len() != 5 || !fields[1].starts_with("0x") {
                    return Err(format!("line {lineno}: malformed fetch record"));
                }
                cur.pc = u64::from_str_radix(&fields[1][2..], 16)
                    .map_err(|_| format!("line {lineno}: bad pc `{}`", fields[1]))?;
                cur.seq = fields[3]
                    .parse::<u64>()
                    .map_err(|_| format!("line {lineno}: bad seq `{}`", fields[3]))?;
                cur.disasm = fields[4].to_string();
                cur.fetch_cycle = tick_to_cycle(tick, lineno)?;
                last_tick = tick;
            }
            "retire" => {
                if !rest.contains(":store:") {
                    return Err(format!("line {lineno}: retire record missing store field"));
                }
                if tick == 0 {
                    cur.retire_cycle = None;
                } else {
                    if tick < last_tick {
                        return Err(format!("line {lineno}: retire tick regressed"));
                    }
                    cur.retire_cycle = Some(tick_to_cycle(tick, lineno)?);
                }
            }
            _ => {
                // Tick 0 marks a stage the instruction never reached.
                if tick != 0 {
                    if tick < last_tick {
                        return Err(format!("line {lineno}: tick regressed in `{expected}`"));
                    }
                    last_tick = tick;
                    let cycle = tick_to_cycle(tick, lineno)?;
                    match expected {
                        "rename" => cur.rename_cycle = cycle,
                        "issue" => cur.issue_cycle = Some(cycle),
                        "complete" => cur.complete_cycle = Some(cycle),
                        // decode/dispatch coincide with fetch/rename in
                        // this pipeline; their ticks are validated but not
                        // stored.
                        _ => {}
                    }
                }
            }
        }
        stage_idx = (stage_idx + 1) % STAGES.len();
        if stage_idx == 0 {
            trace.records.push(std::mem::take(&mut cur));
        }
    }
    if stage_idx != 0 {
        return Err("trace ends mid-record".into());
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> InstRecord<'static> {
        InstRecord {
            seq,
            pc: 0x40 + seq * 4,
            disasm: "add r1, r2, r3",
            fetch_cycle: seq,
            rename_cycle: seq + 1,
            issue_cycle: Some(seq + 2),
            complete_cycle: Some(seq + 3),
            retire_cycle: Some(seq + 4),
        }
    }

    fn squashed(seq: u64) -> InstRecord<'static> {
        InstRecord { issue_cycle: None, complete_cycle: None, retire_cycle: None, ..rec(seq) }
    }

    #[test]
    fn o3_emitter_output_validates() {
        let mut buf = Vec::new();
        {
            let mut sink = O3PipeViewSink::new(&mut buf);
            sink.inst(&rec(0));
            sink.inst(&rec(1));
            sink.inst(&squashed(2));
            sink.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let summary = parse_o3_trace(&text).unwrap().summary();
        assert_eq!(summary.instructions, 3);
        assert_eq!(summary.retired, 2);
        assert_eq!(summary.squashed, 1);
        assert!(text.starts_with("O3PipeView:fetch:500:0x0000000000000040:0:0:add"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_o3_trace("not a trace\n").is_err());
        // Mid-record.
        assert!(parse_o3_trace("O3PipeView:fetch:500:0x40:0:1:nop\n").is_err());
        // Tick regression within a block.
        let bad = "O3PipeView:fetch:1000:0x0000000000000040:0:0:nop\n\
                   O3PipeView:decode:1000\nO3PipeView:rename:500\nO3PipeView:dispatch:500\n\
                   O3PipeView:issue:0\nO3PipeView:complete:0\nO3PipeView:retire:0:store:0\n";
        assert!(parse_o3_trace(bad).unwrap_err().contains("regressed"));
    }

    #[test]
    fn empty_trace_is_valid_and_empty() {
        assert_eq!(parse_o3_trace("").unwrap().summary(), O3TraceSummary::default());
    }

    #[test]
    fn parsed_trace_captures_as_a_sink() {
        let mut sink = ParsedTrace::default();
        sink.event(3, &SptTraceEvent::Untaint { phys: 7, mechanism: "fwd".into(), seq: 12 });
        sink.inst(&rec(5));
        sink.event(4, &SptTraceEvent::TaintDest { seq: 6, phys: 8 });
        assert_eq!(sink.events.len(), 2);
        assert_eq!((sink.events[0].after_block, sink.events[1].after_block), (0, 1));
        assert_eq!(sink.records[0].seq, 5);
        assert_eq!(sink.records[0].retire_cycle, Some(9));
    }

    #[test]
    fn parse_recovers_cycles_exactly() {
        let mut buf = Vec::new();
        {
            let mut sink = O3PipeViewSink::new(&mut buf);
            sink.inst(&rec(3));
            sink.inst(&squashed(4));
            sink.flush().unwrap();
        }
        let trace = parse_o3_trace(&String::from_utf8(buf).unwrap()).unwrap();
        assert_eq!(trace.records.len(), 2);
        let r = &trace.records[0];
        assert_eq!((r.seq, r.pc), (3, 0x40 + 12));
        assert_eq!(r.fetch_cycle, 3);
        assert_eq!(r.rename_cycle, 4);
        assert_eq!(r.issue_cycle, Some(5));
        assert_eq!(r.complete_cycle, Some(6));
        assert_eq!(r.retire_cycle, Some(7));
        assert_eq!(r.disasm, "add r1, r2, r3");
        let s = &trace.records[1];
        assert!(!s.retired());
        assert_eq!(s.issue_cycle, None);
        assert_eq!(trace.last_retire_cycle(), 7);
        assert_eq!(trace.retired().count(), 1);
    }

    #[test]
    fn event_lines_parse_and_interleave() {
        let mut buf = Vec::new();
        {
            let mut sink = O3PipeViewSink::with_events(&mut buf);
            sink.event(2, &SptTraceEvent::TaintDest { seq: 1, phys: 33 });
            sink.inst(&rec(0));
            sink.event(9, &SptTraceEvent::TransmitterDelayed { seq: 2, pc: 0x48 });
            sink.event(
                10,
                &SptTraceEvent::Untaint { phys: 33, mechanism: "shadow-l1".into(), seq: 1 },
            );
            sink.inst(&rec(1));
            sink.event(11, &SptTraceEvent::ResolutionDeferred { seq: 3, pc: 0x50 });
            sink.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let trace = parse_o3_trace(&text).unwrap();
        assert_eq!(trace.summary().events, 4);
        assert_eq!(trace.events[0].after_block, 0);
        assert_eq!(trace.events[1].after_block, 1);
        assert_eq!(trace.events[3].after_block, 2);
        assert_eq!(
            trace.events[2].event,
            SptTraceEvent::Untaint { phys: 33, mechanism: "shadow-l1".into(), seq: 1 }
        );
        assert_eq!(trace.events[3].event, SptTraceEvent::ResolutionDeferred { seq: 3, pc: 0x50 });
        assert_eq!(trace.summary().instructions, 2);
    }

    #[test]
    fn event_line_inside_block_is_rejected() {
        let text = "O3PipeView:fetch:500:0x0000000000000040:0:0:nop\n\
                    SPTEvent:taint:1:2:3\n";
        assert!(parse_o3_trace(text).unwrap_err().contains("inside a record block"));
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let mut buf = Vec::new();
        {
            let mut sink = O3PipeViewSink::with_events(&mut buf);
            sink.event(0, &SptTraceEvent::TaintDest { seq: 7, phys: 5 });
            sink.inst(&rec(0));
            sink.inst(&squashed(1));
            sink.event(
                12,
                &SptTraceEvent::Untaint { phys: 5, mechanism: "forward".into(), seq: 7 },
            );
            sink.inst(&rec(2));
            sink.event(20, &SptTraceEvent::TransmitterDelayed { seq: 9, pc: 0xabc });
            sink.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let trace = parse_o3_trace(&text).unwrap();
        assert_eq!(trace.reemit(), text);
    }
}
