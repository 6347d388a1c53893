//! In-memory span recorder.
//!
//! Every layer call the benchmark makes is bracketed by [`Tracer::begin`]
//! and [`Tracer::end`]. `end` always returns the elapsed time, so the same
//! brackets give the untraced run its op and `Machine::run` timings.
//!
//! Time is the calling thread's CPU time ([`thread_cpu_ns`]), not wall
//! time. The benchmark is one thread, so the two differ only by the time
//! the thread waited: for another process on one of the host's few cores,
//! or for the hypervisor (steal time, which the kernel leaves out of CPU
//! time). Both come from other tenants, not from the program.
//! Only when recording is switched on does a bracket also leave a [`Span`]
//! (name, start, end, parent, op id) behind; spans are kept in memory and
//! written out once, when the run ends.

use spt_util::Json;
use std::collections::BTreeMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, in ns.
pub fn thread_cpu_ns() -> u64 {
    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec of the C layout on 64-bit
    // Linux; the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `ooo.run`.
    pub name: &'static str,
    /// Start, in thread CPU ns since the tracer was created.
    pub start_ns: u64,
    /// End, in thread CPU ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the op (within its pass) the span belongs to.
    pub op: usize,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open bracket returned by [`Tracer::begin`].
#[must_use = "close the bracket with Tracer::end"]
pub struct Open {
    start: u64,
    id: Option<usize>,
}

/// Collects spans while recording is on; times brackets always.
pub struct Tracer {
    epoch: u64,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Tracer {
        Tracer { epoch: thread_cpu_ns(), on: false, spans: Vec::new(), open: Vec::new() }
    }

    /// Switches span recording on or off (takes effect at the next bracket).
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a bracket around the layer call `name` made for op `op`.
    pub fn begin(&mut self, name: &'static str, op: usize) -> Open {
        let start = thread_cpu_ns();
        let id = self.on.then(|| {
            let id = self.spans.len();
            let start_ns = start - self.epoch;
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
            self.open.push(id);
            id
        });
        Open { start, id }
    }

    /// Closes a bracket and returns its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = thread_cpu_ns();
        if let Some(id) = open.id {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = end - self.epoch;
        }
        end - open.start
    }

    /// Per span name: (calls, total ns, self ns). A span's self time is its
    /// duration minus the part its child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns() - child;
        }
        out
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent, op]`
    /// rows (`parent` is -1 for a root span).
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::arr([
                Json::str(s.name),
                Json::U64(s.start_ns),
                Json::U64(s.end_ns),
                Json::I64(s.parent.map_or(-1, |p| p as i64)),
                Json::U64(s.op as u64),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new();
        let o = t.begin("op", 0);
        t.end(o);
        assert!(t.spans.is_empty());

        t.set_recording(true);
        let o = t.begin("op", 3);
        let c = t.begin("ooo.run", 3);
        let spin = thread_cpu_ns();
        while thread_cpu_ns() - spin < 2_000_000 {}
        t.end(c);
        t.end(o);
        let totals = t.totals();
        let (calls, total, own) = totals["op"];
        let (_, run_total, run_own) = totals["ooo.run"];
        assert_eq!(calls, 1);
        assert_eq!(run_total, run_own);
        assert_eq!(own, total - run_total);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 3);
    }
}
