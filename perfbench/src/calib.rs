//! Host-speed calibration.
//!
//! Other tenants of the host slow this benchmark's thread by up to half for
//! tens of seconds at a time, in thread CPU time as much as in wall time
//! (they share the core's and the socket's caches, and the clock). No
//! choice of run length or estimator removes a slowdown that lasts a whole
//! run. So a fixed probe, independent of the simulator, runs before every
//! op, and each time is rescaled by how slow the probe was around it:
//! `time x PROBE_REF_NS / probe_ns`. A reported second is a CPU second on
//! a host where the probe takes [`PROBE_REF_NS`].
//!
//! The probe writes a fixed list of numbers out as text lines and parses
//! them back: formatting, a growing buffer, UTF-8 validation and string
//! scanning, as the trace path and much of the simulator's own glue do.
//! Of the probes tried (a pointer chase, an ALU loop, hash maps, a B-tree,
//! a sort, a bytecode interpreter, random and streaming memory traffic and
//! this text round trip), the text round trip tracked the benchmark's own
//! slowdowns best on all four workloads, and moved as much as they did
//! (see README).

use crate::spans::thread_cpu_ns;
use std::hint::black_box;
use std::io::Write;

/// Probe time, in ns, on the host a reported time is scaled to (about the
/// probe's fastest on a 2-vCPU Xeon VM under light load).
pub const PROBE_REF_NS: f64 = 400_000.0;
/// Probe samples on each side of an op execution that its scale uses.
const WINDOW: usize = 8;
/// Lines per probe.
const LINES: usize = 3_000;

/// The probe's fixed input, built once.
pub struct Probe {
    keys: Vec<u64>,
}

impl Probe {
    /// Builds the input from a constant seed.
    pub fn new() -> Probe {
        let mut z = 0x2545_f491_4f6c_dd1du64;
        let keys = (0..LINES)
            .map(|_| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                z
            })
            .collect();
        Probe { keys }
    }

    /// Thread CPU ns of one probe.
    pub fn run(&self) -> u64 {
        let t = thread_cpu_ns();
        black_box(self.round_trip());
        thread_cpu_ns() - t
    }

    /// Writes each key as a line `index: hex decimal`, then parses the hex
    /// fields back and sums them.
    fn round_trip(&self) -> u64 {
        let mut out = Vec::new();
        for (i, &k) in self.keys.iter().enumerate() {
            writeln!(out, "{i}: {k:x} {}", k % 1000).expect("writing to a Vec cannot fail");
        }
        let text = String::from_utf8(out).expect("the lines are ASCII");
        text.lines()
            .filter_map(|l| l.split(' ').nth(1))
            .map(|w| u64::from_str_radix(w, 16).expect("written as hex"))
            .fold(0, u64::wrapping_add)
    }
}

/// Per probe sample: `PROBE_REF_NS` / the median of the samples within
/// [`WINDOW`] of it. The median keeps one disturbed probe from moving the
/// scale; the window follows the host as it speeds up and slows down.
pub fn scales(samples: &[u64]) -> Vec<f64> {
    (0..samples.len())
        .map(|k| {
            let lo = k.saturating_sub(WINDOW);
            let hi = (k + WINDOW + 1).min(samples.len());
            let near: Vec<f64> = samples[lo..hi].iter().map(|&x| x as f64).collect();
            PROBE_REF_NS / crate::report::median(&near)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_reads_back_what_it_wrote() {
        let p = Probe::new();
        assert_eq!(p.round_trip(), p.keys.iter().fold(0u64, |a, &k| a.wrapping_add(k)));
        assert!(p.run() > 0);
    }

    #[test]
    fn a_scale_is_the_reference_over_the_local_median() {
        let mut samples = vec![400_000u64; 40];
        samples[5] = 4_000_000; // one disturbed probe moves nothing
        samples[30..].fill(800_000); // the host halves its speed
        let s = scales(&samples);
        assert_eq!(s[5], 1.0);
        assert_eq!(s[10], 1.0);
        assert_eq!(s[39], 0.5);
    }
}
