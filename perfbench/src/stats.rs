//! Small statistics helpers: medians, the tail order statistic, peak
//! memory, a stable digest and the host-speed probe.

use std::collections::HashMap;
use std::time::Instant;

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail sample: the highest order statistic with at least ten
/// samples beyond it, as `(value, rank, count)` with a 1-based rank.
/// With ten samples or fewer no such statistic exists and the maximum
/// is returned (rank == count).
pub fn tail(xs: &[f64]) -> (f64, usize, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0, 0);
    }
    let rank = if n > 10 { n - 10 } else { n };
    (v[rank - 1], rank, n)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over a stream of 64-bit words: the model digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string in.
    pub fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// Folds a float in by its bit pattern.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&xs), (20.0, 20, 30));
        let few: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(tail(&few), (7.0, 7, 7));
    }
}

/// Probe time, in seconds, of the host at nominal speed: the fastest
/// `Probe::time` seen on the reference host (2-vCPU Intel Xeon at
/// 2.1 GHz) while it was otherwise idle.
pub const PROBE_NOMINAL_S: f64 = 6.0e-4;

/// Longest call, in seconds, that is scaled by the probe readings at its
/// own ends. Host speed on the reference host shifts between regimes
/// every few seconds, so a longer call is scaled by the run's median
/// probe reading instead.
pub const PROBE_SPAN_S: f64 = 1.0;

/// One timed call: its host seconds and the mean probe reading around it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Host seconds of the call.
    pub host_s: f64,
    /// Mean of the probe readings just before and just after it.
    pub probe_s: f64,
}

impl Timed {
    /// The call's seconds at nominal host speed: scaled by
    /// [`PROBE_NOMINAL_S`] over the probe readings around it, or, for a
    /// call longer than [`PROBE_SPAN_S`], over `run_probe_s`.
    pub fn normalised(self, run_probe_s: f64) -> f64 {
        let probe = if self.host_s > PROBE_SPAN_S {
            run_probe_s
        } else {
            self.probe_s
        };
        self.host_s * PROBE_NOMINAL_S / probe
    }
}

/// A fixed host-speed probe: hash-map lookups and updates, the access
/// pattern of the timing model's TLB and cache indexes. Other tenants of
/// the host slow the probe and the simulator alike, so a call's host
/// time divided by the probe's time around it cancels most host drift.
#[derive(Debug)]
pub struct Probe {
    map: HashMap<u64, u64>,
    /// Every [`time`](Probe::time) reading so far.
    pub samples: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            map: (0..4096u64).map(|i| (i * 7919, i)).collect(),
            samples: Vec::new(),
        }
    }
}

impl Probe {
    fn once(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..50_000u64 {
            let k = (i.wrapping_mul(2_654_435_761) & 4095) * 7919;
            if let Some(v) = self.map.get_mut(&k) {
                *v = v.wrapping_add(i);
                acc = acc.wrapping_add(*v);
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// The probe's host seconds now: the fastest of three runs, so an
    /// interrupt during one run does not count as a slow host.
    pub fn time(&mut self) -> f64 {
        let t = (0..3).map(|_| self.once()).fold(f64::INFINITY, f64::min);
        self.samples.push(t);
        t
    }

    /// Runs `f` between two probe readings.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.time();
        let t = Instant::now();
        let out = f();
        let host_s = t.elapsed().as_secs_f64();
        let after = self.time();
        let timed = Timed {
            host_s,
            probe_s: (before + after) / 2.0,
        };
        (out, timed)
    }
}
