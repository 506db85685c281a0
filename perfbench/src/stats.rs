//! Small numeric helpers shared by every workload: quantiles, the outcome
//! digest, the process memory high-water mark, and replay timing.

use std::time::Instant;

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

/// Median of a list of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank 10th percentile of a list of floats (0 when empty).
pub fn low_decile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * 0.1).round() as usize]
}

/// FNV-1a over a stream of words: the digest of a simulated outcome.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
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

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The process's resident-set high-water mark, MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-call replay timings of one layer function.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    ns: Vec<u64>,
}

impl Replay {
    /// Times one call.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        self.ns.push(t.elapsed().as_nanos() as u64);
        r
    }

    /// Calls timed.
    pub fn calls(&self) -> usize {
        self.ns.len()
    }

    /// Quantile of the per-call times, ns.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.ns.clone();
        v.sort_unstable();
        quantile_sorted(&v, q)
    }

    /// Mean per-call time, ns.
    pub fn mean(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64
        }
    }
}

/// Mean ns per call of `f` over `calls` calls timed as one batch: for
/// layer functions too short to time one call at a time.
pub fn batch_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}
