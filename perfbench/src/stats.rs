//! Exact order statistics over recorded samples, and process memory.

use std::time::{Duration, Instant};

/// Order statistics of one set of nanosecond samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Samples strictly above `p99`.
    pub beyond_p99: usize,
}

/// Sorts `samples` in place and summarizes them. An empty set gives
/// the all-zero summary.
pub fn summarize(samples: &mut [u64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    samples.sort_unstable();
    let p99 = nearest_rank(samples, 0.99);
    Summary {
        count: samples.len(),
        p50: nearest_rank(samples, 0.50),
        p99,
        beyond_p99: samples.len() - samples.partition_point(|&s| s <= p99),
    }
}

/// The nearest-rank `q`-quantile of sorted, non-empty `sorted`.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Windows a timed phase is split into.
pub const WINDOWS: usize = 10;

/// Samples below this many ns are kept as a count per value.
const DENSE_NS: usize = 1 << 16;

/// Exact nanosecond samples: a count per value below [`DENSE_NS`],
/// every other sample as it is. Memory stays bounded however many fast
/// samples arrive, so the sample store does not dominate `peak_rss_mb`.
#[derive(Debug, Default)]
struct Samples {
    dense: Vec<u32>,
    sparse: Vec<u64>,
    count: u64,
}

impl Samples {
    fn push(&mut self, ns: u64) {
        self.count += 1;
        match usize::try_from(ns) {
            Ok(value) if value < DENSE_NS => {
                if self.dense.is_empty() {
                    self.dense = vec![0; DENSE_NS];
                }
                self.dense[value] += 1;
            }
            _ => self.sparse.push(ns),
        }
    }

    fn absorb(&mut self, other: Samples) {
        if self.dense.is_empty() {
            self.dense = other.dense;
        } else {
            for (mine, theirs) in self.dense.iter_mut().zip(other.dense) {
                *mine += theirs;
            }
        }
        self.sparse.extend(other.sparse);
        self.count += other.count;
    }

    /// The sample of 1-based rank `rank`; `sparse` must be sorted.
    fn at_rank(&self, rank: u64) -> u64 {
        let mut seen = 0u64;
        for (value, &n) in self.dense.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return value as u64;
            }
        }
        self.sparse[(rank - seen - 1) as usize]
    }

    fn summarize(&mut self) -> Summary {
        if self.count == 0 {
            return Summary::default();
        }
        self.sparse.sort_unstable();
        let rank = |q: f64| ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let p99 = self.at_rank(rank(0.99));
        let at_most_p99: u64 = self
            .dense
            .iter()
            .take(usize::try_from(p99 + 1).unwrap_or(DENSE_NS))
            .map(|&n| u64::from(n))
            .sum::<u64>()
            + self.sparse.partition_point(|&s| s <= p99) as u64;
        Summary {
            count: self.count as usize,
            p50: self.at_rank(rank(0.50)),
            p99,
            beyond_p99: (self.count - at_most_p99) as usize,
        }
    }
}

/// Exact latency samples of a timed phase, bucketed by completion time
/// into equal windows. Figures are medians over the windows, so a burst
/// of load from outside the benchmark that spans one window does not
/// move them.
#[derive(Debug)]
pub struct Windows {
    start: Instant,
    width: Duration,
    buckets: Vec<Samples>,
}

/// Medians over the windows of each window's figures.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    /// Samples in all windows.
    pub samples: u64,
    /// Windows the phase was split into.
    pub windows: usize,
    /// Median over windows of samples per second.
    pub rate: f64,
    /// Median over windows of the window's p50, in ns.
    pub p50: f64,
    /// Median over windows of the window's p99, in ns.
    pub p99: f64,
    /// Fewest samples above its p99 in any window.
    pub min_beyond_p99: usize,
}

impl Windows {
    /// `count` windows of `span / count` each, from `start`.
    pub fn new(start: Instant, span: Duration, count: usize) -> Self {
        assert!(count > 0, "need at least one window");
        Self {
            start,
            width: span / count as u32,
            buckets: (0..count).map(|_| Samples::default()).collect(),
        }
    }

    /// Records one sample of `ns` that completed at `end`; samples past
    /// the last window count in the last window.
    pub fn push(&mut self, end: Instant, ns: u64) {
        let elapsed = end.saturating_duration_since(self.start).as_nanos();
        let index = (elapsed / self.width.as_nanos().max(1)) as usize;
        let last = self.buckets.len() - 1;
        self.buckets[index.min(last)].push(ns);
    }

    /// Moves the samples of `other` (same window layout) into `self`.
    pub fn absorb(&mut self, other: Windows) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            mine.absorb(theirs);
        }
    }

    /// Samples in all windows.
    pub fn samples(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Per-window figures and their medians over the non-empty windows.
    pub fn summarize(&mut self) -> Windowed {
        let width = self.width.as_secs_f64();
        let summaries: Vec<Summary> = self
            .buckets
            .iter_mut()
            .filter(|b| b.count > 0)
            .map(Samples::summarize)
            .collect();
        if summaries.is_empty() {
            return Windowed {
                samples: 0,
                windows: self.buckets.len(),
                rate: 0.0,
                p50: 0.0,
                p99: 0.0,
                min_beyond_p99: 0,
            };
        }
        let figure = |f: fn(&Summary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
        Windowed {
            samples: self.samples(),
            windows: self.buckets.len(),
            rate: figure(|s| s.count as f64) / width,
            p50: figure(|s| s.p50 as f64),
            p99: figure(|s| s.p99 as f64),
            min_beyond_p99: summaries.iter().map(|s| s.beyond_p99).min().unwrap_or(0),
        }
    }
}

/// Median of non-empty `values` (mean of the middle two for even
/// counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_uses_nearest_rank() {
        let mut samples: Vec<u64> = (1..=200).rev().collect();
        let s = summarize(&mut samples);
        assert_eq!(s.count, 200);
        assert_eq!(s.p50, 100);
        assert_eq!(s.p99, 198);
        assert_eq!(s.beyond_p99, 2);
    }

    #[test]
    fn windows_bucket_by_completion_time() {
        let start = Instant::now();
        let mut windows = Windows::new(start, Duration::from_secs(4), 2);
        for i in 0..6u64 {
            windows.push(start + Duration::from_millis(500 * i), 10 + i);
        }
        windows.push(start + Duration::from_secs(9), 100);
        let w = windows.summarize();
        assert_eq!(w.samples, 7);
        assert_eq!(w.windows, 2);
        // Windows hold 4 and 3 samples: rates 2/s and 1.5/s.
        assert!((w.rate - 1.75).abs() < 1e-9);
    }

    #[test]
    fn dense_and_sparse_samples_rank_like_a_sorted_list() {
        let values: Vec<u64> = (0..300u64).map(|i| (i * 7919) % 1000 * 100).collect();
        let mut samples = Samples::default();
        let mut other = Samples::default();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                samples.push(v)
            } else {
                other.push(v)
            }
        }
        samples.absorb(other);
        let mut sorted = values.clone();
        let expected = summarize(&mut sorted);
        let got = samples.summarize();
        assert_eq!(
            (got.count, got.p50, got.p99, got.beyond_p99),
            (
                expected.count,
                expected.p50,
                expected.p99,
                expected.beyond_p99
            )
        );
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
