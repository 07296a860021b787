//! Latency samples, spans and the statistics drawn from them.
//!
//! Every buffer here is allocated before a measured phase starts, so
//! recording never allocates: the bounded workload asserts that nothing does.

use std::time::Instant;

/// Latencies are kept in 1 ns buckets up to this bound; longer calls share
/// one overflow bucket that counts as the bound.
const HIST_NS: usize = 1 << 16;

/// An exact histogram of call durations in nanoseconds.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Hist {
    pub fn new() -> Self {
        Self {
            buckets: vec![0; HIST_NS + 1],
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[(ns as usize).min(HIST_NS)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q` quantile, as the mean of the samples whose rank lies within
    /// `q ± w` with `w = min(0.005, (1 - q) / 10)`, the `c` samples of a
    /// bucket `v` taken as spread evenly over `[v, v + 1)`.  A whole
    /// nanosecond would read the same on most runs.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let w = (0.1 * (1.0 - q)).min(0.005);
        let lo = (((q - w) * n).round() as u64).min(self.count - 1);
        let hi = (((q + w) * n).round() as u64).clamp(lo + 1, self.count);
        let (mut below, mut sum) = (0u64, 0f64);
        for (ns, &c) in self.buckets.iter().enumerate() {
            // Ranks a..b of this bucket's 0..c fall in the window; the k-th
            // sits at ns + (k + 0.5) / c.
            let a = lo.max(below).min(below + c) - below;
            let b = hi.min(below + c).max(below) - below;
            if b > a {
                let take = (b - a) as f64;
                sum += take * ns as f64 + take * (a + b) as f64 / (2 * c) as f64;
            }
            below += c;
            if below >= hi {
                break;
            }
        }
        sum / (hi - lo) as f64
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One timed call in a traced run.  Spans of one pair, burst or round trip
/// share `trace`.
#[derive(Clone, Copy)]
pub struct Span {
    pub phase: &'static str,
    pub thread: u8,
    pub op: u8,
    pub trace: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans a thread keeps per phase of a traced run; later ones are counted
/// as dropped.
const SPANS_PER_PHASE: usize = 8192;

/// One thread's latency recorder: every `STRIDE`-th call is timed into the
/// histogram of its kind and, in a traced run, kept as a span.
pub struct Recorder {
    pub hists: Vec<Hist>,
    left: u32,
    pub spans: Vec<Span>,
    pub dropped: u64,
    trace: Option<(&'static str, u8, Instant)>,
}

/// One call in this many is timed.  Odd, so that the enqueue and dequeue of
/// a pair take turns; sparse, so that the two clock reads (about 20 ns each)
/// add well under 1% to a call of 100 ns or more.
pub const STRIDE: u32 = 31;

impl Recorder {
    /// A recorder with `kinds` histograms; `trace` names the phase, the
    /// thread and the run's epoch when spans are kept.
    pub fn new(kinds: usize, trace: Option<(&'static str, u8, Instant)>) -> Self {
        Self {
            hists: (0..kinds).map(|_| Hist::new()).collect(),
            left: STRIDE,
            spans: Vec::with_capacity(if trace.is_some() { SPANS_PER_PHASE } else { 0 }),
            dropped: 0,
            trace,
        }
    }

    /// Whether the next call is one to time.
    #[inline]
    pub fn due(&mut self) -> bool {
        self.left -= 1;
        if self.left == 0 {
            self.left = STRIDE;
            true
        } else {
            false
        }
    }

    /// Records a call of `kind` that ran from `t0` to `t1` within round or
    /// message `trace`.
    #[inline]
    pub fn record(&mut self, kind: usize, trace: u64, t0: Instant, t1: Instant) {
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.hists[kind].record(ns);
        if let Some((phase, thread, epoch)) = self.trace {
            if self.spans.len() < self.spans.capacity() {
                self.spans.push(Span {
                    phase,
                    thread,
                    op: kind as u8,
                    trace,
                    start_ns: t0.duration_since(epoch).as_nanos() as u64,
                    dur_ns: ns,
                });
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Times `f` as a call of `kind` if it is due.
    #[inline]
    pub fn time<R>(&mut self, kind: usize, trace: u64, f: impl FnOnce() -> R) -> R {
        if !self.due() {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.record(kind, trace, t0, Instant::now());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_average_the_ranks_around_q() {
        let mut h = Hist::new();
        for ns in 1..=1000 {
            h.record(ns);
        }
        // Ranks 495..505 hold 496..=505, each read as the middle of its
        // nanosecond.
        assert_eq!(h.quantile(0.5), 501.0);
        // Ranks 989..991 hold 990 and 991.
        assert_eq!(h.quantile(0.99), 991.0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 1001);
        assert_eq!(h.quantile(1.0), HIST_NS as f64 + 0.5);
    }

    #[test]
    fn a_quantile_inside_one_bucket_moves_with_its_rank() {
        let mut h = Hist::new();
        (0..100).for_each(|_| h.record(7));
        (0..100).for_each(|_| h.record(9));
        // Ranks 99..101 straddle the two buckets: 7 + 99.5/100 and 9 + 0.5/100.
        assert_eq!(h.quantile(0.5), (7.995 + 9.005) / 2.0);
        let q = h.quantile(0.25);
        assert!(q > 7.0 && q < 8.0, "{q}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
