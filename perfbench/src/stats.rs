//! Latency histograms and process memory.

/// Sub-buckets per power of two: values are binned with 1/32 relative
/// width.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A log-linear latency histogram that also keeps each bucket's exact
/// sum, so a quantile reads as the mean of the samples in its bucket:
/// constant memory however long the run, and values that vary
/// continuously from run to run instead of snapping to bucket edges.
#[derive(Clone)]
pub struct Hist {
    count: Vec<u64>,
    sum: Vec<u128>,
    n: u64,
    total: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: vec![0; BUCKETS],
            sum: vec![0; BUCKETS],
            n: 0,
            total: 0,
        }
    }
}

#[inline]
fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + m
}

impl Hist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = bucket(v);
        self.count[b] += 1;
        self.sum[b] += v as u128;
        self.n += 1;
        self.total += v as u128;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.total as f64
    }

    /// The `q`-quantile (0 < q ≤ 1), or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (c, s) in self.count.iter().zip(&self.sum) {
            seen += c;
            if seen >= rank {
                return *s as f64 / *c as f64;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

impl Hist {
    fn merge(&mut self, other: &Hist) {
        for (a, b) in self.count.iter_mut().zip(&other.count) {
            *a += b;
        }
        for (a, b) in self.sum.iter_mut().zip(&other.sum) {
            *a += b;
        }
        self.n += other.n;
        self.total += other.total;
    }
}

/// Consecutive stretches a run's latencies are recorded in.
pub const PARTS: usize = 10;

/// Fewest samples a group of stretches needs for its own quantile.
const GROUP_MIN: f64 = 200.0;

/// The latencies of one op kind over a run, kept per stretch of the run
/// (see [`PARTS`]).
///
/// A quantile is the median of its value over groups of consecutive
/// stretches: as many groups as leave at least [`GROUP_MIN`] samples in
/// each and ten beyond the quantile, at most [`PARTS`]. A burst of load
/// from elsewhere on the machine then moves one group's value, not the
/// result; a rare kind of op (commits) pools the whole run instead.
#[derive(Clone, Default)]
pub struct Latency {
    parts: Vec<Hist>,
}

impl Latency {
    #[inline]
    pub fn record(&mut self, part: usize, v: u64) {
        if self.parts.is_empty() {
            self.parts = vec![Hist::default(); PARTS];
        }
        self.parts[part.min(PARTS - 1)].record(v);
    }

    pub fn len(&self) -> u64 {
        self.parts.iter().map(Hist::len).sum()
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.parts.iter().map(Hist::total).sum()
    }

    /// The `q`-quantile (0 < q < 1), or 0 without samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.parts.is_empty() {
            return 0.0;
        }
        let n = self.len() as f64;
        let groups = ((n * (1.0 - q) / 10.0).min(n / GROUP_MIN) as usize).clamp(1, PARTS);
        let mut values: Vec<f64> = (0..groups)
            .map(|g| {
                let mut h = Hist::default();
                for part in &self.parts[g * PARTS / groups..(g + 1) * PARTS / groups] {
                    h.merge(part);
                }
                h.quantile(q)
            })
            .collect();
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        }
    }
}

/// Peak resident set size of this process, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value laid out as the kernel's
    // `struct rusage` on this target (64-bit `time_t`/`long`), so the
    // call writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    u.maxrss as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mib() -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_bucket_means() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.03, "p50 {p50}");
        let p999 = h.quantile(0.999);
        assert!((p999 - 9990.0).abs() / 9990.0 < 0.03, "p999 {p999}");
        assert_eq!(h.len(), 1000);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn latency_quantiles_take_the_median_over_stretches() {
        let mut l = Latency::default();
        assert_eq!(l.quantile(0.5), 0.0);
        for part in 0..PARTS {
            // One stretch is ten times slower; the median ignores it.
            let scale = if part == 3 { 10 } else { 1 };
            for v in 1..=1000u64 {
                l.record(part, v * scale);
            }
        }
        let p50 = l.quantile(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 {p50}");
        assert_eq!(l.len(), 10_000);
        // 10 samples beyond p999 in all: one group, the pooled quantile.
        let p999 = l.quantile(0.999);
        assert!(p999 > 5000.0, "p999 {p999}");
    }

    #[test]
    fn buckets_cover_u64() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(31), 31);
        assert_eq!(bucket(32), 32);
        assert!(bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
