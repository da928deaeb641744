//! A latency histogram of fixed size whose quantiles are within 0.2% of
//! the exact ones: one bucket per nanosecond below 512 ns, then 512
//! buckets per power of two (log-linear, as in HdrHistogram).  Its size
//! does not grow with the number of samples, so pooling every operation of
//! a run costs no memory that would show in `peak_rss_mb`.

/// Buckets per power of two, as a power of two.
const SUB_BITS: u32 = 9;
const SUB: usize = 1 << SUB_BITS;
/// Buckets that cover every `u32` nanosecond count.
const BUCKETS: usize = SUB + (32 - SUB_BITS as usize) * SUB;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

/// The bucket of `ns`.
fn index(ns: u32) -> usize {
    if (ns as usize) < SUB {
        return ns as usize;
    }
    let shift = 31 - ns.leading_zeros() - SUB_BITS;
    SUB + shift as usize * SUB + ((ns >> shift) as usize - SUB)
}

/// The lowest value of bucket `i` and its width.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB + SUB;
    (((sub as u64) << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    pub fn record(&mut self, ns: u32) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn add(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q` quantile in nanoseconds: the sample of rank `ceil(q * n)`,
    /// placed inside its bucket by its rank among the bucket's samples.
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if below + c >= rank {
                let (low, width) = bounds(i);
                return low + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("the ranks sum to the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut last = 0;
        for ns in (0..4096).chain([u32::MAX / 3, u32::MAX - 1, u32::MAX]) {
            let i = index(ns);
            assert!(i >= last && i < BUCKETS, "{ns}");
            let (low, width) = bounds(i);
            assert!(low <= ns as f64 && (ns as f64) < low + width, "{ns}");
            last = i;
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_the_exact_ones() {
        let mut h = Histogram::default();
        let samples: Vec<u32> = (1..=100_000u32).map(|i| i * 37 % 200_003).collect();
        samples.iter().for_each(|&s| h.record(s));
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.99] {
            let exact = sorted[(q * sorted.len() as f64).ceil() as usize - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact / SUB as f64 + 1.0,
                "{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.len(), 100_000);
    }
}
