//! Order statistics for the ledger: nearest-rank percentiles with the
//! "enough samples beyond it" rule, and the value/median/min/max/IQR
//! summary every windowed metric carries.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `q` in `(0, 1]`:
/// the value at rank `ceil(q·n)`. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`], but only when at least [`MIN_BEYOND`] samples lie
/// strictly beyond its rank — a tail read off fewer is one outlier's
/// position, not a percentile. For the median "beyond" is either side.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    (beyond >= MIN_BEYOND)
        .then(|| percentile(sorted, q))
        .flatten()
}

/// Sort a sample (NaN-free by construction: every value is a duration
/// or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// A windowed metric: its value and how far the windows disagreed.
///
/// Which order statistic is the value depends on what is measured.
/// Interference on a shared host only ever *adds* time, and on the
/// 2-vCPU reference box it comes from outside the guest (which is 99%
/// idle) in bursts of one to more than ten seconds: a bare spin loop
/// alternates between two speeds 22% apart, about half the time each.
/// Over twelve 12-second `lubm_mix` runs the run-to-run spread
/// (IQR ÷ median) of throughput was 21% computed from per-query
/// medians, 19% from lower quartiles, 7% from minima. So a duration's
/// value is the **fastest** window ([`Summary::fast`]), a rate's the
/// **highest** ([`Summary::high`]) — the undisturbed speed, which is
/// what a code change moves — and only quantities without a preferred
/// side (ratios of paired runs, set-up repeats) use the median
/// ([`Summary::middle`]). The median is kept beside every value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// The metric's value (see above for which statistic).
    pub value: f64,
    /// Median over windows (nearest-rank).
    pub median: f64,
    /// Smallest window.
    pub min: f64,
    /// Largest window.
    pub max: f64,
    /// Third minus first quartile (nearest-rank).
    pub iqr: f64,
    /// Number of windows (or samples) summarised.
    pub n: usize,
}

impl Summary {
    /// Median of `values`; all-zero when empty.
    pub fn middle(values: &[f64]) -> Summary {
        let s = sorted(values.to_vec());
        let at = |q| percentile(&s, q).unwrap_or(0.0);
        Summary {
            value: at(0.5),
            median: at(0.5),
            min: s.first().copied().unwrap_or(0.0),
            max: s.last().copied().unwrap_or(0.0),
            iqr: at(0.75) - at(0.25),
            n: s.len(),
        }
    }

    /// The value of a duration: the fastest window.
    pub fn fast(values: &[f64]) -> Summary {
        let s = Summary::middle(values);
        Summary { value: s.min, ..s }
    }

    /// The value of a rate: the highest window.
    pub fn high(values: &[f64]) -> Summary {
        let s = Summary::middle(values);
        Summary { value: s.max, ..s }
    }

    /// A single exact value (a count, a size): no spread.
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            min: value,
            max: value,
            iqr: 0.0,
            n: 1,
        }
    }

    /// The same summary in another unit.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            value: self.value * factor,
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
            iqr: self.iqr * factor,
            n: self.n,
        }
    }
}

/// Split `items` into `windows` consecutive groups of equal size,
/// dropping the remainder from the *front* (the earliest items double
/// as warm-up). Fewer items than windows gives one group per item.
pub fn equal_windows<T>(items: &[T], windows: usize) -> Vec<&[T]> {
    if items.is_empty() {
        return Vec::new();
    }
    let windows = windows.clamp(1, items.len());
    let size = items.len() / windows;
    let skip = items.len() - size * windows;
    items[skip..].chunks(size).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.95), Some(10.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(&[], 0.5), None);
        assert_eq!(supported_percentile(&[1.0], 0.5), None);
        // p95 of 200 has exactly 10 beyond rank 190; of 199, only 9.
        let s200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_percentile(&s200, 0.95), Some(190.0));
        assert_eq!(supported_percentile(&s200[..199], 0.95), None);
        // p99 needs 1000 samples; the median needs 20.
        assert_eq!(supported_percentile(&s200, 0.99), None);
        assert_eq!(supported_percentile(&s200[..20], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&s200[..19], 0.5), None);
    }

    #[test]
    fn summary_reports_its_statistic_and_the_spread() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0, 7.0, 6.0, 8.0];
        let s = Summary::middle(&values);
        assert_eq!(
            (s.value, s.median, s.min, s.max, s.n),
            (4.0, 4.0, 1.0, 8.0, 8)
        );
        assert_eq!(s.iqr, 6.0 - 2.0);
        assert_eq!(Summary::fast(&values).value, 1.0);
        assert_eq!(Summary::fast(&values).median, 4.0);
        assert_eq!(Summary::high(&values).value, 8.0);
        assert_eq!(Summary::middle(&[]), Summary::default());
        assert_eq!(Summary::exact(3.0).iqr, 0.0);
        assert_eq!(Summary::exact(3.0).scaled(1e3).value, 3000.0);
    }

    #[test]
    fn windows_are_equal_and_drop_the_warm_up() {
        let items: Vec<u32> = (0..23).collect();
        let w = equal_windows(&items, 7);
        assert_eq!(w.len(), 7);
        assert!(w.iter().all(|g| g.len() == 3));
        assert_eq!(w[0][0], 2, "remainder comes off the front");
        assert_eq!(equal_windows(&items[..3], 7).len(), 3);
        assert!(equal_windows::<u32>(&[], 7).is_empty());
    }
}
