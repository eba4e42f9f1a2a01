//! Order statistics over a handful of timing samples.

use attila_json::Json;

/// Quartile `i` (1..=3) of `sorted`, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the driver computes its spreads
/// with that function, so the ledger's own spreads are comparable.
pub fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(f64::NAN);
    }
    let pos = i * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Median, quartiles and extremes of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            median: quartile(&s, 2),
            p25: quartile(&s, 1),
            p75: quartile(&s, 3),
            min: s.first().copied().unwrap_or(f64::NAN),
            max: s.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// A summary of one exact value (a count, a ratio of counts).
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            p25: value,
            p75: value,
            min: value,
            max: value,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }

    /// The summary with every statistic multiplied by `k` > 0 (a unit
    /// change).
    pub fn scaled(&self, k: f64) -> Summary {
        Summary {
            n: self.n,
            median: self.median * k,
            p25: self.p25 * k,
            p75: self.p75 * k,
            min: self.min * k,
            max: self.max * k,
        }
    }

    pub fn to_json_fields(&self) -> Vec<(String, Json)> {
        vec![
            ("n".into(), Json::Num(self.n as f64)),
            ("p25".into(), Json::Num(self.p25)),
            ("p75".into(), Json::Num(self.p75)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = Summary::of(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((s.p25, s.median, s.p75), (2.0, 4.0, 6.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 7.0, 7));
        // statistics.quantiles([10, 20, 30, 45], n=4) == [12.5, 25.0, 41.25]
        let s = Summary::of(&[10.0, 20.0, 30.0, 45.0]);
        assert_eq!((s.p25, s.median, s.p75), (12.5, 25.0, 41.25));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0]);
        assert_eq!((s.p25, s.median, s.p75), (0.5, 2.0, 3.5));
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = Summary::of(&[2.5]);
        assert_eq!(s, Summary::exact(2.5));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(s.scaled(1000.0).median, 4000.0);
        assert_eq!(s.scaled(1000.0).spread(), 1.0);
    }
}
