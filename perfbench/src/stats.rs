//! Order statistics over host-time samples.

/// Median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of a sample set that still has at least ten
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// Share of the samples at or below `value`, in percent.
    pub percentile: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Tail of `values`: the sample with exactly ten larger samples beyond it,
/// or the maximum when there are fewer than eleven samples.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let index = if n > 10 { n - 11 } else { n - 1 };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Position-wise minimum of equally long rows: each position's fastest
/// repetition. `None` when the rows differ in length or there are none.
pub fn best_of(rows: &[&[f64]]) -> Option<Vec<f64>> {
    let (first, rest) = rows.split_first()?;
    if rest.iter().any(|row| row.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| rest.iter().fold(first[i], |best, row| best.min(row[i])))
            .collect(),
    )
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn best_of_takes_each_positions_minimum() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 5.5];
        assert_eq!(best_of(&[&a, &b]), Some(vec![2.0, 1.0, 5.0]));
        assert_eq!(best_of(&[&a, &b[..2]]), None);
        assert_eq!(best_of(&[]), None);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.percentile, 100.0);
    }
}
