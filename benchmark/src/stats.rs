//! Order statistics: quantiles over a round's samples, and the value a
//! run reports from its rounds with how well the rounds pin it down.

/// Sorts in place and returns the value at quantile `q` in `[0, 1]`
/// (nearest rank, no interpolation: a reported latency is one that was
/// measured). Returns 0 for an empty slice.
pub fn percentile<T: Copy + PartialOrd + Into<f64>>(values: &mut [T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    values[rank].into()
}

/// Median of `values`: the mean of the two middle values for an even
/// count. Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How a run's reported value is picked from its per-round values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The median round: counts, sizes and set-up time.
    Median,
    /// The round with the smallest value: timings where lower is better.
    /// Interference only ever slows a round down, so the least disturbed
    /// round is the closest reading of the code's own cost.
    Lowest,
    /// The round with the largest value: rates where higher is better.
    Highest,
}

/// One metric over the rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverRounds {
    /// The reported value, picked as [`Pick`] says.
    pub value: f64,
    /// Median over rounds.
    pub median: f64,
    /// Smallest round.
    pub min: f64,
    /// Largest round.
    pub max: f64,
    /// How well the rounds pin the reported value down, as a share of
    /// it: the interquartile distance for a median, the gap to the
    /// runner-up round for a best round. A difference between two runs
    /// smaller than this is not resolved by either.
    pub resolution: f64,
}

impl OverRounds {
    /// Summarizes one value per round.
    pub fn of(per_round: &[f64], pick: Pick) -> OverRounds {
        let mut v = per_round.to_vec();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let (min, max) = (v[0], v[v.len() - 1]);
        let (value, runner_up) = match pick {
            Pick::Median => (median(&v), None),
            Pick::Lowest => (min, v.get(1)),
            Pick::Highest => (max, v.len().checked_sub(2).map(|i| &v[i])),
        };
        let spread = match (pick, runner_up) {
            (Pick::Median, _) if v.len() >= 2 => {
                let (q1, q3) = quartiles(&v);
                q3 - q1
            }
            (_, Some(second)) => (value - second).abs(),
            _ => 0.0,
        };
        OverRounds {
            value,
            median: median(&v),
            min,
            max,
            resolution: if value == 0.0 {
                0.0
            } else {
                spread / value.abs()
            },
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so the spread printed here is the one
/// the acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped and interpolated.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank_of_measured_values() {
        let mut v: Vec<u32> = (1..=101).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 51.0);
        assert_eq!(percentile(&mut v, 0.99), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 101.0);
        assert_eq!(percentile::<u32>(&mut [], 0.5), 0.0);
    }

    #[test]
    fn over_rounds_picks_median_or_best_round() {
        let rounds = [10.0, 14.0, 11.0, 12.0];
        let m = OverRounds::of(&rounds, Pick::Median);
        assert_eq!((m.value, m.median, m.min, m.max), (11.5, 11.5, 10.0, 14.0));
        // quartiles of [10, 11, 12, 14] are 10.25 and 13.5
        assert!((m.resolution - 3.25 / 11.5).abs() < 1e-12);
        let lo = OverRounds::of(&rounds, Pick::Lowest);
        assert_eq!(lo.value, 10.0);
        assert!((lo.resolution - 0.1).abs() < 1e-12);
        let hi = OverRounds::of(&rounds, Pick::Highest);
        assert_eq!(hi.value, 14.0);
        assert!((hi.resolution - 2.0 / 14.0).abs() < 1e-12);
        // One round (smoke mode) resolves nothing and claims nothing.
        let one = OverRounds::of(&[5.0], Pick::Highest);
        assert_eq!((one.value, one.resolution), (5.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
