//! Order statistics, a seeded generator and small text helpers.

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule; 0 for an
/// empty slice. Sorts a copy, so callers can keep arrival order.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The requests of a run's slowest slices. The window of `window_s`
/// seconds is cut into whole `slice_s`-second slices by each sample's
/// start offset (the last slice also takes the remainder), and the `share`
/// of the non-empty slices with the highest median value is kept. Returns
/// the kept values and the seconds the kept slices span. `samples` are
/// `(offset_s, value)` pairs.
pub fn slowest_slices(
    samples: &[(f64, f64)],
    window_s: f64,
    slice_s: f64,
    share: f64,
) -> (Vec<f64>, f64) {
    let n = ((window_s / slice_s) as usize).max(1);
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, v) in samples {
        slices[((at / slice_s).max(0.0) as usize).min(n - 1)].push(v);
    }
    let mut order: Vec<(f64, usize)> =
        (0..n).filter(|&i| !slices[i].is_empty()).map(|i| (median(&slices[i]), i)).collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0));
    let keep = ((share * order.len() as f64).round() as usize).max(1).min(order.len());
    let (mut kept, mut seconds) = (Vec::new(), 0.0);
    for &(_, i) in &order[..keep] {
        kept.extend_from_slice(&slices[i]);
        seconds += if i + 1 == n { window_s - slice_s * i as f64 } else { slice_s };
    }
    (kept, seconds)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: a tiny deterministic generator for shuffles,
/// so the workload depends only on `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_be4c_4b00_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `(steal, total)` CPU time of the whole host so far, in clock ticks,
/// from the first line of `/proc/stat`. Steal is time the hypervisor gave
/// this machine's CPUs to someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values have no JSON form).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn slowest_slices_keep_the_slow_ones() {
        // Four 1 s slices; the last two are twice as slow.
        let samples: Vec<(f64, f64)> =
            (0..400).map(|i| (i as f64 / 100.0, if i < 200 { 10.0 } else { 20.0 })).collect();
        let (kept, seconds) = slowest_slices(&samples, 4.0, 1.0, 0.5);
        assert_eq!((kept.len(), seconds), (200, 2.0));
        assert!(kept.iter().all(|&v| v == 20.0));
        // The last slice takes the remainder of the window, and a share
        // too small for one slice still keeps one.
        assert_eq!(slowest_slices(&samples, 4.5, 1.0, 1.0).1, 4.5);
        let (kept, seconds) = slowest_slices(&samples, 4.5, 1.0, 0.01);
        assert_eq!((kept.len(), seconds), (100, 1.0));
        assert_eq!(slowest_slices(&[], 4.0, 1.0, 0.5), (Vec::new(), 0.0));
    }

    #[test]
    fn generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!(Rng::new(8).next_u64() != a[0]);
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
