//! Order statistics over measured samples, and the output digest.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method), so spreads read the same here and in any external check.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The `p`-th percentile (nearest rank) of `values`, refused unless at
/// least ten samples lie above it: a tail estimate resting on fewer
/// samples is noise.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let data = sorted(values);
    let n = data.len();
    // `p * n` before dividing keeps whole ranks exact (0.99 * 1000 is not).
    let rank = (p * n as f64 / 100.0).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < 10 {
        return Err(format!(
            "p{p} needs at least 10 samples beyond it, have {n} samples in total"
        ));
    }
    Ok(data[rank - 1])
}

/// FNV-1a (64-bit) of `bytes`: the digest the output checks pin.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Some([1.0, 4.0, 7.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Ok(50.0));
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert!(percentile(&hundred, 99.0).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Ok(990.0));
        assert!(percentile(&thousand, 99.5).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
