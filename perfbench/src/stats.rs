//! Summary arithmetic: percentiles, ratios, resident memory, body hashes.

/// Nearest-rank percentile (`p` in `0..=100`) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it. Returns 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many samples lie strictly above the `p`-th percentile.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// `failed / attempted`, 0 when nothing was attempted.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a of `bytes`: served bodies are kept as hashes, so memory
/// does not grow with throughput.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A seed derived from a base seed and a path of indices (SplitMix64
/// finalizer), so every input of a run is a pure function of `--seed`.
pub fn derive_seed(base: u64, path: &[u64]) -> u64 {
    let mut z = base;
    for &p in path {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(p);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Unsorted input, small sample.
        let w = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&w), 3.0);
        assert_eq!(percentile(&w, 95.0), 5.0);
        assert_eq!(percentile(&w, 41.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn samples_beyond_p95() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(&v, 95.0), 10);
        let flat = [1.0; 50];
        assert_eq!(beyond(&flat, 95.0), 0);
    }

    #[test]
    fn failed_ratio_arithmetic() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(0, 250), 0.0);
        assert_eq!(failed_ratio(5, 250), 0.02);
        assert_eq!(failed_ratio(3, 3), 1.0);
    }

    #[test]
    fn derived_seeds_differ_by_path() {
        assert_eq!(derive_seed(1, &[2, 3]), derive_seed(1, &[2, 3]));
        assert_ne!(derive_seed(1, &[2, 3]), derive_seed(1, &[3, 2]));
        assert_ne!(derive_seed(1, &[2]), derive_seed(2, &[2]));
    }

    #[test]
    fn fnv_distinguishes_bodies() {
        assert_eq!(fnv64(b"{}"), fnv64(b"{}"));
        assert_ne!(fnv64(b"{\"a\":1}"), fnv64(b"{\"a\":2}"));
    }
}
