//! Deterministic noise utilities.
//!
//! The simulator must be able to materialise *any* snapshot of *any* map
//! at *any* instant without replaying the ones before it — experiment
//! binaries sample two years at coarse strides, tests jump around freely.
//! Ordinary sequential RNG streams cannot do that, so the traffic model is
//! built on *hash noise*: every random quantity is a pure function of
//! `(seed, labels…, time)` through a SplitMix64-style mixer. The same seed
//! therefore reproduces byte-identical corpora regardless of query order.

/// SplitMix64 finaliser: a fast, well-distributed 64-bit mixer.
#[inline]
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a sequence of labels into one key.
#[must_use]
pub fn hash_labels(seed: u64, labels: &[u64]) -> u64 {
    let mut h = mix(seed);
    for &label in labels {
        h = mix(h ^ label);
    }
    h
}

/// Uniform float in `[0, 1)` from a hash key.
#[inline]
#[must_use]
pub fn unit_f64(key: u64) -> f64 {
    // Use the top 53 bits for a full-precision mantissa.
    (key >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform float in `[0, 1)` from seed and labels.
#[must_use]
pub fn uniform(seed: u64, labels: &[u64]) -> f64 {
    unit_f64(hash_labels(seed, labels))
}

/// Smooth temporal value noise in `[-1, 1]`.
///
/// Random anchor values are placed every `period_secs` and joined with a
/// cosine ease, producing a continuous signal whose autocorrelation decays
/// over roughly one period — the stand-in for the AR(1) burstiness of real
/// traffic, but randomly accessible.
#[must_use]
pub fn value_noise(seed: u64, labels: &[u64], unix: i64, period_secs: i64) -> f64 {
    debug_assert!(period_secs > 0);
    let cell = unix.div_euclid(period_secs);
    let frac = unix.rem_euclid(period_secs) as f64 / period_secs as f64;
    let anchor = |c: i64| {
        let key = hash_labels(seed, labels) ^ (c as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        unit_f64(mix(key)) * 2.0 - 1.0
    };
    let a = anchor(cell);
    let b = anchor(cell + 1);
    // Cosine ease between anchors.
    let t = (1.0 - (std::f64::consts::PI * frac).cos()) / 2.0;
    a * (1.0 - t) + b * t
}

/// Picks an index in `[0, n)` from seed and labels.
#[must_use]
pub fn pick(seed: u64, labels: &[u64], n: usize) -> usize {
    debug_assert!(n > 0);
    (hash_labels(seed, labels) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(42), mix(42));
        assert_ne!(mix(42), mix(43));
        // A change in any input bit should flip roughly half the output.
        let a = mix(0);
        let b = mix(1);
        let differing = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "poor avalanche: {differing} bits"
        );
    }

    #[test]
    fn uniform_is_in_range_and_label_sensitive() {
        for i in 0..1000u64 {
            let u = uniform(7, &[i]);
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(
            uniform(7, &[1, 2]),
            uniform(7, &[2, 1]),
            "label order must matter"
        );
        assert_ne!(uniform(7, &[1]), uniform(8, &[1]), "seed must matter");
    }

    #[test]
    fn uniform_mean_is_centred() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| uniform(11, &[i])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn value_noise_is_smooth_and_bounded() {
        let period = 3_600;
        let mut prev = value_noise(5, &[9], 0, period);
        for step in 1..500 {
            let t = step * 60;
            let v = value_noise(5, &[9], t, period);
            assert!((-1.0..=1.0).contains(&v));
            assert!(
                (v - prev).abs() < 0.25,
                "jump of {} at step {step}",
                (v - prev).abs()
            );
            prev = v;
        }
    }

    #[test]
    fn value_noise_is_random_access() {
        let at = |t| value_noise(5, &[1, 2], t, 300);
        let forward: Vec<f64> = (0..100).map(|i| at(i * 300)).collect();
        let backward: Vec<f64> = (0..100).rev().map(|i| at(i * 300)).collect();
        let backward: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn value_noise_decorrelates_across_labels() {
        let a = value_noise(5, &[1], 1_000, 300);
        let b = value_noise(5, &[2], 1_000, 300);
        assert_ne!(a, b);
    }

    #[test]
    fn pick_is_in_range() {
        for i in 0..100u64 {
            assert!(pick(1, &[i], 7) < 7);
        }
    }
}
