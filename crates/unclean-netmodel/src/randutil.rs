//! Random-variate helpers the simulation needs but `rand` does not ship:
//! Poisson counts, Pareto weights, geometric durations, and stable
//! per-(entity, day) Bernoulli decisions.
//!
//! The per-entity decisions matter architecturally: activity generation is
//! *random access* — "did bot 9.1.2.3 scan on day 275?" must be answerable
//! without replaying days 0..274 — so decisions are pure hashes of
//! (seed, entity, day, purpose) rather than draws from a sequential
//! stream.
//!
//! A [`Purpose`] is the (seed, purpose) half of that hash, derived once:
//! deriving it (FNV-1a over the label, then a SplitMix round) costs about
//! as much as the two per-(entity, day) rounds, and it never varies
//! inside a loop over entities or days. Hot callers (flow expansion, the
//! activity walk) derive their purposes up front and draw through them;
//! [`uniform_hash`], [`index_hash`] and [`decides`] derive the purpose on
//! each call and draw through the same code, so both forms give
//! bit-identical values.

use rand::Rng;
use unclean_stats::SeedTree;

/// A Poisson(λ) draw.
///
/// Knuth's product method below λ = 30; above that, a clamped normal
/// approximation (λ is large enough there for the error to vanish in the
/// aggregate counts the simulation uses this for).
pub fn poisson(rng: &mut impl Rng, lambda: f64) -> u64 {
    assert!(lambda >= 0.0 && lambda.is_finite(), "bad lambda {lambda}");
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_range(0.0..1.0f64);
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let z = standard_normal(rng);
        let v = lambda + lambda.sqrt() * z;
        v.round().max(0.0) as u64
    }
}

/// A standard normal draw (Box–Muller).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A Pareto(scale = 1, shape = α) draw — the heavy-tailed weights the
/// multifractal address cascade splits mass with.
pub fn pareto(rng: &mut impl Rng, alpha: f64) -> f64 {
    assert!(alpha > 0.0, "pareto shape must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    u.powf(-1.0 / alpha)
}

/// A geometric duration in days with the given mean (≥ 1): the number of
/// days an infection persists before cleanup.
pub fn geometric_days(rng: &mut impl Rng, mean: f64) -> u32 {
    assert!(mean >= 1.0, "mean duration below one day: {mean}");
    let p = 1.0 / mean;
    // Inverse-CDF sampling of a geometric starting at 1.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let k = (u.ln() / (1.0 - p).ln()).ceil();
    if k.is_finite() {
        (k as u32).max(1)
    } else {
        1
    }
}

/// One purpose's node in a seed tree: `seeds.child(label)`, derived once
/// and then drawn from for any (entity, day).
#[derive(Debug, Clone, Copy)]
pub struct Purpose(SeedTree);

impl Purpose {
    /// The purpose `label` under `seeds`.
    pub fn new(seeds: &SeedTree, label: &str) -> Purpose {
        Purpose(seeds.child(label))
    }

    /// The stable uniform in `[0, 1)` for (entity, day).
    pub fn uniform(self, entity: u32, day: i32) -> f64 {
        let raw = self
            .0
            .child_idx(entity as u64)
            .child_idx(day as u32 as u64)
            .raw();
        // 53 high bits → uniform double in [0, 1).
        (raw >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A stable uniform integer in `[0, n)` for (entity, day).
    pub fn index(self, entity: u32, day: i32, n: usize) -> usize {
        assert!(n > 0, "index_hash over an empty range");
        (self.uniform(entity, day) * n as f64) as usize % n
    }

    /// A pure, stable Bernoulli(p) decision for (entity, day): the same
    /// inputs always produce the same answer, independent of evaluation
    /// order.
    pub fn decides(self, entity: u32, day: i32, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform(entity, day) < p
    }
}

/// [`Purpose::decides`] for a purpose given by its label.
pub fn decides(seeds: &SeedTree, entity: u32, day: i32, purpose: &str, p: f64) -> bool {
    Purpose::new(seeds, purpose).decides(entity, day, p)
}

/// [`Purpose::uniform`] for a purpose given by its label.
pub fn uniform_hash(seeds: &SeedTree, entity: u32, day: i32, purpose: &str) -> f64 {
    Purpose::new(seeds, purpose).uniform(entity, day)
}

/// [`Purpose::index`] for a purpose given by its label.
pub fn index_hash(seeds: &SeedTree, entity: u32, day: i32, purpose: &str, n: usize) -> usize {
    Purpose::new(seeds, purpose).index(entity, day, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unclean_stats::Summary;

    fn rng() -> impl Rng {
        SeedTree::new(7).stream("randutil-tests")
    }

    #[test]
    fn poisson_zero_lambda() {
        assert_eq!(poisson(&mut rng(), 0.0), 0);
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.push(poisson(&mut r, 3.5) as f64);
        }
        assert!((s.mean() - 3.5).abs() < 0.1, "mean {}", s.mean());
        assert!((s.variance() - 3.5).abs() < 0.3, "var {}", s.variance());
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..5_000 {
            s.push(poisson(&mut r, 400.0) as f64);
        }
        assert!((s.mean() - 400.0).abs() < 2.0, "mean {}", s.mean());
    }

    #[test]
    #[should_panic(expected = "bad lambda")]
    fn poisson_rejects_negative() {
        let _ = poisson(&mut rng(), -1.0);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..50_000 {
            s.push(standard_normal(&mut r));
        }
        assert!(s.mean().abs() < 0.02, "mean {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.05, "var {}", s.variance());
    }

    #[test]
    fn pareto_is_heavy_tailed_and_bounded_below() {
        let mut r = rng();
        let mut max = 0.0f64;
        for _ in 0..10_000 {
            let v = pareto(&mut r, 1.2);
            assert!(v >= 1.0);
            max = max.max(v);
        }
        assert!(max > 20.0, "tail should produce large values, max {max}");
    }

    #[test]
    fn geometric_mean_matches() {
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..20_000 {
            let d = geometric_days(&mut r, 12.0);
            assert!(d >= 1);
            s.push(d as f64);
        }
        assert!((s.mean() - 12.0).abs() < 0.4, "mean {}", s.mean());
    }

    #[test]
    fn geometric_mean_one_is_always_one() {
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(geometric_days(&mut r, 1.0), 1);
        }
    }

    #[test]
    fn decides_is_stable_and_probability_correct() {
        let seeds = SeedTree::new(3);
        // Stability: same inputs, same answer.
        let a = decides(&seeds, 12345, 77, "scan", 0.3);
        let b = decides(&seeds, 12345, 77, "scan", 0.3);
        assert_eq!(a, b);
        // Different purposes decouple.
        let mut agree = 0;
        let mut yes = 0;
        for e in 0..20_000u32 {
            let x = decides(&seeds, e, 5, "scan", 0.3);
            let y = decides(&seeds, e, 5, "spam", 0.3);
            if x == y {
                agree += 1;
            }
            if x {
                yes += 1;
            }
        }
        let rate = yes as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        // If independent, agreement ≈ 0.3² + 0.7² = 0.58.
        let agree_rate = agree as f64 / 20_000.0;
        assert!((agree_rate - 0.58).abs() < 0.03, "agree {agree_rate}");
    }

    #[test]
    fn decides_extremes() {
        let seeds = SeedTree::new(3);
        assert!(!decides(&seeds, 1, 1, "x", 0.0));
        assert!(decides(&seeds, 1, 1, "x", 1.0));
    }

    #[test]
    fn index_hash_in_range_and_covers() {
        let seeds = SeedTree::new(4);
        let mut seen = [false; 7];
        for e in 0..2_000u32 {
            let i = index_hash(&seeds, e, 9, "pick", 7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices hit");
    }

    #[test]
    fn hash_values_are_pinned() {
        // Golden values: every synthetic flow field and activity decision
        // derives from these hashes, so any change to their derivation
        // moves the whole generated world (and every `results/` file).
        let seeds = SeedTree::new(20061001).child("flowgen");
        let bits = |e, d, l| uniform_hash(&seeds, e, d, l).to_bits();
        assert_eq!(bits(0x0901_0203, 273, "s-time"), 0x3fe7_97dc_d623_246f);
        assert_eq!(bits(0, 0, "target"), 0x3feb_80b0_691f_5247);
        assert_eq!(bits(u32::MAX, -5, "benign"), 0x3fc9_6d3e_7ba6_dd2c);
        assert_eq!(index_hash(&seeds, 0x0901_0203, 280, "b-server", 48), 37);
        assert_eq!(index_hash(&seeds, 77, 9, "s-port", 8), 7);
    }

    proptest::proptest! {
        #[test]
        fn purpose_matches_the_label_form(
            master in proptest::any::<u64>(),
            entity in proptest::any::<u32>(),
            day in proptest::any::<i32>(),
            label in proptest::collection::vec(proptest::any::<u8>(), 0..16),
            n in 1usize..1_000,
            p in 0.0f64..1.0,
        ) {
            let seeds = SeedTree::new(master);
            let label = String::from_utf8_lossy(&label);
            let purpose = Purpose::new(&seeds, &label);
            proptest::prop_assert_eq!(
                purpose.uniform(entity, day).to_bits(),
                uniform_hash(&seeds, entity, day, &label).to_bits()
            );
            proptest::prop_assert_eq!(
                purpose.index(entity, day, n),
                index_hash(&seeds, entity, day, &label, n)
            );
            proptest::prop_assert_eq!(
                purpose.decides(entity, day, p),
                decides(&seeds, entity, day, &label, p)
            );
        }
    }

    #[test]
    fn uniform_hash_distribution() {
        let seeds = SeedTree::new(5);
        let mut s = Summary::new();
        for e in 0..20_000u32 {
            s.push(uniform_hash(&seeds, e, 0, "u"));
        }
        assert!((s.mean() - 0.5).abs() < 0.01);
        assert!((s.variance() - 1.0 / 12.0).abs() < 0.005);
    }
}
