//! Probabilistic profiling sketches.
//!
//! §4 #5 proposes a perf-like profiler that combines PMU counters "with
//! time-series-based probabilistic and compact data structures (like
//! Sketches) to distill application-specific execution telemetry".
//! Tracking per-flow (or per cacheline-region) byte counts exactly would
//! need unbounded memory at terabit rates; these two classics bound it:
//!
//! * [`CountMinSketch`] — per-key byte counters with a one-sided
//!   (overestimate-only) error of at most `ε · total` with probability
//!   `1 − δ`, in `O(ln(1/δ) · e/ε)` counters;
//! * [`SpaceSaving`] — the top-k heavy hitters with guaranteed inclusion of
//!   every key above `total / capacity`.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash, Hasher};

use crate::scenario::splitmix64;

/// A seeded FNV-1a `BuildHasher`: deterministic across runs and platforms,
/// unlike `RandomState`, so sketches built from the same seed produce
/// byte-identical reports.
#[derive(Debug, Clone, Copy)]
struct SeededFnv {
    seed: u64,
}

impl BuildHasher for SeededFnv {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher {
            state: 0xcbf2_9ce4_8422_2325 ^ self.seed,
        }
    }
}

/// FNV-1a over the written bytes, with a splitmix64 finalizer to spread
/// the low-entropy keys (small integers) Count-Min rows index with.
#[derive(Debug, Clone, Copy)]
struct FnvHasher {
    state: u64,
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
}

/// A DDSketch-style quantile sketch with relative-error guarantee.
///
/// Values are bucketed by `⌈log_γ(v)⌉` with `γ = (1+α)/(1−α)`; any quantile
/// query returns a value within relative error `α` of an exact order
/// statistic. Mergeable (same α) and O(log range) buckets — the
/// "time-series-based probabilistic and compact" latency structure §4 #5
/// calls for.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    alpha: f64,
    gamma_ln: f64,
    buckets: HashMap<i32, u64>,
    zero_count: u64,
    total: u64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Creates a sketch with relative accuracy `alpha` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range `alpha`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha in (0,1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma_ln: gamma.ln(),
            buckets: HashMap::new(),
            zero_count: 0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative accuracy.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn key_of(&self, v: f64) -> i32 {
        (v.ln() / self.gamma_ln).ceil() as i32
    }

    fn value_of(&self, key: i32) -> f64 {
        // Bucket midpoint in log space: γ^key × 2/(γ+1) ≈ γ^(key−1/2).
        let gamma = self.gamma_ln.exp();
        gamma.powi(key) * 2.0 / (1.0 + gamma)
    }

    /// Adds a sample (non-negative; negatives are clamped to zero).
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= f64::MIN_POSITIVE {
            self.zero_count += 1;
        } else {
            *self.buckets.entry(self.key_of(v)).or_insert(0) += 1;
        }
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile, or `None` when empty. Within relative error α of
    /// an exact order statistic.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank <= self.zero_count {
            return Some(0.0);
        }
        let mut keys: Vec<i32> = self.buckets.keys().copied().collect();
        keys.sort_unstable();
        let mut seen = self.zero_count;
        for k in keys {
            seen += self.buckets[&k];
            if seen >= rank {
                return Some(self.value_of(k).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another sketch (same α).
    ///
    /// # Panics
    ///
    /// Panics on mismatched accuracies.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different accuracies"
        );
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
        self.zero_count += other.zero_count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket memory in bytes (excluding map overhead constants).
    pub fn memory_bytes(&self) -> usize {
        self.buckets.len() * (std::mem::size_of::<i32>() + std::mem::size_of::<u64>())
    }
}

/// A Count-Min sketch over hashable keys.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    counters: Vec<u64>,
    hashers: Vec<SeededFnv>,
    total: u64,
}

impl CountMinSketch {
    /// Creates a sketch with error bound `epsilon` (relative to the total
    /// count) at confidence `1 − delta`, hashing with the default seed 0.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range parameters.
    pub fn with_error(epsilon: f64, delta: f64) -> Self {
        Self::with_error_seeded(epsilon, delta, 0)
    }

    /// Like [`CountMinSketch::with_error`], deriving the per-row hash
    /// functions from an explicit seed (splitmix64 stream), so identical
    /// seeds give identical estimates run-to-run.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range parameters.
    pub fn with_error_seeded(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        Self::with_seed(width.max(1), depth.max(1), seed)
    }

    /// Creates a sketch with explicit dimensions and the default seed 0.
    pub fn new(width: usize, depth: usize) -> Self {
        Self::with_seed(width, depth, 0)
    }

    /// Creates a sketch with explicit dimensions, its row hashers drawn
    /// from a splitmix64 stream of `seed`.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn with_seed(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0 && depth > 0, "dimensions must be positive");
        let mut stream = seed;
        CountMinSketch {
            width,
            depth,
            counters: vec![0; width * depth],
            hashers: (0..depth)
                .map(|_| {
                    stream = splitmix64(stream);
                    SeededFnv { seed: stream }
                })
                .collect(),
            total: 0,
        }
    }

    fn index(&self, row: usize, key: &impl Hash) -> usize {
        let h = self.hashers[row].hash_one(key);
        row * self.width + (h as usize % self.width)
    }

    /// Adds `count` to `key`.
    pub fn update(&mut self, key: &impl Hash, count: u64) {
        for row in 0..self.depth {
            let i = self.index(row, key);
            self.counters[i] += count;
        }
        self.total += count;
    }

    /// Point estimate for `key`: never below the true count; above it by at
    /// most `ε · total` with probability `1 − δ`.
    pub fn estimate(&self, key: &impl Hash) -> u64 {
        (0..self.depth)
            .map(|row| self.counters[self.index(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Total count across all keys (exact).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Counter memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u64>()
    }
}

/// SpaceSaving heavy-hitter tracking with a fixed number of slots.
///
/// Keys are `Ord` so that eviction and the heavy-hitter ordering break
/// count ties by key — fully deterministic, per the repo's contract.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Ord + Clone> {
    capacity: usize,
    counts: BTreeMap<K, u64>,
    total: u64,
}

impl<K: Ord + Clone> SpaceSaving<K> {
    /// Creates a tracker with `capacity` slots. Every key whose true count
    /// exceeds `total / capacity` is guaranteed to be present.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SpaceSaving {
            capacity,
            counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// Adds `count` to `key`, evicting the smallest slot when full (the
    /// newcomer inherits the evicted count — SpaceSaving's overestimate).
    /// Eviction ties go to the smallest key.
    pub fn update(&mut self, key: K, count: u64) {
        self.total += count;
        if let Some(c) = self.counts.get_mut(&key) {
            *c += count;
            return;
        }
        if self.counts.len() < self.capacity {
            self.counts.insert(key, count);
            return;
        }
        let (min_key, min_count) = self
            .counts
            .iter()
            .min_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(b.0)))
            .map(|(k, &c)| (k.clone(), c))
            .expect("tracker is non-empty when full");
        self.counts.remove(&min_key);
        self.counts.insert(key, min_count + count);
    }

    /// The tracked keys with their (over-)estimates, heaviest first
    /// (count descending, then key ascending).
    pub fn heavy_hitters(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Total count observed (exact).
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_min_never_underestimates() {
        let mut cm = CountMinSketch::new(64, 4);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for i in 0..1000u32 {
            let key = i % 97;
            let count = (i as u64 % 7) + 1;
            cm.update(&key, count);
            *truth.entry(key).or_insert(0) += count;
        }
        for (k, &t) in &truth {
            assert!(
                cm.estimate(k) >= t,
                "key {k}: est {} < true {t}",
                cm.estimate(k)
            );
        }
    }

    #[test]
    fn count_min_error_bound_mostly_holds() {
        let mut cm = CountMinSketch::with_error(0.01, 0.01);
        for i in 0..10_000u32 {
            cm.update(&(i % 500), 1);
        }
        let bound = (0.01 * cm.total() as f64) as u64;
        let mut violations = 0;
        for k in 0..500u32 {
            let true_count = 10_000 / 500;
            if cm.estimate(&k) > true_count + bound {
                violations += 1;
            }
        }
        // δ = 1% per key; allow generous slack.
        assert!(violations <= 25, "{violations} violations");
    }

    #[test]
    fn count_min_memory_is_bounded() {
        let cm = CountMinSketch::with_error(0.001, 0.01);
        // e/0.001 ≈ 2719 wide × 5 deep × 8 B ≈ 109 KB, regardless of keys.
        assert!(cm.memory_bytes() < 256 * 1024);
    }

    #[test]
    fn count_min_unknown_key_bounded_by_collisions() {
        let mut cm = CountMinSketch::new(1024, 4);
        cm.update(&1u64, 1000);
        // A different key collides with probability ~1/1024 per row.
        assert!(cm.estimate(&999_999u64) <= 1000);
    }

    #[test]
    fn count_min_is_deterministic_for_a_seed() {
        let build = |seed| {
            let mut cm = CountMinSketch::with_error_seeded(0.01, 0.01, seed);
            for i in 0..5000u32 {
                cm.update(&(i % 311), u64::from(i % 5) + 1);
            }
            (0..311u32).map(|k| cm.estimate(&k)).collect::<Vec<_>>()
        };
        assert_eq!(build(7), build(7));
        // Different seeds give different hash layouts (collisions move).
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn space_saving_eviction_breaks_ties_by_smallest_key() {
        let mut ss = SpaceSaving::new(2);
        ss.update(5u32, 3);
        ss.update(9u32, 3);
        // Full; the newcomer evicts the tied minimum with the smaller key.
        ss.update(1u32, 1);
        let hh = ss.heavy_hitters();
        assert_eq!(hh, vec![(1, 4), (9, 3)]);
    }

    #[test]
    fn space_saving_finds_true_heavy_hitter() {
        let mut ss = SpaceSaving::new(10);
        // One elephant among mice.
        for i in 0..10_000u32 {
            ss.update(i % 1000, 1);
        }
        for _ in 0..5000 {
            ss.update(42u32, 1);
        }
        let hh = ss.heavy_hitters();
        assert_eq!(hh[0].0, 42, "elephant missing: {hh:?}");
        assert!(hh[0].1 >= 5000);
    }

    #[test]
    fn space_saving_capacity_is_respected() {
        let mut ss = SpaceSaving::new(5);
        for i in 0..1000u32 {
            ss.update(i, 1);
        }
        assert!(ss.heavy_hitters().len() <= 5);
        assert_eq!(ss.total(), 1000);
    }

    #[test]
    fn space_saving_overestimates_only() {
        let mut ss = SpaceSaving::new(3);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for i in 0..300u32 {
            let k = i % 7;
            ss.update(k, 2);
            *truth.entry(k).or_insert(0) += 2;
        }
        for (k, est) in ss.heavy_hitters() {
            assert!(est >= truth[&k], "key {k} underestimated");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: SpaceSaving<u32> = SpaceSaving::new(0);
    }

    #[test]
    fn quantile_sketch_relative_error() {
        let mut s = QuantileSketch::new(0.01);
        let mut values: Vec<f64> = (1..=10_000).map(|i| (i as f64) * 0.7 + 3.0).collect();
        for &v in &values {
            s.record(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            let got = s.quantile(q).unwrap();
            let rel = (got - exact).abs() / exact;
            assert!(rel <= 0.011, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
    }

    #[test]
    fn quantile_sketch_merge_equals_union() {
        let mut a = QuantileSketch::new(0.02);
        let mut b = QuantileSketch::new(0.02);
        let mut whole = QuantileSketch::new(0.02);
        for i in 0..5000 {
            let v = 10.0 + (i as f64 % 977.0);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.1, 0.5, 0.95] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn quantile_sketch_handles_zeros_and_empty() {
        let mut s = QuantileSketch::new(0.05);
        assert_eq!(s.quantile(0.5), None);
        s.record(0.0);
        s.record(0.0);
        s.record(100.0);
        assert_eq!(s.quantile(0.5), Some(0.0));
        let p99 = s.quantile(0.99).unwrap();
        assert!((p99 - 100.0).abs() / 100.0 <= 0.05);
    }

    #[test]
    fn quantile_sketch_memory_is_logarithmic() {
        let mut s = QuantileSketch::new(0.01);
        for i in 1..=1_000_000u64 {
            s.record(i as f64);
        }
        // log_γ(1e6) ≈ 690 buckets at α=1%.
        assert!(s.memory_bytes() < 16 * 1024, "{} bytes", s.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "different accuracies")]
    fn quantile_sketch_merge_mismatch_rejected() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.02);
        a.merge(&b);
    }
}
