//! Adaptive stack-distance profiling: exact until the tracked population
//! gets expensive, then MIMIR.
//!
//! The exact engine costs a Fenwick tree plus a per-key map entry —
//! perfectly affordable at laptop scale, where its distances also underpin
//! the pinned golden traces. At the paper's ~19M-key ETC scale the per-key
//! state and `O(log n)` tree walks dominate the autoscaler's observation
//! path, and the paper itself profiles with MIMIR (§III-B). The adaptive
//! engine gives both: it records exactly until [`crate::adaptive_switch_keys`]
//! distinct keys have been seen, then builds a [`Mimir`] estimator, replays
//! the tracked keys into it **oldest-first** (so the recency order — and
//! therefore every key's bucket — carries over) and drops the exact state.
//!
//! The switch is a deterministic function of the observed key sequence, so
//! two runs of the same workload switch at the same access and produce
//! identical distance streams at any worker count.

use elmem_util::KeyId;

use crate::exact::ExactStackDistance;
use crate::mimir::Mimir;

/// Bucket count for the post-switch MIMIR estimator (the paper's
/// implementation ballpark).
const MIMIR_BUCKETS: usize = 128;

/// Stack-distance engine that is exact below a key-count threshold and
/// MIMIR-approximate above it.
///
/// # Example
///
/// ```
/// use elmem_stackdist::AdaptiveStackDistance;
/// use elmem_util::KeyId;
///
/// let mut e = AdaptiveStackDistance::new();
/// assert_eq!(e.record(KeyId(1), 100), None);      // cold
/// assert_eq!(e.record(KeyId(1), 100), Some(100)); // exact while small
/// assert!(e.is_exact());
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveStackDistance {
    engine: Engine,
    switch_keys: u64,
}

#[derive(Debug, Clone)]
enum Engine {
    Exact(ExactStackDistance),
    Mimir(Mimir),
}

impl Default for AdaptiveStackDistance {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveStackDistance {
    /// Creates an engine that switches at the global
    /// [`crate::adaptive_switch_keys`] threshold (sampled at construction).
    pub fn new() -> Self {
        Self::with_switch_threshold(crate::adaptive_switch_keys())
    }

    /// Creates an engine with an explicit switch threshold (tests).
    pub fn with_switch_threshold(switch_keys: u64) -> Self {
        AdaptiveStackDistance {
            engine: Engine::Exact(ExactStackDistance::new()),
            switch_keys: switch_keys.max(1),
        }
    }

    /// Whether the engine is still in its exact phase.
    pub fn is_exact(&self) -> bool {
        matches!(self.engine, Engine::Exact(_))
    }

    /// Number of distinct keys currently tracked.
    pub fn tracked_keys(&self) -> usize {
        match &self.engine {
            Engine::Exact(e) => e.unique_keys(),
            Engine::Mimir(m) => m.tracked_keys(),
        }
    }

    /// Records an access; exact distance below the switch threshold,
    /// MIMIR estimate above. `None` = cold access either way.
    pub fn record(&mut self, key: KeyId, bytes: u64) -> Option<u64> {
        match &mut self.engine {
            Engine::Exact(exact) => {
                let d = exact.record(key, bytes);
                if exact.unique_keys() as u64 >= self.switch_keys {
                    self.switch_to_mimir();
                }
                d
            }
            Engine::Mimir(mimir) => mimir.record(key, bytes),
        }
    }

    /// Hands the exact engine's population to a fresh MIMIR estimator:
    /// replaying tracked keys oldest-first reproduces the recency order,
    /// so every warm key stays warm (a key hot under exact profiling never
    /// reads as cold right after the switch).
    fn switch_to_mimir(&mut self) {
        let Engine::Exact(exact) = &self.engine else {
            return;
        };
        let entries = exact.entries_by_recency();
        // Size buckets so the tracked population at switch time spans the
        // full bucket range.
        let capacity = (entries.len() as u64 / MIMIR_BUCKETS as u64).max(2);
        let mut mimir = Mimir::new(MIMIR_BUCKETS, capacity);
        for (key, bytes) in entries {
            mimir.record(key, bytes);
        }
        self.engine = Engine::Mimir(mimir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_threshold_matches_exact_engine() {
        use elmem_util::DetRng;
        let mut rng = DetRng::seed(17);
        let trace: Vec<(u64, u64)> = (0..5_000)
            .map(|_| (rng.next_below(400), 1 + rng.next_below(200)))
            .collect();
        let mut adaptive = AdaptiveStackDistance::with_switch_threshold(100_000);
        let mut exact = ExactStackDistance::new();
        for &(k, b) in &trace {
            assert_eq!(adaptive.record(KeyId(k), b), exact.record(KeyId(k), b));
        }
        assert!(adaptive.is_exact());
    }

    #[test]
    fn switches_at_threshold() {
        let mut e = AdaptiveStackDistance::with_switch_threshold(50);
        for k in 0..49u64 {
            e.record(KeyId(k), 10);
            assert!(e.is_exact(), "still below threshold at key {k}");
        }
        e.record(KeyId(49), 10);
        assert!(!e.is_exact(), "50th distinct key must trigger the switch");
        assert_eq!(e.tracked_keys(), 50);
    }

    #[test]
    fn warm_keys_stay_warm_across_the_switch() {
        let mut e = AdaptiveStackDistance::with_switch_threshold(50);
        for k in 0..50u64 {
            e.record(KeyId(k), 10);
        }
        assert!(!e.is_exact());
        // Every key seen before the switch must still read as warm.
        for k in 0..50u64 {
            assert!(
                e.record(KeyId(k), 10).is_some(),
                "key {k} went cold across the switch"
            );
        }
    }

    #[test]
    fn estimates_track_brute_force_at_the_switch_boundary() {
        use elmem_util::DetRng;
        use std::collections::HashSet;

        // Brute-force reference (same as exact.rs's): unique intervening
        // bytes plus own footprint.
        fn brute_force(trace: &[(u64, u64)]) -> Vec<Option<u64>> {
            let mut out = Vec::new();
            for (i, &(key, bytes)) in trace.iter().enumerate() {
                match trace[..i].iter().rposition(|&(k, _)| k == key) {
                    None => out.push(None),
                    Some(p) => {
                        let mut seen: HashSet<u64> = HashSet::new();
                        let mut sum = 0u64;
                        for &(k, b) in trace[p + 1..i].iter().rev() {
                            if k != key && seen.insert(k) {
                                sum += b;
                            }
                        }
                        out.push(Some(sum + bytes));
                    }
                }
            }
            out
        }

        let threshold = 256u64;
        let mut rng = DetRng::seed(23);
        // Key range 2× the threshold so the trace crosses the switch
        // mid-stream; sizes vary.
        let trace: Vec<(u64, u64)> = (0..20_000)
            .map(|_| (rng.next_below(512), 1 + rng.next_below(64)))
            .collect();
        let reference = brute_force(&trace);
        let mut e = AdaptiveStackDistance::with_switch_threshold(threshold);

        let mut post_switch_warm = 0u64;
        let mut ratio_sum = 0f64;
        for (i, &(k, b)) in trace.iter().enumerate() {
            let got = e.record(KeyId(k), b);
            if e.is_exact() {
                // Exact phase: must equal brute force bit-for-bit.
                assert_eq!(got, reference[i], "access {i} diverged while exact");
            } else if let (Some(g), Some(r)) = (got, reference[i]) {
                post_switch_warm += 1;
                ratio_sum += g as f64 / r as f64;
            }
        }
        assert!(!e.is_exact(), "trace must cross the switch");
        assert!(post_switch_warm > 1000, "too few warm post-switch accesses");
        // MIMIR is an estimator: require the mean estimate to stay within
        // a factor of two of the truth.
        let mean_ratio = ratio_sum / post_switch_warm as f64;
        assert!(
            (0.5..2.0).contains(&mean_ratio),
            "mean estimate ratio {mean_ratio}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        use elmem_util::DetRng;
        let run = || {
            let mut rng = DetRng::seed(31);
            let mut e = AdaptiveStackDistance::with_switch_threshold(100);
            (0..5_000)
                .map(|_| {
                    let k = rng.next_below(300);
                    e.record(KeyId(k), 1 + (k % 50))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
