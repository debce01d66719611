//! Stack-distance analysis and hit-rate curves.
//!
//! ElMem's AutoScaler sizes the Memcached tier by computing, from the recent
//! request trace, "the amount of memory required for every integer hit rate
//! percentage (in a single pass)" (§III-B). That computation rests on the
//! *stack distance* (reuse distance): the number of unique items — here,
//! unique *bytes* — referenced between successive accesses to the same key.
//! Under LRU, a request hits in a cache of capacity `C` iff its stack
//! distance is at most `C`, so one pass yields the full hit-rate-vs-capacity
//! curve (Mattson et al.; MIMIR \[38\]).
//!
//! Two engines are provided:
//!
//! * [`exact::ExactStackDistance`] — exact distances via a Fenwick tree,
//!   `O(log W)` per request over a window of `W` requests;
//! * [`mimir::Mimir`] — the MIMIR bucket approximation the paper uses,
//!   `O(1)` amortized per request with bounded relative error.
//!
//! [`hrc::HitRateCurve`] turns either engine's distances into the
//! memory-for-hit-rate query the AutoScaler needs.
//!
//! # Example
//!
//! ```
//! use elmem_stackdist::exact::ExactStackDistance;
//! use elmem_stackdist::hrc::HitRateCurve;
//! use elmem_util::KeyId;
//!
//! let mut engine = ExactStackDistance::new();
//! let mut distances = Vec::new();
//! // Cyclic access over 3 keys of 100 B each.
//! for _round in 0..4u64 {
//!     for k in 0..3u64 {
//!         distances.push(engine.record(KeyId(k), 100));
//!     }
//! }
//! let curve = HitRateCurve::from_distances(&distances);
//! // With capacity for all 3 keys, only the 3 cold misses remain.
//! assert!(curve.hit_rate_at(300) > 0.7);
//! ```

pub mod adaptive;
pub mod exact;
pub mod hrc;
pub mod mimir;

pub use adaptive::AdaptiveStackDistance;
pub use exact::ExactStackDistance;
pub use hrc::HitRateCurve;
pub use mimir::Mimir;

use std::sync::atomic::{AtomicU64, Ordering};

/// Default distinct-key count at which [`AdaptiveStackDistance`] hands
/// off from the exact engine to MIMIR. Above every laptop-scale keyspace
/// (≤ 1.4M keys) so pinned golden traces keep their exact distances;
/// comfortably below the paper's ~19M-key ETC population.
pub const DEFAULT_ADAPTIVE_SWITCH_KEYS: u64 = 2_000_000;

static ADAPTIVE_SWITCH_KEYS: AtomicU64 = AtomicU64::new(DEFAULT_ADAPTIVE_SWITCH_KEYS);

/// The exact→MIMIR switch threshold read by [`AdaptiveStackDistance::new`].
pub fn adaptive_switch_keys() -> u64 {
    ADAPTIVE_SWITCH_KEYS.load(Ordering::Relaxed)
}

/// Overrides [`adaptive_switch_keys`] (benches: `u64::MAX` pins the exact
/// engine — the pre-optimization behavior — regardless of scale).
pub fn set_adaptive_switch_keys(keys: u64) {
    ADAPTIVE_SWITCH_KEYS.store(keys, Ordering::Relaxed);
}
