//! The web tier's serving path: multi-get, miss handling, response times.

use std::collections::BTreeMap;

use elmem_hash::HashRing;
use elmem_util::{DetRng, KeyId, NodeId, NodeMap, SimTime};
use elmem_workload::{Keyspace, WebRequest};

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::config::ClusterConfig;
use crate::db::DbModel;
use crate::telemetry::{ClusterTelemetry, LookupClass};
use crate::tier::CacheTier;
use elmem_util::TelemetryConfig;

/// Key count below which [`Cluster::prefill`] always runs the plain serial
/// loop — fan-out setup isn't worth it for laptop-scale fills.
pub const PREFILL_FANOUT_MIN: usize = 100_000;

/// Result of serving one web request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// The request's response time (weighted average of per-item latencies
    /// plus web-tier overhead, per §V-A).
    pub rt: SimTime,
    /// When the last item fetch completed (used for timeline bucketing).
    pub completion: SimTime,
    /// Cache lookups that hit.
    pub hits: u64,
    /// Total cache lookups.
    pub lookups: u64,
}

impl RequestOutcome {
    /// Response time in fractional milliseconds.
    pub fn rt_ms(&self) -> f64 {
        self.rt.as_millis_f64()
    }
}

/// The full serving stack: cache tier + database + web-tier behaviour.
///
/// A `get` that hits is answered in cache latency; a miss goes to the
/// database (absorbing its queueing delay) and the fetched pair is inserted
/// into the responsible cache node, "possibly leading to evictions" (§V-A).
///
/// A `get` routed to a node that cannot answer — crashed, powered off, or
/// inside a NIC partition window — costs the client its configured
/// `client_timeout` before falling back to the database. A per-node
/// [`CircuitBreaker`] bounds that price: after a streak of timeouts the
/// breaker opens and subsequent lookups fail over immediately, re-probing
/// the node once per cooldown.
///
/// For the CacheScale comparator (§V-B4), a *secondary ring* can be armed:
/// misses on the primary retry on the secondary's node; secondary hits are
/// *promoted* (migrated) to the primary node.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The cache tier.
    pub tier: CacheTier,
    /// The database model.
    pub db: DbModel,
    keyspace: Keyspace,
    latency_rng: DetRng,
    secondary: Option<HashRing>,
    promoted: u64,
    secondary_hits: u64,
    // Id-indexed: walked once per lookup (hot path).
    breakers: NodeMap<CircuitBreaker>,
    client_timeouts: u64,
    fast_failovers: u64,
    telemetry: ClusterTelemetry,
    // 1 / mc_latency, cached at construction: the exponential-jitter rate
    // is re-derived on every single lookup otherwise, and the config mean
    // never changes after the tier is built.
    mc_rate: f64,
}

impl Cluster {
    /// Builds the stack from a config, a keyspace and an RNG.
    pub fn new(config: ClusterConfig, keyspace: Keyspace, rng: DetRng) -> Self {
        let db = DbModel::new(
            config.db_servers,
            config.db_service,
            config.db_shed_delay,
            rng.split("db"),
        );
        let mc_rate = 1.0 / config.mc_latency.as_secs_f64();
        Cluster {
            tier: CacheTier::new(config),
            db,
            keyspace,
            latency_rng: rng.split("mc-latency"),
            secondary: None,
            promoted: 0,
            secondary_hits: 0,
            breakers: NodeMap::new(),
            client_timeouts: 0,
            fast_failovers: 0,
            telemetry: ClusterTelemetry::default(),
            mc_rate,
        }
    }

    /// The keyspace driving value sizes.
    pub fn keyspace(&self) -> &Keyspace {
        &self.keyspace
    }

    /// Arms event tracing per the given config. Histograms and per-node
    /// counters are always recorded; only the trace needs arming.
    pub fn set_telemetry_config(&mut self, config: &TelemetryConfig) {
        self.telemetry.configure(config);
    }

    /// The serving path's telemetry (histograms, counters, event trace).
    pub fn telemetry(&self) -> &ClusterTelemetry {
        &self.telemetry
    }

    /// Mutable telemetry access — the control plane records its events
    /// (probe outcomes, migration phases, scaling decisions) into the same
    /// trace so one dump holds the whole story in one clock.
    pub fn telemetry_mut(&mut self) -> &mut ClusterTelemetry {
        &mut self.telemetry
    }

    /// Serves one web request at its arrival time.
    pub fn handle(&mut self, req: &WebRequest) -> RequestOutcome {
        let now = req.arrival;
        let mut hits = 0u64;
        let mut sum = SimTime::ZERO;
        let mut worst = SimTime::ZERO;
        for &key in &req.keys {
            let (latency, hit) = self.lookup_and_fill(key, now);
            if hit {
                hits += 1;
            }
            sum += latency;
            worst = worst.max(latency);
        }
        let overhead = self.tier.config().web_overhead;
        let mean = if req.keys.is_empty() {
            SimTime::ZERO
        } else {
            sum / req.keys.len() as u64
        };
        let outcome = RequestOutcome {
            rt: overhead + mean,
            completion: now + overhead + worst,
            hits,
            lookups: req.keys.len() as u64,
        };
        self.telemetry
            .on_request(now, outcome.rt, outcome.hits, outcome.lookups);
        outcome
    }

    /// One cache lookup with fill-on-miss; returns (latency, hit).
    ///
    /// An unreachable owner (crashed, powered off, partitioned) or one so
    /// slow-linked that a get would outlast `client_timeout` goes through
    /// `Self::failover`: the client pays the timeout (unless the node's
    /// breaker is already open) and fetches from the database instead.
    pub fn lookup_and_fill(&mut self, key: KeyId, now: SimTime) -> (SimTime, bool) {
        let Some(node_id) = self.tier.node_for_key(key) else {
            // No cache tier at all: straight to the database.
            let latency = self.db.fetch(now).completion() - now;
            self.telemetry.on_lookup(None, LookupClass::Miss, latency);
            return (latency, false);
        };
        let timeout = self.tier.config().client_timeout;
        let (reachable, slowdown) = {
            let node = self.tier.node(node_id).expect("member node exists");
            (node.is_reachable(now), node.link.slowdown_factor())
        };
        // A degraded NIC stretches the get by the link's slowdown factor;
        // past the client timeout the node is as good as dead.
        let cache_latency = self.mc_latency().mul_f64(slowdown);
        if !reachable || cache_latency >= timeout {
            let latency = self.failover(node_id, now);
            self.telemetry
                .on_lookup(Some(node_id), LookupClass::Failover, latency);
            return (latency, false);
        }
        // Enforce the breaker even when the node is reachable again: an
        // open breaker fails over fast until its cooldown elapses, and the
        // first allowed request is the half-open probe. Without this gate
        // a heal inside the cooldown would jump the breaker open → closed
        // without ever probing. One breaker-map walk per lookup (this is
        // the hot path), not one per state read.
        let breaker = self.breaker(node_id);
        let before = breaker.state();
        let allowed = breaker.allows(now);
        let probing = breaker.state();
        if !allowed {
            self.telemetry.on_breaker(now, node_id, before, probing);
            self.fast_failovers += 1;
            self.telemetry.on_fast_failover(now, node_id);
            let fetch = self.db.fetch(now);
            let latency = fetch.completion() - now;
            self.telemetry
                .on_lookup(Some(node_id), LookupClass::Failover, latency);
            return (latency, false);
        }
        breaker.record_success(now);
        let after = breaker.state();
        self.telemetry.on_breaker(now, node_id, before, probing);
        self.telemetry.on_breaker(now, node_id, probing, after);
        let hit = {
            let node = self.tier.node_mut(node_id).expect("member node exists");
            node.store.get(key, now).is_some()
        };
        if hit {
            self.telemetry
                .on_lookup(Some(node_id), LookupClass::Hit, cache_latency);
            return (cache_latency, true);
        }
        // CacheScale path: retry on the secondary (retiring) nodes.
        if let Some(promoted) = self.try_secondary(key, node_id, now) {
            self.telemetry
                .on_lookup(Some(node_id), LookupClass::Hit, promoted);
            return (promoted, true);
        }
        // Miss: fetch from the database and fill the cache. A shed
        // fetch (database overloaded) returns no data: the client eats
        // the timeout and nothing is cached.
        let fetch = self.db.fetch(now);
        if fetch.is_served() {
            let size = self.keyspace.value_size(key);
            let node = self.tier.node_mut(node_id).expect("member node exists");
            let _ = node.store.set(key, size, now);
        }
        let latency = fetch.completion() - now + cache_latency;
        self.telemetry
            .on_lookup(Some(node_id), LookupClass::Miss, latency);
        (latency, false)
    }

    /// A lookup whose owner cannot answer. With the breaker closed the
    /// client blocks for its full `client_timeout` before going to the
    /// database (the fetch starts only once it gives up); with the breaker
    /// open it fails over immediately.
    fn failover(&mut self, node_id: NodeId, now: SimTime) -> SimTime {
        let timeout = self.tier.config().client_timeout;
        // Capture breaker state around each step so the trace sees every
        // edge (an open → half-open → open probe cycle is two events).
        // All breaker steps run on one map walk; the trace events are
        // emitted afterwards in the same order as before.
        let breaker = self.breaker(node_id);
        let before = breaker.state();
        let allowed = breaker.allows(now);
        let probing = breaker.state();
        let after = if allowed {
            breaker.record_failure(now);
            Some(breaker.state())
        } else {
            None
        };
        self.telemetry.on_breaker(now, node_id, before, probing);
        let charged = if let Some(after) = after {
            self.telemetry.on_breaker(now, node_id, probing, after);
            self.client_timeouts += 1;
            self.telemetry.on_client_timeout(now, node_id);
            timeout
        } else {
            self.fast_failovers += 1;
            self.telemetry.on_fast_failover(now, node_id);
            SimTime::ZERO
        };
        let fetch = self.db.fetch(now + charged);
        fetch.completion() - now
    }

    #[inline]
    fn breaker(&mut self, node_id: NodeId) -> &mut CircuitBreaker {
        let config = self.tier.config().breaker;
        self.breakers
            .get_or_insert_with(node_id, || CircuitBreaker::new(config))
    }

    fn try_secondary(&mut self, key: KeyId, primary: NodeId, now: SimTime) -> Option<SimTime> {
        let ring = self.secondary.as_ref()?;
        let sec_node = ring.node_for(key)?;
        if sec_node == primary {
            return None;
        }
        let item = {
            let node = self.tier.node_mut(sec_node).ok()?;
            if !node.is_reachable(now) {
                return None;
            }
            node.store.get(key, now)?
        };
        self.secondary_hits += 1;
        // Promote: move the pair to the primary node (CacheScale migration).
        let moved = {
            let node = self.tier.node_mut(sec_node).expect("checked above");
            node.store.delete(key)
        };
        if moved {
            let node = self.tier.node_mut(primary).expect("member node exists");
            if node.is_online() && node.store.set(key, item.value_size, now).is_ok() {
                self.promoted += 1;
            }
        }
        // Two cache hops: primary miss + secondary hit.
        Some(self.mc_latency() + self.mc_latency())
    }

    /// Arms the CacheScale secondary ring (the pre-scaling membership whose
    /// retiring nodes act as a secondary cache).
    pub fn arm_secondary(&mut self, ring: HashRing) {
        self.secondary = Some(ring);
    }

    /// Disarms the secondary ring (CacheScale's discard step).
    pub fn disarm_secondary(&mut self) {
        self.secondary = None;
    }

    /// Whether a secondary ring is armed.
    pub fn secondary_armed(&self) -> bool {
        self.secondary.is_some()
    }

    /// Items promoted from secondary to primary (CacheScale metric).
    pub fn promoted(&self) -> u64 {
        self.promoted
    }

    /// Secondary-cache hits (CacheScale metric).
    pub fn secondary_hits(&self) -> u64 {
        self.secondary_hits
    }

    /// Lookups that paid the full `client_timeout` against an unreachable
    /// node.
    pub fn client_timeouts(&self) -> u64 {
        self.client_timeouts
    }

    /// Lookups that failed over to the database immediately because the
    /// node's breaker was open.
    pub fn fast_failovers(&self) -> u64 {
        self.fast_failovers
    }

    /// Total breaker state transitions across all nodes (flap metric).
    pub fn breaker_transitions(&self) -> u64 {
        self.breakers.values().map(|b| b.transitions()).sum()
    }

    /// The breaker state for one node, if any request ever touched it.
    pub fn breaker_state(&self, node_id: NodeId) -> Option<BreakerState> {
        self.breakers.get(node_id).map(|b| b.state())
    }

    /// Pre-fills caches by directly setting keys on their current owners
    /// (used to start experiments warm, like the paper's steady state).
    ///
    /// Above [`PREFILL_FANOUT_MIN`] keys (and `par_jobs() > 1`) the fill
    /// fans out one worker per owning node: ring lookups are a parallel
    /// pure map, timestamps are assigned in one serial pass in global key
    /// order (exactly the serial loop's assignment), and each node's sets
    /// run in their original relative order against that node's own store
    /// — stores and their LRU clocks are per-node, so the final state is
    /// byte-identical to the serial fill at any worker count.
    pub fn prefill(&mut self, keys: impl Iterator<Item = KeyId>, start: SimTime) {
        let jobs = elmem_util::par::par_jobs();
        let keys: Vec<KeyId> = keys.collect();
        if jobs > 1 && keys.len() >= PREFILL_FANOUT_MIN {
            self.prefill_fanout(&keys, start, jobs);
            return;
        }
        let mut t = start;
        for key in keys {
            if let Some(node_id) = self.tier.node_for_key(key) {
                let size = self.keyspace.value_size(key);
                let node = self.tier.node_mut(node_id).expect("member node exists");
                if node.is_online() {
                    let _ = node.store.set(key, size, t);
                }
                t += SimTime::from_nanos(1);
            }
        }
    }

    /// The parallel prefill path: group `(key, timestamp)` per owning node
    /// serially, then fill every involved node's store concurrently
    /// (driven through the thread-safe concurrent facade, one worker per
    /// node, per-node order preserved).
    fn prefill_fanout(&mut self, keys: &[KeyId], start: SimTime, jobs: usize) {
        use elmem_store::{ConcurrentSlabStore, SlabStore, StoreConfig};

        // Owner lookup is a pure function of the ring — parallel map.
        let tier = &self.tier;
        let owners: Vec<Option<NodeId>> =
            elmem_util::par::par_map_indexed(jobs, keys, |_, &k| tier.node_for_key(k));

        // Serial pass: the timestamp sequence is identical to the serial
        // loop's (`t` advances only for owned keys, online or not), and
        // grouping preserves each node's relative set order.
        let mut t = start;
        let mut per_node: BTreeMap<NodeId, Vec<(KeyId, SimTime)>> = BTreeMap::new();
        for (&key, &owner) in keys.iter().zip(&owners) {
            if let Some(node_id) = owner {
                per_node.entry(node_id).or_default().push((key, t));
                t += SimTime::from_nanos(1);
            }
        }

        // Move each online node's store out (a one-page placeholder holds
        // the slot), fill all of them in parallel through the concurrent
        // facade, and reinstall in node order. The `Mutex<Option<_>>`
        // wrapper only ferries ownership into the worker; each store is
        // taken exactly once.
        type FillJob = (
            NodeId,
            std::sync::Mutex<Option<SlabStore>>,
            Vec<(KeyId, SimTime)>,
        );
        let mut work: Vec<FillJob> = Vec::new();
        for (node_id, items) in per_node {
            let node = self.tier.node_mut(node_id).expect("member node exists");
            if !node.is_online() {
                continue; // timestamps consumed above, sets skipped
            }
            let store = std::mem::replace(
                &mut node.store,
                SlabStore::new(StoreConfig::with_memory(elmem_util::ByteSize::PAGE)),
            );
            work.push((node_id, std::sync::Mutex::new(Some(store)), items));
        }
        let keyspace = &self.keyspace;
        let filled = elmem_util::par::par_map_indexed(jobs, &work, |_, (_, cell, items)| {
            let store = cell
                .lock()
                .expect("fill worker panicked")
                .take()
                .expect("each store is filled exactly once");
            let cstore = ConcurrentSlabStore::from_serial(store);
            for &(key, at) in items {
                let _ = cstore.set(key, keyspace.value_size(key), at);
            }
            cstore.into_serial()
        });
        for ((node_id, _, _), store) in work.into_iter().zip(filled) {
            self.tier
                .node_mut(node_id)
                .expect("member node exists")
                .store = store;
        }
    }

    fn mc_latency(&mut self) -> SimTime {
        // Exponential jitter around the configured mean (rate cached in
        // `mc_rate`).
        SimTime::from_secs_f64(self.latency_rng.next_exp(self.mc_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    fn cluster() -> Cluster {
        Cluster::new(
            ClusterConfig::small_test(),
            Keyspace::new(10_000, 0),
            DetRng::seed(1),
        )
    }

    fn req(arrival_ms: u64, keys: &[u64]) -> WebRequest {
        WebRequest {
            arrival: SimTime::from_millis(arrival_ms),
            keys: keys.iter().map(|&k| KeyId(k)).collect(),
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cluster();
        let first = c.handle(&req(0, &[1]));
        assert_eq!(first.hits, 0);
        assert_eq!(first.lookups, 1);
        let second = c.handle(&req(100, &[1]));
        assert_eq!(second.hits, 1);
        // Hits are much faster than DB misses.
        assert!(second.rt < first.rt);
    }

    #[test]
    fn rt_includes_web_overhead() {
        let mut c = cluster();
        c.prefill((0..10).map(KeyId), SimTime::ZERO);
        let out = c.handle(&req(10, &[1, 2, 3]));
        assert!(out.rt >= c.tier.config().web_overhead);
        assert_eq!(out.hits, 3);
    }

    #[test]
    fn miss_fills_cache_on_owner() {
        let mut c = cluster();
        let key = KeyId(77);
        let owner = c.tier.node_for_key(key).unwrap();
        c.handle(&req(0, &[77]));
        assert!(c.tier.node(owner).unwrap().store.contains(key));
    }

    #[test]
    fn prefill_makes_requests_hit() {
        let mut c = cluster();
        c.prefill((0..1000).map(KeyId), SimTime::ZERO);
        let out = c.handle(&req(1, &[5, 500, 999]));
        assert_eq!(out.hits, 3);
    }

    #[test]
    fn prefill_fanout_is_byte_identical_to_serial() {
        // Same key stream through the serial loop and the per-node fan-out
        // (forced directly, below the public threshold), with one node
        // offline to exercise the timestamp-consumed-but-set-skipped rule.
        let keys: Vec<KeyId> = (0..4000).rev().map(KeyId).collect();
        let start = SimTime::from_millis(3);

        let mut serial = cluster();
        serial.tier.power_off(&[NodeId(1)]);
        let mut t = start;
        for &key in &keys {
            if let Some(node_id) = serial.tier.node_for_key(key) {
                let size = serial.keyspace.value_size(key);
                let node = serial.tier.node_mut(node_id).unwrap();
                if node.is_online() {
                    let _ = node.store.set(key, size, t);
                }
                t += SimTime::from_nanos(1);
            }
        }

        for jobs in [2, 4] {
            let mut fanout = cluster();
            fanout.tier.power_off(&[NodeId(1)]);
            fanout.prefill_fanout(&keys, start, jobs);
            for node in serial.tier.membership().members() {
                let a = serial.tier.node(*node).unwrap().store.dump_metadata();
                let b = fanout.tier.node(*node).unwrap().store.dump_metadata();
                assert_eq!(a, b, "node {node:?} diverged at jobs={jobs}");
            }
        }
    }

    #[test]
    fn scale_in_without_migration_causes_misses() {
        let mut c = cluster();
        c.prefill((0..1000).map(KeyId), SimTime::ZERO);
        // Find keys owned by node 0.
        let owned: Vec<u64> = (0..1000)
            .filter(|&k| c.tier.node_for_key(KeyId(k)) == Some(NodeId(0)))
            .collect();
        assert!(!owned.is_empty());
        c.tier.immediate_scale_in(&[NodeId(0)]).unwrap();
        let out = c.handle(&req(1, &owned[..3.min(owned.len())]));
        assert_eq!(out.hits, 0, "keys formerly on node0 must now miss");
    }

    #[test]
    fn secondary_ring_promotes() {
        let mut c = cluster();
        c.prefill((0..2000).map(KeyId), SimTime::ZERO);
        let old_ring = c.tier.membership().ring().clone();
        // Retire node 0 from membership but keep it online (CacheScale).
        let victims: Vec<u64> = (0..2000)
            .filter(|&k| old_ring.node_for(KeyId(k)) == Some(NodeId(0)))
            .collect();
        c.tier.membership_remove_keep_online(&[NodeId(0)]).unwrap();
        c.arm_secondary(old_ring);
        let k = victims[0];
        let out = c.handle(&req(1, &[k]));
        assert_eq!(out.hits, 1, "secondary hit should count as hit");
        assert_eq!(c.promoted(), 1);
        // The item now lives on the primary owner.
        let new_owner = c.tier.node_for_key(KeyId(k)).unwrap();
        assert!(c.tier.node(new_owner).unwrap().store.contains(KeyId(k)));
        assert!(!c.tier.node(NodeId(0)).unwrap().store.contains(KeyId(k)));
    }

    #[test]
    fn disarm_secondary_stops_promotion() {
        let mut c = cluster();
        c.arm_secondary(c.tier.membership().ring().clone());
        assert!(c.secondary_armed());
        c.disarm_secondary();
        assert!(!c.secondary_armed());
    }

    #[test]
    fn empty_request_is_overhead_only() {
        let mut c = cluster();
        let out = c.handle(&req(0, &[]));
        assert_eq!(out.lookups, 0);
        assert_eq!(out.rt, c.tier.config().web_overhead);
    }

    /// A key owned by the given node, found by scanning key ids.
    fn key_on(c: &Cluster, node: NodeId) -> u64 {
        (0..10_000)
            .find(|&k| c.tier.node_for_key(KeyId(k)) == Some(node))
            .expect("some key hashes to the node")
    }

    #[test]
    fn crashed_node_lookup_pays_the_client_timeout() {
        let mut c = cluster();
        let k = key_on(&c, NodeId(0));
        c.tier.crash(NodeId(0)).unwrap();
        let (latency, hit) = c.lookup_and_fill(KeyId(k), SimTime::from_secs(1));
        assert!(!hit);
        assert!(
            latency >= c.tier.config().client_timeout,
            "dead-node lookup must cost at least the timeout, got {latency:?}"
        );
        assert_eq!(c.client_timeouts(), 1);
    }

    #[test]
    fn breaker_opens_and_failover_becomes_fast() {
        let mut c = cluster();
        let k = key_on(&c, NodeId(0));
        c.tier.crash(NodeId(0)).unwrap();
        let timeout = c.tier.config().client_timeout;
        let threshold = c.tier.config().breaker.threshold as u64;
        for i in 0..threshold {
            c.lookup_and_fill(KeyId(k), SimTime::from_secs(i));
        }
        assert_eq!(c.breaker_state(NodeId(0)), Some(BreakerState::Open));
        // Next lookup inside the cooldown: no timeout paid.
        let (latency, _) = c.lookup_and_fill(KeyId(k), SimTime::from_secs(threshold));
        assert!(latency < timeout, "open breaker must fail over fast");
        assert_eq!(c.fast_failovers(), 1);
        assert_eq!(c.client_timeouts(), threshold);
    }

    #[test]
    fn half_open_probe_closes_breaker_after_heal() {
        let mut c = cluster();
        let k = key_on(&c, NodeId(0));
        let cooldown = c.tier.config().breaker.cooldown;
        c.tier
            .node_mut(NodeId(0))
            .unwrap()
            .link
            .partition_until(SimTime::from_secs(2));
        for i in 0..3 {
            c.lookup_and_fill(KeyId(k), SimTime::from_millis(i));
        }
        assert_eq!(c.breaker_state(NodeId(0)), Some(BreakerState::Open));
        // Partition healed and cooldown elapsed: the probe succeeds.
        let probe_at = SimTime::from_secs(2) + cooldown;
        let (_, _) = c.lookup_and_fill(KeyId(k), probe_at);
        assert_eq!(c.breaker_state(NodeId(0)), Some(BreakerState::Closed));
        // Back to normal service afterwards.
        let (latency, _) = c.lookup_and_fill(KeyId(k), probe_at + SimTime::from_secs(1));
        assert!(latency < c.tier.config().client_timeout);
    }

    #[test]
    fn slow_link_stretches_hit_latency() {
        let mut c = cluster();
        c.prefill((0..1000).map(KeyId), SimTime::ZERO);
        let k = key_on(&c, NodeId(0));
        let (fast, hit) = c.lookup_and_fill(KeyId(k), SimTime::from_secs(1));
        assert!(hit);
        // Degrade the owner's NIC 50x: hits still land but cost more.
        c.tier
            .node_mut(NodeId(0))
            .unwrap()
            .link
            .apply_slowdown(50.0);
        let (slow, hit) = c.lookup_and_fill(KeyId(k), SimTime::from_secs(2));
        assert!(hit, "a slow link degrades, it does not kill");
        assert!(
            slow > fast * 5,
            "50x slowdown must be visible in hit latency ({fast:?} -> {slow:?})"
        );
    }
}
