//! The 3-phase migration (§III-D): metadata transfer, hotness comparison
//! (FuseCache), and data migration, with the per-phase cost model that
//! reproduces the paper's ~2-minute overhead breakdown (§V-B2).
//!
//! Scale-in: every retiring Agent hashes its keys against the *retained*
//! membership and ships `(key, timestamp)` metadata to the target nodes;
//! each retained Agent runs FuseCache per slab class over its own MRU dump
//! plus the incoming lists; the Master then directs the retiring nodes to
//! ship exactly the chosen KV pairs, which the retained nodes batch-import
//! (prepending/merging at the MRU head, evicting strictly colder items).
//!
//! Scale-out (§III-D4): each existing node ships the keys that hash to the
//! new nodes (≈ `1/(k+1)` of its keys); FuseCache is only needed if the
//! shipped set exceeds the new node's capacity.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use elmem_cluster::{CacheNode, CacheTier};
use elmem_hash::HashRing;
use elmem_sim::fault::FaultInjector;
use elmem_store::{
    ClassDump, ClassId, Hotness, ImportMode, ItemMeta, MetadataDump, KEY_BYTES, TIMESTAMP_BYTES,
};
use elmem_util::par::par_map_indexed;
use elmem_util::{ByteSize, ElmemError, NodeId, SimTime};
use serde::{Deserialize, Serialize};

use crate::fusecache::fusecache_instrumented;
use crate::journal::{
    JournalRecord, MasterPlan, MasterRecovery, MigrationJournal, MigrationKind, ReplayState,
    ShipmentManifest, ACK_DURABILITY_LAG,
};

/// Per-(target, class) inbound metadata lists, keyed by source node.
type InboundMap = HashMap<(NodeId, ClassId), Vec<(NodeId, Vec<ItemMeta>)>>;

/// CPU-side cost constants of the migration pipeline, calibrated so the
/// paper-scale deployment (≈4 M items migrated) lands on the §V-B2
/// breakdown: score ≈20 s, hash+dump ≈50 s, metadata transfer ≈70 s,
/// FuseCache <2 s, data transfer ≈45 s, import ≈80 s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationCosts {
    /// Nanoseconds to score one slab (median probe + message), per node.
    pub score_ns_per_slab: u64,
    /// Nanoseconds to hash + dump one item's metadata on a retiring node.
    pub dump_ns_per_item: u64,
    /// Nanoseconds of serialization pipeline (tar + ssh) per item during
    /// the metadata transfer, on top of the wire time.
    pub metadata_ns_per_item: u64,
    /// Nanoseconds per hotness comparison inside FuseCache.
    pub fusecache_ns_per_comparison: u64,
    /// Nanoseconds of serialization pipeline per item during the data
    /// transfer, on top of the wire time.
    pub data_ns_per_item: u64,
    /// Nanoseconds to set one migrated item into Memcached on the target.
    pub import_ns_per_item: u64,
}

impl Default for MigrationCosts {
    fn default() -> Self {
        // Calibrated against the §V-B2 breakdown at ≈4 M items migrated:
        // dump 50 s → 12.5 µs/item; metadata transfer 70 s → ~17 µs/item
        // (tar/ssh pipeline dominates the 21 B/item wire cost); data
        // migration 45 s → ~8 µs/item + wire; import 80 s → 20 µs/item;
        // scoring 20 s across ~40 slabs.
        MigrationCosts {
            score_ns_per_slab: 50_000_000, // 50 ms per slab (crawler pass)
            dump_ns_per_item: 12_500,
            metadata_ns_per_item: 17_000,
            fusecache_ns_per_comparison: 100,
            data_ns_per_item: 8_000,
            import_ns_per_item: 20_000,
        }
    }
}

/// Wall-clock breakdown of one migration, mirroring §V-B2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Scoring the nodes from their slab medians (§III-C).
    pub scoring: SimTime,
    /// Hashing keys + dumping timestamps on the sources (§III-D1).
    pub dump: SimTime,
    /// Shipping `(key, timestamp)` metadata over the network (§III-D1).
    pub metadata_transfer: SimTime,
    /// Running FuseCache on the destinations (§III-D2).
    pub fusecache: SimTime,
    /// Shipping the chosen KV pairs (§III-D3).
    pub data_transfer: SimTime,
    /// Batch-importing them into Memcached (§III-D3).
    pub import: SimTime,
}

impl PhaseBreakdown {
    /// Total migration wall-clock (phases are sequential, per §III-D).
    pub fn total(&self) -> SimTime {
        self.scoring
            + self.dump
            + self.metadata_transfer
            + self.fusecache
            + self.data_transfer
            + self.import
    }
}

/// Outcome of a migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// When the migration started.
    pub started: SimTime,
    /// When the last phase finished (= when the Master may flip membership).
    pub completed: SimTime,
    /// Per-phase wall-clock.
    pub phases: PhaseBreakdown,
    /// Items moved to retained/new nodes.
    pub items_migrated: u64,
    /// Bytes of KV data moved in phase 3.
    pub bytes_migrated: ByteSize,
    /// Bytes of metadata moved in phase 1.
    pub metadata_bytes: ByteSize,
    /// Items considered (dumped) on the sources.
    pub items_considered: u64,
    /// How the migration ended: ran to completion, or aborted by the
    /// supervisor on a fault or deadline.
    pub outcome: MigrationOutcome,
    /// Shipment attempts beyond the first (metadata + data phases),
    /// consumed from the [`RetryPolicy`] budget by injected drops.
    ///
    /// Database sheds during the post-commit refill storm do **not**
    /// count here — see `elmem_cluster::DbFetch::Shed`.
    pub transfer_retries: u32,
    /// Master crash/resume cycles the migration survived, in order
    /// (empty without Master faults). When non-empty, `completed` is
    /// **not** `started + phases.total()`: `phases` describes the final
    /// attempt only and the timeline includes restart downtime.
    pub resumes: Vec<ResumePoint>,
}

/// One Master crash the migration survived: when the Master died, when its
/// replacement took over, and the phase the crash interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResumePoint {
    /// When the Master crashed.
    pub crashed_at: SimTime,
    /// When the restarted Master finished replaying the journal and
    /// resumed the migration.
    pub resumed_at: SimTime,
    /// The phase the crash landed in.
    pub phase: MigrationPhase,
}

/// The three migration phases of §III-D, as the supervisor attributes
/// faults to them. The preliminary scoring + dump work is folded into
/// [`MigrationPhase::MetadataTransfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// §III-D1: dumping `(key, timestamp)` metadata and shipping it.
    MetadataTransfer,
    /// §III-D2: FuseCache on the destinations.
    HotnessComparison,
    /// §III-D3: shipping and importing the chosen KV pairs.
    DataMigration,
}

/// Why the supervisor aborted a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortCause {
    /// A retiring source died mid-flight.
    SourceCrashed(NodeId),
    /// A retained (or newly provisioned) destination died mid-flight.
    DestinationCrashed(NodeId),
    /// A phase overran its [`PhaseDeadlines`] budget.
    DeadlineExceeded,
    /// A shipment kept dropping until the retry budget ran out.
    TransferRetriesExhausted {
        /// The source whose shipment would not go through.
        source: NodeId,
        /// Attempts beyond the first that were made.
        attempts: u32,
    },
    /// The Master crashed mid-migration and its restart policy was
    /// [`MasterRecovery::Abort`] — the journal was abandoned instead of
    /// replayed.
    MasterCrashed,
}

impl AbortCause {
    /// The node whose crash caused the abort, if any.
    pub fn crashed_node(&self) -> Option<NodeId> {
        match self {
            AbortCause::SourceCrashed(n) | AbortCause::DestinationCrashed(n) => Some(*n),
            _ => None,
        }
    }
}

/// How a migration ended.
///
/// Aborting is a *handled* outcome, not an error: the report's `completed`
/// instant is when the Master gave up, partial phase-3 imports are kept
/// (they are strictly-hotter data already in place on healthy nodes), and
/// the Master falls back to committing the scaling without further
/// migration — excluding any crashed node from the retained membership.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MigrationOutcome {
    /// All three phases ran to the end.
    Completed,
    /// The supervisor aborted in `phase` because of `cause`.
    Aborted {
        /// The phase the fault landed in.
        phase: MigrationPhase,
        /// What went wrong.
        cause: AbortCause,
    },
}

impl MigrationOutcome {
    /// Whether the migration ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, MigrationOutcome::Completed)
    }

    /// The crashed node behind an abort, if that was the cause.
    pub fn crashed_node(&self) -> Option<NodeId> {
        match self {
            MigrationOutcome::Completed => None,
            MigrationOutcome::Aborted { cause, .. } => cause.crashed_node(),
        }
    }
}

/// Per-phase wall-clock budgets. `None` disables the check for that
/// phase; [`PhaseDeadlines::none`] (the default) supervises nothing, so
/// unsupervised migrations behave exactly as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseDeadlines {
    /// Budget for the metadata-transfer duration (excluding scoring+dump).
    pub metadata: Option<SimTime>,
    /// Budget for the FuseCache duration.
    pub hotness: Option<SimTime>,
    /// Budget for data transfer + import combined.
    pub data: Option<SimTime>,
}

impl PhaseDeadlines {
    /// No deadlines.
    pub fn none() -> Self {
        PhaseDeadlines::default()
    }
}

/// Bounded-exponential-backoff retry budget for dropped shipments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries allowed per shipment before aborting (beyond the first
    /// attempt).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub backoff_base: SimTime,
    /// Backoff ceiling.
    pub backoff_cap: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: SimTime::from_millis(500),
            backoff_cap: SimTime::from_secs(8),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): `base · 2^(a-1)`,
    /// capped.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(1).min(32);
        let ns = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64 << exp)
            .min(self.backoff_cap.as_nanos());
        SimTime::from_nanos(ns)
    }
}

/// Supervision context for a migration: deadlines, the retry budget, and
/// (optionally) the fault injector whose scheduled crashes and sampled
/// drops the supervisor consults. [`Supervision::none`] supervises
/// nothing.
#[derive(Debug)]
pub struct Supervision<'a> {
    /// Per-phase wall-clock budgets.
    pub deadlines: PhaseDeadlines,
    /// Retry budget for dropped shipments.
    pub retry: RetryPolicy,
    /// The experiment's fault injector, when faults are being injected.
    pub faults: Option<&'a mut FaultInjector>,
    /// Scheduled Master crashes and the restart/recovery policy. Only a
    /// journaled [`migrate`] consults it; the default plan never crashes.
    pub master: MasterPlan,
}

impl Supervision<'static> {
    /// No deadlines, default retries, no faults.
    pub fn none() -> Self {
        Supervision {
            deadlines: PhaseDeadlines::none(),
            retry: RetryPolicy::default(),
            faults: None,
            master: MasterPlan::default(),
        }
    }
}

impl<'a> Supervision<'a> {
    /// Supervision against `injector` with default deadlines/retries.
    pub fn with_faults(injector: &'a mut FaultInjector) -> Self {
        Supervision {
            deadlines: PhaseDeadlines::none(),
            retry: RetryPolicy::default(),
            faults: Some(injector),
            master: MasterPlan::default(),
        }
    }

    /// When `node` crashes strictly before `end`, if ever.
    pub(crate) fn crash_before(&self, node: NodeId, end: SimTime) -> Option<SimTime> {
        self.faults
            .as_ref()
            .and_then(|f| f.crash_time(node))
            .filter(|&t| t < end)
    }

    fn sample_metadata_drop(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|f| f.sample_metadata_drop())
    }

    fn sample_transfer_drop(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|f| f.sample_transfer_drop())
    }
}

/// What one [`migrate`] call moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationRequest<'a> {
    /// The 3-phase scale-in (§III-D): drain `retiring` onto the retained
    /// members, which merge the FuseCache-chosen items per `import`
    /// (ElMem uses `Merge`).
    ScaleIn {
        /// The members being retired.
        retiring: &'a [NodeId],
        /// How the destinations merge migrated items.
        import: ImportMode,
    },
    /// The scale-out (§III-D4): every member ships the keys that hash to
    /// `new_nodes` under the expanded membership. The new nodes must
    /// already be provisioned (online, outside the membership).
    ScaleOut {
        /// The provisioned nodes being filled.
        new_nodes: &'a [NodeId],
    },
}

impl<'a> MigrationRequest<'a> {
    /// The nodes being retired or added.
    fn nodes(&self) -> &'a [NodeId] {
        match *self {
            MigrationRequest::ScaleIn { retiring, .. } => retiring,
            MigrationRequest::ScaleOut { new_nodes } => new_nodes,
        }
    }

    fn kind(&self) -> MigrationKind {
        match self {
            MigrationRequest::ScaleIn { .. } => MigrationKind::ScaleIn,
            MigrationRequest::ScaleOut { .. } => MigrationKind::ScaleOut,
        }
    }

    fn validate(&self, tier: &CacheTier) -> Result<(), ElmemError> {
        match *self {
            MigrationRequest::ScaleIn { retiring, .. } => {
                validate_retiring(tier.membership().members(), retiring)
            }
            MigrationRequest::ScaleOut { new_nodes } => validate_scale_out(tier, new_nodes),
        }
    }
}

// ---------------------------------------------------------------------------
// Planning fast path
//
// The migration *plan* — which items each retiring source ships to which
// (destination, class) cell — is a pure function of the tier: dump + route
// per source, then one FuseCache selection per cell. Both stages fan out
// over `elmem_util::par::par_map_indexed` and reassemble in input order
// (sources in retiring order, cells in sorted (target, class) order), so
// the plan is byte-identical to a serial pass whatever the worker count.
// The serial per-source link scheduling / fault sampling stays in the
// supervised executor: link state and drop sampling are order-sensitive.
// ---------------------------------------------------------------------------

/// Worker threads used by the migration planner; 0 = resolve automatically.
static PLANNING_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Environment variable overriding the automatic planner worker count.
pub const MIGRATION_JOBS_ENV: &str = "ELMEM_MIGRATION_JOBS";

/// Sets the planner's worker-thread count process-wide (0 = automatic:
/// [`MIGRATION_JOBS_ENV`], else all cores). The plan is byte-identical
/// whatever the count — this knob trades threads for wall-clock only.
pub fn set_planning_jobs(jobs: usize) {
    PLANNING_JOBS.store(jobs, Ordering::Relaxed);
}

fn auto_planning_jobs() -> usize {
    match PLANNING_JOBS.load(Ordering::Relaxed) {
        0 => std::env::var(MIGRATION_JOBS_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&j: &usize| j >= 1)
            .unwrap_or_else(rayon::current_num_threads),
        n => n,
    }
}

/// Below this many items an automatically-parallelized stage stays on the
/// no-thread serial path: the tiers in unit tests and small sweep cells
/// migrate faster than worker threads spawn.
const PAR_MIN_ITEMS: u64 = 32_768;

/// The planner's jobs rule for one stage over `items` items: an explicit
/// `jobs` is used as is; `0` resolves automatically and keeps stages under
/// [`PAR_MIN_ITEMS`] on the serial path.
fn stage_jobs(jobs: usize, items: u64) -> usize {
    match jobs {
        0 if items < PAR_MIN_ITEMS => 1,
        0 => auto_planning_jobs(),
        n => n,
    }
}

/// One planned phase-3 shipment: the `take` hottest of the items a source
/// routed to one (target, class) cell.
///
/// The items vector is *moved* out of the phase-1 routing result and the
/// chosen subset exposed as a prefix borrow — the plan holds index ranges
/// into the dump rather than cloned sub-vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Shipment {
    /// Monotone sequence number within the migration's sealed plan — the
    /// identity the journal acks and the destination's import ledger
    /// dedups on.
    pub seq: u64,
    /// The retiring node shipping the items.
    pub source: NodeId,
    /// The retained node importing them.
    pub target: NodeId,
    /// The slab class they belong to.
    pub class: ClassId,
    items: Vec<ItemMeta>,
    take: usize,
    /// Content checksum over the chosen items, sealed at plan time.
    checksum: u64,
}

impl Shipment {
    /// Seals the `take`-item prefix of `items` as one shipment.
    fn sealed(
        seq: u64,
        (source, target, class): (NodeId, NodeId, ClassId),
        items: Vec<ItemMeta>,
        take: usize,
    ) -> Self {
        let checksum = shipment_checksum(&items[..take]);
        Shipment {
            seq,
            source,
            target,
            class,
            items,
            take,
            checksum,
        }
    }

    /// The journal's durable description of this shipment: enough to
    /// reconstruct and verify it from a fresh source dump on resume.
    pub fn manifest(&self) -> ShipmentManifest {
        ShipmentManifest {
            seq: self.seq,
            source: self.source,
            target: self.target,
            class: self.class,
            take: self.take,
            checksum: self.checksum,
        }
    }

    /// The chosen items (hottest-first prefix of the routed list).
    pub fn items(&self) -> &[ItemMeta] {
        &self.items[..self.take]
    }

    /// Number of chosen items.
    pub fn len(&self) -> usize {
        self.take
    }

    /// Whether nothing was chosen.
    pub fn is_empty(&self) -> bool {
        self.take == 0
    }

    /// The content checksum sealed when the shipment was planned.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the checksum over the current contents and compares it
    /// against the sealed one — the end-to-end integrity check the chaos
    /// engine runs at import time (DESIGN.md §12). Any mutation of the
    /// item prefix between planning and import is caught here.
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvariantViolation`] on mismatch.
    pub fn verify_content(&self) -> Result<(), ElmemError> {
        let fresh = shipment_checksum(self.items());
        if fresh != self.checksum {
            return Err(ElmemError::InvariantViolation(format!(
                "shipment {}→{} {}: content checksum {fresh:#018x} != sealed {:#018x}",
                self.source, self.target, self.class, self.checksum
            )));
        }
        Ok(())
    }
}

/// FNV-1a over every field of every item, in shipment order. Pure content
/// hash: two shipments with the same items in the same order collide by
/// construction.
pub fn shipment_checksum(items: &[ItemMeta]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for item in items {
        mix(item.key.0);
        mix(u64::from(item.value_size));
        mix(item.last_access.as_nanos());
        mix(item.expires.as_nanos());
    }
    h
}

/// Statistics from a [`plan_scale_in_shipments`] planning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Items dumped on the retiring sources (phase-1 metadata volume).
    pub items_considered: u64,
    /// (destination, class) FuseCache cells compared.
    pub cells: usize,
    /// Hotness comparisons FuseCache performed across all cells.
    pub comparisons: u64,
}

/// Phase-1 routing result for one retiring source: its metadata dump
/// hashed against the retained ring.
struct RoutedSource {
    n_items: u64,
    per_target: HashMap<(NodeId, ClassId), Vec<ItemMeta>>,
}

/// Dumps every retiring source and hashes each item against the retained
/// ring — the pure part of phase 1 (§III-D1). The dump fan-out is
/// per-(source, **shard**), not per-source: a handful of large retiring
/// nodes still saturate every job, and the per-shard dumps are merged
/// back into each source's canonical dump (byte-identical to an unsharded
/// `dump_metadata`, DESIGN.md §14) before routing, so the plan is
/// invariant in both the shard count and the job count.
fn route_sources(
    tier: &CacheTier,
    retiring: &[NodeId],
    retained_ring: &HashRing,
    jobs: usize,
) -> Result<Vec<RoutedSource>, ElmemError> {
    // Phase 1a: one dump job per (retiring source, shard).
    let mut shard_jobs: Vec<(NodeId, usize)> = Vec::new();
    for &src in retiring {
        for si in 0..live_node(tier, src)?.store.shard_count() {
            shard_jobs.push((src, si));
        }
    }
    let parts: Vec<Vec<ClassDump>> = par_map_indexed(jobs, &shard_jobs, |_, &(src, si)| {
        Ok(live_node(tier, src)?.store.dump_shard_classes(si))
    })
    .into_iter()
    .collect::<Result<_, ElmemError>>()?;
    // Phase 1b: reassemble each source's canonical dump from its shard
    // slices, then hash it against the retained ring, parallel over
    // sources.
    let mut dumps: Vec<MetadataDump> = Vec::with_capacity(retiring.len());
    let mut cursor = 0;
    for &src in retiring {
        let store = &live_node(tier, src)?.store;
        let n = store.shard_count();
        dumps.push(store.merge_shard_dumps(&parts[cursor..cursor + n]));
        cursor += n;
    }
    par_map_indexed(jobs, &dumps, |_, dump| {
        let n_items = dump.total_items();
        let mut per_target: HashMap<(NodeId, ClassId), Vec<ItemMeta>> = HashMap::new();
        for class_dump in &dump.classes {
            for item in &class_dump.items {
                let target = retained_ring.node_for(item.key).ok_or_else(|| {
                    ElmemError::InconsistentMigration("retained ring is empty".to_string())
                })?;
                per_target
                    .entry((target, class_dump.class))
                    .or_default()
                    .push(*item);
            }
        }
        Ok(RoutedSource {
            n_items,
            per_target,
        })
    })
    .into_iter()
    .collect()
}

/// Phase 1's routing folded into FuseCache's inputs: per-source dump
/// sizes plus the inbound lists of every (target, class) cell.
struct Routed {
    /// Each retiring source with its dumped item count, in retiring order.
    sources: Vec<(NodeId, u64)>,
    /// (target, class) → (source, items) lists, sources in retiring order.
    inbound: InboundMap,
    /// The cells of `inbound`, sorted.
    dest_keys: Vec<(NodeId, ClassId)>,
    /// Items dumped across all sources.
    items_considered: u64,
}

/// Routes every retiring source ([`route_sources`], under the planner's
/// jobs rule) and folds the per-source lists into per-cell inbound lists.
fn route_inbound(tier: &CacheTier, retiring: &[NodeId], jobs: usize) -> Result<Routed, ElmemError> {
    let retained_ring = tier.membership().ring().without(retiring);
    let retiring_items: u64 = retiring
        .iter()
        .filter_map(|&id| tier.node(id).ok())
        .map(|n| n.store.len())
        .sum();
    let routed = route_sources(
        tier,
        retiring,
        &retained_ring,
        stage_jobs(jobs, retiring_items),
    )?;
    let mut out = Routed {
        sources: Vec::with_capacity(retiring.len()),
        inbound: HashMap::new(),
        dest_keys: Vec::new(),
        items_considered: 0,
    };
    for (&src, routed_src) in retiring.iter().zip(routed) {
        out.sources.push((src, routed_src.n_items));
        out.items_considered += routed_src.n_items;
        for ((target, class), items) in routed_src.per_target {
            out.inbound
                .entry((target, class))
                .or_default()
                .push((src, items));
        }
    }
    out.dest_keys = out.inbound.keys().copied().collect();
    out.dest_keys.sort_unstable();
    Ok(out)
}

/// One FuseCache work unit: the inbound source lists one (target, class)
/// destination cell compares against its own MRU list.
struct PlanCell {
    target: NodeId,
    class: ClassId,
    sources: Vec<(NodeId, Vec<ItemMeta>)>,
}

/// Runs one cell's FuseCache selection (§III-D2): how many items the
/// destination accepts from each source. Pure: reads the tier only.
fn fuse_cell(tier: &CacheTier, cell: &PlanCell) -> Result<(Vec<usize>, u64), ElmemError> {
    let dest_store = &live_node(tier, cell.target)?.store;
    // Capacity for this class on the destination, in items: the retained
    // node's own list length n (FuseCache picks the top n across its own
    // list + incoming, per §IV-A).
    let own: Vec<Hotness> = dest_store
        .dump_class(cell.class)
        .items
        .iter()
        .map(|i| i.hotness())
        .collect();
    let n = own.len().max(
        // An empty class on the destination can still grow: allow as
        // many items as one page of chunks as a floor.
        dest_store.classes().chunks_per_page(cell.class) as usize,
    );
    let mut lists: Vec<Vec<Hotness>> = Vec::with_capacity(cell.sources.len() + 1);
    lists.push(own);
    for (_, items) in &cell.sources {
        lists.push(items.iter().map(|i| i.hotness()).collect());
    }
    let refs: Vec<&[Hotness]> = lists.iter().map(|l| l.as_slice()).collect();
    let (picks, stats) = fusecache_instrumented(&refs, n);
    Ok((picks, stats.comparisons))
}

/// The phase-2 output: the shipment plan plus the comparison counts the
/// cost model charges per destination.
struct CellOutcome {
    plan: Vec<Shipment>,
    per_dest_comparisons: HashMap<NodeId, u64>,
    comparisons: u64,
}

/// Converts routed inbound lists into the phase-3 shipment plan: one
/// FuseCache selection per (target, class) cell, fanned out under the
/// planner's jobs rule, results reassembled in `dest_keys` (sorted) order
/// so the plan is byte-identical to a serial pass. Each cell's chosen
/// items are moved — not cloned — into the plan.
fn build_shipments(
    tier: &CacheTier,
    routed: Routed,
    jobs: usize,
) -> Result<CellOutcome, ElmemError> {
    let Routed {
        mut inbound,
        dest_keys,
        items_considered,
        ..
    } = routed;
    let cells: Vec<PlanCell> = dest_keys
        .iter()
        .map(|&(target, class)| {
            let sources = inbound.remove(&(target, class)).ok_or_else(|| {
                ElmemError::InconsistentMigration(format!(
                    "no inbound lists for destination cell ({target}, {class})"
                ))
            })?;
            Ok(PlanCell {
                target,
                class,
                sources,
            })
        })
        .collect::<Result<_, ElmemError>>()?;
    let picks = par_map_indexed(stage_jobs(jobs, items_considered), &cells, |_, cell| {
        fuse_cell(tier, cell)
    });
    let mut outcome = CellOutcome {
        plan: Vec::new(),
        per_dest_comparisons: HashMap::new(),
        comparisons: 0,
    };
    // Reassembly: cells in sorted (target, class) order, sources within a
    // cell in retiring order — the exact order the serial code produced.
    for (cell, result) in cells.into_iter().zip(picks) {
        let (picks, comparisons) = result?;
        *outcome.per_dest_comparisons.entry(cell.target).or_default() += comparisons;
        outcome.comparisons += comparisons;
        // picks[0] is the destination's own list; picks[1..] map to sources.
        for (si, (source, items)) in cell.sources.into_iter().enumerate() {
            let pick = picks.get(si + 1).copied().ok_or_else(|| {
                ElmemError::InconsistentMigration(format!(
                    "FuseCache returned {} picks for {} source lists on ({}, {})",
                    picks.len(),
                    si + 1,
                    cell.target,
                    cell.class
                ))
            })?;
            let take = pick.min(items.len());
            if take > 0 {
                let seq = outcome.plan.len() as u64;
                let cell_id = (source, cell.target, cell.class);
                outcome
                    .plan
                    .push(Shipment::sealed(seq, cell_id, items, take));
            }
        }
    }
    Ok(outcome)
}

/// The migration *planning* pipeline alone — §III-D1's dump + routing and
/// §III-D2's FuseCache selection — without mutating the tier, charging
/// simulated time, or shipping anything: the pure function the data-plane
/// benchmark times and whose parallel/serial byte-identity the tests pin.
/// A scale-in [`migrate`] plans through the same routing and FuseCache
/// stages, so its sealed plan equals this one.
///
/// `jobs` is the worker-thread count for both stages; `0` resolves
/// automatically ([`set_planning_jobs`], else [`MIGRATION_JOBS_ENV`], else
/// all cores) and applies a work-size threshold so tiny migrations stay on
/// the no-thread serial path. The returned plan is byte-identical
/// whatever `jobs` is.
///
/// # Errors
///
/// Same validation as [`migrate`] with [`MigrationRequest::ScaleIn`].
pub fn plan_scale_in_shipments(
    tier: &CacheTier,
    retiring: &[NodeId],
    jobs: usize,
) -> Result<(Vec<Shipment>, PlanStats), ElmemError> {
    validate_retiring(tier.membership().members(), retiring)?;
    let routed = route_inbound(tier, retiring, jobs)?;
    let (items_considered, cells) = (routed.items_considered, routed.dest_keys.len());
    let outcome = build_shipments(tier, routed, jobs)?;
    let stats = PlanStats {
        items_considered,
        cells,
        comparisons: outcome.comparisons,
    };
    Ok((outcome.plan, stats))
}

/// Typed node access during migration: a member that cannot be reached
/// mid-flight surfaces as [`ElmemError::NodeUnavailable`] instead of a
/// panic.
fn live_node(tier: &CacheTier, id: NodeId) -> Result<&CacheNode, ElmemError> {
    tier.node(id).map_err(|_| ElmemError::NodeUnavailable(id.0))
}

fn live_node_mut(tier: &mut CacheTier, id: NodeId) -> Result<&mut CacheNode, ElmemError> {
    tier.node_mut(id)
        .map_err(|_| ElmemError::NodeUnavailable(id.0))
}

// ---------------------------------------------------------------------------
// The migration entry point and its crash-recoverable attempts (DESIGN.md §13)
//
// [`migrate`] runs *attempts* of a migration. Journaled, an attempt under a
// scheduled Master crash stops at the first boundary the crash precedes and
// returns [`ExecOutcome::Interrupted`]; `migrate` then truncates the
// journal to what was durable at the crash instant, replays it, and
// launches the next attempt — resuming from the sealed manifest when the
// crash landed after phase 2, or replanning from scratch when it landed
// earlier (phases 1–2 never mutate any store, so a pre-seal replan
// reproduces the identical plan from the unmutated sources). Unjournaled,
// no Master crash is consulted and the single attempt always runs to a
// terminal report.
// ---------------------------------------------------------------------------

/// Runs one migration to its terminal report: the one entry point for
/// ElMem's scale-in and scale-out (the Naive comparator has its own,
/// [`migrate_naive_scale_in`]).
///
/// Does **not** flip the membership — the caller commits the scaling at
/// `report.completed` (requests keep being served by the old membership
/// during the migration, exactly as in the paper).
///
/// A scale-in runs under `supervision`: per-phase deadlines, bounded
/// exponential-backoff retries for dropped shipments, and clean aborts
/// when a source or destination crashes mid-flight. On an abort the
/// function still returns `Ok`: the report's `outcome` is
/// [`MigrationOutcome::Aborted`] with the phase the fault landed in and
/// its cause, `completed` is the abort instant, and any phase-3 imports
/// already applied are **kept** (they are strictly-hotter data already on
/// healthy retained nodes). The caller — the Master — decides the
/// fallback: commit the scaling without further migration, excluding
/// crashed nodes from the retained membership. A scale-out draws nothing
/// from the fault injector.
///
/// With `journal = Some((journal, id))` the migration journals its
/// progress under job `id`, and a Master crash scheduled in
/// `supervision.master` interrupts the attempt; per the recovery policy
/// the Master then replays the journal and resumes from the last durable
/// point (or aborts). With no scheduled crashes the report and stores are
/// byte-for-byte those of an unjournaled run. With `None` the migration
/// runs one attempt, never consults `supervision.master`, and imports
/// bypass the destinations' import ledgers.
///
/// # Errors
///
/// * [`ElmemError::InvalidScaling`] if the node list is empty, a scale-in
///   would empty the membership, or a new node is already a member;
/// * [`ElmemError::UnknownNode`] if a retiring id is not a member or a new
///   node is not provisioned;
/// * [`ElmemError::NodeUnavailable`] if a node vanishes from the tier
///   mid-computation.
pub fn migrate(
    tier: &mut CacheTier,
    request: MigrationRequest<'_>,
    now: SimTime,
    costs: &MigrationCosts,
    supervision: &mut Supervision<'_>,
    mut journal: Option<(&mut MigrationJournal, u64)>,
) -> Result<MigrationReport, ElmemError> {
    // Validate before journaling Started: a rejected request never
    // existed as far as the journal is concerned.
    request.validate(tier)?;
    if let Some((journal, id)) = journal.as_mut() {
        journal.append(
            now,
            JournalRecord::Started {
                id: *id,
                kind: request.kind(),
                nodes: request.nodes().to_vec(),
                at: now,
            },
        );
    }
    let mut resumes: Vec<ResumePoint> = Vec::new();
    let mut resume: Option<ReplayState> = None;
    let mut attempt_start = now;
    loop {
        let ctl = ExecCtl {
            master_crash: supervision
                .master
                .next_crash_after(attempt_start)
                .filter(|_| journal.is_some()),
            journal: journal.as_mut().map(|(j, id)| (&mut **j, *id)),
            resume: resume.take(),
        };
        let outcome = match request {
            MigrationRequest::ScaleIn { retiring, import } => exec_scale_in(
                tier,
                retiring,
                attempt_start,
                costs,
                import,
                supervision,
                ctl,
            )?,
            MigrationRequest::ScaleOut { new_nodes } => {
                exec_scale_out(tier, new_nodes, attempt_start, costs, ctl)?
            }
        };
        let (at, phase) = match outcome {
            ExecOutcome::Done(mut report) => {
                // The report spans the whole journey: `started` is the
                // original trigger, `phases` the final attempt.
                report.started = now;
                report.resumes = resumes;
                if let Some((journal, id)) = journal {
                    let terminal = if report.outcome.is_completed() {
                        JournalRecord::Committed {
                            id,
                            at: report.completed,
                        }
                    } else {
                        JournalRecord::Aborted {
                            id,
                            at: report.completed,
                        }
                    };
                    journal.append(report.completed, terminal);
                }
                return Ok(report);
            }
            ExecOutcome::Interrupted { at, phase } => (at, phase),
        };
        let Some((journal, id)) = journal.as_mut() else {
            return Err(unjournaled_interrupt());
        };
        let id = *id;
        // The crash eats every record not yet durable at `at`.
        journal.discard_after(at);
        let resumed_at = at + supervision.master.restart_delay;
        resumes.push(ResumePoint {
            crashed_at: at,
            resumed_at,
            phase,
        });
        if supervision.master.recovery == MasterRecovery::Abort {
            journal.append(resumed_at, JournalRecord::Aborted { id, at: resumed_at });
            let cause = AbortCause::MasterCrashed;
            let mut report =
                Progress::new(now).report(resumed_at, MigrationOutcome::Aborted { phase, cause });
            report.resumes = resumes;
            return Ok(report);
        }
        resume = Some(journal.replay(id));
        journal.append(
            resumed_at,
            JournalRecord::Resumed {
                id,
                at: resumed_at,
                phase,
            },
        );
        attempt_start = resumed_at;
    }
}

fn unjournaled_interrupt() -> ElmemError {
    ElmemError::InconsistentMigration(
        "unjournaled migration cannot be interrupted by a Master crash".to_string(),
    )
}

/// Per-attempt execution control: the next scheduled Master crash, the
/// journal to append durable records to, and the replayed state when this
/// attempt is a resume. The default controls nothing.
#[derive(Default)]
struct ExecCtl<'j> {
    /// Next Master crash strictly after the attempt's start, if any.
    master_crash: Option<SimTime>,
    /// The journal and this migration's job id, when journaling.
    journal: Option<(&'j mut MigrationJournal, u64)>,
    /// Replayed journal state when resuming an interrupted migration.
    resume: Option<ReplayState>,
}

impl ExecCtl<'_> {
    /// The interruption of work inside `phase` that completes at
    /// `boundary`, if a Master crash is scheduled strictly before it.
    fn interrupt(&self, boundary: SimTime, phase: MigrationPhase) -> Option<ExecOutcome> {
        self.master_crash
            .filter(|&c| c < boundary)
            .map(|at| ExecOutcome::Interrupted { at, phase })
    }

    /// Appends a record (built from the job id) that becomes durable at
    /// `durable_at`. No-op without a journal.
    fn log(&mut self, durable_at: SimTime, record: impl FnOnce(u64) -> JournalRecord) {
        if let Some((journal, id)) = self.journal.as_mut() {
            journal.append(durable_at, record(*id));
        }
    }

    /// Journals that `phase` ended at `at`.
    fn phase_done(&mut self, phase: MigrationPhase, at: SimTime) {
        self.log(at, |id| JournalRecord::PhaseDone { id, phase, at });
    }

    /// Journals the sealed `plan` and the end of `phase`, both at `at`.
    fn seal(&mut self, at: SimTime, plan: &[Shipment], phase: MigrationPhase) {
        self.log(at, |id| JournalRecord::PlanSealed {
            id,
            at,
            manifest: plan.iter().map(Shipment::manifest).collect(),
        });
        self.phase_done(phase, at);
    }

    /// Imports a shipment that landed at `done` on its target, charges the
    /// import time of an applied one to `p`, and journals its ack. The
    /// journaled path goes through the target's import ledger, which
    /// suppresses a re-delivered shipment whose import already applied
    /// before a Master crash ate its ack.
    fn import(
        &mut self,
        tier: &mut CacheTier,
        shipment: &Shipment,
        mode: ImportMode,
        done: SimTime,
        ns_per_item: u64,
        p: &mut Progress,
    ) -> Result<(), ElmemError> {
        let node = live_node_mut(tier, shipment.target)?;
        let applied = match self.journal.as_ref().map(|(_, id)| *id) {
            Some(id) => node.import_shipment(
                id,
                shipment.seq,
                shipment.checksum(),
                shipment.class,
                shipment.items(),
                mode,
            )?,
            None => {
                node.store
                    .batch_import(shipment.class, shipment.items(), mode)?;
                true
            }
        };
        if applied {
            *p.import_ns.entry(shipment.target).or_default() += shipment.len() as u64 * ns_per_item;
        }
        // The ack becomes durable only after the WAL flush lag: a Master
        // crash inside the window re-delivers this shipment on resume and
        // the ledger suppresses the duplicate import.
        self.log(done + ACK_DURABILITY_LAG, |id| {
            JournalRecord::ShipmentAcked {
                id,
                seq: shipment.seq,
                at: done,
            }
        });
        Ok(())
    }
}

/// How one migration attempt ended.
enum ExecOutcome {
    /// The attempt ran to a terminal report (completed or fault-aborted).
    Done(MigrationReport),
    /// A Master crash at `at` interrupted the attempt inside `phase`.
    Interrupted { at: SimTime, phase: MigrationPhase },
}

/// The running totals of one migration attempt — every report, completed
/// or aborted, is built from them.
#[derive(Default)]
struct Progress {
    started: SimTime,
    phases: PhaseBreakdown,
    items_migrated: u64,
    bytes_migrated: ByteSize,
    metadata_bytes: ByteSize,
    items_considered: u64,
    transfer_retries: u32,
    /// Import CPU time charged per destination.
    import_ns: HashMap<NodeId, u64>,
}

impl Progress {
    fn new(started: SimTime) -> Self {
        Progress {
            started,
            ..Progress::default()
        }
    }

    /// The import phase's wall-clock: destinations import in parallel, so
    /// the busiest one sets it.
    fn import_time(&self) -> SimTime {
        SimTime::from_nanos(self.import_ns.values().copied().max().unwrap_or(0))
    }

    /// The report of an attempt that ended at `at` (never before
    /// `started`).
    fn report(&self, at: SimTime, outcome: MigrationOutcome) -> MigrationReport {
        MigrationReport {
            started: self.started,
            completed: at.max(self.started),
            phases: self.phases,
            items_migrated: self.items_migrated,
            bytes_migrated: self.bytes_migrated,
            metadata_bytes: self.metadata_bytes,
            items_considered: self.items_considered,
            outcome,
            transfer_retries: self.transfer_retries,
            resumes: Vec::new(),
        }
    }

    /// The terminal outcome of an attempt the supervisor aborted at `at`.
    fn abort(&self, at: SimTime, phase: MigrationPhase, cause: AbortCause) -> ExecOutcome {
        ExecOutcome::Done(self.report(at, MigrationOutcome::Aborted { phase, cause }))
    }

    /// The terminal outcome of an attempt whose phases all ran.
    fn completed(&self) -> ExecOutcome {
        let at = self.started + self.phases.total();
        ExecOutcome::Done(self.report(at, MigrationOutcome::Completed))
    }
}

/// Which phase a fault time falls in, given the phase boundaries.
fn phase_of(t: SimTime, phase1_end: SimTime, phase2_end: SimTime) -> MigrationPhase {
    if t < phase1_end {
        MigrationPhase::MetadataTransfer
    } else if t < phase2_end {
        MigrationPhase::HotnessComparison
    } else {
        MigrationPhase::DataMigration
    }
}

/// Rebuilds a sealed shipment plan from freshly routed source dumps.
///
/// Sources are never mutated before the scale-in commits, so re-routing
/// their dumps reproduces the exact item lists FuseCache chose prefixes
/// from; each sealed `take` prefix must then hash to the sealed checksum.
/// Any divergence means the world changed under the journal — an
/// [`ElmemError::InconsistentMigration`], never a silent re-plan.
fn reconstruct_shipments(
    mut inbound: InboundMap,
    manifest: &[ShipmentManifest],
) -> Result<Vec<Shipment>, ElmemError> {
    // Index the routed lists by the manifest's identity triple.
    let mut routed: HashMap<(NodeId, NodeId, ClassId), Vec<ItemMeta>> = HashMap::new();
    for ((target, class), lists) in inbound.drain() {
        for (source, items) in lists {
            routed.insert((source, target, class), items);
        }
    }
    let mut plan = Vec::with_capacity(manifest.len());
    for m in manifest {
        let items = routed
            .remove(&(m.source, m.target, m.class))
            .ok_or_else(|| {
                ElmemError::InconsistentMigration(format!(
                    "resume: no routed items for sealed shipment seq {} ({}→{} {})",
                    m.seq, m.source, m.target, m.class
                ))
            })?;
        if m.take > items.len() {
            return Err(ElmemError::InconsistentMigration(format!(
                "resume: sealed shipment seq {} takes {} of only {} routed items",
                m.seq,
                m.take,
                items.len()
            )));
        }
        let shipment = Shipment {
            seq: m.seq,
            source: m.source,
            target: m.target,
            class: m.class,
            items,
            take: m.take,
            checksum: m.checksum,
        };
        shipment.verify_content()?;
        plan.push(shipment);
    }
    Ok(plan)
}

/// One attempt of the supervised scale-in migration, interruptible by a
/// scheduled Master crash and resumable from replayed journal state (see
/// [`migrate`] for the fault semantics of a single uninterrupted attempt).
fn exec_scale_in(
    tier: &mut CacheTier,
    retiring: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    import_mode: ImportMode,
    supervision: &mut Supervision<'_>,
    mut ctl: ExecCtl<'_>,
) -> Result<ExecOutcome, ElmemError> {
    // A resume after the plan sealed is manifest-driven: partial imports
    // have already mutated the destinations, so FuseCache must not re-run.
    // The shipments are instead reconstructed from a fresh source dump
    // (sources are never mutated before the commit) and verified against
    // the sealed checksums. A resume *before* the seal replans from
    // scratch — nothing was imported yet, so the replan is identical. A
    // post-seal attempt also skips drop sampling in phase 1: the retry
    // RNG draws belong to shipping, and a resumed pull re-reads the dump
    // rather than re-racing the injector.
    let resume = ctl.resume.take();
    let sealed: Option<Vec<ShipmentManifest>> = resume.as_ref().and_then(|st| st.manifest.clone());
    let acked: BTreeSet<u64> = resume.map(|st| st.acked).unwrap_or_default();

    let mut p = Progress::new(now);

    // §III-C scoring cost: every member node crawls its slabs for medians
    // (done in parallel across nodes; take the max = any node's cost).
    let mut max_slabs = 0u64;
    for &id in tier.membership().members() {
        let store = &live_node(tier, id)?.store;
        let slabs = store
            .classes()
            .ids()
            .filter(|&c| store.len_of_class(c) > 0)
            .count() as u64;
        max_slabs = max_slabs.max(slabs);
    }
    p.phases.scoring = SimTime::from_nanos(max_slabs * costs.score_ns_per_slab);

    // Phase 1 — dump + hash on each retiring node (§III-D1 already runs
    // the sources in parallel; here worker threads fan the routing out
    // when the volume warrants it, reassembled in retiring order so the
    // result is byte-identical to a serial pass), then ship metadata to
    // targets (per-source link, serialized, in retiring order — link
    // scheduling and drop sampling are order-sensitive, so shipping stays
    // serial). A dropped shipment is retried after a backoff; the retry
    // budget covers only these injected drops (not database sheds).
    let routed = route_inbound(tier, retiring, 0)?;
    let mut dump_max = SimTime::ZERO;
    let mut transfer_done = now;
    for &(src, n_items) in &routed.sources {
        p.items_considered += n_items;
        dump_max = dump_max.max(SimTime::from_nanos(n_items * costs.dump_ns_per_item));
        // Ship metadata over the source's NIC (tarball over ssh: one
        // serialized stream per source; the pipeline's per-item CPU cost
        // dominates the 21 B/item wire cost). Dump totals accumulate
        // source-by-source in this loop so an abort's partial report is
        // the same as when routing ran inline here.
        let bytes = ByteSize((KEY_BYTES + TIMESTAMP_BYTES) * n_items);
        p.metadata_bytes += bytes;
        let pipeline = SimTime::from_nanos(n_items * costs.metadata_ns_per_item);
        let mut attempt = 0u32;
        let mut submit_at = now;
        let done = loop {
            let completion = live_node_mut(tier, src)?
                .link
                .schedule_transfer(submit_at, bytes)
                + pipeline;
            if sealed.is_some() || !supervision.sample_metadata_drop() {
                break completion;
            }
            attempt += 1;
            p.transfer_retries += 1;
            if attempt >= supervision.retry.max_attempts {
                p.phases.dump = dump_max;
                p.phases.metadata_transfer = completion.saturating_sub(now);
                let cause = AbortCause::TransferRetriesExhausted {
                    source: src,
                    attempts: attempt,
                };
                return Ok(p.abort(completion, MigrationPhase::MetadataTransfer, cause));
            }
            submit_at = completion + supervision.retry.backoff(attempt);
        };
        transfer_done = transfer_done.max(done);
    }
    p.phases.dump = dump_max;
    p.phases.metadata_transfer = transfer_done.saturating_sub(now);
    let phase1_end = now + p.phases.scoring + p.phases.dump + p.phases.metadata_transfer;

    // Master-crash gate: a crash inside phase 1 interrupts the attempt
    // before this boundary's journal record ever becomes durable.
    if let Some(stop) = ctl.interrupt(phase1_end, MigrationPhase::MetadataTransfer) {
        return Ok(stop);
    }
    ctl.phase_done(MigrationPhase::MetadataTransfer, phase1_end);

    // Destinations, deterministic order (for the crash checks below).
    let mut dests: Vec<NodeId> = routed.dest_keys.iter().map(|&(t, _)| t).collect();
    dests.dedup();

    // A source or destination that dies before the metadata lands aborts
    // the migration in phase 1: its stream breaks and the Master gives up
    // at the crash instant.
    let crashed = retiring
        .iter()
        .find_map(|&src| {
            supervision
                .crash_before(src, phase1_end)
                .map(|t| (t, AbortCause::SourceCrashed(src)))
        })
        .or_else(|| {
            dests.iter().find_map(|&dest| {
                supervision
                    .crash_before(dest, phase1_end)
                    .map(|t| (t, AbortCause::DestinationCrashed(dest)))
            })
        });
    if let Some((t, cause)) = crashed {
        return Ok(p.abort(t, MigrationPhase::MetadataTransfer, cause));
    }
    if let Some(budget) = supervision.deadlines.metadata {
        if p.phases.metadata_transfer > budget {
            let at = now + p.phases.scoring + p.phases.dump + budget;
            let cause = AbortCause::DeadlineExceeded;
            return Ok(p.abort(at, MigrationPhase::MetadataTransfer, cause));
        }
    }

    // Phase 2 — FuseCache on each retained node, per class: how many items
    // to accept from each source. Runs in parallel across destinations
    // (worker threads too, when the volume warrants it); cost = max per
    // destination. The chosen items are moved out of the routed lists into
    // the plan — no cloning. On a manifest-driven resume FuseCache is
    // skipped entirely (the destinations already absorbed partial imports,
    // so re-comparing would pick a different plan): the sealed plan is
    // reconstructed from the freshly routed lists and checksum-verified.
    let (plan, phase2_end) = match &sealed {
        Some(manifest) => (reconstruct_shipments(routed.inbound, manifest)?, phase1_end),
        None => {
            let outcome = build_shipments(tier, routed, 0)?;
            p.phases.fusecache = SimTime::from_nanos(
                outcome
                    .per_dest_comparisons
                    .values()
                    .map(|&c| c * costs.fusecache_ns_per_comparison)
                    .max()
                    .unwrap_or(0),
            );
            (outcome.plan, phase1_end + p.phases.fusecache)
        }
    };

    // Master-crash gate at the phase-2 boundary: a crash here loses the
    // plan (it only seals at the boundary), so the resumed attempt
    // replans from scratch.
    if let Some(stop) = ctl.interrupt(phase2_end, MigrationPhase::HotnessComparison) {
        return Ok(stop);
    }
    if sealed.is_none() {
        ctl.seal(phase2_end, &plan, MigrationPhase::HotnessComparison);
    }

    // A destination dying during the comparison aborts in phase 2
    // (crashes before phase 1's end already returned above).
    let crashed = dests.iter().find_map(|&dest| {
        supervision
            .crash_before(dest, phase2_end)
            .map(|t| (t, AbortCause::DestinationCrashed(dest)))
    });
    if let Some((t, cause)) = crashed {
        return Ok(p.abort(t, MigrationPhase::HotnessComparison, cause));
    }
    if let Some(budget) = supervision.deadlines.hotness {
        if p.phases.fusecache > budget {
            let at = phase1_end + budget;
            let cause = AbortCause::DeadlineExceeded;
            return Ok(p.abort(at, MigrationPhase::HotnessComparison, cause));
        }
    }

    // Phase 3 — ship the chosen KV pairs (source links, serialized) and
    // batch-import on the destinations. Imports applied before an abort
    // are kept: they are strictly-hotter data already in place.
    let data_start = phase2_end;
    let mut data_done = data_start;
    for shipment in plan {
        let bytes = ByteSize(shipment.items().iter().map(|i| i.footprint()).sum());
        if acked.contains(&shipment.seq) {
            // Durably acked before the crash: the import already applied
            // on its destination. Count it toward the totals (so a
            // resumed report matches the uninterrupted one) but ship
            // nothing and charge no transfer or import time.
            p.bytes_migrated += bytes;
            p.items_migrated += shipment.len() as u64;
            continue;
        }
        let (src, target) = (shipment.source, shipment.target);
        let pipeline = SimTime::from_nanos(shipment.len() as u64 * costs.data_ns_per_item);
        let mut attempt = 0u32;
        let mut submit_at = data_start;
        let done = loop {
            let completion = live_node_mut(tier, src)?
                .link
                .schedule_transfer(submit_at, bytes)
                + pipeline;
            if !supervision.sample_transfer_drop() {
                break completion;
            }
            attempt += 1;
            p.transfer_retries += 1;
            if attempt >= supervision.retry.max_attempts {
                p.phases.data_transfer = completion.saturating_sub(data_start);
                p.phases.import = p.import_time();
                let cause = AbortCause::TransferRetriesExhausted {
                    source: src,
                    attempts: attempt,
                };
                return Ok(p.abort(completion, MigrationPhase::DataMigration, cause));
            }
            submit_at = completion + supervision.retry.backoff(attempt);
        };
        // Master-crash gate: the Master dies before this shipment lands,
        // so it never ships. Everything already imported stays (the
        // journaled `migrate` resumes; the unjournaled path never sees a
        // Master crash).
        if let Some(stop) = ctl.interrupt(done, MigrationPhase::DataMigration) {
            return Ok(stop);
        }
        // A source or destination dying before this shipment lands aborts
        // here, keeping everything already imported. The phase is the one
        // the crash time falls in (a node may die while idle in an
        // earlier window and only be detected at its next shipment).
        let crashed = supervision
            .crash_before(src, done)
            .map(|t| (t, AbortCause::SourceCrashed(src)))
            .or_else(|| {
                supervision
                    .crash_before(target, done)
                    .map(|t| (t, AbortCause::DestinationCrashed(target)))
            });
        if let Some((t, cause)) = crashed {
            p.phases.data_transfer = t.max(data_start).saturating_sub(data_start);
            p.phases.import = p.import_time();
            return Ok(p.abort(t, phase_of(t, phase1_end, phase2_end), cause));
        }
        data_done = data_done.max(done);
        // Apply the import (items are hottest-first within each source's
        // class list; the store re-sorts/merges as configured). The sealed
        // checksum proves the shipment arrives exactly as planned.
        shipment.verify_content()?;
        ctl.import(
            tier,
            &shipment,
            import_mode,
            done,
            costs.import_ns_per_item,
            &mut p,
        )?;
        p.bytes_migrated += bytes;
        p.items_migrated += shipment.len() as u64;
    }
    p.phases.data_transfer = data_done.saturating_sub(data_start);
    p.phases.import = p.import_time();

    // Master-crash gate at the final boundary: all data landed, but the
    // Master dies before recording completion — the resumed attempt
    // re-delivers only what the journal never durably acked.
    let completed = now + p.phases.total();
    if let Some(stop) = ctl.interrupt(completed, MigrationPhase::DataMigration) {
        return Ok(stop);
    }

    if let Some(budget) = supervision.deadlines.data {
        if p.phases.data_transfer + p.phases.import > budget {
            let at = data_start + budget;
            let cause = AbortCause::DeadlineExceeded;
            return Ok(p.abort(at, MigrationPhase::DataMigration, cause));
        }
    }

    ctl.phase_done(MigrationPhase::DataMigration, completed);
    Ok(p.completed())
}

/// Validates a scale-out request: the new nodes must be non-empty,
/// provisioned, and outside the current membership.
fn validate_scale_out(tier: &CacheTier, new_nodes: &[NodeId]) -> Result<(), ElmemError> {
    if new_nodes.is_empty() {
        return Err(ElmemError::InvalidScaling("no new nodes".to_string()));
    }
    let members = tier.membership().members();
    for id in new_nodes {
        if members.contains(id) {
            return Err(ElmemError::InvalidScaling(format!(
                "{id} is already a member"
            )));
        }
        tier.node(*id)?; // must be provisioned
    }
    Ok(())
}

/// One attempt of the scale-out migration (§III-D4): each existing member
/// hashes its keys against the expanded membership and ships whatever
/// lands on a new node. Under consistent hashing this is ~1/(k+1) of its
/// keys, which typically fits the new node outright.
fn exec_scale_out(
    tier: &mut CacheTier,
    new_nodes: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    ctl: ExecCtl<'_>,
) -> Result<ExecOutcome, ElmemError> {
    let expanded_ring = tier.membership().ring().with(new_nodes);
    let members = tier.membership().members().to_vec();
    exec_direct(
        tier,
        &members,
        now,
        costs,
        ImportMode::Merge,
        ctl,
        |class_dump| {
            let mut per_new: HashMap<NodeId, Vec<ItemMeta>> = HashMap::new();
            for item in &class_dump.items {
                let owner = expanded_ring.node_for(item.key).ok_or_else(|| {
                    ElmemError::InconsistentMigration("expanded ring is empty".to_string())
                })?;
                if new_nodes.contains(&owner) {
                    per_new.entry(owner).or_default().push(*item);
                }
            }
            Ok(per_new)
        },
    )
}

/// One attempt of a direct-ship migration — no FuseCache, every routed
/// item ships: the scale-out, and the Naive comparator's scale-in. Each
/// source dumps its metadata, `route` (the move builder) picks each
/// class's items per target, and the moves ship in (source, target, class)
/// order for the targets to import under `import_mode`. (In the rare case
/// a shipped set exceeds the target's capacity, the store's import evicts
/// the coldest overflow — equivalent to the paper's "run FuseCache to
/// determine the top pairs".)
///
/// Interruptible and resumable like [`exec_scale_in`]. Re-dumping on
/// resume is safe: imports land only on nodes that are not sources, so
/// the sources' dumps are untouched by a partially-executed plan. The
/// re-derived plan must still match the sealed manifest exactly.
fn exec_direct(
    tier: &mut CacheTier,
    sources: &[NodeId],
    now: SimTime,
    costs: &MigrationCosts,
    import_mode: ImportMode,
    mut ctl: ExecCtl<'_>,
    mut route: impl FnMut(&ClassDump) -> Result<HashMap<NodeId, Vec<ItemMeta>>, ElmemError>,
) -> Result<ExecOutcome, ElmemError> {
    let resume = ctl.resume.take();
    let sealed: Option<Vec<ShipmentManifest>> = resume.as_ref().and_then(|st| st.manifest.clone());
    let acked: BTreeSet<u64> = resume.map(|st| st.acked).unwrap_or_default();

    let mut p = Progress::new(now);
    let mut moves: Vec<((NodeId, NodeId, ClassId), Vec<ItemMeta>)> = Vec::new();
    for &src in sources {
        let dump = live_node(tier, src)?.store.dump_metadata();
        p.items_considered += dump.total_items();
        p.phases.dump = p.phases.dump.max(SimTime::from_nanos(
            dump.total_items() * costs.dump_ns_per_item,
        ));
        for class_dump in &dump.classes {
            for (target, items) in route(class_dump)? {
                moves.push(((src, target, class_dump.class), items));
            }
        }
    }
    let seal_at = now + p.phases.dump;

    // Master-crash gate before the plan seals: the resumed attempt
    // re-dumps and re-derives the identical plan.
    if let Some(stop) = ctl.interrupt(seal_at, MigrationPhase::MetadataTransfer) {
        return Ok(stop);
    }

    moves.sort_by_key(|(cell, _)| *cell); // deterministic
    let plan: Vec<Shipment> = moves
        .into_iter()
        .enumerate()
        .map(|(i, (cell, items))| {
            let take = items.len();
            Shipment::sealed(i as u64, cell, items, take)
        })
        .collect();
    match &sealed {
        Some(manifest) => {
            // The re-derived plan must reproduce the sealed one exactly
            // (same shipments, same contents — checksums included).
            if !plan
                .iter()
                .map(Shipment::manifest)
                .eq(manifest.iter().copied())
            {
                return Err(ElmemError::InconsistentMigration(
                    "resume: scale-out re-dump diverged from the sealed manifest".to_string(),
                ));
            }
        }
        None => {
            ctl.seal(seal_at, &plan, MigrationPhase::MetadataTransfer);
        }
    }

    let mut transfer_done = now;
    for shipment in plan {
        let bytes = ByteSize(shipment.items().iter().map(|i| i.footprint()).sum());
        p.bytes_migrated += bytes;
        p.items_migrated += shipment.len() as u64;
        if acked.contains(&shipment.seq) {
            // Durably acked before the crash: already imported on the
            // target; counted above, nothing ships.
            continue;
        }
        let done = live_node_mut(tier, shipment.source)?
            .link
            .schedule_transfer(seal_at, bytes);
        transfer_done = transfer_done.max(done);
        // Master-crash gate: the Master dies before this shipment lands.
        if let Some(stop) = ctl.interrupt(done, MigrationPhase::DataMigration) {
            return Ok(stop);
        }
        ctl.import(
            tier,
            &shipment,
            import_mode,
            done,
            costs.import_ns_per_item,
            &mut p,
        )?;
        // The source keeps its copy until the membership flips; after the
        // flip those keys hash to the target and the stale copies age out
        // of the source's LRU naturally (as in the real system).
    }
    p.phases.data_transfer = transfer_done.saturating_sub(seal_at);
    p.phases.import = p.import_time();

    let completed = now + p.phases.total();
    if let Some(stop) = ctl.interrupt(completed, MigrationPhase::DataMigration) {
        return Ok(stop);
    }
    ctl.phase_done(MigrationPhase::DataMigration, completed);
    Ok(p.completed())
}

/// The *Naive* comparator's migration (§V-B4): ships the hottest
/// `fraction` of each retiring node's items (assuming hotness distributions
/// are similar across nodes — no cross-node comparison), and the targets
/// import them through the ordinary `set` path. Never journaled.
///
/// Two deliberate differences from ElMem's migration, mirroring the paper:
///
/// * no FuseCache: the shipped amount ignores what actually fits hotter
///   than the residents;
/// * **recency corruption**: plain `set`s stamp every migrated item with a
///   fresh access time, so cold imports land *above* genuinely warm
///   residents in the MRU order. Until the LRU dynamics wash that out,
///   evictions keep hitting warm residents — which is why the paper's
///   Naive "continues to degrade well after the scaling event". (ElMem's
///   custom batch import preserves original timestamps, §III-D3.)
///
/// # Errors
///
/// Same validation as [`migrate`] with [`MigrationRequest::ScaleIn`];
/// also rejects `fraction` outside `[0, 1]`.
pub fn migrate_naive_scale_in(
    tier: &mut CacheTier,
    retiring: &[NodeId],
    fraction: f64,
    now: SimTime,
    costs: &MigrationCosts,
) -> Result<MigrationReport, ElmemError> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(ElmemError::InvalidConfig(format!(
            "naive fraction {fraction} outside [0, 1]"
        )));
    }
    validate_retiring(tier.membership().members(), retiring)?;
    let retained_ring = tier.membership().ring().without(retiring);
    let outcome = exec_direct(
        tier,
        retiring,
        now,
        costs,
        ImportMode::Prepend,
        ExecCtl::default(),
        |class_dump| {
            let take = (class_dump.items.len() as f64 * fraction).ceil() as usize;
            let mut per_target: HashMap<NodeId, Vec<ItemMeta>> = HashMap::new();
            for (i, item) in class_dump.items.iter().take(take).enumerate() {
                let target = retained_ring.node_for(item.key).ok_or_else(|| {
                    ElmemError::InconsistentMigration("retained ring is empty".to_string())
                })?;
                // Plain-`set` semantics: the import gets a fresh access
                // time (preserving only the shipment's internal order).
                let corrupted = ItemMeta {
                    last_access: now + SimTime::from_nanos((take - i) as u64),
                    ..*item
                };
                per_target.entry(target).or_default().push(corrupted);
            }
            Ok(per_target)
        },
    )?;
    match outcome {
        ExecOutcome::Done(report) => Ok(report),
        ExecOutcome::Interrupted { .. } => Err(unjournaled_interrupt()),
    }
}

fn validate_retiring(members: &[NodeId], retiring: &[NodeId]) -> Result<(), ElmemError> {
    if retiring.is_empty() {
        return Err(ElmemError::InvalidScaling("no retiring nodes".to_string()));
    }
    for id in retiring {
        if !members.contains(id) {
            return Err(ElmemError::UnknownNode(id.0));
        }
    }
    if retiring.len() >= members.len() {
        return Err(ElmemError::InvalidScaling(
            "cannot retire the whole tier".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_cluster::ClusterConfig;
    use elmem_util::KeyId;

    /// An unjournaled, unsupervised ElMem scale-in.
    fn scale_in(
        tier: &mut CacheTier,
        retiring: &[NodeId],
        now: SimTime,
        costs: &MigrationCosts,
    ) -> Result<MigrationReport, ElmemError> {
        let request = MigrationRequest::ScaleIn {
            retiring,
            import: ImportMode::Merge,
        };
        migrate(tier, request, now, costs, &mut Supervision::none(), None)
    }

    /// An unjournaled scale-out.
    fn scale_out(
        tier: &mut CacheTier,
        new_nodes: &[NodeId],
        now: SimTime,
        costs: &MigrationCosts,
    ) -> Result<MigrationReport, ElmemError> {
        let request = MigrationRequest::ScaleOut { new_nodes };
        migrate(tier, request, now, costs, &mut Supervision::none(), None)
    }

    /// Tier with node 0 coldest: keys 0..400 spread by ring, all touched;
    /// node 0's items get old timestamps.
    fn warmed_tier() -> (CacheTier, Vec<u64>) {
        let mut tier = CacheTier::new(ClusterConfig::small_test());
        let mut keys_on_0 = Vec::new();
        for k in 0..2000u64 {
            let owner = tier.node_for_key(KeyId(k)).unwrap();
            let t = if owner == NodeId(0) {
                keys_on_0.push(k);
                SimTime::from_secs(100 + k)
            } else {
                SimTime::from_secs(100_000 + k)
            };
            tier.node_mut(owner)
                .unwrap()
                .store
                .set(KeyId(k), 64, t)
                .unwrap();
        }
        (tier, keys_on_0)
    }

    #[test]
    fn scale_in_moves_items_to_correct_targets() {
        let (mut tier, keys_on_0) = warmed_tier();
        let report = scale_in(
            &mut tier,
            &[NodeId(0)],
            SimTime::from_secs(200_000),
            &MigrationCosts::default(),
        )
        .unwrap();
        assert!(report.items_migrated > 0);
        assert!(report.completed > report.started);
        // Migrated keys must sit on their retained-ring owner.
        let retained = tier.membership().ring().without(&[NodeId(0)]);
        let mut found = 0;
        for &k in &keys_on_0 {
            let target = retained.node_for(KeyId(k)).unwrap();
            if tier.node(target).unwrap().store.contains(KeyId(k)) {
                found += 1;
            }
        }
        assert!(found > 0, "no migrated key reached its target");
        assert_eq!(found, report.items_migrated);
    }

    #[test]
    fn migration_does_not_flip_membership() {
        let (mut tier, _) = warmed_tier();
        scale_in(
            &mut tier,
            &[NodeId(0)],
            SimTime::from_secs(200_000),
            &MigrationCosts::default(),
        )
        .unwrap();
        assert_eq!(tier.membership().len(), 4);
        assert!(tier.node(NodeId(0)).unwrap().is_online());
    }

    #[test]
    fn migrated_items_are_hotter_than_evicted() {
        let (mut tier, _) = warmed_tier();
        // Record pre-migration tail hotness on a retained node.
        let report = scale_in(
            &mut tier,
            &[NodeId(0)],
            SimTime::from_secs(200_000),
            &MigrationCosts::default(),
        )
        .unwrap();
        // Every class list on every retained node must still be sorted.
        for &id in tier.membership().members() {
            let store = &tier.node(id).unwrap().store;
            for class in store.classes().ids() {
                let dump = store.dump_class(class);
                for w in dump.items.windows(2) {
                    assert!(w[0].hotness() >= w[1].hotness());
                }
            }
        }
        assert!(report.phases.total() > SimTime::ZERO);
    }

    #[test]
    fn phase_breakdown_sums_to_completion() {
        let (mut tier, _) = warmed_tier();
        let start = SimTime::from_secs(200_000);
        let report = scale_in(&mut tier, &[NodeId(0)], start, &MigrationCosts::default()).unwrap();
        assert_eq!(report.completed, start + report.phases.total());
        assert!(report.metadata_bytes > ByteSize::ZERO);
        assert!(report.bytes_migrated > ByteSize::ZERO);
        assert!(report.items_considered >= report.items_migrated);
    }

    #[test]
    fn retiring_unknown_node_fails() {
        let (mut tier, _) = warmed_tier();
        assert!(scale_in(
            &mut tier,
            &[NodeId(77)],
            SimTime::ZERO,
            &MigrationCosts::default()
        )
        .is_err());
    }

    #[test]
    fn retiring_everything_fails() {
        let (mut tier, _) = warmed_tier();
        let all: Vec<NodeId> = tier.membership().members().to_vec();
        assert!(scale_in(&mut tier, &all, SimTime::ZERO, &MigrationCosts::default()).is_err());
    }

    #[test]
    fn scale_out_ships_remapped_keys() {
        let (mut tier, _) = warmed_tier();
        let new = tier.provision_nodes(1);
        let expanded = tier.membership().ring().with(&new);
        let report = scale_out(
            &mut tier,
            &new,
            SimTime::from_secs(200_000),
            &MigrationCosts::default(),
        )
        .unwrap();
        assert!(report.items_migrated > 0);
        // Every key that remaps to the new node and was cached must now be
        // on the new node.
        let new_store = &tier.node(new[0]).unwrap().store;
        assert_eq!(new_store.len(), report.items_migrated);
        for item in new_store.iter() {
            assert_eq!(expanded.node_for(item.key), Some(new[0]));
        }
        // Roughly 1/(k+1) = 1/5 of the 2000 cached keys.
        let frac = report.items_migrated as f64 / 2000.0;
        assert!((0.1..0.35).contains(&frac), "moved fraction {frac}");
    }

    #[test]
    fn scale_out_rejects_existing_member() {
        let (mut tier, _) = warmed_tier();
        assert!(scale_out(
            &mut tier,
            &[NodeId(0)],
            SimTime::ZERO,
            &MigrationCosts::default(),
        )
        .is_err());
    }

    #[test]
    fn scale_out_rejects_unprovisioned() {
        let (mut tier, _) = warmed_tier();
        assert!(scale_out(
            &mut tier,
            &[NodeId(50)],
            SimTime::ZERO,
            &MigrationCosts::default(),
        )
        .is_err());
    }

    #[test]
    fn costs_scale_phase_times() {
        let (mut t1, _) = warmed_tier();
        let (mut t2, _) = warmed_tier();
        let cheap = MigrationCosts::default();
        let costly = MigrationCosts {
            dump_ns_per_item: cheap.dump_ns_per_item * 10,
            ..cheap
        };
        let r1 = scale_in(&mut t1, &[NodeId(0)], SimTime::from_secs(200_000), &cheap).unwrap();
        let r2 = scale_in(&mut t2, &[NodeId(0)], SimTime::from_secs(200_000), &costly).unwrap();
        assert!(r2.phases.dump > r1.phases.dump);
    }

    // ---- supervision -----------------------------------------------------

    use elmem_sim::fault::FaultPlan;
    use elmem_util::DetRng;

    const NOW: SimTime = SimTime::from_secs(200_000);

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, DetRng::seed(42).split("faults"))
    }

    fn supervised_run(
        tier: &mut CacheTier,
        faults: &mut FaultInjector,
        deadlines: PhaseDeadlines,
    ) -> MigrationReport {
        let mut sup = Supervision::with_faults(faults);
        sup.deadlines = deadlines;
        let request = MigrationRequest::ScaleIn {
            retiring: &[NodeId(0)],
            import: ImportMode::Merge,
        };
        migrate(
            tier,
            request,
            NOW,
            &MigrationCosts::default(),
            &mut sup,
            None,
        )
        .unwrap()
    }

    #[test]
    fn unsupervised_outcome_is_completed() {
        let (mut tier, _) = warmed_tier();
        let report = scale_in(&mut tier, &[NodeId(0)], NOW, &MigrationCosts::default()).unwrap();
        assert!(report.outcome.is_completed());
        assert_eq!(report.transfer_retries, 0);
        assert_eq!(report.outcome.crashed_node(), None);
    }

    #[test]
    fn source_crash_in_phase1_aborts_without_imports() {
        let (mut tier, _) = warmed_tier();
        let crash_at = NOW + SimTime::from_millis(1);
        let mut inj = injector(FaultPlan::new().crash(crash_at, NodeId(0)));
        let report = supervised_run(&mut tier, &mut inj, PhaseDeadlines::none());
        assert_eq!(
            report.outcome,
            MigrationOutcome::Aborted {
                phase: MigrationPhase::MetadataTransfer,
                cause: AbortCause::SourceCrashed(NodeId(0)),
            }
        );
        assert_eq!(report.items_migrated, 0);
        assert_eq!(report.completed, crash_at);
        // The migration mutated no destination store.
        for id in [1u32, 2, 3] {
            let (fresh, _) = warmed_tier();
            assert_eq!(
                tier.node(NodeId(id)).unwrap().store.len(),
                fresh.node(NodeId(id)).unwrap().store.len()
            );
        }
    }

    #[test]
    fn destination_crash_in_phase3_keeps_partial_imports() {
        // Learn the fault-free phase boundaries first.
        let (mut probe, _) = warmed_tier();
        let clean = scale_in(&mut probe, &[NodeId(0)], NOW, &MigrationCosts::default()).unwrap();
        assert!(clean.phases.data_transfer > SimTime::ZERO);
        let data_start = NOW
            + clean.phases.scoring
            + clean.phases.dump
            + clean.phases.metadata_transfer
            + clean.phases.fusecache;
        // Crash the highest-numbered destination just inside the data
        // window: moves to lower-numbered destinations land first.
        let crash_at = data_start + SimTime::from_nanos(1);
        let (mut tier, _) = warmed_tier();
        let mut inj = injector(FaultPlan::new().crash(crash_at, NodeId(3)));
        let report = supervised_run(&mut tier, &mut inj, PhaseDeadlines::none());
        match report.outcome {
            MigrationOutcome::Aborted { phase, cause } => {
                assert_eq!(phase, MigrationPhase::DataMigration);
                assert_eq!(cause, AbortCause::DestinationCrashed(NodeId(3)));
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(
            report.items_migrated > 0,
            "imports to healthy destinations are kept"
        );
        assert!(report.items_migrated < clean.items_migrated);
        assert_eq!(report.completed, crash_at);
    }

    #[test]
    fn certain_drops_exhaust_retry_budget() {
        let (mut tier, _) = warmed_tier();
        let mut inj = injector(FaultPlan::new().drop_metadata_with_prob(1.0));
        let report = supervised_run(&mut tier, &mut inj, PhaseDeadlines::none());
        match report.outcome {
            MigrationOutcome::Aborted { phase, cause } => {
                assert_eq!(phase, MigrationPhase::MetadataTransfer);
                assert_eq!(
                    cause,
                    AbortCause::TransferRetriesExhausted {
                        source: NodeId(0),
                        attempts: RetryPolicy::default().max_attempts,
                    }
                );
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(report.transfer_retries, RetryPolicy::default().max_attempts);
        assert_eq!(report.items_migrated, 0);
        // Each failed attempt still burned link time.
        assert!(report.completed > NOW);
    }

    #[test]
    fn occasional_drops_retry_and_complete() {
        let (mut tier, _) = warmed_tier();
        let mut inj = injector(
            FaultPlan::new()
                .drop_metadata_with_prob(0.3)
                .drop_transfers_with_prob(0.15),
        );
        let report = supervised_run(&mut tier, &mut inj, PhaseDeadlines::none());
        // With these probabilities and a budget of 4 per shipment, the
        // seeded run completes after some retries.
        assert!(report.outcome.is_completed(), "{:?}", report.outcome);
        assert!(report.transfer_retries > 0);
        // Retries push the timeline out past the fault-free run.
        let (mut clean_tier, _) = warmed_tier();
        let clean = scale_in(
            &mut clean_tier,
            &[NodeId(0)],
            NOW,
            &MigrationCosts::default(),
        )
        .unwrap();
        assert!(report.completed > clean.completed);
    }

    #[test]
    fn metadata_deadline_aborts() {
        let (mut tier, _) = warmed_tier();
        let mut inj = injector(FaultPlan::new());
        let deadlines = PhaseDeadlines {
            metadata: Some(SimTime::from_nanos(1)),
            ..PhaseDeadlines::none()
        };
        let report = supervised_run(&mut tier, &mut inj, deadlines);
        assert_eq!(
            report.outcome,
            MigrationOutcome::Aborted {
                phase: MigrationPhase::MetadataTransfer,
                cause: AbortCause::DeadlineExceeded,
            }
        );
    }

    #[test]
    fn supervised_runs_are_deterministic() {
        let run = || {
            let (mut tier, _) = warmed_tier();
            let mut inj = injector(
                FaultPlan::new()
                    .crash(NOW + SimTime::from_secs(3), NodeId(2))
                    .drop_metadata_with_prob(0.4),
            );
            supervised_run(&mut tier, &mut inj, PhaseDeadlines::none())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.backoff(1), SimTime::from_millis(500));
        assert_eq!(retry.backoff(2), SimTime::from_secs(1));
        assert_eq!(retry.backoff(3), SimTime::from_secs(2));
        assert_eq!(retry.backoff(10), SimTime::from_secs(8));
        assert_eq!(retry.backoff(60), SimTime::from_secs(8));
    }

    // ---- crash-recoverable control plane (DESIGN.md §13) -----------------

    /// Every member's per-class item vectors, in deterministic order — the
    /// byte-level store state the resume invariants compare.
    fn fingerprint(tier: &CacheTier) -> Vec<(NodeId, ClassId, Vec<ItemMeta>)> {
        let mut members: Vec<NodeId> = tier.membership().members().to_vec();
        members.sort_unstable();
        let mut out = Vec::new();
        for id in members {
            let store = &tier.node(id).unwrap().store;
            for class in store.classes().ids() {
                out.push((id, class, store.dump_class(class).items));
            }
        }
        out
    }

    fn journaled_scale_in(
        tier: &mut CacheTier,
        master: MasterPlan,
        journal: &mut MigrationJournal,
    ) -> MigrationReport {
        let mut sup = Supervision::none();
        sup.master = master;
        let request = MigrationRequest::ScaleIn {
            retiring: &[NodeId(0)],
            import: ImportMode::Merge,
        };
        let costs = MigrationCosts::default();
        migrate(tier, request, NOW, &costs, &mut sup, Some((journal, 0))).unwrap()
    }

    #[test]
    fn journaled_run_without_crashes_matches_supervised() {
        let (mut a, _) = warmed_tier();
        let (mut b, _) = warmed_tier();
        let ra = scale_in(&mut a, &[NodeId(0)], NOW, &MigrationCosts::default()).unwrap();
        let mut journal = MigrationJournal::new();
        let rb = journaled_scale_in(&mut b, MasterPlan::default(), &mut journal);
        assert_eq!(ra, rb, "journaling must not perturb the migration");
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // The journal tells the full story and replays to a committed job.
        let st = journal.replay(0);
        assert!(st.committed);
        assert_eq!(st.resumes, 0);
        assert_eq!(
            st.acked.len(),
            st.manifest.as_ref().unwrap().len(),
            "every sealed shipment acked"
        );
    }

    #[test]
    fn scale_in_resumes_byte_identically_at_any_crash_point() {
        let (mut clean, _) = warmed_tier();
        let mut clean_journal = MigrationJournal::new();
        let clean_report =
            journaled_scale_in(&mut clean, MasterPlan::default(), &mut clean_journal);
        let want = fingerprint(&clean);
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        assert!(span > 0);

        let mut saw_suppressed_duplicate = false;
        for num in [1u64, 3, 5, 7, 9, 995, 999] {
            let crash = NOW + SimTime::from_nanos(span * num / 1000);
            let (mut tier, _) = warmed_tier();
            let mut journal = MigrationJournal::new();
            let report = journaled_scale_in(
                &mut tier,
                MasterPlan {
                    crashes: vec![crash],
                    ..MasterPlan::default()
                },
                &mut journal,
            );
            assert_eq!(report.outcome, MigrationOutcome::Completed);
            assert_eq!(report.resumes.len(), 1, "crash at {num}/1000");
            assert_eq!(report.resumes[0].crashed_at, crash);
            assert_eq!(report.started, NOW);
            assert_eq!(
                fingerprint(&tier),
                want,
                "resumed store state diverged (crash at {num}/1000)"
            );
            assert_eq!(report.items_migrated, clean_report.items_migrated);
            assert_eq!(report.bytes_migrated, clean_report.bytes_migrated);
            let st = journal.replay(0);
            assert!(st.committed);
            assert_eq!(st.resumes, 1);
            for id in tier.membership().members() {
                if tier
                    .node(*id)
                    .unwrap()
                    .import_ledger()
                    .duplicates_suppressed()
                    > 0
                {
                    saw_suppressed_duplicate = true;
                }
            }
        }
        assert!(
            saw_suppressed_duplicate,
            "no crash point exercised the ack-durability-lag re-delivery"
        );
    }

    #[test]
    fn resume_twice_equals_resume_once() {
        let (mut clean, _) = warmed_tier();
        let clean_report = journaled_scale_in(
            &mut clean,
            MasterPlan::default(),
            &mut MigrationJournal::new(),
        );
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        // First crash mid-flight; the second lands inside the *resumed*
        // attempt (which replays the tail after the 500 ms restart).
        let first = NOW + SimTime::from_nanos(span / 2);
        let second = first + SimTime::from_millis(500) + SimTime::from_nanos(span / 4);
        let (mut tier, _) = warmed_tier();
        let mut journal = MigrationJournal::new();
        let report = journaled_scale_in(
            &mut tier,
            MasterPlan {
                crashes: vec![first, second],
                ..MasterPlan::default()
            },
            &mut journal,
        );
        assert_eq!(report.outcome, MigrationOutcome::Completed);
        assert_eq!(report.resumes.len(), 2);
        assert_eq!(fingerprint(&tier), fingerprint(&clean));
        assert_eq!(report.items_migrated, clean_report.items_migrated);
        assert_eq!(journal.replay(0).resumes, 2);
    }

    #[test]
    fn abort_recovery_gives_up_with_master_crashed() {
        let (mut clean, _) = warmed_tier();
        let clean_report = journaled_scale_in(
            &mut clean,
            MasterPlan::default(),
            &mut MigrationJournal::new(),
        );
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        let crash = NOW + SimTime::from_nanos(span * 9 / 10);
        let (mut tier, _) = warmed_tier();
        let mut journal = MigrationJournal::new();
        let report = journaled_scale_in(
            &mut tier,
            MasterPlan {
                crashes: vec![crash],
                recovery: MasterRecovery::Abort,
                ..MasterPlan::default()
            },
            &mut journal,
        );
        assert_eq!(
            report.outcome,
            MigrationOutcome::Aborted {
                phase: MigrationPhase::DataMigration,
                cause: AbortCause::MasterCrashed,
            }
        );
        assert_eq!(report.completed, crash + SimTime::from_millis(500));
        assert_eq!(report.resumes.len(), 1);
        let st = journal.replay(0);
        assert!(st.aborted && !st.committed);
    }

    fn journaled_scale_out(
        tier: &mut CacheTier,
        new_nodes: &[NodeId],
        master: MasterPlan,
        journal: &mut MigrationJournal,
    ) -> MigrationReport {
        let mut sup = Supervision::none();
        sup.master = master;
        let request = MigrationRequest::ScaleOut { new_nodes };
        let costs = MigrationCosts::default();
        migrate(tier, request, NOW, &costs, &mut sup, Some((journal, 0))).unwrap()
    }

    #[test]
    fn scale_out_resumes_byte_identically() {
        let (mut clean, _) = warmed_tier();
        let new_clean = clean.provision_nodes(1);
        let mut clean_journal = MigrationJournal::new();
        let clean_report = journaled_scale_out(
            &mut clean,
            &new_clean,
            MasterPlan::default(),
            &mut clean_journal,
        );
        let span = clean_report.completed.saturating_sub(NOW).as_nanos();
        for num in [1u64, 500, 999] {
            let crash = NOW + SimTime::from_nanos(span * num / 1000);
            let (mut tier, _) = warmed_tier();
            let new = tier.provision_nodes(1);
            let mut journal = MigrationJournal::new();
            let report = journaled_scale_out(
                &mut tier,
                &new,
                MasterPlan {
                    crashes: vec![crash],
                    ..MasterPlan::default()
                },
                &mut journal,
            );
            assert_eq!(report.outcome, MigrationOutcome::Completed);
            assert_eq!(report.resumes.len(), 1);
            assert_eq!(
                tier.node(new[0]).unwrap().store.dump_metadata().classes,
                clean
                    .node(new_clean[0])
                    .unwrap()
                    .store
                    .dump_metadata()
                    .classes,
                "new node contents diverged (crash at {num}/1000)"
            );
            assert_eq!(report.items_migrated, clean_report.items_migrated);
        }
    }

    #[test]
    fn journal_records_tell_a_coherent_story() {
        let (mut tier, _) = warmed_tier();
        let mut journal = MigrationJournal::new();
        let report = journaled_scale_in(&mut tier, MasterPlan::default(), &mut journal);
        let labels: Vec<&str> = journal.entries().iter().map(|e| e.record.label()).collect();
        assert_eq!(labels.first(), Some(&"started"));
        assert_eq!(labels.last(), Some(&"committed"));
        assert!(labels.contains(&"plan_sealed"));
        assert!(labels.contains(&"shipment_acked"));
        // Round-trips through the JSON WAL format byte-identically.
        let json = journal.to_json();
        let back = MigrationJournal::parse_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
        assert_eq!(back.replay(0), journal.replay(0));
        assert!(report.resumes.is_empty());
    }
}
