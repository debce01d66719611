//! Property tests for the pipelined migration planner: the shipment plan
//! — contents, order, and stats — must be **byte-identical** whatever the
//! worker count, across arbitrary warm states, node counts, and retiring
//! sets; the full supervised migration (report and every surviving
//! store) must be unaffected by the planner's jobs knob; and the plan a
//! scale-in `migrate` seals must be the public planner's plan.

use elmem::cluster::{CacheTier, ClusterConfig};
use elmem::core::migration::{
    migrate, plan_scale_in_shipments, set_planning_jobs, MigrationCosts, MigrationRequest,
    Shipment, Supervision,
};
use elmem::core::{JournalRecord, MigrationJournal};
use elmem::store::{default_shard_count, ImportMode, MetadataDump};
use elmem::util::{KeyId, NodeId, SimTime};
use proptest::prelude::*;

/// A warm tier: each access `(key, extra)` sets the key at its ring owner
/// with value size `32 + extra` and a strictly increasing timestamp
/// (duplicates re-access, refreshing recency). Each store has `shards`
/// shards.
fn warm_tier(nodes: u32, shards: usize, accesses: &[(u64, u16)]) -> CacheTier {
    let mut cfg = ClusterConfig::small_test();
    cfg.initial_nodes = nodes;
    cfg.store_shards = shards;
    let mut tier = CacheTier::new(cfg);
    let mut now = SimTime::from_secs(1);
    for &(k, extra) in accesses {
        let key = KeyId(k);
        let owner = tier.node_for_key(key).unwrap();
        let _ = tier
            .node_mut(owner)
            .unwrap()
            .store
            .set(key, 32 + u32::from(extra), now);
        now += SimTime::from_secs(1);
    }
    tier
}

/// Every member's full metadata dump — the observable store state a
/// migration leaves behind (MRU order included).
fn tier_state(tier: &CacheTier) -> Vec<(NodeId, MetadataDump)> {
    tier.membership()
        .members()
        .iter()
        .map(|&id| (id, tier.node(id).unwrap().store.dump_metadata()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipelined_plan_is_byte_identical_to_serial(
        nodes in 3u32..8,
        accesses in prop::collection::vec((0u64..5000, 0u16..2000), 50..600),
        retire in 1usize..3,
    ) {
        let tier = warm_tier(nodes, default_shard_count(), &accesses);
        let retiring: Vec<NodeId> = (0..retire.min(nodes as usize - 1))
            .map(|i| NodeId(i as u32))
            .collect();
        let (serial_plan, serial_stats) =
            plan_scale_in_shipments(&tier, &retiring, 1).unwrap();
        for jobs in [2usize, 3, 8] {
            let (plan, stats) = plan_scale_in_shipments(&tier, &retiring, jobs).unwrap();
            prop_assert_eq!(&plan, &serial_plan, "jobs={} plan diverges from serial", jobs);
            prop_assert_eq!(stats, serial_stats, "jobs={} stats diverge from serial", jobs);
        }
    }

    #[test]
    fn migration_outcome_ignores_planner_jobs(
        accesses in prop::collection::vec((0u64..3000, 0u16..1000), 50..400),
        victim in 0u32..4,
    ) {
        let tier = warm_tier(4, default_shard_count(), &accesses);
        let retiring = [NodeId(victim)];
        let now = SimTime::from_secs(1_000_000);
        let costs = MigrationCosts::default();
        let mut reference = None;
        for jobs in [1usize, 4] {
            set_planning_jobs(jobs);
            let mut t = tier.clone();
            let report =
                migrate(&mut t, MigrationRequest::ScaleIn { retiring: &retiring, import: ImportMode::Merge }, now, &costs, &mut Supervision::none(), None).unwrap();
            let state = tier_state(&t);
            match &reference {
                None => reference = Some((report, state)),
                Some((r0, s0)) => {
                    prop_assert_eq!(&report, r0, "jobs={} report diverges", jobs);
                    prop_assert_eq!(&state, s0, "jobs={} store state diverges", jobs);
                }
            }
        }
        set_planning_jobs(0);
    }

    #[test]
    fn executed_plan_equals_the_public_planner(
        nodes in 3u32..7,
        accesses in prop::collection::vec((0u64..5000, 0u16..2000), 50..600),
        retire in 1usize..3,
    ) {
        let retiring: Vec<NodeId> = (0..retire.min(nodes as usize - 1))
            .map(|i| NodeId(i as u32))
            .collect();
        for shards in [1usize, 4, 8] {
            let tier = warm_tier(nodes, shards, &accesses);
            let mut t = tier.clone();
            let mut journal = MigrationJournal::new();
            let request = MigrationRequest::ScaleIn {
                retiring: &retiring,
                import: ImportMode::Merge,
            };
            migrate(
                &mut t,
                request,
                SimTime::from_secs(1_000_000),
                &MigrationCosts::default(),
                &mut Supervision::none(),
                Some((&mut journal, 0)),
            )
            .unwrap();
            let sealed = journal
                .entries()
                .iter()
                .find_map(|e| match &e.record {
                    JournalRecord::PlanSealed { manifest, .. } => Some(manifest.clone()),
                    _ => None,
                })
                .expect("a scale-in seals its plan");
            for jobs in [1usize, 4] {
                let (plan, _) = plan_scale_in_shipments(&tier, &retiring, jobs).unwrap();
                let planned: Vec<_> = plan.iter().map(Shipment::manifest).collect();
                prop_assert_eq!(
                    &sealed,
                    &planned,
                    "shards={} jobs={}: sealed plan differs from the planner's",
                    shards,
                    jobs
                );
            }
        }
    }
}
