//! Property test for journal replay idempotence (DESIGN.md §13): a
//! migration interrupted by a Master crash at *any* point and resumed
//! from the durable journal must leave every store identical to the same
//! migration run uninterrupted — across warm states, seeds, and crash
//! points, including a second crash during the resume — and every sealed
//! shipment must be applied exactly once (re-deliveries suppressed by the
//! Agents' import ledgers, never imported twice).

use elmem::cluster::{Cluster, ClusterConfig};
use elmem::core::migration::{migrate, MigrationCosts, MigrationRequest, Supervision};
use elmem::core::{MasterPlan, MigrationJournal};
use elmem::store::ImportMode;
use elmem::util::{DetRng, KeyId, NodeId, SimTime};
use elmem::workload::{GeneralizedPareto, Keyspace};
use proptest::prelude::*;

const NOW: SimTime = SimTime::from_secs(200_000);
const VICTIM: NodeId = NodeId(0);

fn warmed_cluster(accesses: &[u64], seed: u64) -> Cluster {
    let mut cluster = Cluster::new(
        ClusterConfig::small_test(),
        Keyspace::with_distribution(10_000, seed, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(seed),
    );
    // Uniform item size → one slab class; strictly increasing access
    // times → a total MRU order, so equality below is exact.
    let mut now = SimTime::from_secs(1);
    for &k in accesses {
        let key = KeyId(k);
        let owner = cluster.tier.node_for_key(key).unwrap();
        cluster
            .tier
            .node_mut(owner)
            .unwrap()
            .store
            .set(key, 64, now)
            .unwrap();
        now += SimTime::from_secs(1);
    }
    cluster
}

/// Per-node resident items as `(key, value_size, last_access)`, sorted.
type Fingerprint = Vec<(NodeId, Vec<(KeyId, u32, SimTime)>)>;

/// Every member's resident items — the store-content equality the resume
/// protocol must preserve.
fn fingerprint(cluster: &Cluster) -> Fingerprint {
    let mut members: Vec<NodeId> = cluster.tier.membership().members().to_vec();
    members.sort();
    members
        .into_iter()
        .map(|id| {
            let store = &cluster.tier.node(id).unwrap().store;
            let mut items: Vec<(KeyId, u32, SimTime)> = store
                .iter()
                .map(|i| (i.key, i.value_size, i.last_access))
                .collect();
            items.sort();
            (id, items)
        })
        .collect()
}

/// Runs the journaled scale-in of [`VICTIM`] under `master`, returning the
/// report and the journal.
fn run_journaled(
    cluster: &mut Cluster,
    master: MasterPlan,
) -> (elmem::core::migration::MigrationReport, MigrationJournal) {
    let mut supervision = Supervision::none();
    supervision.master = master;
    let mut journal = MigrationJournal::new();
    let request = MigrationRequest::ScaleIn {
        retiring: &[VICTIM],
        import: ImportMode::Merge,
    };
    let report = migrate(
        &mut cluster.tier,
        request,
        NOW,
        &MigrationCosts::default(),
        &mut supervision,
        Some((&mut journal, 0)),
    )
    .expect("journaled migration runs");
    (report, journal)
}

/// Total sealed shipments vs. total ledger applications across survivors:
/// exactly-once delivery, no shipment lost, none applied twice.
fn assert_exactly_once(cluster: &Cluster, journal: &MigrationJournal) {
    let replay = journal.replay(0);
    assert!(replay.committed, "interrupted migration must still commit");
    let manifest = replay.manifest.expect("plan sealed");
    assert_eq!(
        replay.acked.len(),
        manifest.len(),
        "every sealed shipment must be durably acked"
    );
    let applied: usize = cluster
        .tier
        .membership()
        .members()
        .iter()
        .map(|&id| cluster.tier.node(id).unwrap().import_ledger().len())
        .sum();
    assert_eq!(
        applied,
        manifest.len(),
        "each sealed shipment must be applied exactly once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn resume_is_byte_identical_to_uninterrupted(
        accesses in prop::collection::vec(0u64..3000, 50..600),
        crash_frac in 1u64..1000,
        seed in 0u64..100,
    ) {
        // Uninterrupted reference run.
        let mut clean = warmed_cluster(&accesses, seed);
        let (clean_report, _) = run_journaled(&mut clean, MasterPlan::default());
        prop_assert!(clean_report.outcome.is_completed());
        let span = clean_report.completed.saturating_sub(NOW);

        // Same warm state, crashed part-way and resumed from the journal.
        let crash = NOW + SimTime::from_nanos(span.as_nanos() * crash_frac / 1000);
        let mut crashed = warmed_cluster(&accesses, seed);
        let (report, journal) = run_journaled(
            &mut crashed,
            MasterPlan {
                crashes: vec![crash],
                ..MasterPlan::default()
            },
        );
        prop_assert!(report.outcome.is_completed());
        prop_assert_eq!(report.resumes.len(), 1, "the crash must interrupt the run");
        prop_assert_eq!(report.items_migrated, clean_report.items_migrated);
        prop_assert_eq!(report.bytes_migrated, clean_report.bytes_migrated);
        prop_assert_eq!(fingerprint(&crashed), fingerprint(&clean));
        assert_exactly_once(&crashed, &journal);
    }

    #[test]
    fn resume_twice_equals_resume_once(
        accesses in prop::collection::vec(0u64..3000, 50..600),
        crash_frac in 1u64..900,
        seed in 0u64..100,
    ) {
        let mut clean = warmed_cluster(&accesses, seed);
        let (clean_report, _) = run_journaled(&mut clean, MasterPlan::default());
        let span = clean_report.completed.saturating_sub(NOW);

        // A second crash lands shortly after the first resume; whether it
        // interrupts again depends on how much work was left, and the
        // final state must be identical either way.
        let first = NOW + SimTime::from_nanos(span.as_nanos() * crash_frac / 1000);
        let second = first
            + MasterPlan::default().restart_delay
            + SimTime::from_nanos(span.as_nanos() / 20);
        let mut crashed = warmed_cluster(&accesses, seed);
        let (report, journal) = run_journaled(
            &mut crashed,
            MasterPlan {
                crashes: vec![first, second],
                ..MasterPlan::default()
            },
        );
        prop_assert!(report.outcome.is_completed());
        prop_assert!(!report.resumes.is_empty());
        prop_assert_eq!(report.items_migrated, clean_report.items_migrated);
        prop_assert_eq!(fingerprint(&crashed), fingerprint(&clean));
        assert_exactly_once(&crashed, &journal);
    }
}

/// A pinned double-interruption: both crashes land inside the migration,
/// so the journal provably resumes twice — and the outcome still matches
/// the uninterrupted run exactly.
#[test]
fn pinned_double_crash_resumes_twice() {
    let accesses: Vec<u64> = (0..400).map(|i| (i * 7) % 3000).collect();
    let mut clean = warmed_cluster(&accesses, 13);
    let (clean_report, _) = run_journaled(&mut clean, MasterPlan::default());
    let span = clean_report.completed.saturating_sub(NOW);

    let first = NOW + SimTime::from_nanos(span.as_nanos() / 2);
    let second =
        first + MasterPlan::default().restart_delay + SimTime::from_nanos(span.as_nanos() / 4);
    let mut crashed = warmed_cluster(&accesses, 13);
    let (report, journal) = run_journaled(
        &mut crashed,
        MasterPlan {
            crashes: vec![first, second],
            ..MasterPlan::default()
        },
    );
    assert!(report.outcome.is_completed());
    assert_eq!(report.resumes.len(), 2, "both crashes interrupt");
    assert_eq!(fingerprint(&crashed), fingerprint(&clean));
    assert_exactly_once(&crashed, &journal);
}
