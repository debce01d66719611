//! **E5+E10 / Fig. 7** — Choice of which node to scale in (§III-C, §V-B3).
//!
//! Warms a 10-node tier, scores every node by the weighted-median formula,
//! then — for each candidate — measures how many items a 10 → 9 scale-in
//! would migrate if *that* node were retired. Expected shape: nodes sorted
//! by median-hotness score have monotonically growing migration volume;
//! the coldest-median choice moves ~36% fewer items than a random pick and
//! ~45% fewer than the worst pick (paper: 3.97 M best vs 6.23 M random avg
//! vs 7.4 M worst).

use elmem_bench::exp::{cluster_preset, workload_preset, Preset};
use elmem_bench::sweep;
use elmem_cluster::Cluster;
use elmem_core::migration::{migrate, MigrationCosts, MigrationRequest, Supervision};
use elmem_core::scoring::node_score;
use elmem_store::ImportMode;
use elmem_util::{DetRng, NodeId, SimTime};
use elmem_workload::{RequestGenerator, TraceKind};

fn main() {
    let preset = Preset::from_cli();
    let nodes = preset.scale_nodes(10);
    println!(
        "== Fig. 7: node choice for scaling ({nodes} -> {}) ==\n",
        nodes - 1
    );
    let seed = 77;
    let workload = workload_preset(preset, TraceKind::FacebookEtc, seed);
    let rng = DetRng::seed(seed);
    let mut cluster = Cluster::new(
        cluster_preset(preset, nodes),
        workload.keyspace.clone(),
        rng.split("c"),
    );
    let mut gen = RequestGenerator::new(workload, rng.split("w"));

    // Warm: prefill the hottest ranks, then serve ~3 minutes of traffic so
    // per-node recency actually differs.
    let zipf = gen.zipf().clone();
    cluster.prefill(
        (1..=preset.prefill_ranks())
            .rev()
            .map(|r| zipf.key_for_rank(r)),
        SimTime::ZERO,
    );
    let mut served = 0u64;
    while let Some(req) = gen.next_request() {
        if req.arrival > SimTime::from_secs(600) {
            break;
        }
        cluster.handle(&req);
        served += 1;
    }
    println!("warmed with {served} requests\n");

    // Score all members, then simulate retiring each one.
    let mut scored: Vec<(NodeId, f64)> = cluster
        .tier
        .membership()
        .members()
        .iter()
        .map(|&id| (id, node_score(&cluster.tier.node(id).unwrap().store)))
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

    println!(
        "{:>5} {:>14} {:>16} {:>14}",
        "rank", "node", "median score", "items migrated"
    );
    // Each candidate retirement is simulated on its own clone of the warmed
    // tier — independent cells for the sweep harness.
    let migrated: Vec<u64> = sweep::run_cells(sweep::jobs_from_cli(), &scored, |_, (id, _)| {
        let mut trial = cluster.tier.clone();
        migrate(
            &mut trial,
            MigrationRequest::ScaleIn {
                retiring: &[*id],
                import: ImportMode::Merge,
            },
            SimTime::from_secs(200),
            &MigrationCosts::default(),
            &mut Supervision::none(),
            None,
        )
        .expect("migration succeeds")
        .items_migrated
    });
    for (rank, ((id, score), items)) in scored.iter().zip(&migrated).enumerate() {
        println!(
            "{:>5} {:>14} {:>16.4} {:>14}",
            rank + 1,
            id.to_string(),
            score,
            items
        );
    }

    let best = migrated[0] as f64;
    let avg = migrated.iter().sum::<u64>() as f64 / migrated.len() as f64;
    let worst = *migrated.iter().max().unwrap() as f64;
    println!(
        "\ncoldest-median choice: {best:.0} items; random average: {avg:.0} (+{:.0}%); worst: {worst:.0} (+{:.0}%)",
        (avg / best - 1.0) * 100.0,
        (worst / best - 1.0) * 100.0
    );
    println!("(paper: 3.97M best, 6.23M random (+57%), 7.4M worst (+86%))");

    // E10: is the scored choice actually optimal (fewest items migrated)?
    let min_items = *migrated.iter().min().unwrap();
    let optimal = migrated[0] == min_items;
    println!(
        "median scoring picked the optimal node: {}",
        if optimal { "yes" } else { "no (near-optimal)" }
    );
}
