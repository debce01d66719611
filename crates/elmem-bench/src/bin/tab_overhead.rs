//! **E4 / §V-B2** — FuseCache/migration overhead breakdown.
//!
//! Runs a real 10 → 9 migration at laptop scale and prints the per-phase
//! wall-clock, then extrapolates each phase to the paper's scale (≈4 M
//! items migrated) using the linear cost model. Paper breakdown: scoring
//! ≈20 s, hash+dump ≈50 s, metadata transfer ≈70 s, FuseCache <2 s, data
//! migration ≈45 s, import ≈80 s — about 2 minutes end to end.

use elmem_bench::exp::{cluster_preset, workload_preset, Preset};
use elmem_bench::sweep;
use elmem_cluster::Cluster;
use elmem_core::migration::{migrate, MigrationCosts, MigrationRequest, Supervision};
use elmem_core::scoring::choose_retiring;
use elmem_store::ImportMode;
use elmem_util::{DetRng, SimTime};
use elmem_workload::{RequestGenerator, TraceKind};

fn main() {
    println!("== Tab (SS V-B2): migration overhead breakdown ==\n");
    // One cell — the warmup feeds the single migration it measures — run
    // through the sweep harness like every other fig/tab binary.
    let preset = Preset::from_cli();
    let mut cells = sweep::run_cells(sweep::jobs_from_cli(), &[99u64], |_, &seed| {
        let workload = workload_preset(preset, TraceKind::FacebookEtc, seed);
        let rng = DetRng::seed(seed);
        let mut cluster = Cluster::new(
            cluster_preset(preset, preset.scale_nodes(10)),
            workload.keyspace.clone(),
            rng.split("c"),
        );
        let mut gen = RequestGenerator::new(workload, rng.split("w"));
        let zipf = gen.zipf().clone();
        cluster.prefill(
            (1..=preset.prefill_ranks())
                .rev()
                .map(|r| zipf.key_for_rank(r)),
            SimTime::ZERO,
        );
        while let Some(req) = gen.next_request() {
            if req.arrival > SimTime::from_secs(120) {
                break;
            }
            cluster.handle(&req);
        }

        let costs = MigrationCosts::default();
        let (victims, _) = choose_retiring(&cluster.tier, 1).unwrap();
        let wall_start = std::time::Instant::now();
        let request = MigrationRequest::ScaleIn {
            retiring: &victims,
            import: ImportMode::Merge,
        };
        let report = migrate(
            &mut cluster.tier,
            request,
            SimTime::from_secs(200),
            &costs,
            &mut Supervision::none(),
            None,
        )
        .expect("migration succeeds");
        (report, wall_start.elapsed())
    });
    let (report, host_elapsed) = cells.pop().expect("overhead cell ran");

    let p = &report.phases;
    println!("phase                 modeled time   (paper @10x scale)");
    let scale = 4_000_000.0 / report.items_migrated.max(1) as f64;
    let row = |name: &str, t: SimTime, paper: &str| {
        println!(
            "{name:<20} {:>12}   ({paper}; extrapolated {:>8.1}s)",
            t.to_string(),
            t.as_secs_f64() * scale
        );
    };
    row("node scoring", p.scoring, "~20s");
    row("hash + dump", p.dump, "~50s");
    row("metadata transfer", p.metadata_transfer, "~70s");
    row("FuseCache", p.fusecache, "<2s");
    row("data migration", p.data_transfer, "~45s");
    row("batch import", p.import, "~80s");
    println!(
        "{:<20} {:>12}   (paper ~2min)",
        "TOTAL",
        p.total().to_string()
    );
    println!();
    println!(
        "items considered: {}   items migrated: {}   data bytes: {}   metadata bytes: {}",
        report.items_considered,
        report.items_migrated,
        report.bytes_migrated,
        report.metadata_bytes
    );
    println!(
        "(host wall-clock for the whole migration computation: {:.2?})",
        host_elapsed
    );
}
