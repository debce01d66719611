//! `scale_in_out`: the control plane alone, on the 10-node laptop tier.
//!
//! Set-up builds the `Preset::Laptop` tier and prefills its 1.4M keys with
//! `Cluster::prefill`, as the figure binaries do, hottest key last. Each
//! sample clones the tier and runs `Master::scale_in(1)` or `Master::scale_out(1)` under the
//! ElMem policy; no request is served. Traced, each sample also replays the
//! scale-in as its public steps (scoring, per-shard dump, shard merge,
//! planning, import) on a second clone, with a span around each.

use std::time::Instant;

use elmem_bench::exp::{cluster_preset, workload_preset, Preset};
use elmem_cluster::Cluster;
use elmem_core::master::Master;
use elmem_core::migration::{MigrationCosts, MigrationOutcome, MigrationReport};
use elmem_core::{choose_retiring, plan_scale_in_shipments, MigrationPolicy};
use elmem_store::ImportMode;
use elmem_util::{DetRng, SimTime};
use elmem_workload::{RequestGenerator, TraceKind, ZipfPopularity};

use crate::trace::Tracer;
use crate::{median, median_wall, peak_rss_mib, Args, Outcome};

const NODES: u32 = 10;
const SETUP_REPS: usize = 3;
/// Samples of each kind measured at least, whatever `--seconds` says.
const MIN_SAMPLES: usize = 3;
/// Zipf-drawn keys probed for the post-scale-in hit ratio.
const PROBE_KEYS: u64 = 200_000;

fn now() -> SimTime {
    SimTime::from_secs(60)
}

fn setup(seed: u64, tr: Option<&mut Tracer>) -> (Cluster, ZipfPopularity) {
    let mut local = Tracer::new();
    let tr = tr.unwrap_or(&mut local);
    let preset = Preset::Laptop;
    let workload = workload_preset(preset, TraceKind::FacebookEtc, seed);
    let rng = DetRng::seed(seed);
    let mut cluster = tr.span("cluster.new", 0, || {
        Cluster::new(
            cluster_preset(preset, NODES),
            workload.keyspace.clone(),
            rng.split("cluster"),
        )
    });
    let gen = tr.span("reqgen.build", 0, || {
        RequestGenerator::new(workload, rng.split("workload"))
    });
    let zipf = gen.zipf().clone();
    let ranks = preset.prefill_ranks().min(zipf.n());
    tr.span("cluster.prefill", 0, || {
        cluster.prefill(
            (1..=ranks).rev().map(|r| zipf.key_for_rank(r)),
            SimTime::ZERO,
        )
    });
    (cluster, zipf)
}

/// Popularity-weighted share of requests the tier would answer from
/// cache: `PROBE_KEYS` Zipf draws, each looked up without touching LRU.
fn expected_hit_ratio(cluster: &Cluster, zipf: &ZipfPopularity, seed: u64) -> f64 {
    let mut rng = DetRng::seed(seed).split("hit-probe");
    let hits = (0..PROBE_KEYS)
        .filter(|_| {
            let key = zipf.sample(&mut rng);
            cluster
                .tier
                .node_for_key(key)
                .and_then(|id| cluster.tier.node(id).ok())
                .is_some_and(|n| n.store.contains(key))
        })
        .count();
    hits as f64 / PROBE_KEYS as f64
}

fn audit_members(cluster: &Cluster) -> bool {
    cluster
        .tier
        .membership()
        .members()
        .iter()
        .all(|&id| cluster.tier.node(id).is_ok_and(|n| n.store.audit().is_ok()))
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    In,
    Out,
}

/// One Master scaling on `cluster`, timed; its deferred commits are then
/// applied. Returns the report, the wall, and the journal length.
fn scale(cluster: &mut Cluster, kind: Kind, seed: u64) -> (Option<MigrationReport>, f64, usize) {
    let mut master = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), seed);
    let t = Instant::now();
    let orch = match kind {
        Kind::In => master.scale_in(cluster, 1, now()),
        Kind::Out => master.scale_out(cluster, 1, now()),
    };
    let wall = t.elapsed().as_secs_f64();
    let Ok(orch) = orch else {
        return (None, wall, master.journal().len());
    };
    for d in &orch.deferred {
        Master::apply(cluster, &d.kind);
    }
    (orch.report, wall, master.journal().len())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.size("nodes", NODES);
    out.size("keys", Preset::Laptop.keys());
    out.size("node_mib", Preset::Laptop.node_memory().as_u64() >> 20);
    out.size("probe_keys", PROBE_KEYS);
    if args.trace {
        traced(args, &mut out);
    } else {
        untraced(args, &mut out);
    }
    out
}

/// Tracks that every sample of a kind produced the first sample's report.
#[derive(Default)]
struct Reports {
    first: [Option<MigrationReport>; 2],
    same: bool,
    attempted: u64,
    failed: u64,
}

impl Reports {
    fn new() -> Self {
        Reports {
            same: true,
            ..Default::default()
        }
    }

    fn add(&mut self, kind: Kind, report: Option<MigrationReport>) {
        self.attempted += 1;
        let ok = report
            .as_ref()
            .is_some_and(|r| r.outcome == MigrationOutcome::Completed && r.items_migrated > 0);
        if !ok {
            self.failed += 1;
        }
        let slot = &mut self.first[kind as usize];
        match slot {
            None => *slot = report,
            Some(f) => self.same &= report.as_ref() == Some(f),
        }
    }
}

fn untraced(args: &Args, out: &mut Outcome) {
    let setup_s = median_wall(SETUP_REPS, || setup(args.seed, None));
    let (base, zipf) = setup(args.seed, None);
    let mut reports = Reports::new();
    let mut walls = [Vec::new(), Vec::new()];
    let mut audits = true;
    let mut hit_ratio = 0.0;
    let start = Instant::now();
    while walls[1].len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        for kind in [Kind::In, Kind::Out] {
            let mut c = base.clone();
            let (report, wall, _) = scale(&mut c, kind, args.seed);
            walls[kind as usize].push(wall);
            reports.add(kind, report);
            if walls[kind as usize].len() == 1 {
                audits &= audit_members(&c);
                if kind == Kind::In {
                    hit_ratio = expected_hit_ratio(&c, &zipf, args.seed);
                }
            }
        }
    }
    out.check(
        "scale_in_out: every migration completed",
        reports.failed == 0,
    );
    out.check(
        "scale_in_out: every sample produced the same migration report",
        reports.same,
    );
    out.check(
        "scale_in_out: the tier audits clean after each kind",
        audits,
    );
    out.attempted = reports.attempted;
    out.failed = reports.failed;
    let (p_in, p_out) = (median(&walls[0]), median(&walls[1]));
    // One scale-in plus one scale-out per (p_in + p_out) seconds.
    let rate = 2.0 / (p_in + p_out);
    let n = format!("(median of {} each)", walls[0].len());
    out.metric("setup_s", setup_s);
    out.metric("peak_rss_mib", peak_rss_mib());
    out.metric("ops_per_s", rate);
    out.metric("op_ms_p50", p_in * 1e3);
    out.metric("hit_ratio", hit_ratio);
    out.line(
        "setup_s",
        setup_s,
        "s",
        &format!("(median of {SETUP_REPS})"),
    );
    out.line("peak_rss_mib", peak_rss_mib(), "MiB", "");
    out.line(
        "fail_share",
        reports.failed as f64 / reports.attempted as f64,
        "ratio",
        "(aborted or Err / attempted)",
    );
    out.line("scale_in_ms_p50", p_in * 1e3, "ms", &n);
    out.line("scale_out_ms_p50", p_out * 1e3, "ms", &n);
    out.line(
        "scale_actions_per_s",
        rate,
        "1/s",
        "(2 / (scale_in_ms_p50 + scale_out_ms_p50))",
    );
    out.line(
        "post_scale_in_hit_ratio",
        hit_ratio,
        "ratio",
        "(sim, deterministic)",
    );
    for (kind, report) in ["scale_in", "scale_out"].iter().zip(&reports.first) {
        let r = report.as_ref();
        let items = |f: fn(&MigrationReport) -> u64| r.map_or(0, f) as f64;
        out.line(
            &format!("{kind}.items_considered"),
            items(|r| r.items_considered),
            "count",
            "(sim, deterministic)",
        );
        out.line(
            &format!("{kind}.items_migrated"),
            items(|r| r.items_migrated),
            "count",
            "(sim, deterministic)",
        );
        out.line(
            &format!("{kind}.sim_duration_ms"),
            r.map_or(0.0, |r| (r.completed - r.started).as_millis_f64()),
            "sim_ms",
            "(sim, deterministic)",
        );
    }
}

fn traced(args: &Args, out: &mut Outcome) {
    let mut tr = Tracer::new();
    tr.open("scale_in_out", 0, true);
    tr.open("setup", 0, true);
    let (base, _) = setup(args.seed, Some(&mut tr));
    tr.close();
    let mut reports = Reports::new();
    let mut untraced_walls = Vec::new();
    let mut comparisons = 0u64;
    let mut considered = 0u64;
    let mut migrated = 0u64;
    let mut journal = 0usize;
    let mut decomposed_ok = true;
    let mut audits = true;
    let mut samples = 0u64;
    let start = Instant::now();
    while samples < MIN_SAMPLES as u64 || start.elapsed().as_secs_f64() < args.seconds {
        // The untraced reference for the tracing overhead.
        tr.open("untraced.scale_in", samples, true);
        let mut c = base.clone();
        untraced_walls.push(scale(&mut c, Kind::In, args.seed).1);
        drop(c);
        tr.close();

        let id = samples;
        tr.open("sample", id, true);
        let mut c = tr.span("tier.clone", id, || base.clone());
        tr.open("master.scale_in", id, true);
        let (report, _, records) = scale(&mut c, Kind::In, args.seed);
        tr.close();
        journal = records;
        audits &= audit_members(&c);
        drop(c);

        // The same scale-in as its public steps, on a fresh clone.
        let mut c = tr.span("tier.clone", id, || base.clone());
        let retiring = tr.span("scoring.choose_retiring", id, || {
            choose_retiring(&c.tier, 1)
        });
        let Ok((retiring, _)) = retiring else {
            decomposed_ok = false;
            tr.close();
            drop(c);
            break;
        };
        let parts: Vec<Vec<_>> = tr.span("store.dump_shard_classes", id, || {
            let store = &c
                .tier
                .node(retiring[0])
                .expect("retiring node exists")
                .store;
            (0..store.shard_count())
                .map(|s| store.dump_shard_classes(s))
                .collect()
        });
        let merged = tr.span("store.merge_shard_dumps", id, || {
            c.tier
                .node(retiring[0])
                .expect("retiring node exists")
                .store
                .merge_shard_dumps(&parts)
        });
        let plan = tr.span("migration.plan_scale_in_shipments", id, || {
            plan_scale_in_shipments(&c.tier, &retiring, 0)
        });
        let Ok((shipments, stats)) = plan else {
            decomposed_ok = false;
            tr.close();
            drop(c);
            break;
        };
        let imported = tr.span("node.import_shipment", id, || {
            shipments.iter().all(|s| {
                c.tier.node_mut(s.target).is_ok_and(|n| {
                    n.import_shipment(
                        id,
                        s.seq,
                        s.manifest().checksum,
                        s.class,
                        s.items(),
                        ImportMode::Merge,
                    )
                    .is_ok()
                })
            })
        });
        let planned: u64 = shipments.iter().map(|s| s.items().len() as u64).sum();
        let r_migrated = report.as_ref().map_or(0, |r| r.items_migrated);
        decomposed_ok &= imported
            && merged.total_items() == stats.items_considered
            && planned == r_migrated
            && report
                .as_ref()
                .is_some_and(|r| r.items_considered == stats.items_considered);
        comparisons = stats.comparisons;
        considered = stats.items_considered;
        migrated = r_migrated;
        reports.add(Kind::In, report);
        drop(c);

        let mut c = tr.span("tier.clone", id, || base.clone());
        tr.open("master.scale_out", id, true);
        let (report, _, _) = scale(&mut c, Kind::Out, args.seed);
        tr.close();
        reports.add(Kind::Out, report);
        audits &= audit_members(&c);
        tr.close();
        samples += 1;
    }
    tr.close();
    out.check(
        "scale_in_out: every migration completed",
        reports.failed == 0,
    );
    out.check(
        "scale_in_out: every sample produced the same migration report",
        reports.same,
    );
    out.check(
        "scale_in_out: the tier audits clean after every sample",
        audits,
    );
    out.check(
        "scale_in_out: the stepwise scale-in plans what the Master migrated",
        decomposed_ok,
    );
    out.attempted = reports.attempted;
    out.failed = reports.failed;
    let layers = match tr.layers("scale_in_out") {
        Ok(l) => l,
        Err(e) => {
            out.check(format!("scale_in_out: layers table ({e})"), false);
            return;
        }
    };
    out.check(
        "scale_in_out: layer self times sum to at most the root wall",
        true,
    );
    layers.print("scale_in_out", tr.spans().len());
    let ms = |name: &str| tr.agg(name).ns as f64 / 1e6 / samples as f64;
    let scale_in = ms("master.scale_in");
    let steps = ms("scoring.choose_retiring")
        + ms("migration.plan_scale_in_shipments")
        + ms("node.import_shipment");
    let traced_p50 = {
        let walls: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "master.scale_in")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        median(&walls)
    };
    let setup = tr.agg("setup").ns as f64;
    out.metric("trace.overhead", traced_p50 / median(&untraced_walls));
    out.metric("trace.unattributed_share", layers.unattributed_share());
    out.metric(
        "setup.fill_share",
        tr.agg("cluster.prefill").ns as f64 / setup,
    );
    out.metric("migration.items_considered", considered as f64);
    out.metric("migration.items_migrated", migrated as f64);
    out.metric(
        "migration.useful_ratio",
        migrated as f64 / considered.max(1) as f64,
    );
    out.metric(
        "scoring.scale_in_share",
        ms("scoring.choose_retiring") / scale_in,
    );
    out.metric(
        "store.dump.scale_in_share",
        ms("store.dump_shard_classes") / scale_in,
    );
    out.metric(
        "store.merge.scale_in_share",
        ms("store.merge_shard_dumps") / scale_in,
    );
    out.metric(
        "migration.plan.scale_in_share",
        ms("migration.plan_scale_in_shipments") / scale_in,
    );
    out.metric(
        "node.import.scale_in_share",
        ms("node.import_shipment") / scale_in,
    );
    out.metric(
        "master.overhead.scale_in_share",
        (scale_in - steps) / scale_in,
    );
    out.metric("fusecache.comparisons", comparisons as f64);
    out.metric("journal.records", journal as f64);
    let n = format!("(mean of {samples} samples)");
    for (label, span) in [
        ("master.scale_in_ms", "master.scale_in"),
        ("master.scale_out_ms", "master.scale_out"),
        ("scoring.choose_retiring_ms", "scoring.choose_retiring"),
        ("store.dump_ms", "store.dump_shard_classes"),
        ("store.merge_ms", "store.merge_shard_dumps"),
        ("migration.plan_ms", "migration.plan_scale_in_shipments"),
        ("node.import_ms", "node.import_shipment"),
    ] {
        out.line(label, ms(span), "ms", &n);
    }
    out.line(
        "master.overhead_ms",
        scale_in - steps,
        "ms",
        "(scale_in minus scoring, plan, import)",
    );
}
