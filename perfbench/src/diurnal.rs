//! `diurnal_day`: the paper-regime day at paper tier width.
//!
//! A 100-node tier over a 5M-key ETC keyspace (above the 4M alias
//! threshold, so the paper-scale sampler engages by input size) serves a
//! diurnal trace with a scripted 10-node scale-in at the trough and a
//! 10-node scale-out on the ramp. The autoscaler observes every lookup
//! but never decides. Untraced, each measured sample is one whole
//! `run_experiment_capture` call, set-up included. Traced, the benchmark
//! replays the same day through the public serving and control calls with
//! a span around each, and checks the replay against the untraced run.

use std::time::Instant;

use elmem_bench::exp::{cluster_preset, Preset, ITEMS_PER_REQUEST, ZIPF};
use elmem_cluster::Cluster;
use elmem_core::master::{Admission, DeferredKind, JobKind, Master};
use elmem_core::migration::{MigrationCosts, MigrationOutcome, MigrationReport, Supervision};
use elmem_core::{
    run_experiment_capture, AutoScaler, AutoScalerConfig, ExperimentConfig, ExperimentResult,
    FaultPlan, MigrationPolicy, ScaleAction, SeriesRecorder, TierSnapshot,
};
use elmem_sim::{EventQueue, FaultInjector};
use elmem_util::stats::TimelineRecorder;
use elmem_util::{ByteSize, DetRng, NodeId, SimTime, TelemetryConfig};
use elmem_workload::{DemandTrace, Keyspace, RequestGenerator, WebRequest, WorkloadConfig};

use crate::trace::Tracer;
use crate::{median, median_wall, peak_rss_mib, Args, Outcome};

const NODES: u32 = 100;
const KEYS: u64 = 5_000_000;
const NODE_MIB: u64 = 24;
const PEAK_RATE: f64 = 20_000.0;
const STEP_SECS: u64 = 5;
/// Peak lookups over database capacity (Eq. 1's p_min = 1 - 1/25).
const DB_OVERLOAD: f64 = 25.0;
const SCALE_COUNT: u32 = NODES / 10;
const SETUP_REPS: usize = 3;
/// Untraced days measured at least, whatever `--seconds` says.
const MIN_DAYS: usize = 2;

fn experiment(seed: u64) -> ExperimentConfig {
    let mut cluster = cluster_preset(Preset::Paper, NODES);
    cluster.node_memory = ByteSize::from_mib(NODE_MIB);
    let r_db = PEAK_RATE * ITEMS_PER_REQUEST as f64 / DB_OVERLOAD;
    cluster.db_service =
        SimTime::from_nanos((cluster.db_servers as f64 / r_db * 1e9).round() as u64);
    let mut scaler = AutoScalerConfig::new(cluster.r_db(), cluster.node_memory);
    scaler.min_observations = u64::MAX;
    scaler.max_nodes = NODES + NODES / 5;
    let step = SimTime::from_secs(STEP_SECS);
    ExperimentConfig {
        cluster,
        workload: WorkloadConfig {
            keyspace: Keyspace::new(KEYS, seed),
            zipf_exponent: ZIPF,
            items_per_request: ITEMS_PER_REQUEST,
            peak_rate: PEAK_RATE,
            trace: DemandTrace::new(vec![1.0, 0.85, 0.6, 0.45, 0.45, 0.6, 0.85, 1.0], step),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: Some(scaler.into()),
        scheduled: vec![
            (step * 3, ScaleAction::In { count: SCALE_COUNT }),
            (step * 6, ScaleAction::Out { count: SCALE_COUNT }),
        ],
        prefill_top_ranks: KEYS,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
    }
}

/// The set-up `run_experiment` performs before its first request:
/// tier, generator (keyspace and alias table) and the warm prefill.
fn setup(cfg: &ExperimentConfig) -> (Cluster, RequestGenerator) {
    let rng = DetRng::seed(cfg.seed);
    let mut cluster = Cluster::new(
        cfg.cluster.clone(),
        cfg.workload.keyspace.clone(),
        rng.split("cluster"),
    );
    let gen = RequestGenerator::new(cfg.workload.clone(), rng.split("workload"));
    prefill(&mut cluster, &gen, cfg.prefill_top_ranks);
    (cluster, gen)
}

fn prefill(cluster: &mut Cluster, gen: &RequestGenerator, ranks: u64) {
    let ranks = ranks.min(gen.config().keyspace.n_keys());
    let zipf = gen.zipf().clone();
    cluster.prefill(
        (1..=ranks).rev().map(|r| zipf.key_for_rank(r)),
        SimTime::ZERO,
    );
}

/// One scaling event as the day saw it.
#[derive(Debug, Clone, PartialEq)]
struct Event {
    decided_at: SimTime,
    committed_at: SimTime,
    from_nodes: u32,
    to_nodes: u32,
    nodes: Vec<NodeId>,
    items_considered: u64,
    items_migrated: u64,
    completed: bool,
}

impl Event {
    fn new(
        decided_at: SimTime,
        committed_at: SimTime,
        (from_nodes, to_nodes): (u32, u32),
        nodes: Vec<NodeId>,
        report: Option<&MigrationReport>,
    ) -> Self {
        Event {
            decided_at,
            committed_at,
            from_nodes,
            to_nodes,
            nodes,
            items_considered: report.map_or(0, |r| r.items_considered),
            items_migrated: report.map_or(0, |r| r.items_migrated),
            completed: report.is_some_and(|r| r.outcome == MigrationOutcome::Completed),
        }
    }
}

/// Sim-time and count facts of one day; identical across same-seed runs.
#[derive(Debug, Clone, PartialEq)]
struct DayFacts {
    requests: u64,
    lookups: u64,
    hits: u64,
    events: Vec<Event>,
}

impl DayFacts {
    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.lookups.max(1) as f64
    }
}

fn served(cluster: &Cluster) -> (u64, u64) {
    cluster
        .telemetry()
        .per_node
        .values()
        .fold((0, 0), |(l, h), c| (l + c.lookups, h + c.hits))
}

fn facts(result: &ExperimentResult, cluster: &Cluster) -> DayFacts {
    let (lookups, hits) = served(cluster);
    DayFacts {
        requests: result.total_requests,
        lookups,
        hits,
        events: result
            .events
            .iter()
            .map(|e| {
                Event::new(
                    e.decided_at,
                    e.committed_at,
                    (e.from_nodes, e.to_nodes),
                    e.nodes.clone(),
                    e.report.as_ref(),
                )
            })
            .collect(),
    }
}

/// Highest per-second p95 RT from the first membership commit onward.
fn peak_p95_ms(result: &ExperimentResult) -> f64 {
    let from = result.first_commit_second().unwrap_or(0);
    result
        .timeline
        .iter()
        .filter(|p| p.second >= from)
        .map(|p| p.p95_ms)
        .fold(0.0, f64::max)
}

pub fn run(args: &Args) -> Outcome {
    let cfg = experiment(args.seed);
    let mut out = Outcome::default();
    out.size("nodes", NODES);
    out.size("keys", KEYS);
    out.size("node_mib", NODE_MIB);
    out.size("peak_req_per_s", PEAK_RATE);
    out.size("step_s", STEP_SECS);
    out.size("scale_count", SCALE_COUNT);
    if args.trace {
        traced(args, &cfg, &mut out);
    } else {
        untraced(args, &cfg, &mut out);
    }
    out
}

/// Counts the requests the generator emits for this config.
fn generator_requests(cfg: &ExperimentConfig) -> u64 {
    let mut gen = RequestGenerator::new(
        cfg.workload.clone(),
        DetRng::seed(cfg.seed).split("workload"),
    );
    let mut req = WebRequest {
        arrival: SimTime::ZERO,
        keys: Vec::new(),
    };
    let mut n = 0u64;
    while gen.next_request_into(&mut req) {
        n += 1;
    }
    n
}

/// Checks one captured day: both scalings committed, the request count
/// matches the generator, every surviving node audits clean.
fn check_day(out: &mut Outcome, day: &DayFacts, cluster: &Cluster, expected_requests: u64) {
    let kinds_ok = day.events.len() == 2
        && day.events[0].from_nodes == NODES
        && day.events[0].to_nodes == NODES - SCALE_COUNT
        && day.events[1].to_nodes == NODES;
    out.check("diurnal_day: scale-in and scale-out both decided", kinds_ok);
    out.check(
        "diurnal_day: both migrations completed and committed",
        day.events
            .iter()
            .all(|e| e.completed && e.committed_at >= e.decided_at)
            && cluster.tier.membership().len() as u32 == NODES,
    );
    out.check(
        "diurnal_day: request count matches the generator",
        day.requests == expected_requests && day.lookups == day.requests * ITEMS_PER_REQUEST as u64,
    );
    let audits = cluster
        .tier
        .membership()
        .members()
        .iter()
        .all(|&id| cluster.tier.node(id).is_ok_and(|n| n.store.audit().is_ok()));
    out.check(
        "diurnal_day: SlabStore::audit on every surviving node",
        audits,
    );
}

fn fail_counts(result: &ExperimentResult, cluster: &Cluster) -> u64 {
    result.client_timeouts + result.fast_failovers + cluster.db.shed()
}

fn untraced(args: &Args, cfg: &ExperimentConfig, out: &mut Outcome) {
    let setup_s = median_wall(SETUP_REPS, || setup(cfg));
    let expected = generator_requests(cfg);

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(DayFacts, f64)> = None;
    let mut same = true;
    while walls.len() < MIN_DAYS || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let (result, cluster) = run_experiment_capture(cfg.clone(), TelemetryConfig::default());
        walls.push(t.elapsed().as_secs_f64());
        let day = facts(&result, &cluster);
        match &first {
            None => {
                check_day(out, &day, &cluster, expected);
                out.attempted += day.lookups;
                out.failed += fail_counts(&result, &cluster);
                first = Some((day, peak_p95_ms(&result)));
            }
            Some((f, p95)) => same &= *f == day && *p95 == peak_p95_ms(&result),
        }
    }
    out.check(
        "diurnal_day: every same-seed day is identical in sim time",
        same,
    );
    let (day, p95) = first.expect("at least one day");
    let wall = median(&walls);
    let n = format!("(median of {} days)", walls.len());
    out.metric("setup_s", setup_s);
    out.metric("peak_rss_mib", peak_rss_mib());
    out.metric("ops_per_s", day.requests as f64 / wall);
    out.metric("op_ms_p50", wall * 1e3);
    out.metric("hit_ratio", day.hit_ratio());
    out.line(
        "setup_s",
        setup_s,
        "s",
        &format!("(median of {SETUP_REPS})"),
    );
    out.line("peak_rss_mib", peak_rss_mib(), "MiB", "");
    out.line(
        "fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        "(timeouts+failovers+sheds / lookups)",
    );
    out.line("sim_req_per_s", day.requests as f64 / wall, "req/s", &n);
    out.line("day_wall_ms_p50", wall * 1e3, "ms", &n);
    out.line(
        "sim_hit_rate",
        day.hit_ratio(),
        "ratio",
        "(sim, deterministic)",
    );
    out.line("sim_peak_p95_ms", p95, "sim_ms", "(sim, deterministic)");
    out.line(
        "sim_requests",
        day.requests as f64,
        "count",
        "(sim, deterministic)",
    );
    out.line(
        "sim_failed_lookups",
        out.failed as f64,
        "count",
        "(sim, deterministic)",
    );
    for (i, e) in day.events.iter().enumerate() {
        out.line(
            &format!("sim_event{i}.items_migrated"),
            e.items_migrated as f64,
            "count",
            "(sim, deterministic)",
        );
        out.line(
            &format!("sim_event{i}.committed_ms"),
            e.committed_at.as_millis_f64(),
            "sim_ms",
            "(sim, deterministic)",
        );
    }
}

enum Ctl {
    Deferred(DeferredKind),
    Retry(ScaleAction),
}

/// Mirrors the driver's scaling trigger (admission, scale call, deferred
/// commits) for a fault-free day, with a span around the Master call.
#[allow(clippy::too_many_arguments)]
fn trigger(
    tr: &mut Tracer,
    cluster: &mut Cluster,
    master: &mut Master,
    injector: &mut FaultInjector,
    control: &mut EventQueue<Ctl>,
    action: ScaleAction,
    now: SimTime,
    events: &mut Vec<Event>,
) {
    let kind = match action {
        ScaleAction::In { .. } => JobKind::ScaleIn,
        ScaleAction::Out { .. } => JobKind::ScaleOut,
    };
    if let Admission::Deferred { until, .. } = master.admit(kind, now) {
        control.schedule(until, Ctl::Retry(action));
        return;
    }
    let members = cluster.tier.membership().len() as u32;
    let mut supervision = Supervision::with_faults(injector);
    let id = events.len() as u64;
    let orch = match action {
        ScaleAction::In { count } => {
            let count = count.min(members.saturating_sub(1));
            tr.span("master.scale_in", id, || {
                master.scale_in_supervised(cluster, count, now, &mut supervision)
            })
        }
        ScaleAction::Out { count } => tr.span("master.scale_out", id, || {
            master.scale_out_supervised(cluster, count, now, &mut supervision)
        }),
    };
    let Ok(orch) = orch else { return };
    for d in &orch.deferred {
        control.schedule(d.at, Ctl::Deferred(d.kind.clone()));
    }
    let membership = cluster.tier.membership().members().to_vec();
    let delta: i64 = orch
        .deferred
        .iter()
        .map(|d| match &d.kind {
            DeferredKind::CommitRemove(v) | DeferredKind::EvictCrashed(v) => {
                -(v.iter().filter(|id| membership.contains(id)).count() as i64)
            }
            DeferredKind::CommitAdd(v) => {
                v.iter().filter(|id| !membership.contains(id)).count() as i64
            }
            DeferredKind::DiscardSecondary(_) => 0,
        })
        .sum();
    let to_nodes = (membership.len() as i64 + delta).max(1) as u32;
    events.push(Event::new(
        now,
        orch.committed_at,
        (members, to_nodes),
        orch.nodes,
        orch.report.as_ref(),
    ));
}

struct Replay {
    day: DayFacts,
    cluster: Cluster,
    tracked_keys: usize,
}

/// The traced replay of `run_experiment_capture` for this fault-free,
/// healing-free config: same RNG splits, same call order.
fn replay(tr: &mut Tracer, cfg: &ExperimentConfig) -> Replay {
    let tcfg = TelemetryConfig::default();
    let rng = DetRng::seed(cfg.seed);
    tr.open("setup", 0, true);
    let mut cluster = tr.span("cluster.new", 0, || {
        Cluster::new(
            cfg.cluster.clone(),
            cfg.workload.keyspace.clone(),
            rng.split("cluster"),
        )
    });
    cluster.set_telemetry_config(&tcfg);
    let mut gen = tr.span("reqgen.build", 0, || {
        RequestGenerator::new(cfg.workload.clone(), rng.split("workload"))
    });
    let mut master = Master::new(cfg.policy, cfg.costs, cfg.seed);
    tr.span("cluster.prefill", 0, || {
        prefill(&mut cluster, &gen, cfg.prefill_top_ranks)
    });
    tr.close();

    let Some(elmem_core::ScalerConfig::Reactive(scfg)) = cfg.autoscaler.clone() else {
        unreachable!("diurnal_day uses the reactive autoscaler")
    };
    let mut scaler = AutoScaler::new(scfg);
    let mut injector = FaultInjector::new(cfg.faults.clone(), rng.split("faults"));
    let mut control: EventQueue<Ctl> = EventQueue::new();
    let mut scheduled = cfg.scheduled.clone();
    scheduled.sort_by_key(|(t, _)| *t);
    let mut next_scheduled = 0usize;
    let mut recorder = TimelineRecorder::new();
    let mut series = SeriesRecorder::new(tcfg.sample_every);
    let mut events = Vec::new();
    let mut lookups_since = 0u64;
    let mut rate_anchor = SimTime::ZERO;
    let mut req = WebRequest {
        arrival: SimTime::ZERO,
        keys: Vec::with_capacity(cfg.workload.items_per_request),
    };
    let mut id = 0u64;
    let ring_every = 16u64;
    loop {
        id += 1;
        if !tr.hot("workload.reqgen", id, || gen.next_request_into(&mut req)) {
            break;
        }
        let now = req.arrival;
        while let Some(at) = control.peek_time().filter(|&t| t <= now) {
            let Some((_, ev)) = control.pop() else { break };
            match ev {
                Ctl::Deferred(kind) => {
                    tr.span("master.apply", id, || Master::apply(&mut cluster, &kind))
                }
                Ctl::Retry(action) => trigger(
                    tr,
                    &mut cluster,
                    &mut master,
                    &mut injector,
                    &mut control,
                    action,
                    at,
                    &mut events,
                ),
            }
        }
        while next_scheduled < scheduled.len() && scheduled[next_scheduled].0 <= now {
            let (at, action) = scheduled[next_scheduled];
            next_scheduled += 1;
            trigger(
                tr,
                &mut cluster,
                &mut master,
                &mut injector,
                &mut control,
                action,
                at.max(now),
                &mut events,
            );
        }
        if scaler.epoch_elapsed(now) && master.is_idle(now) {
            let elapsed = now.saturating_sub(rate_anchor).as_secs_f64();
            let rate = if elapsed > 0.0 {
                lookups_since as f64 / elapsed
            } else {
                0.0
            };
            let members = cluster.tier.membership().len() as u32;
            let hint = tr.span("autoscaler.decide", id, || {
                scaler.decide(now, rate, members)
            });
            assert!(hint.is_none(), "the observe-only autoscaler decided");
            lookups_since = 0;
            rate_anchor = now;
        }
        tr.hot("telemetry.series", id, || {
            let snap = TierSnapshot::take(&cluster, 0);
            series.advance(now, &snap);
        });
        if id.is_multiple_of(ring_every) {
            tr.open("hash.ring", id, id.is_multiple_of(tr.keep_every));
            for &key in &req.keys {
                std::hint::black_box(cluster.tier.node_for_key(key));
            }
            tr.close();
        }
        let outcome = tr.hot("cluster.frontend", id, || cluster.handle(&req));
        tr.hot("stackdist.observe", id, || {
            for &key in &req.keys {
                let footprint =
                    elmem_store::item::item_footprint(cluster.keyspace().value_size(key));
                scaler.observe(key, footprint);
            }
        });
        lookups_since += outcome.lookups;
        tr.hot("telemetry.timeline", id, || {
            series.record_request(outcome.hits, outcome.lookups);
            recorder.record_request(
                outcome.completion,
                outcome.rt_ms(),
                outcome.hits,
                outcome.lookups,
            )
        });
    }
    tr.open("control.drain", id, true);
    while let Some((at, ev)) = control.pop() {
        match ev {
            Ctl::Deferred(kind) => Master::apply(&mut cluster, &kind),
            Ctl::Retry(action) => trigger(
                tr,
                &mut cluster,
                &mut master,
                &mut injector,
                &mut control,
                action,
                at,
                &mut events,
            ),
        }
    }
    tr.close();
    let (lookups, hits) = served(&cluster);
    Replay {
        day: DayFacts {
            requests: gen.generated(),
            lookups,
            hits,
            events,
        },
        tracked_keys: scaler.profiler_tracked_keys(),
        cluster,
    }
}

fn traced(args: &Args, cfg: &ExperimentConfig, out: &mut Outcome) {
    // Untraced reference day, then the traced replay; at least one each,
    // alternating while the run window lasts.
    let start = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tr = Tracer::new();
    let mut reference: Option<(DayFacts, u64)> = None;
    let mut last: Option<Replay> = None;
    let mut replay_ok = true;
    while traced_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let (result, cluster) = run_experiment_capture(cfg.clone(), TelemetryConfig::default());
        untraced_walls.push(t.elapsed().as_secs_f64());
        if reference.is_none() {
            reference = Some((facts(&result, &cluster), fail_counts(&result, &cluster)));
        }
        drop(cluster);
        let t = Instant::now();
        tr.open("diurnal_day", traced_walls.len() as u64, true);
        let r = replay(&mut tr, cfg);
        tr.close();
        traced_walls.push(t.elapsed().as_secs_f64());
        replay_ok &= reference.as_ref().is_some_and(|(d, _)| *d == r.day);
        last = Some(r);
    }
    let (day, failed) = reference.expect("one reference day");
    let r = last.expect("one replay");
    out.check(
        "diurnal_day: traced replay reproduces requests, hits and scaling events",
        replay_ok,
    );
    check_day(out, &r.day, &r.cluster, day.requests);
    out.attempted = day.lookups;
    out.failed = failed;

    let layers = match tr.layers("diurnal_day") {
        Ok(l) => l,
        Err(e) => {
            out.check(format!("diurnal_day: layers table ({e})"), false);
            return;
        }
    };
    out.check(
        "diurnal_day: layer self times sum to at most the root wall",
        true,
    );
    layers.print("diurnal_day", tr.spans().len());
    let per_lookup = |name: &str| {
        let a = tr.agg(name);
        a.ns as f64 / (a.calls.max(1) * ITEMS_PER_REQUEST as u64) as f64
    };
    let setup = tr.agg("setup");
    let control = [
        "master.scale_in",
        "master.scale_out",
        "master.apply",
        "control.drain",
    ]
    .iter()
    .map(|n| layers.share(n))
    .sum::<f64>();
    let stores = r
        .cluster
        .tier
        .iter_nodes()
        .fold((0u64, 0u64, 0u64), |(h, l, e), n| {
            let s = n.store.stats();
            (h + s.hits, l + s.lookups(), e + s.evictions)
        });
    let migrated: u64 = r.day.events.iter().map(|e| e.items_migrated).sum();
    let considered: u64 = r.day.events.iter().map(|e| e.items_considered).sum();
    out.metric(
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls),
    );
    out.metric("trace.unattributed_share", layers.unattributed_share());
    out.metric(
        "setup.fill_share",
        tr.agg("cluster.prefill").ns as f64 / setup.ns as f64,
    );
    out.metric("workload.reqgen.share", layers.share("workload.reqgen"));
    out.metric("cluster.frontend.share", layers.share("cluster.frontend"));
    out.metric(
        "hash.ring.frontend_share",
        per_lookup("hash.ring") / per_lookup("cluster.frontend"),
    );
    out.metric("stackdist.observe.share", layers.share("stackdist.observe"));
    out.metric(
        "telemetry.series.share",
        layers.share("telemetry.series") + layers.share("telemetry.timeline"),
    );
    out.metric("control.share", control);
    out.metric("store.hit_ratio", stores.0 as f64 / stores.1.max(1) as f64);
    out.metric("store.evictions", stores.2 as f64);
    out.metric("cluster.db.fetches", r.cluster.db.fetches() as f64);
    out.metric("cluster.db.shed", r.cluster.db.shed() as f64);
    out.metric("stackdist.tracked_keys", r.tracked_keys as f64);
    out.metric("migration.items_considered", considered as f64);
    out.metric("migration.items_migrated", migrated as f64);
    out.metric(
        "migration.useful_ratio",
        migrated as f64 / considered.max(1) as f64,
    );
    let n = format!("({} traced days)", traced_walls.len());
    out.line(
        "workload.reqgen.ns_per_req",
        per_lookup("workload.reqgen") * ITEMS_PER_REQUEST as f64,
        "ns",
        &n,
    );
    out.line(
        "cluster.frontend.ns_per_lookup",
        per_lookup("cluster.frontend"),
        "ns",
        &n,
    );
    out.line(
        "hash.ring.ns_per_lookup",
        per_lookup("hash.ring"),
        "ns",
        "(1 request in 16)",
    );
    out.line(
        "stackdist.observe_ns_per_lookup",
        per_lookup("stackdist.observe"),
        "ns",
        &n,
    );
    out.line(
        "master.scale_in_ms",
        tr.agg("master.scale_in").ns as f64 / 1e6 / traced_walls.len() as f64,
        "ms",
        &n,
    );
    out.line(
        "master.scale_out_ms",
        tr.agg("master.scale_out").ns as f64 / 1e6 / traced_walls.len() as f64,
        "ms",
        &n,
    );
    out.line(
        "prefill_s",
        tr.agg("cluster.prefill").ns as f64 / 1e9 / traced_walls.len() as f64,
        "s",
        &n,
    );
    out.line(
        "reqgen.build_s",
        tr.agg("reqgen.build").ns as f64 / 1e9 / traced_walls.len() as f64,
        "s",
        &n,
    );
}
