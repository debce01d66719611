//! **E20 / cluster-scale fast path** — wall-clock throughput and memory
//! of the full paper-scale scenario (a 100-node tier over the ~19 M-key
//! ETC population), tracked in `results/BENCH_scale.json`.
//!
//! Two measurements:
//!
//! * **headline run**: diurnal demand with a 10%-of-tier scale-in and the
//!   matching scale-out — timed end to end (keyspace + alias construction,
//!   19 M-key warm-up fill, serving, migrations). Headline: simulation
//!   events (fills + lookups) per wall-clock second, plus peak RSS. It runs
//!   first: `VmHWM` is a per-process high-water mark, so the peak read
//!   right after it is the run's own.
//! * **byte-identity cell** (always runs): a 32-node scenario sized so
//!   every cluster-scale fast path is active — alias-table sampling, the
//!   exact→MIMIR profiler switch, and the fan-out of warm-up fill over
//!   `par_map_indexed` — executed once with 1 worker and once with 4. The
//!   full digests (counters plus the golden telemetry dump) must be
//!   **byte-identical**; the assertion is unconditional, every run,
//!   whatever the core count.
//!
//! ## What full mode asserts (and what it only records)
//!
//! Unconditionally: the identity cell's byte-identity, and that the
//! headline run commits both scaling actions. In full mode, the
//! profiler's **tracked-key population** is bounded: the run ends at or
//! under the exact→MIMIR switch threshold (+10% slack; MIMIR's rounder
//! aging evicts retired buckets, so in practice it settles well below
//! the ceiling). The tracked-key count is a deterministic function of the
//! key stream, so this bounded-memory claim is machine-independent.
//! Throughput and peak RSS are **recorded, not asserted**: the
//! `perfbench` `diurnal_day` workload gates end-to-end wall-clock and
//! memory at this scale against the previous commit. `--smoke` shrinks
//! the scenario to 32 nodes / 1 M keys for CI: it still runs both
//! measurements and the identity assertion, but never reads from — or
//! overwrites — a committed full-mode results file, and skips the
//! tracked-key assertion (its bound is stated for the production switch
//! threshold).

use std::fmt::Write as _;
use std::time::Instant;

use elmem_bench::exp::{cluster_preset, Preset, ITEMS_PER_REQUEST, ZIPF};
use elmem_bench::{rss, sweep};
use elmem_core::migration::MigrationCosts;
use elmem_core::{
    run_experiment_with_telemetry, AutoScalerConfig, ExperimentConfig, ExperimentResult, FaultPlan,
    MigrationPolicy, ScaleAction,
};
use elmem_util::par::set_par_jobs;
use elmem_util::{SimTime, TelemetryConfig};
use elmem_workload::{DemandTrace, Keyspace, WorkloadConfig};

const RESULT_PATH: &str = "results/BENCH_scale.json";
const SCHEMA: &str = "elmem-scale-v2";

/// Slack on the headline run's tracked-key bound: MIMIR may briefly
/// hold one rotating bucket beyond the population it adopted at the
/// switch, so allow the end-of-run count to exceed the switch threshold
/// by this factor.
const TRACKED_KEYS_SLACK: f64 = 1.10;

/// One cluster-scale scenario: a diurnal day compressed into
/// `7 × step_secs`, with a scale-in of a tenth of the tier at the demand
/// trough and the matching scale-out on the ramp back up.
#[derive(Clone, Copy)]
struct Scenario {
    nodes: u32,
    keys: u64,
    peak_rate: f64,
    step_secs: u64,
}

/// The paper-scale headline scenario: 100 nodes over the full ETC
/// population at 20 k req/s peak (≈ 8.4 M requests / 42 M lookups over a
/// 420-second compressed diurnal).
fn full_scenario() -> Scenario {
    Scenario {
        nodes: 100,
        keys: Preset::Paper.keys(),
        peak_rate: Preset::Paper.peak_rate(),
        step_secs: 60,
    }
}

/// CI-sized shrink: same shape, 32 nodes / 1 M keys.
fn smoke_scenario() -> Scenario {
    Scenario {
        nodes: 32,
        keys: 1_000_000,
        peak_rate: 3_200.0,
        step_secs: 10,
    }
}

/// The always-on byte-identity cell: small enough to run twice per
/// invocation, large enough that the warm-up fill crosses the fan-out
/// threshold and the profiler crosses its (lowered) switch threshold.
fn identity_scenario() -> Scenario {
    Scenario {
        nodes: 32,
        keys: 300_000,
        peak_rate: 3_200.0,
        step_secs: 5,
    }
}

fn experiment(sc: &Scenario) -> ExperimentConfig {
    let mut cluster = cluster_preset(Preset::Paper, sc.nodes);
    if sc.nodes < 100 {
        // Shrunk tiers keep the paper regime: node memory so the tier
        // holds most-but-not-all of the keyspace, database capacity so
        // peak lookups stay at 25× r_DB (Eq. 1's p_min ≈ 0.96).
        cluster.node_memory = elmem_util::ByteSize::from_mib(16);
        let r_db_target = sc.peak_rate * ITEMS_PER_REQUEST as f64 / 25.0;
        cluster.db_service =
            SimTime::from_nanos((cluster.db_servers as f64 / r_db_target * 1e9).round() as u64);
    }
    // The autoscaler observes every lookup (the paper's always-on Q1
    // monitoring — the stack-distance hot path this benchmark measures)
    // but never decides: the scaling actions are scripted, so every run
    // executes the same diurnal scale-in/out.
    let mut scaler = AutoScalerConfig::new(cluster.r_db(), cluster.node_memory);
    scaler.min_observations = u64::MAX;
    scaler.max_nodes = sc.nodes + sc.nodes / 5;
    let count = (sc.nodes / 10).max(1);
    let step = SimTime::from_secs(sc.step_secs);
    ExperimentConfig {
        cluster,
        workload: WorkloadConfig {
            keyspace: Keyspace::new(sc.keys, 20),
            zipf_exponent: ZIPF,
            items_per_request: ITEMS_PER_REQUEST,
            peak_rate: sc.peak_rate,
            trace: DemandTrace::new(vec![1.0, 0.85, 0.6, 0.45, 0.45, 0.6, 0.85, 1.0], step),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: Some(scaler.into()),
        scheduled: vec![
            (step * 3, ScaleAction::In { count }),
            (step * 6, ScaleAction::Out { count }),
        ],
        prefill_top_ranks: sc.keys,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed: 20,
    }
}

fn run(cfg: ExperimentConfig) -> ExperimentResult {
    run_experiment_with_telemetry(cfg, TelemetryConfig::default())
}

/// Simulation events a run processes: the warm-up fills plus every served
/// lookup.
fn events(sc: &Scenario, r: &ExperimentResult) -> u64 {
    sc.keys + r.total_requests * ITEMS_PER_REQUEST as u64
}

/// The canonical digest for the byte-identity assertion: end-state
/// counters, scaling events, and the full golden telemetry dump.
fn digest(r: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "requests={} members={} events={} timeouts={} migrated_events={} ",
        r.total_requests,
        r.final_members,
        r.events.len(),
        r.client_timeouts,
        r.events.iter().map(|e| e.nodes.len()).sum::<usize>(),
    );
    out.push_str(&r.telemetry.to_json());
    out.push('\n');
    out
}

/// Forces every cluster-scale fast path on, whatever the keyspace size
/// (the identity cell and the smoke headline sit below the production
/// thresholds).
fn thresholds_fast(switch_keys: u64) {
    elmem_workload::set_alias_threshold(1);
    elmem_stackdist::set_adaptive_switch_keys(switch_keys);
}

/// Restores the production defaults (and the ambient worker count).
fn thresholds_default() {
    elmem_workload::set_alias_threshold(elmem_workload::DEFAULT_ALIAS_THRESHOLD);
    elmem_stackdist::set_adaptive_switch_keys(elmem_stackdist::DEFAULT_ADAPTIVE_SWITCH_KEYS);
    set_par_jobs(0);
}

/// The previously committed full-mode baseline, if any (smoke records are
/// never comparable).
fn read_baseline() -> Option<f64> {
    let text = std::fs::read_to_string(RESULT_PATH).ok()?;
    if !text.contains("\"mode\":\"full\"") {
        return None;
    }
    let field = "\"baseline_events_per_sec\":";
    let start = text.find(field)? + field.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |m| format!("{m:.1}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let rebaseline = args.iter().any(|a| a == "--rebaseline");
    let jobs = sweep::jobs_from_cli();
    let cores = rayon::current_num_threads();
    println!(
        "== tab_scale: cluster-scale fast path{} ==",
        if smoke { " [smoke]" } else { "" }
    );
    println!("cores={cores} jobs={jobs}\n");

    // -- 1. The headline run, first, so the peak RSS is its own. -----------
    let name = if smoke { "smoke" } else { "full" };
    let sc = if smoke {
        smoke_scenario()
    } else {
        full_scenario()
    };
    println!(
        "scenario: {} nodes, {} keys, peak {} req/s, diurnal {}s",
        sc.nodes,
        sc.keys,
        sc.peak_rate,
        7 * sc.step_secs
    );
    // Full mode keeps the production defaults: every fast path
    // auto-engages at paper scale.
    if smoke {
        thresholds_fast(500_000);
    }
    let t0 = Instant::now();
    let r = run(experiment(&sc));
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mib = rss::peak_rss_bytes().map(|b| b as f64 / (1 << 20) as f64);
    thresholds_default();
    let (events, requests) = (events(&sc, &r), r.total_requests);
    let (scaling_events, profiler_keys) = (r.events.len(), r.profiler_tracked_keys);
    drop(r);
    let events_per_sec = events as f64 / wall_s;
    println!(
        "headline: {events} events ({requests} requests, {scaling_events} scaling events) in \
         {wall_s:.1}s = {events_per_sec:.0} events/s, profiler tracks {profiler_keys} keys, \
         peak RSS {} MiB",
        fmt_opt(peak_rss_mib),
    );
    assert_eq!(
        scaling_events, 2,
        "the diurnal scale-in and scale-out must both commit"
    );
    let switch_keys = elmem_stackdist::DEFAULT_ADAPTIVE_SWITCH_KEYS;
    if !smoke {
        // The bounded-memory claim, in its deterministic form: at ETC
        // scale the adaptive profiler's population stays pinned near the
        // switch threshold.
        let bound = (switch_keys as f64 * TRACKED_KEYS_SLACK) as u64;
        assert!(
            profiler_keys as u64 <= bound,
            "adaptive profiler tracks {profiler_keys} keys, above its {bound}-key bound"
        );
    }

    // -- 2. Byte-identity: 1 worker vs 4, all fast paths active. -----------
    let idc = identity_scenario();
    thresholds_fast(50_000);
    set_par_jobs(1);
    let serial = digest(&run(experiment(&idc)));
    set_par_jobs(4);
    let parallel = digest(&run(experiment(&idc)));
    thresholds_default();
    let byte_identical = serial == parallel;
    println!(
        "identity cell ({} nodes, {} keys): 1 worker vs 4 workers byte_identical={byte_identical}",
        idc.nodes, idc.keys
    );
    assert!(
        byte_identical,
        "parallel fill/probe fan-out must be byte-identical to serial"
    );

    // The committed baseline is the first recorded full-mode rate.
    let baseline = if smoke || rebaseline {
        events_per_sec
    } else {
        read_baseline().unwrap_or(events_per_sec)
    };

    // -- 3. Emit results/BENCH_scale.json. ----------------------------------
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"schema\":\"{SCHEMA}\",\"mode\":\"{name}\",\"jobs\":{jobs},\"cores\":{cores},\
         \"scenario\":{{\"nodes\":{},\"keys\":{},\"peak_rate\":{:.0},\"trace_secs\":{}}},\
         \"events\":{events},\"requests\":{requests},\"wall_ms\":{:.1},\
         \"events_per_sec\":{events_per_sec:.1},\"profiler_keys\":{profiler_keys},\
         \"peak_rss_mib\":{},\"profiler_switch_keys\":{switch_keys},\
         \"baseline_events_per_sec\":{baseline:.1},\"vs_baseline\":{:.3},\
         \"identity\":{{\"byte_identical\":{byte_identical},\"workers\":[1,4],\
         \"nodes\":{},\"keys\":{}}}}}",
        sc.nodes,
        sc.keys,
        sc.peak_rate,
        7 * sc.step_secs,
        wall_s * 1000.0,
        fmt_opt(peak_rss_mib),
        events_per_sec / baseline,
        idc.nodes,
        idc.keys,
    );
    let keep_full = smoke
        && std::fs::read_to_string(RESULT_PATH)
            .map(|t| t.contains("\"mode\":\"full\""))
            .unwrap_or(false);
    if keep_full {
        println!("\nkeeping existing full-mode {RESULT_PATH} (smoke run not recorded)");
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write(RESULT_PATH, &doc).expect("write BENCH_scale.json");
        println!("\nwrote {RESULT_PATH}");
    }
}
