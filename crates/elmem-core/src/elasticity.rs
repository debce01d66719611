//! End-to-end elastic experiments: the driver that ties the workload, the
//! serving stack (`elmem-cluster`) and the scaling control plane together.
//!
//! This is the programmatic equivalent of the paper's testbed runs
//! (Figs. 2, 6, 8): a request stream is served while the AutoScaler (or a
//! scheduled script) triggers scaling actions executed under a chosen
//! [`MigrationPolicy`]; the result is the per-second hit-rate / p95-RT
//! timeline plus a log of scaling events with their migration reports.

use elmem_cluster::{Cluster, ClusterConfig};
use elmem_sim::fault::{FaultAction, FaultInjector, FaultPlan};
use elmem_sim::EventQueue;
use elmem_util::stats::{TimelinePoint, TimelineRecorder};
use elmem_util::telemetry::EventKind;
use elmem_util::{DetRng, NodeId, SimTime, TelemetryConfig};
use elmem_workload::{RequestGenerator, WebRequest, WorkloadConfig};

use crate::autoscaler::{AutoScaler, AutoScalerConfig, ScalingHint};
use crate::healing::{
    ConfirmedDeath, FailureDetector, HealingConfig, NodeState, ProbeOutcome, RecoveryEvent,
};
use crate::journal::{MasterPlan, MigrationJournal};
use crate::master::{Admission, DeferredKind, JobKind, Master};
use crate::migration::{MigrationCosts, MigrationReport, Supervision};
use crate::policies::MigrationPolicy;
use crate::predictive::{PredictiveAutoScaler, PredictiveConfig};
use crate::telemetry::{
    probe_class, record_migration_events, SeriesRecorder, TelemetryDump, TierSnapshot,
};

/// A scripted scaling action (used when experiments pin the scaling moment
/// instead of running the AutoScaler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Remove `count` nodes.
    In {
        /// Number of nodes to retire.
        count: u32,
    },
    /// Add `count` nodes.
    Out {
        /// Number of nodes to add.
        count: u32,
    },
}

/// One scaling event as executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingEvent {
    /// When the decision was made (migration starts here).
    pub decided_at: SimTime,
    /// When the membership actually flipped.
    pub committed_at: SimTime,
    /// Member count before.
    pub from_nodes: u32,
    /// Member count after.
    pub to_nodes: u32,
    /// Nodes retired (scale-in) or added (scale-out).
    pub nodes: Vec<NodeId>,
    /// The migration report, when the policy migrates.
    pub report: Option<MigrationReport>,
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Deployment parameters.
    pub cluster: ClusterConfig,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// How scaling actions move data (Q3).
    pub policy: MigrationPolicy,
    /// Q1 automation; `None` runs only the scripted actions.
    pub autoscaler: Option<ScalerConfig>,
    /// Scripted actions (applied at the given times), in addition to or
    /// instead of the AutoScaler.
    pub scheduled: Vec<(SimTime, ScaleAction)>,
    /// Pre-fill the caches with the top-`prefill_top_ranks` most popular
    /// keys before the run (0 = start cold).
    pub prefill_top_ranks: u64,
    /// Migration cost model.
    pub costs: MigrationCosts,
    /// Faults to inject (crashes, link degradation, shipment drops);
    /// [`FaultPlan::new`] injects nothing.
    pub faults: FaultPlan,
    /// Self-healing: heartbeat failure detection plus automatic recovery.
    /// `None` leaves crashed nodes in the ring (every lookup against them
    /// pays the client timeout until the breaker opens).
    pub healing: Option<HealingConfig>,
    /// Scheduled Master crashes plus the restart/recovery policy applied
    /// to journaled scalings (DESIGN.md §13). [`MasterPlan::default`]
    /// never crashes.
    pub master: MasterPlan,
    /// Master seed.
    pub seed: u64,
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-second hit rate and tail RT (the paper's Fig. 6 panels).
    pub timeline: Vec<TimelinePoint>,
    /// Scaling events in execution order.
    pub events: Vec<ScalingEvent>,
    /// Member count at the end.
    pub final_members: u32,
    /// Members still crashed-but-in-the-ring at the end (0 whenever the
    /// self-healing loop ran and converged).
    pub final_crashed_members: u32,
    /// Web requests served.
    pub total_requests: u64,
    /// Recoveries executed by the self-healing loop, in confirmation order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Lookups that paid the full client timeout against an unreachable
    /// node.
    pub client_timeouts: u64,
    /// Lookups that failed over to the database immediately on an open
    /// breaker.
    pub fast_failovers: u64,
    /// Circuit-breaker state transitions across all nodes.
    pub breaker_transitions: u64,
    /// Heartbeat probes the failure detector sent (0 without healing).
    pub probes_sent: u64,
    /// Failure-detector state transitions (flap metric; 0 without healing).
    pub detector_transitions: u64,
    /// Distinct keys the autoscaler's stack-distance engine still tracked
    /// when the run ended (0 without an autoscaler). The adaptive engine
    /// caps this at the exact→MIMIR switch threshold (MIMIR evicts as its
    /// buckets retire) — `tab_scale`'s bounded-memory assertion checks it.
    pub profiler_tracked_keys: usize,
    /// The run's full telemetry story: event trace, latency histograms,
    /// counter time series, per-node rows. Byte-identical (via
    /// [`TelemetryDump::to_json`]) across same-seed runs.
    pub telemetry: TelemetryDump,
    /// The Master's migration journal at the end of the run: every durable
    /// record the journaled scalings wrote, in append order. Empty when no
    /// scaling migrated under the journal.
    pub journal: MigrationJournal,
}

impl ExperimentResult {
    /// The second of the first membership flip, if any (the reference point
    /// for post-scaling degradation summaries).
    pub fn first_commit_second(&self) -> Option<u64> {
        self.events.iter().map(|e| e.committed_at.as_secs()).min()
    }
}

/// Which Q1 (when/how much) module drives the run — §III-B's "pluggable
/// module".
#[derive(Debug, Clone)]
pub enum ScalerConfig {
    /// The paper's reactive Eq. (1) + stack-distance sizing.
    Reactive(AutoScalerConfig),
    /// A Holt linear-trend forecaster wrapped around the reactive sizing.
    Predictive(PredictiveConfig),
}

impl From<AutoScalerConfig> for ScalerConfig {
    fn from(cfg: AutoScalerConfig) -> Self {
        ScalerConfig::Reactive(cfg)
    }
}

impl From<PredictiveConfig> for ScalerConfig {
    fn from(cfg: PredictiveConfig) -> Self {
        ScalerConfig::Predictive(cfg)
    }
}

#[derive(Debug)]
enum ScalerInstance {
    Reactive(AutoScaler),
    Predictive(PredictiveAutoScaler),
}

impl ScalerInstance {
    fn new(config: &ScalerConfig) -> Self {
        match config {
            ScalerConfig::Reactive(c) => ScalerInstance::Reactive(AutoScaler::new(c.clone())),
            ScalerConfig::Predictive(c) => {
                ScalerInstance::Predictive(PredictiveAutoScaler::new(c.clone()))
            }
        }
    }

    fn observe(&mut self, key: elmem_util::KeyId, footprint: u64) {
        match self {
            ScalerInstance::Reactive(a) => a.observe(key, footprint),
            ScalerInstance::Predictive(p) => p.observe(key, footprint),
        }
    }

    fn epoch_elapsed(&self, now: SimTime) -> bool {
        match self {
            ScalerInstance::Reactive(a) => a.epoch_elapsed(now),
            ScalerInstance::Predictive(p) => p.epoch_elapsed(now),
        }
    }

    fn decide(&mut self, now: SimTime, rate: f64, current: u32) -> Option<ScalingHint> {
        match self {
            ScalerInstance::Reactive(a) => a.decide(now, rate, current),
            ScalerInstance::Predictive(p) => p.decide(now, rate, current),
        }
    }

    fn profiler_tracked_keys(&self) -> usize {
        match self {
            ScalerInstance::Reactive(a) => a.profiler_tracked_keys(),
            ScalerInstance::Predictive(p) => p.profiler_tracked_keys(),
        }
    }
}

/// An event on the driver's control queue: a deferred Master action, a
/// heartbeat round of the failure detector, or a scaling the admission
/// check deferred behind a conflicting in-flight job (retried when that
/// job's commit window closes).
#[derive(Debug, Clone)]
enum ControlEvent {
    Deferred(DeferredKind),
    Heartbeat,
    RetryScaling(ScaleAction),
}

/// Runs any recovery owed for confirmed deaths, unless the Master is mid
/// scaling — a recovery never races an in-flight supervised migration; it
/// waits for the next control tick after `busy_until`. (A crash *inside*
/// such a migration is already handled by the migration's own abort path.)
#[allow(clippy::too_many_arguments)]
fn try_recover(
    cluster: &mut Cluster,
    master: &mut Master,
    healing: &HealingConfig,
    pending: &mut Vec<ConfirmedDeath>,
    now: SimTime,
    control: &mut EventQueue<ControlEvent>,
    recoveries: &mut Vec<RecoveryEvent>,
    injector: &mut FaultInjector,
    bytes_migrated: &mut u64,
) {
    if pending.is_empty() || !master.is_idle(now) {
        return;
    }
    let deaths = std::mem::take(pending);
    let dead: Vec<NodeId> = deaths.iter().map(|d| d.node).collect();
    let members_before = cluster.tier.membership().len() as u32;
    let mut supervision = Supervision::with_faults(injector);
    let orch = match master.recover_supervised(cluster, &dead, now, healing, &mut supervision) {
        Ok(orch) => orch,
        // Recovery could not admit replacements (e.g. nothing left to
        // migrate from); the eviction still happened, record it as such.
        Err(_) => crate::master::Orchestration {
            nodes: vec![],
            report: None,
            deferred: vec![],
            committed_at: now,
        },
    };
    // The eviction flips the membership inline; replacements join later
    // via deferred commits (traced when they land).
    let members_now = cluster.tier.membership().len() as u32;
    if members_now != members_before {
        cluster.telemetry_mut().trace.record(
            now,
            None,
            EventKind::MembershipCommitted {
                members: members_now,
            },
        );
    }
    if let Some(report) = &orch.report {
        *bytes_migrated += report.bytes_migrated.as_u64();
        record_migration_events(&mut cluster.telemetry_mut().trace, report);
    }
    for deferred in &orch.deferred {
        control.schedule(deferred.at, ControlEvent::Deferred(deferred.kind.clone()));
    }
    // One replacement per death, paired in order (empty for evict-only).
    for (i, death) in deaths.iter().enumerate() {
        let replacement = orch.nodes.get(i).copied();
        let warmed = healing.warmup && replacement.is_some();
        cluster.telemetry_mut().trace.record(
            orch.committed_at,
            Some(death.node),
            EventKind::RecoveryCompleted {
                replacement,
                warmed,
            },
        );
        recoveries.push(RecoveryEvent {
            node: death.node,
            crashed_at: injector.crash_time(death.node),
            suspected_at: death.suspected_at,
            confirmed_at: death.confirmed_at,
            replacement,
            recovered_at: orch.committed_at,
            warmed,
        });
    }
}

/// Traces one heartbeat round's observations: every non-ack probe outcome,
/// plus the suspicion/death edges it caused.
fn record_probe_observations(
    cluster: &mut Cluster,
    at: SimTime,
    observations: &[crate::healing::ProbeObservation],
) {
    for obs in observations {
        let trace = &mut cluster.telemetry_mut().trace;
        if obs.outcome != ProbeOutcome::Ack {
            trace.record(
                at,
                Some(obs.node),
                EventKind::Probe {
                    outcome: probe_class(obs.outcome),
                },
            );
        }
        if obs.before != obs.after {
            match obs.after {
                NodeState::Suspected => trace.record(at, Some(obs.node), EventKind::NodeSuspected),
                NodeState::ConfirmedDead => {
                    trace.record(at, Some(obs.node), EventKind::NodeConfirmedDead)
                }
                NodeState::Alive => {}
            }
        }
    }
}

/// Runs one experiment to completion. Deterministic in `config.seed`.
/// Telemetry runs with [`TelemetryConfig::default`] (event tracing on,
/// per-request events off, 1 s series windows).
pub fn run_experiment(config: ExperimentConfig) -> ExperimentResult {
    run_experiment_with_telemetry(config, TelemetryConfig::default())
}

/// [`run_experiment`] with explicit telemetry knobs (trace capacity,
/// per-request events, series window).
pub fn run_experiment_with_telemetry(
    config: ExperimentConfig,
    tcfg: TelemetryConfig,
) -> ExperimentResult {
    run_experiment_capture(config, tcfg).0
}

/// [`run_experiment_with_telemetry`], additionally returning the final
/// [`Cluster`] so callers can audit end-of-run state — the chaos engine's
/// post-run invariant checker inspects every surviving store directly
/// instead of trusting the aggregated telemetry.
pub fn run_experiment_capture(
    config: ExperimentConfig,
    tcfg: TelemetryConfig,
) -> (ExperimentResult, Cluster) {
    let rng = DetRng::seed(config.seed);
    let mut cluster = Cluster::new(
        config.cluster.clone(),
        config.workload.keyspace.clone(),
        rng.split("cluster"),
    );
    cluster.set_telemetry_config(&tcfg);
    let mut gen = RequestGenerator::new(config.workload.clone(), rng.split("workload"));
    let mut master = Master::new(config.policy, config.costs, config.seed);

    // Pre-fill hottest keys, coldest rank first so rank 1 ends up hottest.
    if config.prefill_top_ranks > 0 {
        let ranks = config.prefill_top_ranks.min(gen.config().keyspace.n_keys());
        let zipf = gen.zipf().clone();
        cluster.prefill(
            (1..=ranks).rev().map(|r| zipf.key_for_rank(r)),
            SimTime::ZERO,
        );
    }

    let mut autoscaler = config.autoscaler.as_ref().map(ScalerInstance::new);
    let mut injector = FaultInjector::new(config.faults.clone(), rng.split("faults"));
    let mut control: EventQueue<ControlEvent> = EventQueue::new();
    let mut scheduled = config.scheduled.clone();
    scheduled.sort_by_key(|(t, _)| *t);
    let mut scheduled_idx = 0usize;

    let mut detector = config
        .healing
        .as_ref()
        .map(|h| FailureDetector::new(h.detector, rng.split("heartbeat")));
    if let Some(det) = detector.as_mut() {
        control.schedule(det.next_round_after(SimTime::ZERO), ControlEvent::Heartbeat);
    }
    let mut pending_dead: Vec<ConfirmedDeath> = Vec::new();
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();

    let mut recorder = TimelineRecorder::new();
    let mut series = SeriesRecorder::new(tcfg.sample_every);
    let mut bytes_migrated = 0u64;
    let mut events: Vec<ScalingEvent> = Vec::new();
    let mut lookups_since = 0u64;
    let mut rate_anchor = SimTime::ZERO;
    let mut last_now = SimTime::ZERO;

    // One scratch request reused across the whole run: the generator
    // refills its key buffer in place instead of allocating a fresh
    // multi-get vector per request (the loop below runs hundreds of
    // thousands of times per experiment).
    let mut req = WebRequest {
        arrival: SimTime::ZERO,
        keys: Vec::with_capacity(config.workload.items_per_request),
    };
    while gen.next_request_into(&mut req) {
        let now = req.arrival;
        last_now = now;

        // 1. Advance the control plane to `now`: injected faults, deferred
        // Master actions, and heartbeat rounds interleave in time order.
        // A fault due at the same instant as a control event lands first —
        // a crash beats the commit (or the probe) racing it.
        loop {
            let fault_t = injector.peek_time().filter(|&t| t <= now);
            let control_t = control.peek_time().filter(|&t| t <= now);
            match (fault_t, control_t) {
                (None, None) => break,
                (Some(tf), tc) if tc.is_none_or(|tc| tf <= tc) => {
                    for (_, action) in injector.due(tf) {
                        apply_fault(&mut cluster, &action, tf);
                    }
                }
                _ => {
                    // The peek above guarantees an event is due; an empty
                    // queue here just ends the control drain (no panic on
                    // a driver-invariant slip).
                    let Some((at, ev)) = control.pop() else { break };
                    match ev {
                        ControlEvent::Deferred(kind) => {
                            apply_deferred(&mut cluster, &kind, at);
                        }
                        ControlEvent::RetryScaling(action) => {
                            trigger(
                                &mut cluster,
                                &mut master,
                                &config.master,
                                action,
                                at,
                                &mut control,
                                &mut events,
                                &mut injector,
                                &mut bytes_migrated,
                            );
                        }
                        ControlEvent::Heartbeat => {
                            // Heartbeats are only ever scheduled alongside a
                            // detector + healing config; a stray one is
                            // dropped rather than unwrapped into a panic.
                            let (Some(det), Some(healing)) =
                                (detector.as_mut(), config.healing.as_ref())
                            else {
                                continue;
                            };
                            let (confirmed, observed) = det.probe_round_observed(&cluster, at);
                            pending_dead.extend(confirmed);
                            record_probe_observations(&mut cluster, at, &observed);
                            control.schedule(det.next_round_after(at), ControlEvent::Heartbeat);
                            try_recover(
                                &mut cluster,
                                &mut master,
                                healing,
                                &mut pending_dead,
                                at,
                                &mut control,
                                &mut recoveries,
                                &mut injector,
                                &mut bytes_migrated,
                            );
                        }
                    }
                }
            }
        }

        // 2. Scripted actions.
        while scheduled_idx < scheduled.len() && scheduled[scheduled_idx].0 <= now {
            let (at, action) = scheduled[scheduled_idx];
            scheduled_idx += 1;
            trigger(
                &mut cluster,
                &mut master,
                &config.master,
                action,
                at.max(now),
                &mut control,
                &mut events,
                &mut injector,
                &mut bytes_migrated,
            );
        }

        // 3. AutoScaler decision (when idle and an epoch has elapsed).
        if let Some(scaler) = autoscaler.as_mut() {
            if scaler.epoch_elapsed(now) && master.is_idle(now) {
                let elapsed = now.saturating_sub(rate_anchor).as_secs_f64();
                let rate = if elapsed > 0.0 {
                    lookups_since as f64 / elapsed
                } else {
                    0.0
                };
                let members = cluster.tier.membership().len() as u32;
                if let Some(hint) = scaler.decide(now, rate, members) {
                    let action = if hint.target_nodes < members {
                        ScaleAction::In {
                            count: hint.scale_in_count(),
                        }
                    } else {
                        ScaleAction::Out {
                            count: hint.scale_out_count(),
                        }
                    };
                    trigger(
                        &mut cluster,
                        &mut master,
                        &config.master,
                        action,
                        now,
                        &mut control,
                        &mut events,
                        &mut injector,
                        &mut bytes_migrated,
                    );
                }
                lookups_since = 0;
                rate_anchor = now;
            }
        }

        // 4. Serve the request.
        let snap = TierSnapshot::take(&cluster, bytes_migrated);
        series.advance(now, &snap);
        let outcome = cluster.handle(&req);
        series.record_request(outcome.hits, outcome.lookups);
        if let Some(scaler) = autoscaler.as_mut() {
            for &key in &req.keys {
                let footprint =
                    elmem_store::item::item_footprint(cluster.keyspace().value_size(key));
                scaler.observe(key, footprint);
            }
        }
        lookups_since += outcome.lookups;
        recorder.record_request(
            outcome.completion,
            outcome.rt_ms(),
            outcome.hits,
            outcome.lookups,
        );
    }

    // Drain remaining control events so membership reflects every decision
    // (faults scheduled before the last commit must land first). With
    // healing, the detector keeps probing for a bounded settle window past
    // the last request, so a crash near the end is still confirmed and
    // recovered rather than left as a corpse in the final membership.
    let settle_until = match &detector {
        Some(det) => {
            let d = det.config();
            last_now + (d.probe_interval + d.jitter) * u64::from(d.suspicion_threshold + 2)
        }
        None => last_now,
    };
    let mut drain_end = last_now;
    while let Some((at, ev)) = control.pop() {
        drain_end = drain_end.max(at);
        for (_, action) in injector.due(at) {
            apply_fault(&mut cluster, &action, at);
        }
        match ev {
            ControlEvent::Deferred(kind) => apply_deferred(&mut cluster, &kind, at),
            ControlEvent::RetryScaling(action) => trigger(
                &mut cluster,
                &mut master,
                &config.master,
                action,
                at,
                &mut control,
                &mut events,
                &mut injector,
                &mut bytes_migrated,
            ),
            ControlEvent::Heartbeat if at <= settle_until => {
                let (Some(det), Some(healing)) = (detector.as_mut(), config.healing.as_ref())
                else {
                    continue;
                };
                let (confirmed, observed) = det.probe_round_observed(&cluster, at);
                pending_dead.extend(confirmed);
                record_probe_observations(&mut cluster, at, &observed);
                control.schedule(det.next_round_after(at), ControlEvent::Heartbeat);
                try_recover(
                    &mut cluster,
                    &mut master,
                    healing,
                    &mut pending_dead,
                    at,
                    &mut control,
                    &mut recoveries,
                    &mut injector,
                    &mut bytes_migrated,
                );
            }
            ControlEvent::Heartbeat => {}
        }
    }
    if let Some(healing) = config.healing.as_ref() {
        // Deaths confirmed but still queued behind a busy Master when the
        // run ended: finish the recovery so the final membership is clean.
        let at = master.busy_until().max(drain_end);
        drain_end = drain_end.max(at);
        try_recover(
            &mut cluster,
            &mut master,
            healing,
            &mut pending_dead,
            at,
            &mut control,
            &mut recoveries,
            &mut injector,
            &mut bytes_migrated,
        );
        while let Some((at, ev)) = control.pop() {
            if let ControlEvent::Deferred(kind) = ev {
                drain_end = drain_end.max(at);
                apply_deferred(&mut cluster, &kind, at);
            }
        }
    }

    let final_crashed_members = cluster
        .tier
        .membership()
        .members()
        .iter()
        .filter(|&&id| {
            cluster
                .tier
                .node(id)
                .map(|n| n.is_crashed())
                .unwrap_or(false)
        })
        .count() as u32;

    let final_snap = TierSnapshot::take(&cluster, bytes_migrated);
    let series = series.finish(drain_end.max(last_now), &final_snap);
    let telemetry = TelemetryDump::assemble(config.seed, &tcfg, &cluster, series);

    let result = ExperimentResult {
        timeline: recorder.finish(),
        events,
        final_members: cluster.tier.membership().len() as u32,
        final_crashed_members,
        total_requests: gen.generated(),
        recoveries,
        client_timeouts: cluster.client_timeouts(),
        fast_failovers: cluster.fast_failovers(),
        breaker_transitions: cluster.breaker_transitions(),
        probes_sent: detector.as_ref().map_or(0, |d| d.probes_sent()),
        detector_transitions: detector.as_ref().map_or(0, |d| d.transitions()),
        profiler_tracked_keys: autoscaler.as_ref().map_or(0, |s| s.profiler_tracked_keys()),
        telemetry,
        journal: master.journal().clone(),
    };
    (result, cluster)
}

/// Applies one deferred Master action and traces the membership flip it
/// causes (if any).
fn apply_deferred(cluster: &mut Cluster, kind: &DeferredKind, at: SimTime) {
    let before = cluster.tier.membership().len() as u32;
    Master::apply(cluster, kind);
    let after = cluster.tier.membership().len() as u32;
    if after != before {
        cluster.telemetry_mut().trace.record(
            at,
            None,
            EventKind::MembershipCommitted { members: after },
        );
    }
}

/// Applies one fault action to the serving stack, tracing faults that
/// landed. Actions against a node that has already left the tier are
/// ignored (and not traced).
fn apply_fault(cluster: &mut Cluster, action: &FaultAction, at: SimTime) {
    match *action {
        FaultAction::Crash(n) => {
            if cluster.tier.crash(n).is_ok() {
                cluster
                    .telemetry_mut()
                    .trace
                    .record(at, Some(n), EventKind::NodeCrashed);
            }
        }
        FaultAction::SlowLink(n, factor) => {
            if let Ok(node) = cluster.tier.node_mut(n) {
                node.link.apply_slowdown(factor);
                cluster
                    .telemetry_mut()
                    .trace
                    .record(at, Some(n), EventKind::LinkDegraded);
            }
        }
        FaultAction::RestoreLink(n) => {
            if let Ok(node) = cluster.tier.node_mut(n) {
                node.link.restore_bandwidth();
                cluster
                    .telemetry_mut()
                    .trace
                    .record(at, Some(n), EventKind::LinkRestored);
            }
        }
        FaultAction::PartitionLink(n, until) => {
            if let Ok(node) = cluster.tier.node_mut(n) {
                node.link.partition_until(until);
                cluster
                    .telemetry_mut()
                    .trace
                    .record(at, Some(n), EventKind::LinkPartitioned);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn trigger(
    cluster: &mut Cluster,
    master: &mut Master,
    master_plan: &MasterPlan,
    action: ScaleAction,
    now: SimTime,
    control: &mut EventQueue<ControlEvent>,
    events: &mut Vec<ScalingEvent>,
    injector: &mut FaultInjector,
    bytes_migrated: &mut u64,
) {
    // Per-job admission (DESIGN.md §13): a fill may overlap a drain, but a
    // job conflicting with one still in flight is deferred — re-enqueued
    // for when the conflicting commit window closes — not dropped.
    let kind = match action {
        ScaleAction::In { .. } => JobKind::ScaleIn,
        ScaleAction::Out { .. } => JobKind::ScaleOut,
    };
    if let Admission::Deferred { until, .. } = master.admit(kind, now) {
        cluster
            .telemetry_mut()
            .trace
            .record(now, None, EventKind::ScalingDeferred { until });
        control.schedule(until, ControlEvent::RetryScaling(action));
        return;
    }
    let members = cluster.tier.membership().len() as u32;
    let mut supervision = Supervision::with_faults(injector);
    supervision.master = master_plan.clone();
    let orch = match action {
        ScaleAction::In { count } => {
            let count = count.min(members.saturating_sub(1));
            if count == 0 {
                return;
            }
            match master.scale_in_supervised(cluster, count, now, &mut supervision) {
                Ok(orch) => orch,
                Err(_) => return,
            }
        }
        ScaleAction::Out { count } => {
            if count == 0 {
                return;
            }
            match master.scale_out_supervised(cluster, count, now, &mut supervision) {
                Ok(orch) => orch,
                Err(_) => return,
            }
        }
    };
    for deferred in &orch.deferred {
        control.schedule(deferred.at, ControlEvent::Deferred(deferred.kind.clone()));
    }
    // Member count after every deferred action lands. Inline policies have
    // already flipped the membership; deferred removals/evictions only
    // count for nodes still in it (an evicted scale-out node never joined).
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
    {
        let trace = &mut cluster.telemetry_mut().trace;
        trace.record(
            now,
            None,
            EventKind::ScalingDecided {
                from_nodes: members,
                to_nodes,
            },
        );
        if let Some(report) = &orch.report {
            *bytes_migrated += report.bytes_migrated.as_u64();
            record_migration_events(trace, report);
        }
        // Inline policies flip membership inside the scale call itself;
        // deferred commits are traced when they land.
        if delta == 0 && membership.len() as u32 != members {
            trace.record(
                orch.committed_at,
                None,
                EventKind::MembershipCommitted {
                    members: membership.len() as u32,
                },
            );
        }
    }
    events.push(ScalingEvent {
        decided_at: now,
        committed_at: orch.committed_at,
        from_nodes: members,
        to_nodes,
        nodes: orch.nodes,
        report: orch.report,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_workload::{Keyspace, TraceKind};

    fn base_config(policy: MigrationPolicy) -> ExperimentConfig {
        ExperimentConfig {
            cluster: ClusterConfig::small_test(),
            workload: WorkloadConfig {
                keyspace: Keyspace::new(20_000, 1),
                zipf_exponent: 1.0,
                items_per_request: 3,
                peak_rate: 300.0,
                trace: elmem_workload::DemandTrace::new(vec![1.0; 7], SimTime::from_secs(10)),
            },
            policy,
            autoscaler: None,
            scheduled: vec![(SimTime::from_secs(30), ScaleAction::In { count: 1 })],
            prefill_top_ranks: 10_000,
            costs: MigrationCosts::default(),
            faults: FaultPlan::new(),
            healing: None,
            master: MasterPlan::default(),
            seed: 7,
        }
    }

    #[test]
    fn baseline_commits_immediately() {
        let result = run_experiment(base_config(MigrationPolicy::Baseline));
        assert_eq!(result.events.len(), 1);
        let ev = &result.events[0];
        assert_eq!(ev.decided_at, ev.committed_at);
        assert!(ev.report.is_none());
        assert_eq!(result.final_members, 3);
        assert!(result.total_requests > 1000);
    }

    #[test]
    fn elmem_commits_after_migration() {
        let result = run_experiment(base_config(MigrationPolicy::elmem()));
        assert_eq!(result.events.len(), 1);
        let ev = &result.events[0];
        assert!(ev.committed_at > ev.decided_at);
        let report = ev.report.as_ref().expect("elmem migrates");
        assert!(report.items_migrated > 0);
        assert_eq!(result.final_members, 3);
    }

    #[test]
    fn elmem_degrades_less_than_baseline() {
        let base = run_experiment(base_config(MigrationPolicy::Baseline));
        let elmem = run_experiment(base_config(MigrationPolicy::elmem()));
        let commit_b = base.events[0].committed_at.as_secs();
        let commit_e = elmem.events[0].committed_at.as_secs();
        let post_miss = |tl: &[TimelinePoint], s: u64| -> f64 {
            let pts: Vec<&TimelinePoint> = tl
                .iter()
                .filter(|p| p.second >= s && p.requests > 0)
                .collect();
            1.0 - pts.iter().map(|p| p.hit_rate).sum::<f64>() / pts.len().max(1) as f64
        };
        let miss_b = post_miss(&base.timeline, commit_b);
        let miss_e = post_miss(&elmem.timeline, commit_e);
        assert!(
            miss_e < miss_b,
            "elmem post-scaling miss {miss_e} should beat baseline {miss_b}"
        );
    }

    #[test]
    fn naive_runs_and_commits() {
        let result = run_experiment(base_config(MigrationPolicy::Naive));
        assert_eq!(result.events.len(), 1);
        assert!(result.events[0].report.is_some());
        assert_eq!(result.final_members, 3);
    }

    #[test]
    fn cachescale_discards_secondary() {
        let mut cfg = base_config(MigrationPolicy::CacheScale {
            window: SimTime::from_secs(10),
        });
        cfg.scheduled = vec![(SimTime::from_secs(20), ScaleAction::In { count: 1 })];
        let result = run_experiment(cfg);
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.final_members, 3);
    }

    #[test]
    fn scale_out_grows_membership() {
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.scheduled = vec![(SimTime::from_secs(30), ScaleAction::Out { count: 2 })];
        let result = run_experiment(cfg);
        assert_eq!(result.final_members, 6);
        assert!(result.events[0].report.is_some());
    }

    #[test]
    fn fill_overlaps_in_flight_drain() {
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.scheduled = vec![
            (SimTime::from_secs(30), ScaleAction::In { count: 1 }),
            (SimTime::from_secs(30), ScaleAction::Out { count: 1 }),
        ];
        let result = run_experiment(cfg);
        // Both admitted at the same instant: a fill does not conflict with
        // a drain, so the scale-out starts while the scale-in's commit
        // window is still open.
        assert_eq!(result.events.len(), 2);
        assert_eq!(result.events[0].decided_at, result.events[1].decided_at);
        assert!(!result.telemetry.to_json().contains("scaling_deferred"));
        assert_eq!(result.final_members, 4);
    }

    #[test]
    fn conflicting_drains_defer_then_retry() {
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.scheduled = vec![
            (SimTime::from_secs(30), ScaleAction::In { count: 1 }),
            (SimTime::from_secs(30), ScaleAction::In { count: 1 }),
        ];
        let result = run_experiment(cfg);
        // The second drain conflicts with the first; it is deferred to the
        // first's commit and retried there, not dropped.
        assert_eq!(result.events.len(), 2);
        assert!(
            result.events[1].decided_at >= result.events[0].committed_at,
            "deferred drain must wait out the first's commit window"
        );
        assert!(result.telemetry.to_json().contains("scaling_deferred"));
        assert_eq!(result.final_members, 2);
    }

    #[test]
    fn master_crash_mid_migration_resumes_and_journals() {
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.master.crashes = vec![SimTime::from_secs(30) + SimTime::from_millis(200)];
        let result = run_experiment(cfg);
        assert_eq!(result.events.len(), 1);
        let report = result.events[0].report.as_ref().expect("elmem migrates");
        assert_eq!(report.resumes.len(), 1, "the crash interrupted the run");
        assert!(report.items_migrated > 0);
        assert_eq!(result.final_members, 3);
        let labels: Vec<&str> = result
            .journal
            .entries()
            .iter()
            .map(|e| e.record.label())
            .collect();
        assert!(labels.contains(&"resumed"));
        assert_eq!(labels.last(), Some(&"committed"));
        assert!(result.telemetry.to_json().contains("migration_resumed"));
    }

    #[test]
    fn deterministic_runs() {
        let a = run_experiment(base_config(MigrationPolicy::elmem()));
        let b = run_experiment(base_config(MigrationPolicy::elmem()));
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.events.len(), b.events.len());
    }

    #[test]
    fn autoscaler_scales_in_on_demand_drop() {
        let mut cfg = base_config(MigrationPolicy::Baseline);
        cfg.scheduled = vec![];
        // Demand drops to near zero halfway.
        cfg.workload.trace = elmem_workload::DemandTrace::new(
            vec![1.0, 1.0, 1.0, 0.05, 0.05, 0.05, 0.05],
            SimTime::from_secs(30),
        );
        cfg.workload.peak_rate = 400.0;
        cfg.autoscaler = Some({
            let mut a = AutoScalerConfig::new(cfg.cluster.r_db(), cfg.cluster.node_memory);
            a.epoch = SimTime::from_secs(30);
            a.max_nodes = 4;
            a.min_observations = 5_000;
            a.into()
        });
        let result = run_experiment(cfg);
        assert!(
            !result.events.is_empty(),
            "autoscaler should have scaled in"
        );
        assert!(result.final_members < 4);
    }

    #[test]
    fn trace_kinds_run_end_to_end() {
        // Smoke: a short slice of a real trace shape with the autoscaler.
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.scheduled = vec![];
        cfg.workload.trace = TraceKind::FacebookSys.demand_trace();
        cfg.workload.peak_rate = 120.0;
        let result = run_experiment(cfg);
        assert!(result.total_requests > 1000);
        assert!(!result.timeline.is_empty());
    }
}
