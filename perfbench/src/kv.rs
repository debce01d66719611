//! `kv_concurrent`: the `Sync` store that no simulation path serves through.
//!
//! Set-up builds a `ConcurrentSlabStore` (256 MiB, default shard count) and
//! warms it with a 2M-key ETC keyspace that does not fit, so the measured
//! phase runs at a steady hit ratio with steady eviction. Every available
//! core runs one closed-loop client thread: each op is a `get`, then a
//! `set` on a miss (cache-aside). The dataset (keys, value sizes and their
//! popularity ranking) is fixed; the seed drives the client threads' Zipf
//! key streams.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use elmem_store::{ConcurrentSlabStore, ItemMeta, StoreConfig, StoreStats};
use elmem_util::{ByteSize, DetRng, KeyId, SimTime};
use elmem_workload::{Keyspace, ZipfPopularity};

use crate::trace::{Span, Tracer};
use crate::{median, peak_rss_mib, percentile, Args, Outcome};

const KEYS: u64 = 2_000_000;
const STORE_MIB: u64 = 256;
/// Seeds the fixed dataset: value sizes and the popularity permutation.
const DATASET_SEED: u64 = 0x4b56;
const SETUP_REPS: usize = 3;
/// Ops between deadline checks and throughput marks.
const CHECK_EVERY: u64 = 1024;
/// Cache-aside ops one thread serves after set-up, before measuring, so
/// the measured phase starts from the store's steady state rather than
/// from the fill order.
const WARM_SERVE_OPS: u64 = 12_000_000;
/// Throughput is the median over windows of this length.
const WINDOW_S: f64 = 0.5;
/// Traced clients keep one span record per this many ops.
const KEEP_EVERY: u64 = 256;

struct Workload {
    keyspace: Keyspace,
    zipf: ZipfPopularity,
    seed: u64,
}

fn build(seed: u64, tr: &mut Tracer) -> (ConcurrentSlabStore, Workload) {
    let (store, keyspace, zipf) = tr.span("store.new", 0, || {
        (
            ConcurrentSlabStore::new(StoreConfig::with_memory(ByteSize::from_mib(STORE_MIB))),
            Keyspace::new(KEYS, DATASET_SEED),
            ZipfPopularity::new(KEYS, elmem_bench::exp::ZIPF, DATASET_SEED),
        )
    });
    tr.span("store.warm", 0, || {
        // One page per size class first, as Memcached's slab preallocation
        // does: the hottest key of each class the dataset uses is stored
        // while memory is still free. Pages never move between classes, so
        // without this a class first reached after memory is full has no
        // page and no victim, and every `set` into it fails.
        let mut has_page = vec![false; store.classes().len()];
        for rank in 1..=KEYS {
            let key = zipf.key_for_rank(rank);
            let item = ItemMeta::new(key, keyspace.value_size(key), SimTime::ZERO);
            if let Some(class) = store.classes().class_for(item.footprint()) {
                if !std::mem::replace(&mut has_page[class.0 as usize], true) {
                    let _ = store.set(key, item.value_size, SimTime::ZERO);
                }
            }
        }
        // Then coldest first, so the hottest keys end up most recent.
        for rank in (1..=KEYS).rev() {
            let key = zipf.key_for_rank(rank);
            let _ = store.set(key, keyspace.value_size(key), SimTime::ZERO);
        }
    });
    (
        store,
        Workload {
            keyspace,
            zipf,
            seed,
        },
    )
}

/// What one client thread did in one phase.
#[derive(Default)]
struct Tally {
    ops: u64,
    gets: u64,
    hits: u64,
    sets_ok: u64,
    set_errors: u64,
    /// The first `set` error this thread saw.
    first_error: Option<String>,
    get_ns: LatencyHist,
    set_ns: LatencyHist,
    /// (ns since the phase origin, ops so far), every `CHECK_EVERY` ops.
    marks: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

/// Log-linear latency histogram: exact below 128 ns, then 128 buckets per
/// power of two (under 0.8% wide). Fixed size, so memory does not grow
/// with the run; percentiles interpolate by rank inside a bucket.
#[derive(Clone)]
struct LatencyHist {
    counts: Vec<u64>,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; 128 * 36],
        }
    }
}

impl LatencyHist {
    fn bucket(ns: u64) -> usize {
        if ns < 128 {
            return ns as usize;
        }
        let shift = (63 - ns.leading_zeros() - 7) as usize;
        (128 * (shift + 1) + ((ns >> shift) - 128) as usize).min(128 * 36 - 1)
    }

    /// `[low, width)` of bucket `i`.
    fn range(i: usize) -> (f64, f64) {
        if i < 128 {
            return (i as f64, 1.0);
        }
        let shift = i / 128 - 1;
        let mantissa = (i % 128 + 128) as f64;
        let width = (1u64 << shift) as f64;
        (mantissa * width, width)
    }

    fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
    }

    fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `p`th percentile in ns, interpolated inside its bucket.
    fn percentile(&self, p: f64) -> f64 {
        let rank = (p / 100.0 * self.total() as f64).max(1.0);
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && below + c >= rank {
                let (low, width) = Self::range(i);
                return low + width * (rank - below) / c;
            }
            below += c;
        }
        0.0
    }
}

/// One closed-loop client until `deadline`.
fn client(
    store: &ConcurrentSlabStore,
    w: &Workload,
    rng: &mut DetRng,
    deadline: Instant,
    origin: Instant,
    thread: u64,
    traced: bool,
) -> Tally {
    let mut t = Tally::default();
    let mut clock = 0u64;
    loop {
        if t.ops % CHECK_EVERY == 0 {
            let now = Instant::now();
            t.marks.push(((now - origin).as_nanos() as u64, t.ops));
            if now >= deadline {
                return t;
            }
        }
        let key: KeyId = w.zipf.sample(rng);
        clock += 1;
        let now = SimTime::from_micros(clock);
        let t0 = Instant::now();
        let hit = store.get(key, now).is_some();
        let t1 = Instant::now();
        t.ops += 1;
        t.gets += 1;
        t.get_ns.record((t1 - t0).as_nanos() as u64);
        let mut end = t1;
        if hit {
            t.hits += 1;
        } else {
            match store.set(key, w.keyspace.value_size(key), now) {
                Ok(()) => t.sets_ok += 1,
                Err(e) => {
                    t.set_errors += 1;
                    t.first_error.get_or_insert_with(|| e.to_string());
                }
            }
            end = Instant::now();
            t.set_ns.record((end - t1).as_nanos() as u64);
        }
        if traced && t.ops % KEEP_EVERY == 0 {
            t.spans.push(Span {
                name: if hit {
                    "concurrent.get"
                } else {
                    "concurrent.get+set"
                },
                id: (thread << 40) | t.ops,
                parent: None,
                start_ns: (t0 - origin).as_nanos() as u64,
                end_ns: (end - origin).as_nanos() as u64,
            });
        }
    }
}

/// Serves `WARM_SERVE_OPS` cache-aside ops on one thread from a fixed
/// stream: deterministic, and not measured.
fn warm_serve(store: &ConcurrentSlabStore, w: &Workload) {
    let mut rng = DetRng::seed(w.seed).split("kv-warm");
    for i in 0..WARM_SERVE_OPS {
        let key = w.zipf.sample(&mut rng);
        let now = SimTime::from_micros(i);
        if store.get(key, now).is_none() {
            let _ = store.set(key, w.keyspace.value_size(key), now);
        }
    }
}

/// Runs `threads` clients for `secs`; returns per-thread tallies and the
/// phase summary.
fn phase(
    store: &ConcurrentSlabStore,
    w: &Workload,
    threads: u64,
    secs: f64,
    phase_id: &str,
    traced: bool,
) -> (Vec<Tally>, PhaseSummary) {
    let barrier = Barrier::new(threads as usize + 1);
    let root = DetRng::seed(w.seed).split(phase_id);
    let origin = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let barrier = &barrier;
                let mut rng = root.split_index(i);
                s.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(secs);
                    client(store, w, &mut rng, deadline, origin, i, traced)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let wall = start.elapsed().as_secs_f64();
        let summary = summarize(&tallies, wall, (start - origin).as_nanos() as u64);
        (tallies, summary)
    })
}

/// Ops a thread had completed at `t` ns, interpolated between its marks.
fn ops_at(marks: &[(u64, u64)], t: u64) -> f64 {
    let i = marks.partition_point(|&(at, _)| at <= t);
    match (i.checked_sub(1).map(|j| marks[j]), marks.get(i)) {
        (None, _) => 0.0,
        (Some((_, ops)), None) => ops as f64,
        (Some((a, oa)), Some(&(b, ob))) => {
            oa as f64 + (ob - oa) as f64 * (t - a) as f64 / (b - a) as f64
        }
    }
}

struct PhaseSummary {
    ops: u64,
    /// Mean over the whole phase.
    mean_ops_per_s: f64,
    /// Median over `WINDOW_S` windows (all threads summed).
    ops_per_s: f64,
    /// 10th and 90th percentile window rates.
    window_p10_p90: (f64, f64),
    windows: usize,
    imbalance: f64,
}

fn summarize(tallies: &[Tally], wall: f64, start_ns: u64) -> PhaseSummary {
    let ops: Vec<u64> = tallies.iter().map(|t| t.ops).collect();
    let total: u64 = ops.iter().sum();
    let mean = total as f64 / ops.len() as f64;
    let (max, min) = (
        *ops.iter().max().unwrap_or(&0),
        *ops.iter().min().unwrap_or(&0),
    );
    let window_ns = (WINDOW_S * 1e9) as u64;
    let windows = ((wall / WINDOW_S) as u64).max(1);
    let rates: Vec<f64> = (0..windows)
        .map(|k| {
            let (a, b) = (start_ns + k * window_ns, start_ns + (k + 1) * window_ns);
            let done: f64 = tallies
                .iter()
                .map(|t| ops_at(&t.marks, b) - ops_at(&t.marks, a))
                .sum();
            done / WINDOW_S
        })
        .collect();
    PhaseSummary {
        ops: total,
        mean_ops_per_s: total as f64 / wall,
        ops_per_s: median(&rates),
        window_p10_p90: (percentile(&rates, 10.0), percentile(&rates, 90.0)),
        windows: rates.len(),
        imbalance: (max - min) as f64 / mean.max(1.0),
    }
}

pub fn run(args: &Args) -> Outcome {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let mut out = Outcome::default();
    out.size("keys", KEYS);
    out.size("store_mib", STORE_MIB);
    out.size("threads", threads);
    out.size("warm_serve_ops", WARM_SERVE_OPS);
    out.size("dataset_seed", DATASET_SEED);
    let mut tr = Tracer::new();
    tr.open("kv_concurrent", 0, true);
    // The last set-up is kept; traced runs build once, inside the trace.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_walls = Vec::new();
    let mut built = None;
    for _ in 0..reps {
        drop(built.take()); // one store alive at a time
        let mut scratch = Tracer::new();
        let t = Instant::now();
        tr.open("setup", 0, true);
        built = Some(build(
            args.seed,
            if args.trace { &mut tr } else { &mut scratch },
        ));
        tr.close();
        setup_walls.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_walls);
    let (store, w) = built.expect("at least one set-up");
    tr.span("store.warm_serve", 0, || warm_serve(&store, &w));
    let warm = store.stats();
    out.line(
        "warm.items",
        store.len() as f64,
        "count",
        "(sim, deterministic)",
    );
    out.line(
        "warm.evictions",
        warm.evictions as f64,
        "count",
        "(sim, deterministic)",
    );

    // Untraced: all threads for the whole window. Traced: a 1-thread
    // phase, then all threads untraced, then all threads traced.
    let mut all: Vec<Tally> = Vec::new();
    let (main, one, traced_ps) = if args.trace {
        let (t1, one) = tr.span("phase.1_thread", 0, || {
            phase(&store, &w, 1, args.seconds * 0.2, "kv-1t", false)
        });
        let (tn, main) = tr.span("phase.n_threads", 0, || {
            phase(&store, &w, threads, args.seconds * 0.4, "kv-nt", false)
        });
        let (tt, traced_ps) = tr.span("phase.n_threads_traced", 0, || {
            phase(
                &store,
                &w,
                threads,
                args.seconds * 0.4,
                "kv-nt-traced",
                true,
            )
        });
        all.extend(t1);
        all.extend(tn);
        all.extend(tt);
        (main, Some(one), Some(traced_ps))
    } else {
        let (tn, main) = phase(&store, &w, threads, args.seconds, "kv-nt", false);
        all.extend(tn);
        (main, None, None)
    };

    let sum = |f: fn(&Tally) -> u64| all.iter().map(f).sum::<u64>();
    let (gets, hits, sets_ok, set_errors) = (
        sum(|t| t.gets),
        sum(|t| t.hits),
        sum(|t| t.sets_ok),
        sum(|t| t.set_errors),
    );
    let end = store.stats();
    let delta = StoreStats {
        hits: end.hits - warm.hits,
        misses: end.misses - warm.misses,
        sets: end.sets - warm.sets,
        evictions: end.evictions - warm.evictions,
        ..Default::default()
    };
    out.check(
        "kv_concurrent: per-thread tallies reconcile with stats()",
        delta.hits == hits && delta.misses == gets - hits && delta.sets == sets_ok,
    );
    let audit = tr.span("store.into_serial_audit", 0, || store.into_serial().audit());
    out.check("kv_concurrent: into_serial().audit() passes", audit.is_ok());
    if let Some(e) = all.iter().find_map(|t| t.first_error.as_ref()) {
        out.report
            .push(format!("  {set_errors} set errors; the first: {e}"));
    }
    tr.close();
    out.attempted = gets;
    out.failed = set_errors;

    let (mut get_ns, mut set_ns) = (LatencyHist::default(), LatencyHist::default());
    for t in &all {
        get_ns.merge(&t.get_ns);
        set_ns.merge(&t.set_ns);
    }
    let hit_ratio = hits as f64 / gets.max(1) as f64;
    let get_p50 = get_ns.percentile(50.0);
    let n = format!("({} gets, {} sets)", get_ns.total(), set_ns.total());

    if let (Some(one), Some(traced_ps)) = (one, traced_ps) {
        let layers = match tr.layers("kv_concurrent") {
            Ok(l) => l,
            Err(e) => {
                out.check(format!("kv_concurrent: layers table ({e})"), false);
                return out;
            }
        };
        out.check(
            "kv_concurrent: layer self times sum to at most the root wall",
            true,
        );
        let kept: usize = all.iter().map(|t| t.spans.len()).sum();
        layers.print("kv_concurrent", tr.spans().len() + kept);
        out.metric("trace.overhead", main.ops_per_s / traced_ps.ops_per_s);
        out.metric("trace.unattributed_share", layers.unattributed_share());
        out.metric(
            "setup.fill_share",
            tr.agg("store.warm").ns as f64 / tr.agg("setup").ns as f64,
        );
        out.metric("concurrent.scaling_2t", main.ops_per_s / one.ops_per_s);
        out.metric("concurrent.hit_ratio", hit_ratio);
        out.metric(
            "concurrent.evictions_per_set",
            delta.evictions as f64 / delta.sets.max(1) as f64,
        );
        out.metric("concurrent.thread_imbalance", main.imbalance);
        out.line("kv_ops_per_s_1_thread", one.ops_per_s, "ops/s", "");
        out.line("kv_ops_per_s_n_threads", main.ops_per_s, "ops/s", "");
        out.line("kv_ops_per_s_n_traced", traced_ps.ops_per_s, "ops/s", "");
    } else {
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mib", peak_rss_mib());
        out.metric("ops_per_s", main.ops_per_s);
        out.metric("op_ms_p50", get_p50 / 1e6);
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
            set_errors as f64 / gets.max(1) as f64,
            "ratio",
            "(set errors / ops)",
        );
        out.line(
            "kv_ops_per_s",
            main.ops_per_s,
            "ops/s",
            &format!("(median of {} windows of {WINDOW_S} s)", main.windows),
        );
        out.line(
            "kv_ops_per_s_window_p10",
            main.window_p10_p90.0,
            "ops/s",
            "",
        );
        out.line(
            "kv_ops_per_s_window_p90",
            main.window_p10_p90.1,
            "ops/s",
            "",
        );
        out.line(
            "kv_ops_per_s_mean",
            main.mean_ops_per_s,
            "ops/s",
            &format!("({} ops)", main.ops),
        );
        out.line("kv_get_us_p50", get_p50 / 1e3, "us", &n);
        out.line("kv_get_us_p99", get_ns.percentile(99.0) / 1e3, "us", &n);
        out.line("kv_set_us_p99", set_ns.percentile(99.0) / 1e3, "us", &n);
        out.line("kv_hit_ratio", hit_ratio, "ratio", "");
    }
    out
}
