//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! elmem-perfbench --workload <diurnal_day|scale_in_out|kv_concurrent>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints a config echo, the workload's report, and as its last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set from a traced run. A failed correctness check prints the
//! result with `"correct": false` and exits 1. See `README.md` beside this
//! package for what each workload and metric means.

mod diurnal;
mod kv;
mod scale;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("hit_ratio", "ratio"),
];

/// Per-layer metrics from the traced run. A layer a workload never calls
/// reports 0 (a share or a count, never a time).
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("setup.fill_share", "ratio"),
    ("workload.reqgen.share", "ratio"),
    ("cluster.frontend.share", "ratio"),
    ("hash.ring.frontend_share", "ratio"),
    ("stackdist.observe.share", "ratio"),
    ("telemetry.series.share", "ratio"),
    ("control.share", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "count"),
    ("cluster.db.fetches", "count"),
    ("cluster.db.shed", "count"),
    ("stackdist.tracked_keys", "count"),
    ("migration.items_considered", "count"),
    ("migration.items_migrated", "count"),
    ("migration.useful_ratio", "ratio"),
    ("scoring.scale_in_share", "ratio"),
    ("store.dump.scale_in_share", "ratio"),
    ("store.merge.scale_in_share", "ratio"),
    ("migration.plan.scale_in_share", "ratio"),
    ("node.import.scale_in_share", "ratio"),
    ("master.overhead.scale_in_share", "ratio"),
    ("fusecache.comparisons", "count"),
    ("journal.records", "count"),
    ("concurrent.scaling_2t", "ratio"),
    ("concurrent.hit_ratio", "ratio"),
    ("concurrent.evictions_per_set", "ratio"),
    ("concurrent.thread_imbalance", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Named correctness checks, in the order they ran.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Gated metrics: the end-to-end set untraced, the per-layer set traced.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload sizes, echoed in the config line.
    pub sizes: Vec<(&'static str, String)>,
    /// Human-readable report lines (each workload's headline metrics).
    pub report: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn size(&mut self, name: &'static str, value: impl ToString) {
        self.sizes.push((name, value.to_string()));
    }

    /// A report line: `name = value unit (samples)`.
    pub fn line(&mut self, name: &str, value: f64, unit: &str, samples: &str) {
        self.report
            .push(format!("  {name:<28} {value:>16.6} {unit:<8} {samples}"));
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    elmem_bench::rss::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Runs `f` `reps` times, returning the median wall in seconds.
pub fn median_wall<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let out = f();
            let wall = t.elapsed().as_secs_f64();
            drop(out);
            wall
        })
        .collect();
    median(&walls)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a, for the comparability key.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The config echo: everything that makes two results comparable or not.
/// `comparable` hashes all of it except the seed, the trace flag and the
/// run length, so two results with different keys measured different
/// things.
fn config_line(args: &Args, sizes: &[(&'static str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ELMEM_"))
        .collect();
    env.sort();
    let mut fixed = String::new();
    let _ = write!(
        fixed,
        "\"workload\":{},\"nproc\":{nproc},\"store_shards\":{},\"par_jobs\":{},\"planning_jobs\":{},",
        json_str(&args.workload),
        elmem_store::default_shard_count(),
        elmem_util::par::par_jobs(),
        json_str(
            &std::env::var(elmem_core::MIGRATION_JOBS_ENV).unwrap_or_else(|_| "auto".into())
        ),
    );
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let _ = write!(fixed, "\"env\":{{{}}},", env_json.join(","));
    let sizes_json: Vec<String> = sizes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let _ = write!(fixed, "\"sizes\":{{{}}}", sizes_json.join(","));
    format!(
        "config {{{fixed},\"seed\":{},\"trace\":{},\"seconds\":{},\"comparable\":\"{:016x}\"}}",
        args.seed,
        u8::from(args.trace),
        args.seconds,
        fnv(&fixed)
    )
}

/// Fills the canonical metric set for this mode; a name outside it is a
/// bug in the benchmark, as is a missing end-to-end metric.
fn canonical(
    outcome: &Outcome,
    traced: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let set = if traced { PER_LAYER } else { END_TO_END };
    for (name, _) in &outcome.metrics {
        if !set.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name:?} is not in the declared set"));
        }
    }
    set.iter()
        .map(|&(name, unit)| {
            let found = outcome.metrics.iter().find(|(n, _)| *n == name);
            match (found, traced) {
                (Some(&(_, v)), _) if v.is_finite() => Ok((name, v, unit)),
                (Some(&(_, v)), _) => Err(format!("metric {name:?} is not finite: {v}")),
                (None, true) => Ok((name, 0.0, unit)),
                (None, false) => Err(format!("end-to-end metric {name:?} missing")),
            }
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("elmem-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "diurnal_day" => diurnal::run(&args),
        "scale_in_out" => scale::run(&args),
        "kv_concurrent" => kv::run(&args),
        other => {
            eprintln!("elmem-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!("{}", config_line(&args, &outcome.sizes));
    for line in &outcome.report {
        println!("{line}");
    }
    let mut correct = true;
    for (name, ok) in &outcome.checks {
        println!("check {:<56} {}", name, if *ok { "ok" } else { "FAILED" });
        correct &= ok;
    }
    correct &= !outcome.checks.is_empty();
    let metrics = match canonical(&outcome, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("elmem-perfbench: {e}");
            std::process::exit(3);
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(n), json_str(u)))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
