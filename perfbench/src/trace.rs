//! In-memory span recorder for the traced runs.
//!
//! Spans are opened and closed around calls into the library crates from
//! the benchmark's own code; nothing inside the program is instrumented.
//! Every closed span feeds a per-name aggregate (calls, inclusive ns, self
//! ns). Full span records (name, id, parent, start, end) are kept for
//! coarse spans and for one request in [`Tracer::keep_every`], so memory
//! stays bounded on million-request days while the aggregates still cover
//! every call.
//!
//! A span's self time is its duration minus the time its direct children
//! cover. Spans nest strictly (a stack), so the self times of all spans
//! under the root plus the root's own self time add up to the root's wall.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The request or migration the span belongs to.
    pub id: u64,
    /// Index of the parent span record, if it was kept.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate over every closed span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    record: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    agg: BTreeMap<&'static str, Agg>,
    /// Keep the full record of one request span in this many.
    pub keep_every: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            agg: BTreeMap::new(),
            keep_every: 256,
        }
    }

    /// Opens a span; `keep` decides whether its full record is stored.
    pub fn open(&mut self, name: &'static str, id: u64, keep: bool) {
        let now = Instant::now();
        let record = keep.then(|| {
            let parent = self.stack.last().and_then(|o| o.record);
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns: (now - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            name,
            start: now,
            child_ns: 0,
            record,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let now = Instant::now();
        let open = self.stack.pop().expect("close without open");
        let dur = (now - open.start).as_nanos() as u64;
        if let Some(i) = open.record {
            self.spans[i].end_ns = (now - self.origin).as_nanos() as u64;
        }
        let agg = self.agg.entry(open.name).or_default();
        agg.calls += 1;
        agg.ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Times `f` as a span whose record is kept.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, id, true);
        let out = f();
        self.close();
        out
    }

    /// Times `f` as a high-frequency span: always aggregated, its record
    /// kept only for one id in [`Self::keep_every`].
    pub fn hot<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, id, id.is_multiple_of(self.keep_every));
        let out = f();
        self.close();
        out
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Checks that every kept span lies inside its parent's interval;
    /// returns the number of distinct request/migration ids kept.
    fn check_nesting(&self) -> Result<usize, String> {
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.name));
            }
            if let Some(p) = s.parent.map(|i| &self.spans[i]) {
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!("span {} escapes its parent {}", s.name, p.name));
                }
            }
        }
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids.len())
    }

    /// The `layers` table rooted at `root`: one row per span name with
    /// calls, inclusive ns, self ns and self share of the root's wall.
    /// Fails if the self times under the root exceed the root's wall.
    pub fn layers(&self, root: &str) -> Result<Layers, String> {
        assert!(self.stack.is_empty(), "layers() with open spans");
        let ids = self.check_nesting()?;
        let root_agg = self.agg(root);
        if root_agg.calls == 0 || root_agg.ns == 0 {
            return Err(format!("root span {root:?} never closed"));
        }
        let rows: Vec<(&'static str, Agg)> = self.agg.iter().map(|(&n, &a)| (n, a)).collect();
        let self_sum: u64 = rows.iter().map(|(_, a)| a.self_ns).sum();
        // Every span here nests under a root call, so the self times of
        // all of them (the root's own included) must add up to at most
        // the roots' summed wall.
        if self_sum > root_agg.ns {
            return Err(format!(
                "self-time sum {self_sum} ns exceeds root wall {} ns",
                root_agg.ns
            ));
        }
        Ok(Layers {
            ids,
            root_ns: root_agg.ns,
            unattributed_ns: root_agg.self_ns,
            rows,
        })
    }
}

pub struct Layers {
    /// Distinct request/migration ids among the kept span records.
    pub ids: usize,
    pub root_ns: u64,
    /// The root's own self time: wall not covered by any child span.
    pub unattributed_ns: u64,
    pub rows: Vec<(&'static str, Agg)>,
}

impl Layers {
    pub fn share(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, a)| a.self_ns as f64 / self.root_ns as f64)
    }

    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns as f64 / self.root_ns as f64
    }

    /// Prints the table, widest self time first.
    pub fn print(&self, title: &str, spans_kept: usize) {
        println!(
            "layers [{title}] root {:.3} s, {spans_kept} span records kept over {} ids",
            self.root_ns as f64 / 1e9,
            self.ids
        );
        println!(
            "  {:<34} {:>10} {:>14} {:>14} {:>8}",
            "layer", "calls", "ns", "self_ns", "share"
        );
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        for (name, a) in rows {
            println!(
                "  {:<34} {:>10} {:>14} {:>14} {:>8.4}",
                name,
                a.calls,
                a.ns,
                a.self_ns,
                a.self_ns as f64 / self.root_ns as f64
            );
        }
    }
}
