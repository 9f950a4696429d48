//! In-memory spans for the traced run. The benchmark records a span
//! around each call it makes into a layer; spans stay in memory and are
//! written out when the run ends. A span's self time is its duration
//! minus the part of it that its children cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span belongs to: a message (its lane and sequence number) or a
/// migration (its index in the job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Req {
    Msg { lane: u32, seq: u64 },
    Migration(u32),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: Req,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under an id from [`SpanLog::new_id`].
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        a: Instant,
        b: Instant,
        req: Req,
    ) {
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.ns(a),
            end_ns: self.ns(b),
            req,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Per span name: the self times (ns) of every span of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map(|c| covered_ns(s.start_ns, s.end_ns, c))
            .unwrap_or(0);
        out.entry(s.name).or_default().push(s.dur_ns() - covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map(|(a, b)| b - a).unwrap_or(0)
}

/// The four consecutive segments a `sched.migrate` span splits into.
pub const MIGRATION_SEGMENTS: [&str; 4] = [
    "sched.order",
    "state.checkpoint",
    "core.migrate",
    "sched.commit",
];

/// The `sched.migrate` span and its four consecutive segments.
pub fn record_migration(log: &SpanLog, k: usize, t: [Instant; 5]) {
    let root = log.new_id();
    let req = Req::Migration(k as u32);
    for (i, name) in MIGRATION_SEGMENTS.iter().enumerate() {
        log.record(log.new_id(), root, name, t[i], t[i + 1], req);
    }
    log.record(root, 0, "sched.migrate", t[0], t[4], req);
}

/// For every `sched.migrate` span: the share of its wall time (in %)
/// that its segments leave uncovered or cover twice. A segment's part
/// outside the span (a source that returns after the commit was
/// already reported) neither covers nor overlaps it.
pub fn reconcile(spans: &[Span]) -> Vec<f64> {
    let mut segments: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| MIGRATION_SEGMENTS.contains(&s.name))
    {
        segments
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == "sched.migrate")
        .map(|s| {
            let segs = segments.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let union = covered_ns(s.start_ns, s.end_ns, segs);
            let clipped: u64 = segs
                .iter()
                .map(|&(a, b)| b.min(s.end_ns).saturating_sub(a.max(s.start_ns)))
                .sum();
            let gap = s.dur_ns() - union;
            let overlap = clipped - union;
            (gap + overlap) as f64 / s.dur_ns().max(1) as f64 * 100.0
        })
        .collect()
}

/// Write every span as one tab-separated line.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tstart_ns\tend_ns\treq")?;
    for s in spans {
        let req = match s.req {
            Req::Msg { lane, seq } => format!("msg:{lane}:{seq}"),
            Req::Migration(k) => format!("mig:{k}"),
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, req
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            req: Req::Migration(0),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "sched.migrate", 0, 100),
            span(2, 1, "sched.order", 0, 30),
            span(3, 1, "core.migrate", 20, 60),
            span(4, 1, "sched.commit", 90, 120),
        ];
        let st = self_times(&spans);
        // Children cover [0, 60) and [90, 100) of the parent.
        assert_eq!(st["sched.migrate"], vec![30]);
        assert_eq!(st["core.migrate"], vec![40]);
    }

    #[test]
    fn reconcile_reports_gap_and_overlap() {
        let spans = vec![
            span(1, 0, "sched.migrate", 0, 100),
            span(2, 1, "sched.order", 0, 40),
            span(3, 1, "state.checkpoint", 40, 50),
            span(4, 1, "core.migrate", 50, 90),
            span(5, 1, "sched.commit", 90, 98),
            // Overlap: the source returns after the commit was reported.
            span(6, 0, "sched.migrate", 0, 100),
            span(7, 6, "sched.order", 0, 40),
            span(8, 6, "state.checkpoint", 40, 50),
            span(9, 6, "core.migrate", 45, 120),
            span(10, 6, "sched.commit", 120, 120),
        ];
        assert_eq!(reconcile(&spans), vec![2.0, 5.0]);
    }
}
