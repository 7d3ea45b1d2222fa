//! The traced run's span ledger. Spans are recorded in memory from the
//! benchmark's own code, around calls into each layer's public functions,
//! and written out once the run ends. Nothing here reaches the program:
//! the crates under test never see a clock from this module.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval: a call into a layer, or a phase of the workload.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// 0 for the driving thread, `1 + worker` for crawl workers.
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Ledger {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Ledger {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn push(&self, span: Span) {
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// Moves a worker thread's locally buffered spans into the ledger.
    pub fn extend(&self, batch: Vec<Span>) {
        if let Ok(mut spans) = self.spans.lock() {
            spans.extend(batch);
        }
    }

    /// Runs `f` inside a span named `name` on the driving thread. `f`
    /// receives the new span's id, to parent nested spans.
    pub fn time<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            thread: 0,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children on the same thread covers. Children on
/// other threads (crawl workers) run beside the driving thread, not
/// inside it, so they do not reduce its self time; children on one
/// thread never overlap, so self times on the driving thread partition
/// the root span's wall time.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let thread: BTreeMap<u64, usize> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            if thread.get(&p) == Some(&s.thread) {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Table rows: a label and its ms.
pub type Rows = Vec<(String, f64)>;

/// The root span (`workload`) and the wall-time table under it: the self
/// time of every driving-thread span in the root's tree, summed by span
/// name. The rows add up to the root's duration; the root's own row is
/// the time no layer span covers.
pub fn wall_rows(spans: &[Span]) -> Option<(f64, Rows)> {
    let root = spans
        .iter()
        .find(|s| s.name == "workload" && s.parent.is_none())?;
    let parent: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let in_root = |mut id: u64| loop {
        if id == root.id {
            return true;
        }
        match parent.get(&id).copied().flatten() {
            Some(p) => id = p,
            None => return false,
        }
    };
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&str, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.thread == 0 && in_root(s.id)) {
        let ms = selfs.get(&s.id).copied().unwrap_or(0) as f64 / 1e6;
        let name = if s.id == root.id {
            UNATTRIBUTED
        } else {
            s.name
        };
        *rows.entry(name).or_insert(0.0) += ms;
    }
    let rows = rows
        .into_iter()
        .filter(|(name, ms)| *ms > 0.0 || *name == UNATTRIBUTED)
        .map(|(name, ms)| (name.to_string(), ms))
        .collect();
    Some(((root.end_ns - root.start_ns) as f64 / 1e6, rows))
}

/// Row label of the root span's self time in [`wall_rows`].
pub const UNATTRIBUTED: &str = "unattributed (root self time)";

/// A Markdown table of `rows`, largest first, with each row's share of
/// `total`.
pub fn render_table(title: &str, rows: &[(String, f64)], total: f64) -> String {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = format!("| {title} | ms | share |\n|---|---:|---:|\n");
    for (label, ms) in &rows {
        out += &format!("| {label} | {ms:.1} | {:.1}% |\n", 100.0 * ms / total);
    }
    out += &format!("| **total** | {total:.1} | |\n");
    out
}

/// Sum of durations, in ms, of every span named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum()
}

/// Writes every span as one JSON line, with its self time.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"thread\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            selfs.get(&s.id).copied().unwrap_or(0) as f64 / 1e3,
        )?;
    }
    out.flush()
}
