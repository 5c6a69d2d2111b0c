//! In-memory spans recorded around calls into the program's layers.
//! Nothing is written while a run is timed; [`Tracer::write_jsonl`]
//! writes the spans out once the run has ended.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique id within the tracer.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The layer called (`core.engine`, `cli.export`, ...).
    pub layer: &'static str,
    /// The public call the span wraps.
    pub name: &'static str,
    /// Job index within the campaign, when the span belongs to one job.
    pub job: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<SpanRec>>,
}

/// A span that is still open; [`Open::close`] records it.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: usize,
    parent: Option<usize>,
    layer: &'static str,
    name: &'static str,
    job: Option<usize>,
    start: Instant,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span.
    pub fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        job: Option<usize>,
    ) -> Open<'_> {
        Open {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            layer,
            name,
            job,
            start: Instant::now(),
        }
    }

    /// Every closed span, ordered by id.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every closed span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.layer,
                s.name,
                s.job.map_or("null".to_string(), |j| j.to_string()),
                s.start_ns,
                s.end_ns,
            );
        }
        std::fs::write(path, out)
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Open<'_> {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Closes the span and returns its duration in nanoseconds.
    pub fn close(self) -> u64 {
        let end = Instant::now();
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            layer: self.layer,
            name: self.name,
            job: self.job,
            start_ns: self.tracer.since_epoch(self.start),
            end_ns: self.tracer.since_epoch(end),
        };
        let dur = rec.dur_ns();
        self.tracer
            .spans
            .lock()
            .expect("span list poisoned")
            .push(rec);
        dur
    }
}

/// Total duration of the spans named `name`.
pub fn total_ns(spans: &[SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_ns)
        .sum()
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its child spans cover (children on parallel threads
/// overlap, so their intervals are merged first).
pub fn self_ns_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                if a > hi {
                    covered += hi - lo;
                    (lo, hi) = (a, b);
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
        }
        *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}
