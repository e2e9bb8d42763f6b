//! The benchmark's own spans, recorded around the calls into each layer.
//!
//! Spans live in memory and are written out when the run ends. Recording
//! is off for every end-to-end measurement; a traced run turns it on and
//! derives per-layer times as span *self* times (duration minus the part
//! of the interval its children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Root span of one pipeline sample.
pub const SAMPLE: &str = "sample";
/// Root span of one served job.
pub const JOB: &str = "job";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub span: u64,
    pub name: &'static str,
    /// Spans of one sample or job share this identifier.
    pub trace: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// A fresh identifier, usable as a span or trace id.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span; a no-op while recording is off.
    pub fn record(
        &self,
        span: u64,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(Span {
                span,
                name,
                trace,
                parent,
                start_s: at(start),
                end_s: at(end),
            });
    }

    /// Time `f` as a child of `parent` and return its value with the
    /// measured seconds. The timing is taken whether or not spans are on.
    pub fn child<T>(
        &self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(self.id(), name, trace, Some(parent), start, end);
        (value, (end - start).as_secs_f64())
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span recorder panics while holding the lock"),
        )
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.span) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = s.start_s;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_s);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.span, (s.duration() - covered).max(0.0))
        })
        .collect()
}

/// Self times of every span called `name`.
pub fn self_times_of(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.span])
        .collect()
}

/// Share of root-span time no child span explains.
pub fn unexplained_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        own += selfs[&s.span];
        total += s.duration();
    }
    if total > 0.0 {
        own / total
    } else {
        0.0
    }
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{},\"name\":\"{}\",\"trace\":{},\"parent\":{},\"start_s\":{},\"end_s\":{}}}",
            s.span, s.name, s.trace, parent, s.start_s, s.end_s
        )?;
    }
    out.flush()
}

/// What every traced run ends with: the share of root-span time no child
/// explains goes into `metrics` and fails the run above 5 %, and the spans
/// go to `<scratch>/spans-<workload>.jsonl`.
pub fn conclude(
    spans: &[Span],
    scratch: &Path,
    workload: &str,
    metrics: &mut BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) {
    let unexplained = unexplained_share(spans);
    metrics.insert("bench.unexplained_share", unexplained);
    if unexplained > 0.05 {
        problems.push(format!("bench.unexplained_share {unexplained:.3} > 0.05"));
    }
    if let Err(e) = write_jsonl(&scratch.join(format!("spans-{workload}.jsonl")), spans) {
        problems.push(format!("writing spans: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u64, parent: Option<u64>, start_s: f64, end_s: f64) -> Span {
        Span {
            span,
            name: if parent.is_none() { SAMPLE } else { "child" },
            trace: 1,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..10, child 1..4 with its own grandchild 2..3, child 6..9.
        let spans = [
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(2), 2.0, 3.0),
            span(4, Some(1), 6.0, 9.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[&1], 4.0,
            "grandchildren do not count against the root"
        );
        assert_eq!(selfs[&2], 2.0);
        assert_eq!(selfs[&3], 1.0);
        assert_eq!(selfs[&4], 3.0);
        assert_eq!(unexplained_share(&spans), 0.4);
    }

    #[test]
    fn overlapping_and_overhanging_children_cover_their_union() {
        // Children 1..5 and 3..7 overlap; 8..12 overhangs the root's end.
        let spans = [
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 5.0),
            span(3, Some(1), 3.0, 7.0),
            span(4, Some(1), 8.0, 12.0),
        ];
        // Covered: 1..7 and 8..10 = 8 of 10.
        assert_eq!(self_times(&spans)[&1], 2.0);
    }

    #[test]
    fn recorder_is_silent_until_enabled() {
        let rec = Recorder::new();
        let root = rec.id();
        let (v, secs) = rec.child("child", root, root, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.take().is_empty());
        rec.set_enabled(true);
        rec.child("child", root, root, || ());
        let spans = rec.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, Some(root));
    }
}
