//! Trace sinks and the cheap-to-clone [`Tracer`] handle.
//!
//! The overhead contract: a **disabled** tracer must cost nothing on the
//! hot path. [`Tracer::emit`] takes a closure, so when no sink is attached
//! the event is never even constructed — the call compiles down to one
//! `Option` branch, with zero allocations. Producers that need to compute
//! something expensive *before* building an event (e.g. scanning a mesh
//! for the remaining bad-triangle count) should guard on
//! [`Tracer::enabled`] first.

use crate::event::TraceEvent;
use crate::json::to_json;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives trace events. Implementations must be cheap and thread-safe:
/// events are recorded from engine workers mid-launch, and — under the
/// `morph-serve` device pool — from several concurrently-running jobs
/// emitting into one shared sink.
pub trait TraceSink: Send + Sync {
    fn record(&self, event: TraceEvent);

    /// Record an event attributed to a job (see [`Tracer::for_job`]).
    /// The default implementation drops the attribution and forwards to
    /// [`TraceSink::record`], so plain sinks keep working; sinks that
    /// persist streams (JSONL) or partition reports override this.
    fn record_tagged(&self, job: Option<u64>, event: TraceEvent) {
        let _ = job;
        self.record(event);
    }

    /// Flush any buffering (JSONL writers). Default: nothing.
    fn flush(&self) {}
}

/// A handle producers emit through. `Tracer::default()` is disabled;
/// cloning shares the underlying sink (and the job tag, if any).
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
    job: Option<u64>,
}

impl Tracer {
    /// The disabled tracer: every `emit` is a no-op branch.
    pub const fn disabled() -> Self {
        Self {
            sink: None,
            job: None,
        }
    }

    /// A tracer recording into `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self {
            sink: Some(sink),
            job: None,
        }
    }

    /// A clone of this tracer whose every emission is attributed to `job`.
    /// The `morph-serve` executor hands one of these to each running job,
    /// so engine spans, recovery decisions and algorithm markers from
    /// concurrently-executing jobs can be told apart in one shared stream.
    pub fn for_job(&self, job: u64) -> Tracer {
        Tracer {
            sink: self.sink.clone(),
            job: Some(job),
        }
    }

    /// The job this handle attributes emissions to, if any.
    pub fn job(&self) -> Option<u64> {
        self.job
    }

    /// A tracer recording into this tracer's sink *and* `extra`; a
    /// disabled tracer becomes one recording into `extra` alone. The
    /// `morph-serve` pool uses this to splice its always-on flight
    /// recorder next to whatever sink the caller supplied.
    pub fn tee_with(&self, extra: Arc<dyn TraceSink>) -> Tracer {
        let sink: Arc<dyn TraceSink> = match &self.sink {
            Some(own) => Arc::new(TeeSink::new(vec![Arc::clone(own), extra])),
            None => extra,
        };
        Tracer {
            sink: Some(sink),
            job: self.job,
        }
    }

    /// Whether a sink is attached. Guard expensive pre-computation on
    /// this; `emit` itself already checks.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record the event produced by `f` — `f` runs only when a sink is
    /// attached, so a disabled tracer never constructs the event.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record_tagged(self.job, f());
        }
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("job", &self.job)
            .finish()
    }
}

/// In-memory ring buffer: keeps the most recent `capacity` events.
/// The cheap always-on option — bounded memory, no I/O; drain it after a
/// run (or after a failure, flight-recorder style).
pub struct RingSink {
    buf: Mutex<RingBuf>,
}

struct RingBuf {
    events: VecDeque<(Option<u64>, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Mutex::new(RingBuf {
                events: VecDeque::with_capacity(capacity.min(4096)),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.events.iter().map(|(_, e)| e.clone()).collect()
    }

    /// Snapshot of the retained events with their job attribution (the
    /// tag a [`Tracer::for_job`] handle stamped, `None` for untagged
    /// emissions), oldest first.
    pub fn tagged_events(&self) -> Vec<(Option<u64>, TraceEvent)> {
        let buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.events.iter().cloned().collect()
    }

    /// Remove and return all retained events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.events.drain(..).map(|(_, e)| e).collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    pub fn len(&self) -> usize {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: TraceEvent) {
        self.record_tagged(None, event);
    }

    fn record_tagged(&self, job: Option<u64>, event: TraceEvent) {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.events.len() == buf.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back((job, event));
    }
}

/// Streams events as JSON Lines to any writer. I/O errors are recorded
/// (first one wins) rather than panicking mid-kernel; check
/// [`JsonlSink::io_error`] after the run.
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<JsonlInner<W>>,
}

struct JsonlInner<W> {
    writer: W,
    error: Option<io::Error>,
    lines: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) a JSONL trace file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    pub fn new(writer: W) -> Self {
        Self {
            inner: Mutex::new(JsonlInner {
                writer,
                error: None,
                lines: 0,
            }),
        }
    }

    /// Lines successfully written.
    pub fn lines(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).lines
    }

    /// The first I/O error encountered, as a string (errors are sticky:
    /// once writing fails, subsequent events are discarded).
    pub fn io_error(&self) -> Option<String> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .error
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Flush and return the writer (e.g. to inspect an in-memory buffer).
    pub fn into_writer(self) -> W {
        let mut inner = self
            .inner
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        let _ = inner.writer.flush();
        inner.writer
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: TraceEvent) {
        self.record_tagged(None, event);
    }

    /// Job-attributed record: the line gains a leading `"job"` field
    /// (skipped for [`TraceEvent::Job`] lifecycle events, which carry
    /// their own `job` field). The whole line — prefix, event, newline —
    /// is written under one lock acquisition, so concurrent emissions
    /// from different jobs interleave only at line granularity; a
    /// recorded stream is parseable no matter how many jobs shared the
    /// sink.
    fn record_tagged(&self, job: Option<u64>, event: TraceEvent) {
        let line = match job {
            // `{"a":…}` → `{"job":N,"a":…}`; the splice keeps the hand-
            // rolled encoder single-purpose.
            Some(id) if event.kind() != "job" => {
                let body = to_json(&event);
                let rest = body.strip_prefix('{').unwrap_or(&body);
                if rest == "}" {
                    format!("{{\"job\":{id}}}")
                } else {
                    format!("{{\"job\":{id},{rest}")
                }
            }
            _ => to_json(&event),
        };
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.error.is_some() {
            return;
        }
        match inner
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| inner.writer.write_all(b"\n"))
        {
            Ok(()) => inner.lines += 1,
            Err(e) => inner.error = Some(e),
        }
    }

    fn flush(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.error.is_none() {
            if let Err(e) = inner.writer.flush() {
                inner.error = Some(e);
            }
        }
    }
}

/// Broadcasts every record to several sinks — e.g. a bounded in-memory
/// [`RingSink`] for the end-of-run summary *and* a [`JsonlSink`] for the
/// persisted stream. Flush fans out too.
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Self { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: TraceEvent) {
        self.record_tagged(None, event);
    }

    fn record_tagged(&self, job: Option<u64>, event: TraceEvent) {
        if let Some((last, rest)) = self.sinks.split_last() {
            for sink in rest {
                sink.record_tagged(job, event.clone());
            }
            last.record_tagged(job, event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// Parse a JSONL byte stream back into events. Returns the events plus
/// the (1-based) numbers of lines that failed to parse; blank lines are
/// skipped.
pub fn parse_jsonl(data: &str) -> (Vec<TraceEvent>, Vec<usize>) {
    let (tagged, bad) = parse_jsonl_tagged(data);
    (tagged.into_iter().map(|(_, e)| e).collect(), bad)
}

/// [`parse_jsonl`], keeping each line's job attribution: the optional
/// top-level `"job"` field a tagged tracer spliced in ([`TraceEvent::Job`]
/// lifecycle events report their own id as the attribution).
pub fn parse_jsonl_tagged(data: &str) -> (Vec<(Option<u64>, TraceEvent)>, Vec<usize>) {
    let mut events = Vec::new();
    let mut bad = Vec::new();
    for (i, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = crate::json::parse(line).ok().and_then(|v| {
            let ev = TraceEvent::from_json(&v)?;
            let tag = match &ev {
                TraceEvent::Job { job, .. } => Some(*job),
                _ => v.get("job").and_then(crate::json::JsonValue::as_u64),
            };
            Some((tag, ev))
        });
        match parsed {
            Some(te) => events.push(te),
            None => bad.push(i + 1),
        }
    }
    (events, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CountersSnapshot, TraceEvent};
    use std::time::Instant;

    fn marker(i: u64) -> TraceEvent {
        TraceEvent::AlgoIteration {
            algo: "test".into(),
            iteration: i,
            metric: "x".into(),
            value: i as f64,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(marker(i));
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(ring.dropped(), 2);
        match &evs[0] {
            TraceEvent::AlgoIteration { iteration, .. } => assert_eq!(*iteration, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ring_drain_empties() {
        let ring = RingSink::new(8);
        ring.record(marker(0));
        ring.record(marker(1));
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_roundtrips_through_a_buffer() {
        let sink = JsonlSink::new(Vec::<u8>::new());
        sink.record(marker(7));
        sink.record(TraceEvent::PhaseSpan {
            launch: 1,
            phase: 2,
            wall_us: 55,
            delta: CountersSnapshot {
                commits: 3,
                ..Default::default()
            },
        });
        assert_eq!(sink.lines(), 2);
        assert!(sink.io_error().is_none());
        let bytes = sink.into_writer();
        let text = String::from_utf8(bytes).unwrap();
        let (events, bad) = parse_jsonl(&text);
        assert!(bad.is_empty(), "bad lines: {bad:?}");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], marker(7));
    }

    #[test]
    fn parse_jsonl_reports_bad_lines() {
        let (events, bad) = parse_jsonl("not json\n\n{\"type\":\"alloc\",\"name\":\"a\",\"used\":1,\"capacity\":2}\n{\"type\":\"unknown\"}\n");
        assert_eq!(events.len(), 1);
        assert_eq!(bad, vec![1, 4]);
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        // The closure must not run: building the event would panic.
        for _ in 0..1000 {
            t.emit(|| panic!("disabled tracer must not construct events"));
        }
    }

    /// The zero-overhead contract, measured: a disabled emit is one branch.
    /// The bound is deliberately loose (shared CI machines), but a disabled
    /// tracer that allocated or formatted would blow it by orders of
    /// magnitude.
    #[test]
    fn disabled_emit_is_nanoseconds() {
        let t = Tracer::disabled();
        let n = 1_000_000u64;
        let start = Instant::now();
        for i in 0..n {
            t.emit(|| marker(i));
        }
        let per_emit = start.elapsed().as_nanos() / n as u128;
        assert!(per_emit < 1_000, "disabled emit took {per_emit} ns");
    }

    #[test]
    fn enabled_tracer_records() {
        let ring = Arc::new(RingSink::new(16));
        let t = Tracer::new(Arc::clone(&ring) as Arc<dyn TraceSink>);
        assert!(t.enabled());
        t.emit(|| marker(1));
        t.flush();
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn for_job_tags_ring_emissions() {
        let ring = Arc::new(RingSink::new(16));
        let base = Tracer::new(Arc::clone(&ring) as Arc<dyn TraceSink>);
        assert_eq!(base.job(), None);
        let j7 = base.for_job(7);
        assert_eq!(j7.job(), Some(7));
        base.emit(|| marker(0));
        j7.emit(|| marker(1));
        let tagged = ring.tagged_events();
        assert_eq!(tagged.len(), 2);
        assert_eq!(tagged[0].0, None);
        assert_eq!(tagged[1].0, Some(7));
        // The untagged view is unchanged.
        assert_eq!(ring.events().len(), 2);
    }

    #[test]
    fn jsonl_tagged_lines_roundtrip_with_attribution() {
        let sink = JsonlSink::new(Vec::<u8>::new());
        sink.record_tagged(Some(3), marker(1));
        sink.record_tagged(None, marker(2));
        // A Job lifecycle event already carries its id; no splice happens
        // and the attribution comes from the event itself.
        sink.record_tagged(Some(9), TraceEvent::Job {
            job: 9,
            tenant: "acme".into(),
            kind: crate::event::JobEventKind::Submitted,
            queue_depth: 4,
            device: 0,
            t_us: 17,
            deadline_us: 0,
            detail: String::new(),
        });
        let text = String::from_utf8(sink.into_writer()).unwrap();
        // No duplicate `"job":` keys on any line (the `"type":"job"` value
        // string is not a key).
        for line in text.lines() {
            assert!(line.matches("\"job\":").count() <= 1, "line: {line}");
        }
        let (tagged, bad) = parse_jsonl_tagged(&text);
        assert!(bad.is_empty(), "bad lines: {bad:?}");
        assert_eq!(tagged.len(), 3);
        assert_eq!(tagged[0].0, Some(3));
        assert_eq!(tagged[0].1, marker(1));
        assert_eq!(tagged[1].0, None);
        assert_eq!(tagged[2].0, Some(9));
        // The untagged parser still sees all events.
        let (events, _) = parse_jsonl(&text);
        assert_eq!(events.len(), 3);
    }

    /// Satellite regression: two threads emitting concurrently through
    /// job-tagged handles into one `JsonlSink` must produce a stream where
    /// every line parses (no torn/interleaved writes) and every event's
    /// attribution survives — the multi-job serving scenario in miniature.
    #[test]
    fn concurrent_tagged_emission_stays_line_atomic() {
        const PER_JOB: u64 = 400;
        let sink = Arc::new(JsonlSink::new(Vec::<u8>::new()));
        let base = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
        std::thread::scope(|s| {
            for job in [1u64, 2] {
                let t = base.for_job(job);
                s.spawn(move || {
                    for i in 0..PER_JOB {
                        // The event payload encodes the writer, so a write
                        // attributed to the wrong job is detectable.
                        t.emit(|| TraceEvent::AlgoIteration {
                            algo: format!("job{job}"),
                            iteration: i,
                            metric: "i".into(),
                            value: i as f64,
                        });
                    }
                });
            }
        });
        assert_eq!(sink.lines(), 2 * PER_JOB);
        drop(base); // release the tracer's Arc so the sink can be unwrapped
        let text = String::from_utf8(
            Arc::try_unwrap(sink)
                .unwrap_or_else(|_| panic!("sink still shared"))
                .into_writer(),
        )
        .unwrap();
        let (tagged, bad) = parse_jsonl_tagged(&text);
        assert!(bad.is_empty(), "torn lines: {bad:?}");
        assert_eq!(tagged.len(), (2 * PER_JOB) as usize);
        for job in [1u64, 2] {
            let mine: Vec<_> = tagged
                .iter()
                .filter(|(tag, _)| *tag == Some(job))
                .collect();
            assert_eq!(mine.len(), PER_JOB as usize);
            // Per-job event order is preserved and self-consistent.
            for (i, (_, ev)) in mine.iter().enumerate() {
                match ev {
                    TraceEvent::AlgoIteration {
                        algo, iteration, ..
                    } => {
                        assert_eq!(algo, &format!("job{job}"));
                        assert_eq!(*iteration, i as u64);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn tee_with_splices_a_sink_into_any_tracer() {
        let ring_a = Arc::new(RingSink::new(8));
        let ring_b = Arc::new(RingSink::new(8));
        // A disabled tracer gains exactly the extra sink.
        let t = Tracer::disabled().tee_with(Arc::clone(&ring_a) as Arc<dyn TraceSink>);
        assert!(t.enabled());
        t.emit(|| marker(1));
        assert_eq!(ring_a.len(), 1);
        // An enabled tracer keeps its own sink and gains the extra one;
        // job attribution survives the splice.
        let base = Tracer::new(Arc::clone(&ring_a) as Arc<dyn TraceSink>).for_job(3);
        let teed = base.tee_with(Arc::clone(&ring_b) as Arc<dyn TraceSink>);
        teed.emit(|| marker(2));
        assert_eq!(ring_a.len(), 2);
        assert_eq!(ring_b.tagged_events(), vec![(Some(3), marker(2))]);
    }

    #[test]
    fn tee_fans_out_records_and_flushes() {
        let ring_a = Arc::new(RingSink::new(8));
        let ring_b = Arc::new(RingSink::new(8));
        let tee = TeeSink::new(vec![
            Arc::clone(&ring_a) as Arc<dyn TraceSink>,
            Arc::clone(&ring_b) as Arc<dyn TraceSink>,
        ]);
        let t = Tracer::new(Arc::new(tee));
        t.for_job(5).emit(|| marker(1));
        t.flush();
        assert_eq!(ring_a.tagged_events(), ring_b.tagged_events());
        assert_eq!(ring_a.tagged_events()[0].0, Some(5));
    }
}
