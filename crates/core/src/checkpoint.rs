//! Job checkpoint/resume: the service-resilience counterpart of the
//! paper's restartable host loop.
//!
//! A morph pipeline's host loop (Fig. 3) is a sequence of iteration
//! boundaries at which all device buffers are quiescent. At such a
//! boundary the *minimal host-visible resume state* — the worklist, the
//! survey/mesh/component arrays, the allocator high-water — fully
//! determines the rest of the run. [`CheckpointStore`] persists versioned
//! snapshots of that state so a job evicted by device loss or preemption
//! can resume on another slot from its last checkpoint instead of
//! replaying from scratch.
//!
//! The layer follows the workspace's attach-point contract (tracer,
//! metrics): a pipeline is handed an `Option<CheckpointCtl>` through
//! `RecoveryOpts`; when it is `None` the payload closure is never invoked
//! and **no snapshot allocation happens at all**.

use morph_gpu_sim::{AppendFault, FaultPlan, MetricsHub};
use morph_trace::{TraceEvent, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// CRC-32 (IEEE 802.3, the `cksum`/zlib polynomial) lookup table, built at
/// compile time so the workspace stays dependency-free.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — shared by the durable checkpoint store and
/// the serve-layer job journal so every durable artifact in the workspace
/// carries the same checksum family.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// On-disk snapshot layout version (the durable store refuses artifacts
/// from a future layout instead of misreading them).
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Magic prefix of every durable snapshot file.
const SNAPSHOT_MAGIC: u32 = 0x4D43_4B50; // "MCKP"

/// One persisted resume point. `payload` is an opaque pipeline-encoded
/// byte string (see [`PayloadWriter`]); `version` increases monotonically
/// per job so a resume can prove it used the newest snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub job: u64,
    /// Which pipeline encoded the payload (`"sp"`, `"mst"`, `"pta"`,
    /// `"dmr"`). A resume under a different algorithm is refused.
    pub algo: String,
    /// Per-job monotone snapshot counter, assigned by the store.
    pub version: u64,
    /// Host-loop iteration the snapshot was taken *after*: a resumed run
    /// continues from `iteration + 1`.
    pub iteration: u64,
    pub payload: Vec<u8>,
}

#[derive(Default)]
struct StoreInner {
    /// Latest checkpoint per job (resume always uses the newest).
    latest: BTreeMap<u64, Checkpoint>,
    /// Version counters survive `discard` so a re-admitted job id keeps
    /// strictly increasing versions.
    versions: BTreeMap<u64, u64>,
    saves: u64,
    bytes: u64,
}

/// What a durable store found on disk when it was opened.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecovery {
    /// Snapshots whose primary file verified and was loaded.
    pub loaded: u64,
    /// Snapshots whose primary was corrupt but whose `.prev` verified —
    /// the resume point is one save older than the last attempt.
    pub fell_back: u64,
    /// Artifacts dropped entirely: both copies corrupt or unreadable.
    /// The owning job restarts from zero.
    pub discarded: u64,
}

/// Directory-backed persistence behind a [`CheckpointStore`]: one
/// `job-<id>.ck` file per job (plus a `.prev` generation), each a
/// CRC-verified [`SNAPSHOT_SCHEMA_VERSION`] artifact written via
/// tmp-file + fsync + rename so a crash can never leave a half-written
/// *primary* — only a torn tmp file that the next open ignores.
struct DurableBacking {
    dir: PathBuf,
    faults: Option<Arc<FaultPlan>>,
    recovery: StoreRecovery,
    fsync_denied: AtomicU64,
    write_faults: AtomicU64,
}

/// Versioned checkpoint storage: always queryable in memory, optionally
/// backed by a verified per-job snapshot directory ([`Self::durable`])
/// for crash recovery.
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
    durable: Option<DurableBacking>,
}

impl CheckpointStore {
    /// Purely in-memory store (the serving default).
    pub fn in_memory() -> Self {
        Self {
            inner: Mutex::new(StoreInner::default()),
            durable: None,
        }
    }

    /// Durable store rooted at `dir`: every save is written atomically
    /// (tmp + fsync + rename, previous generation kept as `.ck.prev`) and
    /// every artifact found at open is CRC-verified — a corrupt primary
    /// falls back to its `.prev`, a corrupt pair is discarded, and the
    /// tally is reported via [`Self::store_recovery`]. `faults` routes the
    /// write/fsync/read paths through [`FaultPlan`]'s durability hooks.
    pub fn durable(
        dir: impl Into<PathBuf>,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut backing = DurableBacking {
            dir,
            faults,
            recovery: StoreRecovery::default(),
            fsync_denied: AtomicU64::new(0),
            write_faults: AtomicU64::new(0),
        };
        let mut inner = StoreInner::default();

        // Collect every job id that left an artifact (primary or prev).
        let mut jobs = BTreeSet::new();
        for entry in std::fs::read_dir(&backing.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(rest) = name.strip_prefix("job-") {
                let id = rest
                    .strip_suffix(".ck")
                    .or_else(|| rest.strip_suffix(".ck.prev"));
                if let Some(id) = id.and_then(|s| s.parse::<u64>().ok()) {
                    jobs.insert(id);
                }
            }
        }
        for job in jobs {
            let primary = backing.snapshot_path(job, false);
            let prev = backing.snapshot_path(job, true);
            match backing.read_verified(&primary) {
                Some(ck) if ck.job == job => {
                    backing.recovery.loaded += 1;
                    inner.versions.insert(job, ck.version);
                    inner.latest.insert(job, ck);
                }
                _ => match backing.read_verified(&prev) {
                    Some(ck) if ck.job == job => {
                        backing.recovery.fell_back += 1;
                        // Promote the fallback so a later save's rename
                        // chain starts from a verified primary.
                        let _ = std::fs::rename(&prev, &primary);
                        inner.versions.insert(job, ck.version);
                        inner.latest.insert(job, ck);
                    }
                    _ => {
                        backing.recovery.discarded += 1;
                        // Drop the damage so it cannot re-poison the next
                        // open.
                        let _ = std::fs::remove_file(&primary);
                        let _ = std::fs::remove_file(&prev);
                    }
                },
            }
        }
        Ok(Self {
            inner: Mutex::new(inner),
            durable: Some(backing),
        })
    }

    /// Recovery tally of a [`Self::durable`] store's open scan; `None`
    /// for non-durable stores.
    pub fn store_recovery(&self) -> Option<StoreRecovery> {
        self.durable.as_ref().map(|d| d.recovery)
    }

    /// Fsyncs skipped because the fault plan denied them (durability
    /// degraded, operation continued).
    pub fn fsync_denied(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.fsync_denied.load(Ordering::Acquire))
    }

    /// Snapshot writes torn or shortened by the fault plan (the previous
    /// generation stays authoritative).
    pub fn write_faults(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.write_faults.load(Ordering::Acquire))
    }

    /// Persist a snapshot; assigns and returns its version. The newest
    /// snapshot per job wins; older ones are dropped (resume never wants
    /// them, and keeping one bounds memory at O(jobs)).
    pub fn save(&self, job: u64, algo: &str, iteration: u64, payload: Vec<u8>) -> u64 {
        let ck = {
            let mut inner = self.inner.lock().unwrap();
            let version = inner.versions.entry(job).or_insert(0);
            *version += 1;
            let ck = Checkpoint {
                job,
                algo: algo.to_string(),
                version: *version,
                iteration,
                payload,
            };
            inner.saves += 1;
            inner.bytes += ck.payload.len() as u64;
            inner.latest.insert(job, ck.clone());
            ck
        };
        if let Some(d) = &self.durable {
            // Disk failures must not kill the job either: the in-memory
            // copy keeps this process correct; only a later *recovery*
            // loses the snapshot, and the verified open handles that.
            d.write_snapshot(&ck);
        }
        ck.version
    }

    /// The newest checkpoint for `job`, if any.
    pub fn load(&self, job: u64) -> Option<Checkpoint> {
        self.inner.lock().unwrap().latest.get(&job).cloned()
    }

    /// Drop a job's checkpoint (terminal state reached — nothing left to
    /// resume). Version counters are retained. A durable store also
    /// removes the on-disk artifacts so a restart cannot resurrect a
    /// finished job's state.
    pub fn discard(&self, job: u64) {
        self.inner.lock().unwrap().latest.remove(&job);
        if let Some(d) = &self.durable {
            let _ = std::fs::remove_file(d.snapshot_path(job, false));
            let _ = std::fs::remove_file(d.snapshot_path(job, true));
        }
    }

    /// Snapshots persisted over the store's lifetime.
    pub fn saves(&self) -> u64 {
        self.inner.lock().unwrap().saves
    }

    /// Total payload bytes persisted over the store's lifetime — the
    /// checkpoint overhead a serving summary reports.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }

    /// Jobs currently holding a resumable checkpoint.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().latest.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl DurableBacking {
    fn snapshot_path(&self, job: u64, prev: bool) -> PathBuf {
        let suffix = if prev { ".ck.prev" } else { ".ck" };
        self.dir.join(format!("job-{job}{suffix}"))
    }

    /// Read and CRC-verify one artifact; `None` on any damage. Routes the
    /// raw bytes through the fault plan's bit-flip hook first so the
    /// verification path itself is fault-injectable.
    fn read_verified(&self, path: &Path) -> Option<Checkpoint> {
        let mut bytes = std::fs::read(path).ok()?;
        if let Some(plan) = &self.faults {
            if !bytes.is_empty() && plan.corrupt_read() {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
            }
        }
        decode_snapshot(&bytes)
    }

    /// Atomic snapshot write: encode, land in a tmp file, fsync, keep the
    /// old primary as `.prev`, rename the tmp into place. Injected torn
    /// and short writes abandon the tmp file (as a real crash would),
    /// leaving the previous generation authoritative.
    fn write_snapshot(&self, ck: &Checkpoint) {
        let bytes = encode_snapshot(ck);
        let primary = self.snapshot_path(ck.job, false);
        let prev = self.snapshot_path(ck.job, true);
        let tmp = self.dir.join(format!("job-{}.ck.tmp", ck.job));
        let fault = self.faults.as_ref().and_then(|p| p.fail_append());
        if let Some(fault) = fault {
            self.write_faults.fetch_add(1, Ordering::AcqRel);
            let cut = match fault {
                AppendFault::Torn => bytes.len() / 2,
                AppendFault::Short => 4,
            };
            if let Ok(mut f) = File::create(&tmp) {
                let _ = f.write_all(&bytes[..cut.min(bytes.len())]);
            }
            return; // no rename: the crash "happened" mid-write
        }
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            if self.faults.as_ref().is_some_and(|p| p.deny_fsync()) {
                self.fsync_denied.fetch_add(1, Ordering::AcqRel);
            } else {
                f.sync_data()?;
            }
            if primary.exists() {
                std::fs::rename(&primary, &prev)?;
            }
            std::fs::rename(&tmp, &primary)
        };
        let _ = write();
    }
}

/// Encode one snapshot as a self-verifying artifact:
/// `magic · schema · job · version · iteration · algo · payload · crc32`,
/// all little-endian via [`PayloadWriter`], CRC over everything before it.
fn encode_snapshot(ck: &Checkpoint) -> Vec<u8> {
    let mut w = PayloadWriter::with_capacity(ck.payload.len() + ck.algo.len() + 48);
    w.u32(SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_SCHEMA_VERSION);
    w.u64(ck.job);
    w.u64(ck.version);
    w.u64(ck.iteration);
    w.str(&ck.algo);
    w.bytes(&ck.payload);
    let mut buf = w.finish();
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decode and verify one snapshot artifact; `None` on bad magic, foreign
/// schema, CRC mismatch, truncation, or trailing garbage.
fn decode_snapshot(bytes: &[u8]) -> Option<Checkpoint> {
    if bytes.len() < 4 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(tail.try_into().ok()?);
    if crc32(body) != crc {
        return None;
    }
    let mut r = PayloadReader::new(body);
    if r.u32()? != SNAPSHOT_MAGIC || r.u32()? != SNAPSHOT_SCHEMA_VERSION {
        return None;
    }
    let ck = Checkpoint {
        job: r.u64()?,
        version: r.u64()?,
        iteration: r.u64()?,
        algo: r.str()?,
        payload: r.bytes()?,
    };
    r.exhausted().then_some(ck)
}

/// The per-job handle a pipeline's step callback drives: decides *when*
/// a snapshot is due, builds the payload lazily, stamps the trace event.
/// Cloning shares the underlying store.
#[derive(Clone)]
pub struct CheckpointCtl {
    store: Arc<CheckpointStore>,
    job: u64,
    /// Snapshot every N completed iterations (N ≥ 1).
    every: u64,
    /// Serving-epoch origin for the `t_us` field of emitted
    /// `TraceEvent::Checkpoint`s; `None` stamps 0 (standalone runs).
    epoch: Option<Instant>,
    /// Overhead accounting: every saved payload's size is recorded into
    /// the `morph_checkpoint_bytes` histogram. Disabled by default.
    hub: MetricsHub,
}

impl CheckpointCtl {
    pub fn new(store: Arc<CheckpointStore>, job: u64) -> Self {
        Self {
            store,
            job,
            every: 1,
            epoch: None,
            hub: MetricsHub::default(),
        }
    }

    /// Snapshot cadence: every `n` completed iterations (clamped to ≥ 1).
    pub fn every(mut self, n: u64) -> Self {
        self.every = n.max(1);
        self
    }

    /// Use `epoch` as the origin of emitted `t_us` stamps.
    pub fn with_epoch(mut self, epoch: Instant) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Record saved-payload sizes into `hub`'s `morph_checkpoint_bytes`
    /// histogram (labelled by whatever the hub carries — tenant/algo in a
    /// serving pool).
    pub fn with_metrics(mut self, hub: MetricsHub) -> Self {
        self.hub = hub;
        self
    }

    pub fn job(&self) -> u64 {
        self.job
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// Is a snapshot due after completing `iteration`?
    pub fn due(&self, iteration: u64) -> bool {
        (iteration + 1).is_multiple_of(self.every)
    }

    /// Persist a snapshot: `payload` is invoked exactly once, the store
    /// assigns the version, and a [`TraceEvent::Checkpoint`] rides the
    /// pipeline's tracer. Returns the assigned version.
    pub fn save(
        &self,
        tracer: &Tracer,
        algo: &str,
        iteration: u64,
        payload: impl FnOnce() -> Vec<u8>,
    ) -> u64 {
        let bytes = payload();
        let len = bytes.len() as u64;
        if let Some(h) = self.hub.histogram(
            "morph_checkpoint_bytes",
            "Encoded checkpoint payload size in bytes",
        ) {
            h.record(len);
        }
        let version = self.store.save(self.job, algo, iteration, bytes);
        let t_us = self
            .epoch
            .map_or(0, |e| e.elapsed().as_micros() as u64);
        let job = self.job;
        let algo = algo.to_string();
        tracer.emit(move || TraceEvent::Checkpoint {
            job,
            algo,
            iteration,
            version,
            bytes: len,
            t_us,
        });
        version
    }

    /// The newest snapshot to resume from, refusing a payload encoded by
    /// a different pipeline.
    pub fn resume(&self, algo: &str) -> Option<Checkpoint> {
        self.store.load(self.job).filter(|ck| ck.algo == algo)
    }
}

/// Little-endian payload encoder for checkpoint contents. Pipelines write
/// a schema tag first so [`PayloadReader`] can refuse foreign bytes.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u32(v);
        }
    }

    /// A length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        self.buf.extend_from_slice(bs);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder matching [`PayloadWriter`]. Every read is
/// checked: a truncated or foreign payload yields `None`, never a panic —
/// a resume that cannot decode falls back to a fresh run.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    pub fn u32_slice(&mut self) -> Option<Vec<u32>> {
        let n = self.u64()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return None; // length prefix exceeds remaining bytes
        }
        (0..n).map(|_| self.u32()).collect()
    }

    pub fn u64_slice(&mut self) -> Option<Vec<u64>> {
        let n = self.u64()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) / 8 {
            return None;
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u64()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return None; // hostile length prefix
        }
        Some(self.take(n)?.to_vec())
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }

    /// All bytes consumed? Resumes should check this to catch schema
    /// drift (trailing garbage means the payload is from another layout).
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_trace::{RingSink, TraceEvent};

    #[test]
    fn store_versions_are_monotone_and_latest_wins() {
        let store = CheckpointStore::in_memory();
        assert_eq!(store.save(7, "sp", 0, vec![1]), 1);
        assert_eq!(store.save(7, "sp", 1, vec![2, 3]), 2);
        assert_eq!(store.save(9, "mst", 4, vec![4]), 1);
        let ck = store.load(7).unwrap();
        assert_eq!((ck.version, ck.iteration, ck.payload.as_slice()), (2, 1, &[2u8, 3][..]));
        assert_eq!(store.saves(), 3);
        assert_eq!(store.bytes(), 4);
        assert_eq!(store.len(), 2);
        store.discard(7);
        assert!(store.load(7).is_none());
        // Version counters survive discard: a re-admitted id keeps
        // strictly increasing versions.
        assert_eq!(store.save(7, "sp", 5, vec![9]), 3);
    }

    #[test]
    fn ctl_cadence_save_and_resume() {
        let store = Arc::new(CheckpointStore::in_memory());
        let sink = Arc::new(RingSink::new(16));
        let tracer = Tracer::new(sink.clone());
        let ctl = CheckpointCtl::new(store.clone(), 3).every(4);
        assert!(!ctl.due(0));
        assert!(ctl.due(3));
        assert!(!ctl.due(4));
        assert!(ctl.due(7));
        let v = ctl.save(&tracer, "pta", 3, || vec![0xAA; 10]);
        assert_eq!(v, 1);
        let ck = ctl.resume("pta").unwrap();
        assert_eq!(ck.iteration, 3);
        assert_eq!(ck.payload.len(), 10);
        // Foreign-algorithm payloads are refused.
        assert!(ctl.resume("dmr").is_none());
        let evs = sink.events();
        assert!(matches!(
            &evs[..],
            [TraceEvent::Checkpoint { job: 3, version: 1, bytes: 10, iteration: 3, .. }]
        ));
    }

    #[test]
    fn disabled_tracer_still_persists_but_builds_no_event() {
        let store = Arc::new(CheckpointStore::in_memory());
        let ctl = CheckpointCtl::new(store.clone(), 1);
        ctl.save(&Tracer::disabled(), "sp", 0, || vec![1, 2]);
        assert_eq!(store.saves(), 1);
    }

    #[test]
    fn payload_roundtrip_and_truncation_safety() {
        let mut w = PayloadWriter::new();
        w.u32(0xDEAD_BEEF);
        w.u64(42);
        w.f64(0.625);
        w.u32_slice(&[1, 2, 3]);
        w.u64_slice(&[u64::MAX]);
        let bytes = w.finish();

        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.f64(), Some(0.625));
        assert_eq!(r.u32_slice(), Some(vec![1, 2, 3]));
        assert_eq!(r.u64_slice(), Some(vec![u64::MAX]));
        assert!(r.exhausted());

        // Truncated payloads decode to None, never panic.
        let mut t = PayloadReader::new(&bytes[..bytes.len() - 1]);
        t.u32();
        t.u64();
        t.f64();
        t.u32_slice();
        assert_eq!(t.u64_slice(), None);
        // A hostile length prefix is caught before allocation.
        let mut w2 = PayloadWriter::new();
        w2.u64(u64::MAX);
        let evil = w2.finish();
        assert_eq!(PayloadReader::new(&evil).u32_slice(), None);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "morph-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_artifact_roundtrips_and_rejects_damage() {
        let ck = Checkpoint {
            job: 7,
            algo: "dmr".into(),
            version: 3,
            iteration: 11,
            payload: vec![1, 2, 3, 0xFF],
        };
        let bytes = encode_snapshot(&ck);
        assert_eq!(decode_snapshot(&bytes).unwrap(), ck);
        // Any single flipped bit is caught by the CRC.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            assert!(decode_snapshot(&bad).is_none(), "flip at {i} undetected");
        }
        // Truncation at every offset is caught, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn durable_store_survives_reopen_and_falls_back_on_corruption() {
        let dir = scratch_dir("durable");
        {
            let store = CheckpointStore::durable(&dir, None).unwrap();
            store.save(1, "sp", 4, vec![0xAB; 16]);
            store.save(1, "sp", 9, vec![0xCD; 16]); // v2 primary, v1 -> .prev
            store.save(2, "mst", 3, vec![9]);
        }
        // Clean reopen: both jobs load from their primaries.
        {
            let store = CheckpointStore::durable(&dir, None).unwrap();
            assert_eq!(
                store.store_recovery().unwrap(),
                StoreRecovery { loaded: 2, fell_back: 0, discarded: 0 }
            );
            let ck = store.load(1).unwrap();
            assert_eq!((ck.version, ck.iteration), (2, 9));
            // Version counters continue from disk.
            assert_eq!(store.save(1, "sp", 12, vec![1]), 3);
        }
        // Corrupt job 1's primary on disk: open falls back to .prev.
        {
            let p = dir.join("job-1.ck");
            let mut bytes = std::fs::read(&p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&p, &bytes).unwrap();
            let store = CheckpointStore::durable(&dir, None).unwrap();
            let rec = store.store_recovery().unwrap();
            assert_eq!((rec.fell_back, rec.discarded), (1, 0));
            let ck = store.load(1).unwrap();
            assert_eq!(ck.version, 2, "fallback is the previous generation");
        }
        // Corrupt both generations: the artifact is discarded, job 2
        // unaffected.
        {
            for name in ["job-1.ck", "job-1.ck.prev"] {
                let p = dir.join(name);
                if p.exists() {
                    std::fs::write(&p, b"garbage").unwrap();
                }
            }
            let store = CheckpointStore::durable(&dir, None).unwrap();
            assert_eq!(store.store_recovery().unwrap().discarded, 1);
            assert!(store.load(1).is_none());
            assert!(store.load(2).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_store_discard_removes_artifacts() {
        let dir = scratch_dir("discard");
        let store = CheckpointStore::durable(&dir, None).unwrap();
        store.save(5, "pta", 0, vec![7; 8]);
        store.save(5, "pta", 1, vec![8; 8]);
        assert!(dir.join("job-5.ck").exists());
        store.discard(5);
        assert!(!dir.join("job-5.ck").exists());
        assert!(!dir.join("job-5.ck.prev").exists());
        let reopened = CheckpointStore::durable(&dir, None).unwrap();
        assert!(reopened.load(5).is_none(), "discard is durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_write_faults_leave_previous_generation_authoritative() {
        let dir = scratch_dir("faults");
        {
            // Save 0 lands clean, save 1 is torn, save 2's fsync is
            // denied but still lands.
            let plan = Arc::new(FaultPlan::new().with_torn_write(1).with_fsync_denial(0));
            let store = CheckpointStore::durable(&dir, Some(plan)).unwrap();
            store.save(3, "sp", 0, vec![0x11; 32]);
            store.save(3, "sp", 5, vec![0x22; 32]); // torn: never renamed
            assert_eq!(store.write_faults(), 1);
            store.save(3, "sp", 8, vec![0x33; 32]); // fsync denied, still durable
            assert_eq!(store.fsync_denied(), 1);
        }
        let store = CheckpointStore::durable(&dir, None).unwrap();
        let ck = store.load(3).unwrap();
        assert_eq!(ck.iteration, 8, "clean saves around the torn one survive");
        assert_eq!(store.store_recovery().unwrap().discarded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_read_bit_flip_is_detected_and_falls_back() {
        let dir = scratch_dir("bitflip");
        {
            let store = CheckpointStore::durable(&dir, None).unwrap();
            store.save(4, "mst", 2, vec![5; 64]);
            store.save(4, "mst", 6, vec![6; 64]);
        }
        // Flip a bit in the first durable read (job 4's primary): the CRC
        // catches it and the open falls back to the .prev generation.
        let plan = Arc::new(FaultPlan::new().with_read_bit_flip(0));
        let store = CheckpointStore::durable(&dir, Some(plan)).unwrap();
        let rec = store.store_recovery().unwrap();
        assert_eq!((rec.fell_back, rec.discarded), (1, 0));
        assert_eq!(store.load(4).unwrap().iteration, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_strings_roundtrip() {
        let mut w = PayloadWriter::new();
        w.str("dmr");
        w.bytes(&[0, 255, 3]);
        w.str("");
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.str().as_deref(), Some("dmr"));
        assert_eq!(r.bytes(), Some(vec![0, 255, 3]));
        assert_eq!(r.str().as_deref(), Some(""));
        assert!(r.exhausted());
        // Hostile length prefix caught before allocation.
        let mut w2 = PayloadWriter::new();
        w2.u64(u64::MAX);
        assert_eq!(PayloadReader::new(&w2.finish()).bytes(), None);
    }
}
