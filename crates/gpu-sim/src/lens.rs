//! morph-lens: per-data-structure attribution of the cost model.
//!
//! The WarpTape meter (DESIGN.md §12) scores *how much* memory-system
//! waste a launch produced — transactions per access, same-address
//! atomic serialization — but not *where*. This module adds the missing
//! dimension: pipelines register each device structure (worklists,
//! chunk arenas, bitmaps, mesh/survey/component arrays) as a named
//! logical address range, and the engine buckets every metered access
//! per **phase × structure** as the tape is scored. A bounded
//! top-K hot-address table keeps the worst atomic pile-ups by address,
//! so "the worklist tail word is the bottleneck" is a measurement, not
//! a guess.
//!
//! [`LensHub`] follows the workspace observer pattern (`Tracer`,
//! `MetricsHub`, `AutoTuner`): the default handle is disabled and every
//! operation on it is a branch on a `None` — no allocation, no lock,
//! no metering. It is attached with the other observers
//! ([`crate::engine::Observers`]).
//!
//! The hub's lock stays out of the warp loop: a launch copies the region
//! index once ([`LensHub::launch_cells`]), each worker charges its warps
//! into its own dense [`LensCells`] off the cost model's one sort per
//! warp ([`crate::costmodel`]) and merges them under one lock as it
//! leaves the launch, unwinding included ([`LensHub::merge`]): W + 2
//! hub locks per launch on W workers.
//!
//! Traffic whose address falls outside every registered range lands in
//! the reserved `"unattributed"` bucket. Pipelines register *logical*
//! device windows (disjoint by construction, see DESIGN.md §17) rather
//! than host pointers, so the bucket staying ≈0 is a per-pipeline test
//! invariant: it proves the metering and the registry agree on every
//! hot structure.

use crate::costmodel::SEGMENT_BYTES;
use morph_metrics::MetricsHub;
use morph_trace::{TraceEvent, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Region id of traffic outside every registered range.
const UNATTRIBUTED: usize = usize::MAX;

/// Capacity of the global hot-address table (space-saving summary).
pub const LENS_HOT_K: usize = 16;

/// Name of the catch-all bucket for unregistered traffic.
pub const LENS_UNATTRIBUTED: &str = "unattributed";

/// A registered device structure: a named logical address range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LensRegion {
    pub name: String,
    pub base: usize,
    pub len: usize,
}

/// One phase × structure attribution cell.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LensRow {
    pub phase: u64,
    pub region: String,
    /// Metered global accesses (loads, stores, atomics).
    pub accesses: u64,
    /// Distinct 32-byte segments those accesses coalesced into, summed
    /// per warp (the denominator of the per-structure coalescing factor).
    pub transactions: u64,
    /// Atomic RMWs among the accesses.
    pub atomic_ops: u64,
    /// Extra serialization steps from same-address atomics within a warp.
    pub atomic_serial: u64,
    /// Address of the worst single-warp atomic pile-up (0 if none).
    pub hot_addr: u64,
    /// Length of that pile-up (atomics to one address in one warp).
    pub hot_count: u64,
}

/// One entry of the global hot-address table: cumulative same-address
/// serialization charged to `addr` (space-saving summary, so counts for
/// entries that evicted another are upper bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LensHot {
    pub addr: u64,
    pub region: String,
    pub serial: u64,
}

/// A point-in-time copy of everything the lens has attributed.
#[derive(Debug, Default, Clone)]
pub struct LensSnapshot {
    pub regions: Vec<LensRegion>,
    /// Cumulative cells, sorted by (phase, region name).
    pub rows: Vec<LensRow>,
    /// Hot-address table, sorted by descending serialization.
    pub hot: Vec<LensHot>,
}

impl LensSnapshot {
    /// Fraction of metered accesses outside every registered region.
    pub fn unattributed_fraction(&self) -> f64 {
        let total: u64 = self.rows.iter().map(|r| r.accesses).sum();
        if total == 0 {
            return 0.0;
        }
        let un: u64 = self
            .rows
            .iter()
            .filter(|r| r.region == LENS_UNATTRIBUTED)
            .map(|r| r.accesses)
            .sum();
        un as f64 / total as f64
    }

    /// The phase×structure waste table as aligned text (the same shape
    /// `trace-report lens` renders from a recorded stream).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "phase | structure            | accesses | transactions | coalesce | atomics | serial | hottest word\n",
        );
        for r in &self.rows {
            let coalesce = if r.transactions == 0 {
                0.0
            } else {
                r.accesses as f64 / r.transactions as f64
            };
            out.push_str(&format!(
                "{:>5} | {:<20} | {:>8} | {:>12} | {:>8.2} | {:>7} | {:>6} | {}\n",
                r.phase,
                r.region,
                r.accesses,
                r.transactions,
                coalesce,
                r.atomic_ops,
                r.atomic_serial,
                if r.hot_count == 0 {
                    "-".to_string()
                } else {
                    format!("{:#x} x{}", r.hot_addr, r.hot_count)
                },
            ));
        }
        let total: u64 = self.rows.iter().map(|r| r.accesses).sum();
        out.push_str(&format!(
            "unattributed    : {:.2}% of {} metered accesses\n",
            100.0 * self.unattributed_fraction(),
            total
        ));
        if !self.hot.is_empty() {
            out.push_str("hot atomics:\n");
            for h in &self.hot {
                out.push_str(&format!(
                    "  {:#x} ({}) : {} serialized steps\n",
                    h.addr, h.region, h.serial
                ));
            }
        }
        out
    }

    /// The snapshot as the repo's hand-rolled JSON (the `/lens`
    /// introspection payload). Region names are code-controlled
    /// identifiers; quotes and backslashes are escaped anyway.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\"regions\":[");
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"base\":{},\"len\":{}}}",
                esc(&r.name),
                r.base,
                r.len
            ));
        }
        out.push_str("],\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"phase\":{},\"region\":\"{}\",\"accesses\":{},\"transactions\":{},\
                 \"atomic_ops\":{},\"atomic_serial\":{},\"hot_addr\":{},\"hot_count\":{}}}",
                r.phase,
                esc(&r.region),
                r.accesses,
                r.transactions,
                r.atomic_ops,
                r.atomic_serial,
                r.hot_addr,
                r.hot_count
            ));
        }
        out.push_str("],\"hot\":[");
        for (i, h) in self.hot.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"addr\":{},\"region\":\"{}\",\"serial\":{}}}",
                h.addr,
                esc(&h.region),
                h.serial
            ));
        }
        out.push_str(&format!(
            "],\"unattributed_fraction\":{:.6}}}",
            self.unattributed_fraction()
        ));
        out
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct CellCounts {
    accesses: u64,
    transactions: u64,
    atomic_ops: u64,
    atomic_serial: u64,
    hot_addr: u64,
    hot_count: u64,
}

impl CellCounts {
    fn note_run(&mut self, addr: u64, run: u64) {
        if run > self.hot_count {
            self.hot_count = run;
            self.hot_addr = addr;
        }
    }

    /// Add a worker's cell. Its hot word is its first longest pile-up, so
    /// `note_run` keeps the word a run-by-run charge would have kept.
    fn absorb(&mut self, c: &CellCounts) {
        self.accesses += c.accesses;
        self.transactions += c.transactions;
        self.atomic_ops += c.atomic_ops;
        self.atomic_serial += c.atomic_serial;
        self.note_run(c.hot_addr, c.hot_count);
    }
}

/// Cumulative totals plus the not-yet-drained per-launch delta. The
/// engine drains `pending` when a launch ends — exported as `lens` trace
/// events and `morph_lens_*` bumps if it completed, dropped if it
/// aborted; `total` feeds `/lens`.
#[derive(Debug, Default, Clone, Copy)]
struct Cell {
    total: CellCounts,
    pending: CellCounts,
}

#[derive(Debug)]
struct HotEntry {
    addr: usize,
    region: usize,
    serial: u64,
}

/// An index entry `(base, limit, id)`, or a walk's last hit `(lo, hi, slot)`.
type Window = (usize, usize, usize);

/// A same-address atomic run of one warp: `(addr, slot, serial)`.
type Pileup = (usize, usize, u64);

/// One worker's cells for one launch, indexed by `[phase × slot]` over the
/// launch's copy of the region index (slot `index.len()` is unattributed),
/// plus its pile-ups in warp order for the hub's hot table.
#[derive(Clone)]
pub(crate) struct LensCells {
    index: Vec<Window>,
    cells: Vec<CellCounts>,
    pileups: Vec<Pileup>,
}

impl LensCells {
    fn slots(&self) -> usize {
        self.index.len() + 1
    }

    fn id_of(&self, slot: usize) -> usize {
        self.index.get(slot).map_or(UNATTRIBUTED, |w| w.2)
    }

    /// The slot of `addr`, through the walk's last hit `(lo, hi, slot)`:
    /// every address in `[lo, hi)` has that slot, a gap's included.
    fn resolve(index: &[Window], hit: &mut Window, addr: usize) -> usize {
        if addr < hit.0 || addr >= hit.1 {
            let i = index.partition_point(|w| w.0 <= addr);
            *hit = match i.checked_sub(1).map(|j| (j, index[j])) {
                Some((j, (base, limit, _))) if addr < limit => (base, limit, j),
                below => {
                    let lo = below.map_or(0, |(_, w)| w.1);
                    (lo, index.get(i).map_or(usize::MAX, |w| w.0), index.len())
                }
            };
        }
        hit.2
    }

    /// Charge one warp of `phase` from its plain and atomic addresses
    /// sorted together, and its atomics sorted. A window is one interval,
    /// so a (slot, segment) change is a new transaction; only
    /// unattributed, which owns every gap, can revisit a paid segment.
    pub(crate) fn charge(&mut self, phase: usize, sorted: &[usize], atomics: &[usize]) {
        let (slots, unattributed) = (self.slots(), self.index.len());
        let row = &mut self.cells[phase * slots..][..slots];
        let (mut hit, mut prev, mut unattributed_seg) = ((0, 0, 0), (0, usize::MAX), usize::MAX);
        for &addr in sorted {
            let slot = Self::resolve(&self.index, &mut hit, addr);
            let seg = addr / SEGMENT_BYTES;
            let fresh = if slot == unattributed {
                std::mem::replace(&mut unattributed_seg, seg) != seg
            } else {
                (slot, seg) != prev
            };
            prev = (slot, seg);
            row[slot].accesses += 1;
            row[slot].transactions += u64::from(fresh);
        }
        for run in atomics.chunk_by(|a, b| a == b) {
            let (addr, n) = (run[0], run.len() as u64);
            let slot = Self::resolve(&self.index, &mut hit, addr);
            let c = &mut row[slot];
            c.atomic_ops += n;
            if n > 1 {
                c.atomic_serial += n - 1;
                c.note_run(addr as u64, n);
                self.pileups.push((addr, slot, n - 1));
            }
        }
    }
}

#[derive(Default)]
struct LensState {
    /// Registered structures, append-only: a region's index is its
    /// stable id (cells and hot entries reference it), so re-sorting
    /// for lookup must never move entries in this vec.
    regions: Vec<LensRegion>,
    /// Lookup index over `regions`, sorted by base: `(base, limit, id)`.
    /// `limit` is the region's end clipped to the next indexed base, so
    /// `[base, limit)` is exactly where an address resolves to `id`.
    index: Vec<Window>,
    /// (phase, region id) → attribution cell.
    cells: HashMap<(u64, usize), Cell>,
    /// Space-saving top-K of same-address atomic serialization.
    hot: Vec<HotEntry>,
    /// Times the hub's lock was taken.
    #[cfg(test)]
    locks: u64,
}

impl LensState {
    fn rebuild_index(&mut self) {
        self.index = self
            .regions
            .iter()
            .enumerate()
            .map(|(id, r)| (r.base, r.base + r.len, id))
            .collect();
        self.index.sort_unstable();
        // Overlapping registrations silently misattribute traffic (an
        // address goes to the highest base at or below it, and past that
        // region's end to nobody, even inside a lower-based region), so
        // the sanitizer build traps on them.
        #[cfg(feature = "morph-check")]
        for pair in self.index.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.1 <= b.0,
                "morph-lens: region '{}' [{:#x}..{:#x}) overlaps region '{}' [{:#x}..{:#x})",
                self.regions[a.2].name,
                a.0,
                a.1,
                self.regions[b.2].name,
                b.0,
                b.1,
            );
        }
        for i in 1..self.index.len() {
            self.index[i - 1].1 = self.index[i - 1].1.min(self.index[i].0);
        }
    }

    fn register(&mut self, name: &str, base: usize, len: usize) {
        if let Some(r) = self.regions.iter_mut().find(|r| r.name == name) {
            // Same-base re-registration never shrinks the window: on a
            // shared hub (the serve pool) a smaller concurrent job would
            // otherwise clip a bigger in-flight job's range mid-run and
            // push its tail traffic into `unattributed`. A moved base is
            // a genuinely new placement and replaces the range outright.
            if r.base == base {
                r.len = r.len.max(len);
            } else {
                r.base = base;
                r.len = len;
            }
        } else {
            self.regions.push(LensRegion {
                name: name.to_string(),
                base,
                len,
            });
        }
        self.rebuild_index();
    }

    /// Zeroed cells for a launch of `phases` phases over the current index.
    fn launch_cells(&self, phases: usize) -> LensCells {
        LensCells {
            index: self.index.clone(),
            cells: vec![CellCounts::default(); phases * (self.index.len() + 1)],
            pileups: Vec::new(),
        }
    }

    fn merge(&mut self, local: &LensCells) {
        let slots = local.slots();
        for (k, c) in local.cells.iter().enumerate() {
            if c.accesses == 0 {
                continue;
            }
            let cell = self
                .cells
                .entry(((k / slots) as u64, local.id_of(k % slots)))
                .or_default();
            cell.total.absorb(c);
            cell.pending.absorb(c);
        }
        for &(addr, slot, serial) in &local.pileups {
            self.note_hot(addr, local.id_of(slot), serial);
        }
    }

    fn note_hot(&mut self, addr: usize, region: usize, serial: u64) {
        if let Some(e) = self.hot.iter_mut().find(|e| e.addr == addr) {
            e.serial += serial;
            return;
        }
        if self.hot.len() < LENS_HOT_K {
            self.hot.push(HotEntry {
                addr,
                region,
                serial,
            });
            return;
        }
        // Space-saving eviction: the new address inherits the minimum
        // entry's count, keeping every stored count an upper bound.
        let min = self
            .hot
            .iter_mut()
            .min_by_key(|e| e.serial)
            .expect("hot table is non-empty here");
        min.addr = addr;
        min.region = region;
        min.serial += serial;
    }

    fn region_name(&self, id: usize) -> String {
        if id == UNATTRIBUTED {
            LENS_UNATTRIBUTED.to_string()
        } else {
            self.regions[id].name.clone()
        }
    }

    fn rows_from<F: Fn(&Cell) -> CellCounts>(&self, pick: F) -> Vec<LensRow> {
        let mut rows: Vec<LensRow> = self
            .cells
            .iter()
            .filter(|(_, cell)| pick(cell).accesses > 0 || pick(cell).atomic_serial > 0)
            .map(|(&(phase, id), cell)| {
                let c = pick(cell);
                LensRow {
                    phase,
                    region: self.region_name(id),
                    accesses: c.accesses,
                    transactions: c.transactions,
                    atomic_ops: c.atomic_ops,
                    atomic_serial: c.atomic_serial,
                    hot_addr: c.hot_addr,
                    hot_count: c.hot_count,
                }
            })
            .collect();
        rows.sort_by(|a, b| (a.phase, &a.region).cmp(&(b.phase, &b.region)));
        rows
    }

    fn snapshot(&self) -> LensSnapshot {
        let mut hot: Vec<LensHot> = self
            .hot
            .iter()
            .map(|e| LensHot {
                addr: e.addr as u64,
                region: self.region_name(e.region),
                serial: e.serial,
            })
            .collect();
        hot.sort_by(|a, b| b.serial.cmp(&a.serial).then(a.addr.cmp(&b.addr)));
        LensSnapshot {
            regions: self.regions.clone(),
            rows: self.rows_from(|c| c.total),
            hot,
        }
    }

    fn drain_launch(&mut self) -> Vec<LensRow> {
        let rows = self.rows_from(|c| c.pending);
        for cell in self.cells.values_mut() {
            cell.pending = CellCounts::default();
        }
        rows
    }
}

/// The cloneable attribution handle, mirroring [`morph_metrics::MetricsHub`]:
/// disabled by default (every call is a `None` branch), enabled by
/// [`LensHub::enabled`]. All clones share one registry and one set of
/// attribution cells, so a pipeline can register regions on the handle it
/// got from `RecoveryOpts` while the serve layer snapshots the same state
/// for `/lens`.
#[derive(Clone, Default)]
pub struct LensHub {
    inner: Option<Arc<Mutex<LensState>>>,
}

impl LensHub {
    /// The no-op hub: nothing is registered, metered or stored.
    pub const fn disabled() -> Self {
        LensHub { inner: None }
    }

    /// A live hub with an empty region registry.
    pub fn enabled() -> Self {
        LensHub {
            inner: Some(Arc::new(Mutex::new(LensState::default()))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, LensState>> {
        let guard = self
            .inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()));
        #[cfg(test)]
        let guard = guard.map(|mut st| {
            st.locks += 1;
            st
        });
        guard
    }

    /// Register (or re-register, e.g. after a regrow moved or extended
    /// the range) the structure `name` as logical addresses
    /// `[base, base + len)`. Re-registering under the same name keeps
    /// the structure's attribution history. Under `--features
    /// morph-check`, ranges that overlap a *different* structure trap —
    /// overlap silently misattributes traffic.
    pub fn register(&self, name: &str, base: usize, len: usize) {
        if let Some(mut st) = self.lock() {
            st.register(name, base, len);
        }
    }

    /// Zeroed worker-local cells for one launch of `phases` phases over a
    /// snapshot of the region index (`None` when disabled). Regions
    /// registered while the launch runs count from the next launch on.
    pub(crate) fn launch_cells(&self, phases: usize) -> Option<LensCells> {
        self.lock().map(|st| st.launch_cells(phases))
    }

    /// Fold one worker's cells into the cumulative totals and the
    /// pending launch delta, and replay its pile-ups into the hot table.
    pub(crate) fn merge(&self, cells: &LensCells) {
        if let Some(mut st) = self.lock() {
            st.merge(cells);
        }
    }

    /// The per-launch delta rows (and clear them). An aborted launch
    /// drains and drops them; a completed one goes through
    /// [`LensHub::export_launch`].
    pub(crate) fn drain_launch(&self) -> Vec<LensRow> {
        self.lock().map(|mut st| st.drain_launch()).unwrap_or_default()
    }

    /// Export a completed launch's attribution delta: one `lens` trace
    /// event per nonzero phase × structure cell, and labelled bumps on the
    /// `morph_lens_*` metric families. Cumulative state stays in the hub
    /// for `/lens` snapshots.
    pub(crate) fn export_launch(&self, launch: u64, tracer: &Tracer, metrics: &MetricsHub) {
        for row in self.drain_launch() {
            tracer.emit(|| TraceEvent::Lens {
                launch,
                phase: row.phase,
                region: row.region.clone(),
                accesses: row.accesses,
                transactions: row.transactions,
                atomic_ops: row.atomic_ops,
                atomic_serial: row.atomic_serial,
                hot_addr: row.hot_addr,
                hot_count: row.hot_count,
            });
            if !metrics.enabled() {
                continue;
            }
            let hub = metrics
                .clone()
                .with_label("phase", &row.phase.to_string())
                .with_label("region", &row.region);
            for (name, help, v) in [
                (
                    "morph_lens_gmem_accesses_total",
                    "Metered global accesses attributed per phase and structure",
                    row.accesses,
                ),
                (
                    "morph_lens_gmem_transactions_total",
                    "Coalescing transactions attributed per phase and structure",
                    row.transactions,
                ),
                (
                    "morph_lens_atomic_ops_total",
                    "Atomic RMWs attributed per phase and structure",
                    row.atomic_ops,
                ),
                (
                    "morph_lens_atomic_serial_total",
                    "Same-address atomic serialization steps attributed per phase and structure",
                    row.atomic_serial,
                ),
            ] {
                if v > 0 {
                    if let Some(c) = hub.counter(name, help) {
                        c.add(v);
                    }
                }
            }
        }
    }

    /// Cumulative attribution state (the `/lens` payload).
    pub fn snapshot(&self) -> LensSnapshot {
        self.lock().map(|st| st.snapshot()).unwrap_or_default()
    }
}

impl std::fmt::Debug for LensHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_enabled() {
            write!(f, "LensHub(enabled)")
        } else {
            write!(f, "LensHub(disabled)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::{WarpScore, WarpTape};
    use proptest::prelude::*;

    impl LensHub {
        /// Times the hub's lock was taken; reading it takes no lock of
        /// its own that counts.
        pub(crate) fn lock_count(&self) -> u64 {
            self.inner.as_ref().map_or(0, |m| m.lock().unwrap().locks)
        }
    }

    /// The per-access algorithm the worker-local cells replaced, kept as
    /// the reference they must reproduce: a binary search and a map entry
    /// per access, a sorted `(region, segment)` list per warp.
    impl LensState {
        fn locate(&self, addr: usize) -> usize {
            let mut index: Vec<(usize, usize, usize)> = (self.regions.iter().enumerate())
                .map(|(id, r)| (r.base, r.base + r.len, id))
                .collect();
            index.sort_unstable();
            let i = index.partition_point(|&(base, _, _)| base <= addr);
            if i > 0 {
                let (_, end, id) = index[i - 1];
                if addr < end {
                    return id;
                }
            }
            UNATTRIBUTED
        }

        fn attribute_reference(&mut self, phase: u64, gmem: &[usize], atomics: &[usize]) {
            let mut segments: Vec<(usize, usize)> = Vec::new();
            for (i, &addr) in gmem.iter().chain(atomics).enumerate() {
                let id = self.locate(addr);
                let atomic = u64::from(i >= gmem.len());
                let c = self.cells.entry((phase, id)).or_default();
                for counts in [&mut c.total, &mut c.pending] {
                    counts.accesses += 1;
                    counts.atomic_ops += atomic;
                }
                segments.push((id, addr / SEGMENT_BYTES));
            }
            segments.sort_unstable();
            segments.dedup();
            for (id, _) in segments {
                let c = self.cells.entry((phase, id)).or_default();
                c.total.transactions += 1;
                c.pending.transactions += 1;
            }
            let mut sorted = atomics.to_vec();
            sorted.sort_unstable();
            for run in sorted.chunk_by(|a, b| a == b) {
                let (addr, n) = (run[0], run.len() as u64);
                if n > 1 {
                    let id = self.locate(addr);
                    let c = self.cells.entry((phase, id)).or_default();
                    for counts in [&mut c.total, &mut c.pending] {
                        counts.atomic_serial += n - 1;
                        counts.note_run(addr as u64, n);
                    }
                    self.note_hot(addr, id, n - 1);
                }
            }
        }
    }

    /// Record one warp on `tape` and score it as the engine does.
    fn score_warp(tape: &WarpTape, phase: usize, gmem: &[usize], atomics: &[usize]) -> WarpScore {
        gmem.iter().for_each(|&a| tape.record_global(a));
        atomics.iter().for_each(|&a| tape.record_atomic(a));
        tape.score_and_clear(phase, 32)
    }

    /// A one-warp launch through the engine's metering path: snapshot,
    /// worker-local cells, merge.
    fn meter(hub: &LensHub, phase: u64, gmem: &[usize], atomics: &[usize]) {
        let tape = WarpTape::new(hub.launch_cells(phase as usize + 1), None);
        score_warp(&tape, phase as usize, gmem, atomics);
        if let (Some(cells), _) = tape.into_meters() {
            hub.merge(&cells);
        }
    }

    /// On overlapping windows an address belongs to the region with the
    /// highest base at or below it, and past that region's end to nobody,
    /// even inside a lower-based region. A walk cache keyed on A's whole
    /// range would hand 0x1600 and 0x1fff to A.
    #[cfg(not(feature = "morph-check"))]
    #[test]
    fn overlapping_windows_resolve_to_the_highest_base_at_or_below() {
        let hub = LensHub::enabled();
        hub.register("a", 0x1000, 0x1000);
        hub.register("b", 0x1400, 0x100);
        {
            let st = hub.lock().unwrap();
            let (a, b) = (0, 1);
            let got = [0x1000, 0x1450, 0x1600, 0x1fff].map(|x| st.locate(x));
            assert_eq!(got, [a, b, UNATTRIBUTED, UNATTRIBUTED]);
        }
        meter(&hub, 0, &[0x1000, 0x1450, 0x1600, 0x1fff], &[]);
        let snap = hub.snapshot();
        let row = |name: &str| snap.rows.iter().find(|r| r.region == name).unwrap();
        assert_eq!(row("a").accesses, 1);
        assert_eq!(row("b").accesses, 1);
        assert_eq!(row(LENS_UNATTRIBUTED).accesses, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Worker-local cells reproduce the per-access reference: the
        /// warp score, the cumulative rows and hot table, and each
        /// launch's drained rows. Windows start and end off the 32-byte
        /// grid, so segments straddle structures, and nest or leave gaps
        /// (overlaps are dropped under `morph-check`, which traps them).
        #[test]
        fn lens_cells_match_the_per_access_reference(
            layout in prop::collection::vec((0usize..24, 1usize..16), 0..6),
            warps in prop::collection::vec(
                (
                    0usize..3,
                    prop::collection::vec(0usize..80, 0..24),
                    prop::collection::vec(0usize..40, 0..32),
                ),
                0..16,
            ),
            split in 0usize..16,
        ) {
            let (cells_hub, reference) = (LensHub::enabled(), LensHub::enabled());
            let mut placed: Vec<(usize, usize)> = Vec::new();
            for (b, l) in layout {
                let (base, len) = (0x1000 + 12 * b, 4 * l);
                let overlaps = placed.iter().any(|&(pb, pl)| base < pb + pl && pb < base + len);
                if cfg!(feature = "morph-check") && overlaps {
                    continue;
                }
                let name = format!("r{}", placed.len());
                placed.push((base, len));
                cells_hub.register(&name, base, len);
                reference.register(&name, base, len);
            }
            let split = split.min(warps.len());
            for launch in [&warps[..split], &warps[split..]] {
                let tape = WarpTape::new(cells_hub.launch_cells(3), None);
                let detached = WarpTape::new(None, None);
                for (phase, gmem, atomics) in launch {
                    let gmem: Vec<usize> = gmem.iter().map(|a| 0x1000 + 4 * a).collect();
                    let atomics: Vec<usize> = atomics.iter().map(|a| 0x1000 + 8 * a).collect();
                    let score = score_warp(&tape, *phase, &gmem, &atomics);
                    prop_assert_eq!(score, score_warp(&detached, *phase, &gmem, &atomics));
                    let segments: std::collections::BTreeSet<usize> =
                        gmem.iter().chain(&atomics).map(|a| a / SEGMENT_BYTES).collect();
                    let distinct: std::collections::BTreeSet<&usize> = atomics.iter().collect();
                    prop_assert_eq!(score.gmem_transactions, segments.len() as u64);
                    prop_assert_eq!(score.atomic_serial, (atomics.len() - distinct.len()) as u64);
                    reference.lock().unwrap().attribute_reference(*phase as u64, &gmem, &atomics);
                }
                cells_hub.merge(&tape.into_meters().0.unwrap());
                let (got, want) = (cells_hub.snapshot(), reference.snapshot());
                prop_assert_eq!(&got.rows, &want.rows);
                prop_assert_eq!(&got.hot, &want.hot);
                prop_assert_eq!(cells_hub.drain_launch(), reference.drain_launch());
            }
        }
    }

    #[test]
    fn disabled_hub_is_inert() {
        let hub = LensHub::disabled();
        assert!(!hub.is_enabled());
        hub.register("x", 0x1000, 64);
        meter(&hub, 0, &[0x1000], &[0x1000]);
        assert!(hub.drain_launch().is_empty());
        assert!(hub.snapshot().rows.is_empty());
        assert!(!LensHub::default().is_enabled());
    }

    #[test]
    fn traffic_buckets_by_registered_range() {
        let hub = LensHub::enabled();
        hub.register("worklist", 0x1000, 0x100);
        hub.register("arena", 0x2000, 0x100);
        // One warp: 4 coalesced worklist loads (one segment), 2 arena
        // atomics on one word, one stray unregistered load.
        meter(
            &hub,
            1,
            &[0x1000, 0x1004, 0x1008, 0x100c, 0x9999],
            &[0x2000, 0x2000],
        );
        let snap = hub.snapshot();
        assert_eq!(snap.rows.len(), 3);
        let row = |name: &str| snap.rows.iter().find(|r| r.region == name).unwrap();
        let wl = row("worklist");
        assert_eq!((wl.phase, wl.accesses, wl.transactions), (1, 4, 1));
        assert_eq!((wl.atomic_ops, wl.atomic_serial), (0, 0));
        let ar = row("arena");
        assert_eq!((ar.accesses, ar.transactions), (2, 1));
        assert_eq!((ar.atomic_ops, ar.atomic_serial), (2, 1));
        assert_eq!((ar.hot_addr, ar.hot_count), (0x2000, 2));
        let un = row(LENS_UNATTRIBUTED);
        assert_eq!((un.accesses, un.transactions), (1, 1));
        assert!((snap.unattributed_fraction() - 1.0 / 7.0).abs() < 1e-12);
        // The hot table charged the arena word.
        assert_eq!(snap.hot.len(), 1);
        assert_eq!(snap.hot[0].region, "arena");
        assert_eq!(snap.hot[0].serial, 1);
    }

    #[test]
    fn boundary_addresses_attribute_half_open() {
        let hub = LensHub::enabled();
        hub.register("a", 0x1000, 0x10);
        meter(&hub, 0, &[0x0fff, 0x1000, 0x100f, 0x1010], &[]);
        let snap = hub.snapshot();
        let a = snap.rows.iter().find(|r| r.region == "a").unwrap();
        assert_eq!(a.accesses, 2);
        let un = snap
            .rows
            .iter()
            .find(|r| r.region == LENS_UNATTRIBUTED)
            .unwrap();
        assert_eq!(un.accesses, 2);
    }

    #[test]
    fn reregistering_a_name_moves_the_range_and_keeps_history() {
        let hub = LensHub::enabled();
        hub.register("arena", 0x1000, 0x10);
        meter(&hub, 0, &[0x1000], &[]);
        // Regrow: the arena doubles and (logically) relocates.
        hub.register("arena", 0x8000, 0x20);
        meter(&hub, 0, &[0x8010], &[]);
        let snap = hub.snapshot();
        assert_eq!(snap.regions.len(), 1);
        assert_eq!(snap.regions[0].base, 0x8000);
        let a = snap.rows.iter().find(|r| r.region == "arena").unwrap();
        assert_eq!(a.accesses, 2, "history survives re-registration");
        assert!(snap.rows.iter().all(|r| r.region != LENS_UNATTRIBUTED));
    }

    #[test]
    fn drain_launch_returns_deltas_and_clears_them() {
        let hub = LensHub::enabled();
        hub.register("w", 0x1000, 0x100);
        meter(&hub, 0, &[0x1000], &[]);
        let first = hub.drain_launch();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].accesses, 1);
        assert!(hub.drain_launch().is_empty(), "pending cleared");
        meter(&hub, 0, &[0x1004, 0x1008], &[]);
        let second = hub.drain_launch();
        assert_eq!(second[0].accesses, 2, "only the new launch's traffic");
        // Cumulative totals are untouched by draining.
        let snap = hub.snapshot();
        assert_eq!(snap.rows[0].accesses, 3);
    }

    #[test]
    fn hot_table_is_bounded_and_space_saving() {
        let hub = LensHub::enabled();
        hub.register("r", 0, 1 << 30);
        // 2·K distinct contended addresses, each with one serialized step.
        for i in 0..(2 * LENS_HOT_K) {
            meter(&hub, 0, &[], &[i * 64, i * 64]);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.hot.len(), LENS_HOT_K, "table stays bounded");
        // A genuinely hot address dominates the summary.
        let hot = vec![7usize * 64; 9];
        meter(&hub, 0, &[], &hot);
        let snap = hub.snapshot();
        assert_eq!(snap.hot[0].addr, 7 * 64);
        assert!(snap.hot[0].serial >= 8);
    }

    #[test]
    fn render_and_json_carry_the_rows() {
        let hub = LensHub::enabled();
        hub.register("sp.surveys", 0x4000_0000_0000, 0x1000);
        meter(
            &hub,
            2,
            &[0x4000_0000_0008],
            &[0x4000_0000_0008, 0x4000_0000_0008],
        );
        let snap = hub.snapshot();
        let table = snap.render_table();
        assert!(table.contains("sp.surveys"), "{table}");
        assert!(table.contains("hot atomics:"), "{table}");
        let json = snap.to_json();
        assert!(json.contains("\"region\":\"sp.surveys\""), "{json}");
        assert!(json.contains("\"unattributed_fraction\":0.000000"), "{json}");
    }

    #[cfg(feature = "morph-check")]
    #[test]
    #[should_panic(expected = "overlaps region")]
    fn overlapping_registration_traps_under_morph_check() {
        let hub = LensHub::enabled();
        hub.register("a", 0x1000, 0x100);
        hub.register("b", 0x10f0, 0x100);
    }

    #[test]
    fn same_base_reregistration_never_shrinks_the_window() {
        // Shared-hub scenario (the serve pool): a smaller concurrent job
        // re-registers the same structure; the bigger in-flight job's
        // tail traffic must stay attributed.
        let hub = LensHub::enabled();
        hub.register("mst.components", 0x1000, 0x100);
        hub.register("mst.components", 0x1000, 0x40);
        meter(&hub, 0, &[0x10f8], &[]);
        let snap = hub.snapshot();
        assert_eq!(snap.regions[0].len, 0x100, "window kept its max extent");
        assert!(snap.rows.iter().all(|r| r.region != LENS_UNATTRIBUTED));
    }

    #[test]
    fn reregistering_same_name_does_not_self_overlap() {
        // The morph-check overlap trap must not fire when a structure
        // re-registers a range overlapping its own previous one.
        let hub = LensHub::enabled();
        hub.register("a", 0x1000, 0x100);
        hub.register("a", 0x1080, 0x200);
        assert_eq!(hub.snapshot().regions.len(), 1);
    }
}
