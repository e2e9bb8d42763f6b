//! The hardware cost model: per-warp memory-system scoring.
//!
//! Real GPUs lose performance to three memory-system effects the plain
//! counters cannot see: uncoalesced global accesses (each 32-byte
//! segment touched by a warp is one transaction), shared-memory bank
//! conflicts (banks are word-interleaved, `warp_size` of them; two
//! lanes hitting *different words in the same bank* serialize), and
//! same-address atomic contention (hardware serializes RMWs to one
//! location). The paper's waste-reduction rules (§7) are all aimed at
//! these effects, so the simulator meters them.
//!
//! Mechanism: while a warp runs, instrumented access paths append plain
//! addresses onto a [`WarpTape`]; when the warp's lanes finish a phase
//! the engine drains the tape and scores it. The tape lives behind a
//! `RefCell` so `&self` paths ([`crate::BlockLocal::with`] takes
//! `&ThreadCtx`) can record without widening any public signature. A
//! worker runs its warps strictly sequentially, so the tape is never
//! aliased across warps.
//!
//! The tape is the worker's meter for a launch: its buffers stay resident,
//! so scoring allocates nothing once they have grown. It carries the
//! worker's [`LensCells`] when a lens is attached and its [`WarpDists`]
//! when a metrics hub is. Without a lens, each count is one linear pass
//! over the tape: adjacent repeats are skipped and every other key is
//! looked up in a [`StampedSet`], an open-addressing set that clears by
//! bumping an epoch and grows with a warp's *distinct* keys, never with
//! its tape's length. Each first sighting is one segment, one atomic
//! address or one shared word (and a tick on that word's bank); shared
//! words are counted this way on both paths. With a lens, one sort
//! serves both: the plain and atomic addresses are sorted
//! together, the score counts segment changes along them and the lens
//! walks them; the atomics sorted for serialization give the lens its
//! pile-ups. Sorting every warp was three quarters of what metering added
//! to a served job, whose launches are all metered but never lensed.
//!
//! The tape exists only on a launch some attached observer meters
//! ([`crate::engine::Observers::needs_tape`], DESIGN.md §8), so
//! unobserved runs never touch it.

use crate::lens::LensCells;
use morph_metrics::Histogram;
use std::cell::RefCell;

/// Global-memory transaction granularity, bytes. Modern GPUs fetch
/// 32-byte sectors; a fully coalesced warp of 32 four-byte lanes needs
/// 4 transactions, a fully scattered one needs 32.
pub const SEGMENT_BYTES: usize = 32;

#[derive(Default)]
struct TapeInner {
    /// Byte addresses of plain global loads/stores. With a lens, scoring
    /// reuses the buffer as its sort scratch.
    gmem: Vec<usize>,
    /// Byte addresses of atomic RMWs (also global accesses).
    atomics: Vec<usize>,
    /// Word indices of shared-memory (`BlockLocal`) accesses.
    smem: Vec<usize>,
    /// Distinct words per bank, the bank-conflict scratch.
    per_bank: Vec<u64>,
    /// First-sighting set of the linear counts.
    seen: StampedSet,
    /// This worker's lens cells, when a lens is attached.
    lens: Option<LensCells>,
    /// This worker's per-warp distributions, when a metrics hub is
    /// attached; boxed so a detached worker's `Option<WarpTape>` stays
    /// small.
    dists: Option<Box<WarpDists>>,
}

/// Per-worker recording surface for one warp's memory accesses, and the
/// worker's meter for the launch.
pub(crate) struct WarpTape {
    inner: RefCell<TapeInner>,
}

/// The scored summary of one warp's phase execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WarpScore {
    /// Global accesses issued (plain + atomic).
    pub gmem_accesses: u64,
    /// Distinct 32-byte segments those accesses touched.
    pub gmem_transactions: u64,
    /// Shared-memory accesses issued.
    pub smem_accesses: u64,
    /// Serialization cycles beyond the first access per bank.
    pub smem_conflicts: u64,
    /// Atomic RMWs issued.
    pub atomic_ops: u64,
    /// Serialization steps beyond the first RMW per address.
    pub atomic_serial: u64,
}

/// The per-warp score distributions behind the `morph_warp_*` histograms.
/// A worker buffers them beside its lens cells, so the launch publishes
/// them only if it completes and a dead attempt's warps never reach the
/// registry.
#[derive(Default)]
pub(crate) struct WarpDists {
    pub(crate) transactions: Histogram,
    pub(crate) conflicts: Histogram,
    pub(crate) serial: Histogram,
}

impl WarpDists {
    /// Empty dimensions are skipped so a warp that never touched shared
    /// memory does not drag the conflict histogram toward zero.
    fn record(&self, s: &WarpScore) {
        if s.gmem_accesses > 0 {
            self.transactions.record(s.gmem_transactions);
        }
        if s.smem_accesses > 0 {
            self.conflicts.record(s.smem_conflicts);
        }
        if s.atomic_ops > 0 {
            self.serial.record(s.atomic_serial);
        }
    }

    /// Add `other`'s observations to these (bucket-wise, so exact).
    pub(crate) fn absorb(&self, other: &WarpDists) {
        self.transactions.merge(&other.transactions);
        self.conflicts.merge(&other.conflicts);
        self.serial.merge(&other.serial);
    }
}

/// An open-addressing set of `usize` keys that clears in O(1): a slot is
/// live only while its stamp equals the set's epoch, so clearing bumps
/// the epoch instead of touching the table. Load stays at most ½, so the
/// capacity doubles with the keys held, not with the keys offered.
struct StampedSet {
    slots: Vec<Slot>,
    /// Live keys.
    len: usize,
    /// Stamp of the live slots; never 0, the stamp of a fresh slot.
    epoch: u32,
    /// `64 - log2(capacity)`: a Fibonacci hash's top bits index the table.
    shift: u32,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    key: usize,
    stamp: u32,
}

impl Default for StampedSet {
    fn default() -> Self {
        StampedSet {
            slots: Vec::new(),
            len: 0,
            epoch: 1,
            shift: 64,
        }
    }
}

impl StampedSet {
    const MIN_CAPACITY: usize = 16;

    /// Empty the set. When the epoch would wrap, every stamp is reset
    /// instead, so no slot from 2³² clears ago reads as live.
    fn clear(&mut self) {
        self.len = 0;
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            1
        });
    }

    /// Add `key`; true on its first sighting since the last clear.
    #[inline]
    fn insert(&mut self, key: usize) -> bool {
        if self.slots.is_empty() {
            self.resize(Self::MIN_CAPACITY);
        }
        if !self.place(key) {
            return false;
        }
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.resize(2 * self.slots.len());
        }
        true
    }

    /// Probe for `key` from its home slot, claiming the first dead slot
    /// if it is absent; true if it was.
    #[inline]
    fn place(&mut self, key: usize) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.epoch {
                *slot = Slot {
                    key,
                    stamp: self.epoch,
                };
                return true;
            }
            if slot.key == key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn resize(&mut self, capacity: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); capacity]);
        self.shift = 64 - capacity.trailing_zeros();
        let epoch = self.epoch;
        for s in old.into_iter().filter(|s| s.stamp == epoch) {
            self.place(s.key);
        }
    }

    /// Clear, then add `keys`, calling `first` on each first sighting;
    /// the number of distinct keys.
    #[inline]
    fn count_distinct(
        &mut self,
        keys: impl Iterator<Item = usize>,
        mut first: impl FnMut(usize),
    ) -> usize {
        self.clear();
        let mut prev = None;
        for k in keys {
            if prev != Some(k) {
                prev = Some(k);
                if self.insert(k) {
                    first(k);
                }
            }
        }
        self.len
    }
}

impl WarpTape {
    pub(crate) fn new(lens: Option<LensCells>, dists: Option<Box<WarpDists>>) -> Self {
        WarpTape {
            inner: RefCell::new(TapeInner {
                lens,
                dists,
                ..TapeInner::default()
            }),
        }
    }

    /// The worker's lens cells and per-warp distributions, once its last
    /// warp is scored.
    pub(crate) fn into_meters(self) -> (Option<LensCells>, Option<Box<WarpDists>>) {
        let t = self.inner.into_inner();
        (t.lens, t.dists)
    }

    #[inline]
    pub(crate) fn record_global(&self, addr: usize) {
        self.inner.borrow_mut().gmem.push(addr);
    }

    #[inline]
    pub(crate) fn record_atomic(&self, addr: usize) {
        self.inner.borrow_mut().atomics.push(addr);
    }

    #[inline]
    pub(crate) fn record_smem(&self, word: usize) {
        self.inner.borrow_mut().smem.push(word);
    }

    /// Drain the tape and score it for one warp of `phase`, charging the
    /// lens cells and the per-warp distributions if they are attached.
    pub(crate) fn score_and_clear(&self, phase: usize, warp_size: usize) -> WarpScore {
        let TapeInner {
            gmem,
            atomics,
            smem,
            per_bank,
            seen,
            lens,
            dists,
        } = &mut *self.inner.borrow_mut();
        let mut score = WarpScore {
            gmem_accesses: (gmem.len() + atomics.len()) as u64,
            smem_accesses: smem.len() as u64,
            atomic_ops: atomics.len() as u64,
            ..WarpScore::default()
        };

        // Coalescing: distinct 32-byte segments across plain and atomic
        // global accesses. Atomic serialization: each additional RMW to
        // the same address is one extra serialized step.
        if let Some(lens) = lens {
            if score.gmem_accesses > 0 {
                gmem.extend_from_slice(atomics);
                gmem.sort_unstable();
                score.gmem_transactions = 1 + gmem
                    .windows(2)
                    .filter(|p| p[0] / SEGMENT_BYTES != p[1] / SEGMENT_BYTES)
                    .count() as u64;
            }
            atomics.sort_unstable();
            let distinct = atomics.chunk_by(|a, b| a == b).count();
            score.atomic_serial = (atomics.len() - distinct) as u64;
            lens.charge(phase, gmem, atomics);
        } else {
            let segments = gmem.iter().chain(atomics.iter()).map(|a| a / SEGMENT_BYTES);
            score.gmem_transactions = seen.count_distinct(segments, |_| {}) as u64;
            let distinct = seen.count_distinct(atomics.iter().copied(), |_| {});
            score.atomic_serial = (atomics.len() - distinct) as u64;
        }

        // Bank conflicts: same word from many lanes is a broadcast (free);
        // distinct words in one bank serialize, one extra cycle each.
        if !smem.is_empty() {
            let banks = warp_size.max(1);
            per_bank.clear();
            per_bank.resize(banks, 0);
            seen.count_distinct(smem.iter().copied(), |w| per_bank[w % banks] += 1);
            score.smem_conflicts = per_bank.iter().map(|&n| n.saturating_sub(1)).sum();
        }
        if let Some(d) = dists {
            d.record(&score);
        }

        gmem.clear();
        atomics.clear();
        smem.clear();
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-and-dedup scorer the linear pass replaced, kept as the
    /// reference it must match bit for bit.
    fn sorted_reference(gmem: &[usize], atomics: &[usize], smem: &[usize], warp_size: usize) -> WarpScore {
        let mut score = WarpScore {
            gmem_accesses: (gmem.len() + atomics.len()) as u64,
            smem_accesses: smem.len() as u64,
            atomic_ops: atomics.len() as u64,
            ..WarpScore::default()
        };
        let mut segments: Vec<usize> = gmem.iter().chain(atomics).map(|a| a / SEGMENT_BYTES).collect();
        segments.sort_unstable();
        segments.dedup();
        score.gmem_transactions = segments.len() as u64;
        if !smem.is_empty() {
            let banks = warp_size.max(1);
            let mut words = smem.to_vec();
            words.sort_unstable();
            words.dedup();
            let mut per_bank = vec![0u64; banks];
            for w in &words {
                per_bank[w % banks] += 1;
            }
            score.smem_conflicts = per_bank.iter().map(|&n| n.saturating_sub(1)).sum();
        }
        if !atomics.is_empty() {
            let mut sorted = atomics.to_vec();
            sorted.sort_unstable();
            let distinct = 1 + sorted.windows(2).filter(|p| p[0] != p[1]).count();
            score.atomic_serial = (atomics.len() - distinct) as u64;
        }
        score
    }

    /// Record one warp on `tape` and score it as the engine does.
    fn score_warp(tape: &WarpTape, gmem: &[usize], atomics: &[usize], smem: &[usize], warp_size: usize) -> WarpScore {
        gmem.iter().for_each(|&a| tape.record_global(a));
        atomics.iter().for_each(|&a| tape.record_atomic(a));
        smem.iter().for_each(|&w| tape.record_smem(w));
        tape.score_and_clear(0, warp_size)
    }

    /// `(value, run length)` pairs expanded into a tape component, so
    /// repeats come both adjacent (runs) and apart (a small value range).
    fn runs(pairs: &[(usize, usize)], scale: usize) -> Vec<usize> {
        pairs.iter().flat_map(|&(v, n)| std::iter::repeat_n(v * scale, n)).collect()
    }

    /// A deterministic splitmix64 stream, for tapes too large for proptest.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Warps scored back to back on one resident tape: empty
        /// components, adjacent and scattered repeats, atomics on the
        /// segments plain accesses touch, smem broadcasts and distinct
        /// words sharing a bank, at warp sizes 1, 8 and 32.
        #[test]
        fn linear_scorer_matches_the_sort(
            warps in prop::collection::vec(
                (
                    prop::collection::vec((0usize..48, 1usize..5), 0..40),
                    prop::collection::vec((0usize..48, 1usize..6), 0..24),
                    prop::collection::vec((0usize..96, 1usize..5), 0..40),
                    0usize..3,
                ),
                1..12,
            ),
        ) {
            let tape = WarpTape::new(None, None);
            for (gmem, atomics, smem, size) in &warps {
                let warp_size = [1, 8, 32][*size];
                // Plain accesses 4 bytes apart and atomics 8 apart over the
                // same 0x1000.. window, so they share segments.
                let (gmem, atomics, smem) = (runs(gmem, 4), runs(atomics, 8), runs(smem, 1));
                let (gmem, atomics): (Vec<usize>, Vec<usize>) = (
                    gmem.iter().map(|a| 0x1000 + a).collect(),
                    atomics.iter().map(|a| 0x1000 + a).collect(),
                );
                prop_assert_eq!(
                    score_warp(&tape, &gmem, &atomics, &smem, warp_size),
                    sorted_reference(&gmem, &atomics, &smem, warp_size)
                );
            }
        }
    }

    #[test]
    fn large_tape_grows_the_set_through_several_doublings() {
        let mut next = stream(7);
        // 240k accesses over 40k segments, 30k atomic words and 20k smem
        // words: the set doubles from its minimum to 2^17 slots.
        let gmem: Vec<usize> = (0..200_000).map(|_| (next() % 40_000) as usize * 24).collect();
        let atomics: Vec<usize> = (0..40_000).map(|_| (next() % 30_000) as usize * 8).collect();
        let smem: Vec<usize> = (0..40_000).map(|_| (next() % 20_000) as usize).collect();
        let tape = WarpTape::new(None, None);
        for warp_size in [1, 8, 32] {
            let got = score_warp(&tape, &gmem, &atomics, &smem, warp_size);
            assert_eq!(got, sorted_reference(&gmem, &atomics, &smem, warp_size));
        }
        let capacity = tape.inner.borrow().seen.slots.len();
        assert!(capacity >= 1 << 16, "grew past the distinct count: {capacity}");
        // A small warp after the big one reuses the grown table.
        let small = [0x40, 0x44, 0x80];
        assert_eq!(score_warp(&tape, &small, &[], &[], 8), sorted_reference(&small, &[], &[], 8));
    }

    #[test]
    fn set_capacity_follows_distinct_segments_not_tape_length() {
        let mut next = stream(11);
        // 200k accesses at scattered offsets inside 64 segments.
        let gmem: Vec<usize> = (0..200_000)
            .map(|_| (next() % 64) as usize * SEGMENT_BYTES + (next() % 8) as usize * 4)
            .collect();
        let tape = WarpTape::new(None, None);
        let got = score_warp(&tape, &gmem, &[], &[], 32);
        assert_eq!(got.gmem_transactions, 64);
        assert_eq!(got, sorted_reference(&gmem, &[], &[], 32));
        let capacity = tape.inner.borrow().seen.slots.len();
        assert!(capacity <= 128, "capacity {capacity} for 64 distinct segments");
    }

    #[test]
    fn epoch_wrap_clears_stamps_instead_of_aliasing() {
        let mut set = StampedSet::default();
        assert!(set.insert(7), "stamped at epoch 1");
        set.epoch = u32::MAX;
        set.len = 0;
        assert!(set.insert(9));
        assert!(!set.insert(9));
        set.clear();
        assert_eq!(set.epoch, 1);
        assert!(set.slots.iter().all(|s| s.stamp == 0), "every stamp reset");
        assert!(set.insert(7), "the epoch-1 slot of 7 must not read as live");
        assert!(set.insert(9));
        assert!(set.insert(0), "a fresh slot's zero key is not live either");
        assert_eq!(set.count_distinct([3, 3, 5, 3].into_iter(), |_| {}), 2);
    }

    #[test]
    fn per_warp_distributions_skip_empty_dimensions() {
        let tape = WarpTape::new(None, Some(Box::default()));
        score_warp(&tape, &[0, 4, 64], &[], &[], 8);
        score_warp(&tape, &[], &[8, 8], &[0, 8], 8);
        let (_, dists) = tape.into_meters();
        let d = dists.unwrap();
        assert_eq!((d.transactions.count(), d.transactions.sum()), (2, 3));
        assert_eq!((d.conflicts.count(), d.conflicts.sum()), (1, 1));
        assert_eq!((d.serial.count(), d.serial.sum()), (1, 1));
    }

    #[test]
    fn coalesced_warp_needs_few_transactions() {
        let tape = WarpTape::new(None, None);
        // 8 lanes load consecutive u32s starting at a segment boundary:
        // 32 bytes = exactly one segment.
        for lane in 0..8usize {
            tape.record_global(0x1000 + lane * 4);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.gmem_accesses, 8);
        assert_eq!(s.gmem_transactions, 1);
    }

    #[test]
    fn strided_warp_pays_one_transaction_per_lane() {
        let tape = WarpTape::new(None, None);
        for lane in 0..8usize {
            tape.record_global(0x1000 + lane * 256);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.gmem_accesses, 8);
        assert_eq!(s.gmem_transactions, 8);
    }

    #[test]
    fn same_word_smem_is_a_broadcast() {
        let tape = WarpTape::new(None, None);
        for _ in 0..8 {
            tape.record_smem(42);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.smem_accesses, 8);
        assert_eq!(s.smem_conflicts, 0);
    }

    #[test]
    fn same_bank_distinct_words_conflict() {
        let tape = WarpTape::new(None, None);
        // Words 0, 8, 16, 24 with 8 banks: all bank 0, four distinct
        // words → 3 extra cycles.
        for i in 0..4usize {
            tape.record_smem(i * 8);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.smem_conflicts, 3);
        // Consecutive words spread across banks → conflict-free.
        let tape = WarpTape::new(None, None);
        for w in 0..8usize {
            tape.record_smem(w);
        }
        assert_eq!(tape.score_and_clear(0, 8).smem_conflicts, 0);
    }

    #[test]
    fn same_address_atomics_serialize() {
        let tape = WarpTape::new(None, None);
        for _ in 0..8 {
            tape.record_atomic(0x2000);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.atomic_ops, 8);
        assert_eq!(s.atomic_serial, 7);
        // Atomics are global accesses too: one segment here.
        assert_eq!(s.gmem_accesses, 8);
        assert_eq!(s.gmem_transactions, 1);

        let tape = WarpTape::new(None, None);
        for lane in 0..8usize {
            tape.record_atomic(0x2000 + lane * 64);
        }
        assert_eq!(tape.score_and_clear(0, 8).atomic_serial, 0);
    }

    #[test]
    fn scoring_drains_the_tape() {
        let tape = WarpTape::new(None, None);
        tape.record_global(0);
        tape.record_smem(1);
        tape.record_atomic(8);
        let first = tape.score_and_clear(0, 8);
        assert!(first.gmem_accesses > 0);
        let empty = tape.score_and_clear(0, 8);
        assert_eq!(empty, WarpScore::default());
    }
}
