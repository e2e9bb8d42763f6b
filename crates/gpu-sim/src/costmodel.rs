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
//! so scoring allocates nothing, and with a lens it carries the worker's
//! [`LensCells`]. Warp-sized tapes are counted by sort and dedup in place,
//! not hashing. With a lens, one sort serves both: the plain and atomic
//! addresses are sorted together, the score counts segment changes along
//! them and the lens walks them; the atomics sorted for serialization give
//! the lens its pile-ups. Without one, the score sorts segment ids, which
//! repeat heavily: raw addresses cost `serve-mem`, whose served launches
//! are all metered, 12 % of its `jobs_per_s` on a 2-core host.
//!
//! The tape exists only on a launch some attached observer meters
//! ([`crate::engine::Observers::needs_tape`], DESIGN.md §8), so
//! unobserved runs never touch it.

use crate::lens::LensCells;
use std::cell::RefCell;

/// Global-memory transaction granularity, bytes. Modern GPUs fetch
/// 32-byte sectors; a fully coalesced warp of 32 four-byte lanes needs
/// 4 transactions, a fully scattered one needs 32.
pub const SEGMENT_BYTES: usize = 32;

#[derive(Default)]
struct TapeInner {
    /// Byte addresses of plain global loads/stores. Scoring reuses the
    /// buffer as its sort scratch.
    gmem: Vec<usize>,
    /// Byte addresses of atomic RMWs (also global accesses).
    atomics: Vec<usize>,
    /// Word indices of shared-memory (`BlockLocal`) accesses.
    smem: Vec<usize>,
    /// Distinct words per bank, the bank-conflict scratch.
    per_bank: Vec<u64>,
    /// This worker's lens cells, when a lens is attached.
    lens: Option<LensCells>,
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

impl WarpTape {
    pub(crate) fn new(lens: Option<LensCells>) -> Self {
        WarpTape {
            inner: RefCell::new(TapeInner {
                lens,
                ..TapeInner::default()
            }),
        }
    }

    /// The worker's lens cells, once its last warp is scored.
    pub(crate) fn into_lens(self) -> Option<LensCells> {
        self.inner.into_inner().lens
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
    /// lens cells if a lens is attached.
    pub(crate) fn score_and_clear(&self, phase: usize, warp_size: usize) -> WarpScore {
        let t = &mut *self.inner.borrow_mut();
        let mut score = WarpScore {
            gmem_accesses: (t.gmem.len() + t.atomics.len()) as u64,
            smem_accesses: t.smem.len() as u64,
            atomic_ops: t.atomics.len() as u64,
            ..WarpScore::default()
        };

        // Coalescing: distinct 32-byte segments across plain and atomic
        // global accesses.
        if score.gmem_accesses > 0 {
            if t.lens.is_some() {
                t.gmem.extend_from_slice(&t.atomics);
                t.gmem.sort_unstable();
                score.gmem_transactions = 1 + t
                    .gmem
                    .windows(2)
                    .filter(|p| p[0] / SEGMENT_BYTES != p[1] / SEGMENT_BYTES)
                    .count() as u64;
            } else {
                for a in &mut t.gmem {
                    *a /= SEGMENT_BYTES;
                }
                t.gmem.extend(t.atomics.iter().map(|a| a / SEGMENT_BYTES));
                t.gmem.sort_unstable();
                t.gmem.dedup();
                score.gmem_transactions = t.gmem.len() as u64;
            }
        }

        // Bank conflicts: same word from many lanes is a broadcast (free);
        // distinct words in one bank serialize, one extra cycle each.
        if !t.smem.is_empty() {
            let banks = warp_size.max(1);
            t.smem.sort_unstable();
            t.smem.dedup();
            t.per_bank.clear();
            t.per_bank.resize(banks, 0);
            for w in &t.smem {
                t.per_bank[w % banks] += 1;
            }
            score.smem_conflicts = t.per_bank.iter().map(|&n| n.saturating_sub(1)).sum();
        }

        // Atomic serialization: each additional RMW to the same address
        // is one extra serialized step.
        if !t.atomics.is_empty() {
            t.atomics.sort_unstable();
            let distinct = 1 + t.atomics.windows(2).filter(|p| p[0] != p[1]).count();
            score.atomic_serial = (t.atomics.len() - distinct) as u64;
        }
        if let Some(lens) = &mut t.lens {
            lens.charge(phase, &t.gmem, &t.atomics);
        }

        t.gmem.clear();
        t.atomics.clear();
        t.smem.clear();
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_warp_needs_few_transactions() {
        let tape = WarpTape::new(None);
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
        let tape = WarpTape::new(None);
        for lane in 0..8usize {
            tape.record_global(0x1000 + lane * 256);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.gmem_accesses, 8);
        assert_eq!(s.gmem_transactions, 8);
    }

    #[test]
    fn same_word_smem_is_a_broadcast() {
        let tape = WarpTape::new(None);
        for _ in 0..8 {
            tape.record_smem(42);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.smem_accesses, 8);
        assert_eq!(s.smem_conflicts, 0);
    }

    #[test]
    fn same_bank_distinct_words_conflict() {
        let tape = WarpTape::new(None);
        // Words 0, 8, 16, 24 with 8 banks: all bank 0, four distinct
        // words → 3 extra cycles.
        for i in 0..4usize {
            tape.record_smem(i * 8);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.smem_conflicts, 3);
        // Consecutive words spread across banks → conflict-free.
        let tape = WarpTape::new(None);
        for w in 0..8usize {
            tape.record_smem(w);
        }
        assert_eq!(tape.score_and_clear(0, 8).smem_conflicts, 0);
    }

    #[test]
    fn same_address_atomics_serialize() {
        let tape = WarpTape::new(None);
        for _ in 0..8 {
            tape.record_atomic(0x2000);
        }
        let s = tape.score_and_clear(0, 8);
        assert_eq!(s.atomic_ops, 8);
        assert_eq!(s.atomic_serial, 7);
        // Atomics are global accesses too: one segment here.
        assert_eq!(s.gmem_accesses, 8);
        assert_eq!(s.gmem_transactions, 1);

        let tape = WarpTape::new(None);
        for lane in 0..8usize {
            tape.record_atomic(0x2000 + lane * 64);
        }
        assert_eq!(tape.score_and_clear(0, 8).atomic_serial, 0);
    }

    #[test]
    fn scoring_drains_the_tape() {
        let tape = WarpTape::new(None);
        tape.record_global(0);
        tape.record_smem(1);
        tape.record_atomic(8);
        let first = tape.score_and_clear(0, 8);
        assert!(first.gmem_accesses > 0);
        let empty = tape.score_and_clear(0, 8);
        assert_eq!(empty, WarpScore::default());
    }
}
