//! Subgraph deletion strategies (paper §7.2).
//!
//! * **Marking** ([`DeletionMarks`]) — flag elements deleted and skip them;
//!   "simple to implement, reduces synchronization bugs, and usually
//!   performs well as long as only a small fraction of the entire graph is
//!   deleted" (used by SP's decimation).
//! * **Recycle** — reuse deleted elements' slots for new elements; "a
//!   useful tradeoff between memory-compaction overhead and the cost of
//!   allocating additional storage". DMR does this in place: a winning
//!   cavity writes its new triangles into its own deleted slots first.
//! * **Explicit deletion / compaction** ([`compact_live`]) — rebuild the
//!   element array without the deleted slots, producing a remap table for
//!   satellite data (the host-side analogue of `cudaFree` + re-layout).

use morph_gpu_sim::AtomicU32Slice;

/// Per-element deleted/live marks (bit 0 = deleted).
pub struct DeletionMarks {
    flags: AtomicU32Slice,
}

impl DeletionMarks {
    /// `n` elements, all live.
    pub fn new(n: usize) -> Self {
        Self {
            flags: AtomicU32Slice::new(n, 0),
        }
    }

    pub fn len(&self) -> usize {
        self.flags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.flags.len() == 0
    }

    /// Host-side growth; new slots are live.
    pub fn grow(&mut self, n: usize) {
        self.flags.grow(n, 0);
    }

    #[inline]
    pub fn mark_deleted(&self, e: u32) {
        self.flags.store(e as usize, 1);
    }

    #[inline]
    pub fn is_deleted(&self, e: u32) -> bool {
        self.flags.load(e as usize) != 0
    }

    /// Live elements in `0..upto` (host-side scan).
    pub fn count_live(&self, upto: usize) -> usize {
        (0..upto.min(self.len())).filter(|&i| self.flags.load(i) == 0).count()
    }

    /// Sanitizer trap: `e` must be live. Call sites that operate on an
    /// element *assuming* it has not been deleted (e.g. SP's clause update
    /// kernel) use this to turn a use-after-free into an attributed
    /// verdict instead of silent wrong answers.
    #[cfg(feature = "morph-check")]
    pub fn assert_live(&self, e: u32, what: &str) {
        if self.is_deleted(e) {
            morph_check::fail(
                "use_after_free",
                &format!("{what} touched slot {e} after mark_deleted"),
            );
        }
    }
}

/// Host-side compaction: given deletion marks over `0..n`, produce
/// `(remap, live)` where `remap[old] = new` for live elements and
/// `u32::MAX` for deleted ones, and `live` is the new element count.
/// Callers then re-layout satellite arrays with the remap (SP does this to
/// the factor graph after each decimation).
pub fn compact_live(marks: &DeletionMarks, n: usize) -> (Vec<u32>, usize) {
    let mut remap = vec![u32::MAX; n];
    let mut next = 0u32;
    for (old, slot) in remap.iter_mut().enumerate() {
        if !marks.is_deleted(old as u32) {
            *slot = next;
            next += 1;
        }
    }
    (remap, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_roundtrip() {
        let mut m = DeletionMarks::new(4);
        assert!(!m.is_deleted(2));
        m.mark_deleted(2);
        assert!(m.is_deleted(2));
        m.mark_deleted(0);
        assert_eq!(m.count_live(4), 2);
        m.grow(6);
        assert_eq!(m.len(), 6);
        assert!(!m.is_deleted(5));
        assert_eq!(m.count_live(6), 4);
    }

    #[test]
    fn compaction_remap() {
        let m = DeletionMarks::new(6);
        m.mark_deleted(1);
        m.mark_deleted(4);
        let (remap, live) = compact_live(&m, 6);
        assert_eq!(live, 4);
        assert_eq!(remap, vec![0, u32::MAX, 1, 2, u32::MAX, 3]);
    }

    #[test]
    fn compaction_of_everything_and_nothing() {
        let m = DeletionMarks::new(3);
        let (remap, live) = compact_live(&m, 3);
        assert_eq!((remap, live), (vec![0, 1, 2], 3));
        for e in 0..3 {
            m.mark_deleted(e);
        }
        let (remap, live) = compact_live(&m, 3);
        assert_eq!(live, 0);
        assert!(remap.iter().all(|&r| r == u32::MAX));
    }
}

/// Negative test for the use-after-free sanitizer: touching a deleted
/// slot must trap with slot attribution.
#[cfg(all(test, feature = "morph-check"))]
mod morph_check_tests {
    use super::*;

    #[test]
    fn use_after_free_assert_traps() {
        let marks = DeletionMarks::new(4);
        marks.mark_deleted(2);
        marks.assert_live(1, "clause update"); // live: fine
        let err = std::panic::catch_unwind(|| marks.assert_live(2, "clause update")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().expect("string panic payload");
        assert!(msg.contains("use_after_free"), "{msg}");
        assert!(msg.contains("slot 2"), "{msg}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `compact_live`'s remap restricted to live slots is a bijection
        /// onto `0..live` (order-preserving, no gaps, no duplicates), and
        /// deleted slots map to the `u32::MAX` sentinel.
        #[test]
        fn compaction_remap_is_a_bijection_onto_live(deleted in prop::collection::vec(any::<bool>(), 0..200)) {
            let n = deleted.len();
            let marks = DeletionMarks::new(n);
            for (i, &d) in deleted.iter().enumerate() {
                if d {
                    marks.mark_deleted(i as u32);
                }
            }
            let (remap, live) = compact_live(&marks, n);
            prop_assert_eq!(remap.len(), n);

            let live_images: Vec<u32> = remap
                .iter()
                .zip(&deleted)
                .filter(|&(_, &d)| !d)
                .map(|(&r, _)| r)
                .collect();
            // Order-preserving enumeration of the live slots is exactly
            // 0..live — a bijection.
            prop_assert_eq!(live_images.len(), live);
            for (k, &img) in live_images.iter().enumerate() {
                prop_assert_eq!(img, k as u32);
            }
            // Deleted slots map to the sentinel, and only they do.
            for (i, &d) in deleted.iter().enumerate() {
                if d {
                    prop_assert_eq!(remap[i], u32::MAX);
                } else {
                    prop_assert!(remap[i] != u32::MAX);
                }
            }
        }

        /// `count_live` agrees with the remap's live count, for every
        /// prefix `upto`, matching how SP sizes its compacted arrays.
        #[test]
        fn count_live_agrees_with_remap(deleted in prop::collection::vec(any::<bool>(), 0..200)) {
            let n = deleted.len();
            let marks = DeletionMarks::new(n);
            for (i, &d) in deleted.iter().enumerate() {
                if d {
                    marks.mark_deleted(i as u32);
                }
            }
            let (_, live) = compact_live(&marks, n);
            prop_assert_eq!(marks.count_live(n), live);
            for upto in 0..=n {
                let (_, prefix_live) = compact_live(&marks, upto);
                prop_assert_eq!(marks.count_live(upto), prefix_live);
            }
        }
    }
}
