//! # morph-pta — Andersen-style points-to analysis (paper §4, §6.4, §8.3)
//!
//! Flow- and context-insensitive inclusion-based points-to analysis: the
//! constraint graph's nodes are program pointers; address-of constraints
//! seed points-to sets; copy/load/store constraints add edges along which
//! sets flow until a fixed point. The node count is fixed but **edges grow
//! monotonically and unpredictably** — the morph dimension.
//!
//! Engines:
//! * [`serial`] — classic worklist solver over sparse bit vectors,
//! * [`cpu`] — multicore **push-based** rounds (targets updated with
//!   atomics — the synchronization cost the paper's pull model avoids),
//! * [`gpu`] — the paper's design: bulk-synchronous **two-phase**
//!   (add-edges / propagate) **pull-based** kernels, with per-node
//!   incoming-edge lists allocated kernel-side in chunks
//!   ([`morph_graph::ChunkedAdjacency`], §7.1 Kernel-Only).

pub mod constraints;
pub mod cpu;
pub mod gpu;
pub mod serial;

pub use constraints::{Constraint, PtaProblem};

/// A solved analysis: `pts[v]` is the sorted set of variables `v` may
/// point to. All engines produce this canonical form for comparison.
pub type Solution = Vec<Vec<u32>>;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_constraint(n: u32) -> impl Strategy<Value = Constraint> {
        (0u32..n, 0u32..n, 0u8..4).prop_map(|(p, q, kind)| match kind {
            0 => Constraint::AddressOf { p, q },
            1 => Constraint::Copy { p, q },
            2 => Constraint::Load { p, q },
            _ => Constraint::Store { p, q },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// All three solvers compute the same fixed point on arbitrary
        /// constraint sets.
        #[test]
        fn solvers_agree(cons in prop::collection::vec(arb_constraint(24), 0..80)) {
            let mut prob = PtaProblem::new(24);
            for c in cons {
                prob.add(c);
            }
            let want = serial::solve(&prob);
            prop_assert_eq!(&cpu::solve(&prob, 3), &want);
            prop_assert_eq!(&gpu::solve(&prob, 3), &want);
        }

        /// The fixed point is monotone: adding constraints never shrinks
        /// any points-to set.
        #[test]
        fn monotonicity(
            base in prop::collection::vec(arb_constraint(16), 0..40),
            extra in prop::collection::vec(arb_constraint(16), 0..10),
        ) {
            let mut p1 = PtaProblem::new(16);
            for &c in &base {
                p1.add(c);
            }
            let mut p2 = PtaProblem::new(16);
            for &c in base.iter().chain(&extra) {
                p2.add(c);
            }
            let s1 = serial::solve(&p1);
            let s2 = serial::solve(&p2);
            for v in 0..16 {
                let small: std::collections::BTreeSet<u32> = s1[v].iter().copied().collect();
                let big: std::collections::BTreeSet<u32> = s2[v].iter().copied().collect();
                prop_assert!(small.is_subset(&big), "var {v}");
            }
        }
    }
}
