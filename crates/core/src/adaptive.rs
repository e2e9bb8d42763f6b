//! Adaptive parallelism (paper §7.4).
//!
//! "In some morph algorithms, the degree of parallelism changes
//! considerably during execution. … To be able to track the amount of
//! parallelism at different stages of an algorithm, we employ an adaptive
//! scheme rather than fixed kernel configurations. For DMR and PTA, we
//! double the number of threads per block in every iteration (starting
//! from an initial value of 64 and 128, respectively) for the first three
//! iterations." Block count is fixed per run, proportional to input size,
//! between 3×SM and 50×SM.

/// Schedule of threads-per-block across host-loop iterations.
///
/// This is the *open-loop* schedule: [`tpb_for_iteration`] is a pure
/// function of the absolute iteration number (a resumed run continues
/// where its checkpoint left the schedule) and never consults measured
/// counters. Two other actors can override it inside
/// [`crate::run_morph`]'s host loop, in strict precedence order:
///
/// * a **serial rescue** ([`runtime::RescueLevel::Serial`]) pins a 1×1
///   grid until progress resumes — it beats both this schedule and any
///   autotuner decision (regression-tested in `runtime`);
/// * an enabled **autotuner** (`morph-tune`) replaces this schedule
///   entirely, but is bounded to this schedule's
///   `[initial_tpb, max_tpb]` band, so a tuned run starts exactly where
///   the fixed schedule starts and can never exceed its cap.
///
/// [`tpb_for_iteration`]: AdaptiveParallelism::tpb_for_iteration
/// [`runtime::RescueLevel::Serial`]: crate::runtime::RescueLevel::Serial
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveParallelism {
    /// Threads per block on iteration 0.
    pub initial_tpb: usize,
    /// Number of iterations over which tpb doubles (after which it stays
    /// at `initial_tpb × 2^growth_iters`).
    pub growth_iters: u32,
    /// Hard upper bound on threads per block (hardware limit; 1024 on
    /// Fermi).
    pub max_tpb: usize,
}

impl AdaptiveParallelism {
    /// The paper's DMR schedule: 64 → 128 → 256 → 512.
    pub fn dmr() -> Self {
        Self {
            initial_tpb: 64,
            growth_iters: 3,
            max_tpb: 1024,
        }
    }

    /// The paper's PTA schedule: 128 → 256 → 512 → 1024.
    pub fn pta() -> Self {
        Self {
            initial_tpb: 128,
            growth_iters: 3,
            max_tpb: 1024,
        }
    }

    /// A fixed (non-adaptive) configuration, e.g. SP's constant 1024.
    pub fn fixed(tpb: usize) -> Self {
        Self {
            initial_tpb: tpb,
            growth_iters: 0,
            max_tpb: tpb,
        }
    }

    /// Threads per block to use for host-loop iteration `iter`.
    pub fn tpb_for_iteration(&self, iter: u64) -> usize {
        let doublings = iter.min(self.growth_iters as u64) as u32;
        self.initial_tpb
            .saturating_mul(1usize << doublings.min(20))
            .min(self.max_tpb)
            .max(1)
    }

    /// Block count for a run: proportional to input size, clamped to the
    /// paper's `3×SM … 50×SM` band.
    pub fn blocks_for_input(sms: usize, input_size: usize, items_per_block: usize) -> usize {
        let want = input_size.div_ceil(items_per_block.max(1));
        want.clamp(3 * sms.max(1), 50 * sms.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmr_schedule_doubles_three_times() {
        let a = AdaptiveParallelism::dmr();
        assert_eq!(a.tpb_for_iteration(0), 64);
        assert_eq!(a.tpb_for_iteration(1), 128);
        assert_eq!(a.tpb_for_iteration(2), 256);
        assert_eq!(a.tpb_for_iteration(3), 512);
        assert_eq!(a.tpb_for_iteration(4), 512);
        assert_eq!(a.tpb_for_iteration(1000), 512);
    }

    #[test]
    fn pta_schedule_caps_at_1024() {
        let a = AdaptiveParallelism::pta();
        assert_eq!(a.tpb_for_iteration(3), 1024);
        assert_eq!(a.tpb_for_iteration(10), 1024);
    }

    #[test]
    fn fixed_schedule_is_constant() {
        let a = AdaptiveParallelism::fixed(1024);
        for i in 0..5 {
            assert_eq!(a.tpb_for_iteration(i), 1024);
        }
    }

    #[test]
    fn blocks_clamped_to_paper_band() {
        let sms = 14; // the paper's C2070
        assert_eq!(AdaptiveParallelism::blocks_for_input(sms, 10, 256), 3 * sms);
        assert_eq!(
            AdaptiveParallelism::blocks_for_input(sms, 10_000_000, 256),
            50 * sms
        );
        let mid = AdaptiveParallelism::blocks_for_input(sms, 100 * 256 * 2, 256);
        assert_eq!(mid, 200);
        assert!((3 * sms..=50 * sms).contains(&mid));
    }
}
