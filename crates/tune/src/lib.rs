//! `morph-tune` — closed-loop adaptive autotuning.
//!
//! The paper's §7 optimisations are *open-loop*: adaptive parallelism
//! (§7.4) doubles threads-per-block on a fixed schedule, the conflict
//! policy (§6.2) is chosen up front, and work compaction / index
//! reordering (§6.1, §7.6) run unconditionally. This crate closes the
//! loop: a [`Controller`] consumes the live cost-model counters after
//! each host-loop iteration and emits a [`TuneDecision`] for the next
//! one —
//!
//! * **geometry**: threads-per-block grows or shrinks by one step
//!   (double / halve) toward an occupancy band, bounded to
//!   `[initial_tpb, max_tpb]`, with a cooldown window so it cannot
//!   oscillate;
//! * **conflict policy**: when the cumulative abort ratio climbs past
//!   `abort_high` the controller pins a serial window
//!   ([`ConflictPolicy::SerialPin`] — the driver runs a 1×1 grid, so
//!   speculative conflicts vanish and every activity commits), releasing
//!   back to three-phase marking once the ratio decays below `abort_low`
//!   (a hysteresis band, so the two thresholds never chatter);
//! * **data layout**: per-iteration divergence above `divergence_high`
//!   requests work compaction ([`TuneDecision::compact`]), and a metered
//!   coalescing factor below `coalescing_low` requests index reordering
//!   ([`TuneDecision::reorder`]).
//!
//! The controller is a pure function of its input stream — no clocks, no
//! randomness — so the same counter stream always yields the same
//! decision stream (regression-tested here and property-tested below).
//!
//! Like `morph-trace` and `morph-metrics` this crate is dependency-free
//! and sits *below* the simulator: the engine carries a detachable
//! [`AutoTuner`] handle exactly the way it carries a `Tracer`, and a
//! detached handle costs nothing.

/// How speculative conflicts are resolved in the next iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// The paper's §6.2 three-phase marking scheme: all threads race,
    /// losers abort and retry in a later iteration.
    #[default]
    ThreePhase,
    /// Pin a 1×1 serial grid for the next iteration: no concurrent
    /// speculation, so every activity commits. The same actuation the
    /// recovery ladder's livelock rescue uses — but driven by the abort
    /// ratio instead of a progress watchdog.
    SerialPin,
}

impl ConflictPolicy {
    pub fn as_str(&self) -> &'static str {
        match self {
            ConflictPolicy::ThreePhase => "three_phase",
            ConflictPolicy::SerialPin => "serial_pin",
        }
    }

    pub fn parse(s: &str) -> Option<ConflictPolicy> {
        Some(match s {
            "three_phase" => ConflictPolicy::ThreePhase,
            "serial_pin" => ConflictPolicy::SerialPin,
            _ => return None,
        })
    }
}

/// Thresholds and damping for the feedback rules. The defaults target the
/// BENCH_5 mistunings: DMR's 90% abort share and PTA's 1.7% occupancy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneConfig {
    /// Per-iteration occupancy below this requests one shrink step.
    pub occupancy_low: f64,
    /// Per-iteration occupancy above this requests one growth step.
    pub occupancy_high: f64,
    /// Cumulative abort ratio above this pins the serial window.
    pub abort_high: f64,
    /// Cumulative abort ratio below this releases the serial window.
    /// Must be `< abort_high` — the gap is the hysteresis band.
    pub abort_low: f64,
    /// Per-iteration divergence ratio above this requests compaction.
    pub divergence_high: f64,
    /// Metered coalescing factor below this requests index reordering
    /// (ignored while nothing is metered — a 0.0 factor means "no data",
    /// not "fully scattered").
    pub coalescing_low: f64,
    /// Iterations that must pass after any geometry or policy change
    /// before the *same knob* may change again (oscillation damper).
    pub cooldown: u64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            occupancy_low: 0.25,
            occupancy_high: 0.75,
            abort_high: 0.5,
            abort_low: 0.35,
            divergence_high: 0.2,
            coalescing_low: 2.0,
            cooldown: 2,
        }
    }
}

/// One iteration's worth of cost-model counters, exactly the fields of
/// the engine's launch totals the feedback rules consume. Plain `u64`s so
/// this crate stays below the simulator and trace crates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TuneInput {
    pub aborts: u64,
    pub commits: u64,
    pub warps: u64,
    pub active_warps: u64,
    pub divergent_warps: u64,
    pub gmem_accesses: u64,
    pub gmem_transactions: u64,
}

impl TuneInput {
    pub fn occupancy(&self) -> f64 {
        ratio(self.active_warps, self.warps)
    }

    pub fn divergence_ratio(&self) -> f64 {
        ratio(self.divergent_warps, self.warps)
    }

    pub fn coalescing_factor(&self) -> f64 {
        ratio(self.gmem_accesses, self.gmem_transactions)
    }
}

/// What the next iteration should run with. Emitted by
/// [`Controller::decide`]; the recovering driver actuates `tpb`/`policy`
/// (geometry) itself and forwards `compact`/`reorder` to the pipeline's
/// step closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneDecision {
    /// Threads per block for the next iteration. Always within
    /// `[initial_tpb, max_tpb]` and never more than one doubling or
    /// halving away from the previous decision.
    pub tpb: usize,
    /// Conflict policy for the next iteration. [`ConflictPolicy::SerialPin`]
    /// makes the driver run a 1×1 grid (unless a recovery rescue is
    /// already pinned — rescue always wins, see `morph_core::run_morph`).
    pub policy: ConflictPolicy,
    /// Request host-side work compaction (§7.6) before the next launch.
    pub compact: bool,
    /// Request host-side index reordering (§6.1) before the next launch.
    pub reorder: bool,
}

/// The per-run feedback controller: one per `morph_core::run_morph` run.
#[derive(Clone, Debug)]
pub struct Controller {
    cfg: TuneConfig,
    min_tpb: usize,
    max_tpb: usize,
    tpb: usize,
    policy: ConflictPolicy,
    last_geo_change: Option<u64>,
    last_policy_change: Option<u64>,
    cum_aborts: u64,
    cum_commits: u64,
}

impl Controller {
    /// A controller bounded to `[initial_tpb, max_tpb]`, starting at the
    /// same point the fixed §7.4 schedule starts (`initial_tpb`,
    /// three-phase marking).
    pub fn new(cfg: TuneConfig, initial_tpb: usize, max_tpb: usize) -> Self {
        let min_tpb = initial_tpb.max(1);
        Self {
            cfg,
            min_tpb,
            max_tpb: max_tpb.max(min_tpb),
            tpb: min_tpb,
            policy: ConflictPolicy::default(),
            last_geo_change: None,
            last_policy_change: None,
            cum_aborts: 0,
            cum_commits: 0,
        }
    }

    /// The decision the controller would emit before observing anything:
    /// the fixed schedule's starting point.
    pub fn initial_decision(&self) -> TuneDecision {
        TuneDecision {
            tpb: self.tpb,
            policy: self.policy,
            compact: false,
            reorder: false,
        }
    }

    /// Consume the counters of the iteration that just completed (which
    /// ran under this controller's *previous* decision) and decide the
    /// next iteration's knobs. Call once per host-loop iteration with a
    /// monotonically increasing `iteration`.
    pub fn decide(&mut self, iteration: u64, input: &TuneInput) -> TuneDecision {
        // The just-measured iteration ran under the policy decided last
        // time; a pinned iteration's occupancy (one warp, fully active)
        // says nothing about the three-phase geometry, so it must not
        // drive a growth step.
        let ran_pinned = self.policy == ConflictPolicy::SerialPin;

        // Conflict policy: hysteresis band on the *cumulative* abort
        // ratio, so serial windows stay pinned until the committed work
        // has actually diluted the abort share.
        self.cum_aborts += input.aborts;
        self.cum_commits += input.commits;
        let cum_abort = ratio(self.cum_aborts, self.cum_aborts + self.cum_commits);
        if cooled(self.last_policy_change, iteration, self.cfg.cooldown) {
            let flipped = match self.policy {
                ConflictPolicy::ThreePhase if cum_abort > self.cfg.abort_high => {
                    self.policy = ConflictPolicy::SerialPin;
                    true
                }
                ConflictPolicy::SerialPin if cum_abort < self.cfg.abort_low => {
                    self.policy = ConflictPolicy::ThreePhase;
                    true
                }
                _ => false,
            };
            if flipped {
                self.last_policy_change = Some(iteration);
            }
        }

        // Geometry: one step toward the occupancy band, inside the
        // bounds, damped by the cooldown.
        if !ran_pinned && cooled(self.last_geo_change, iteration, self.cfg.cooldown) {
            let occ = input.occupancy();
            let stepped = if occ < self.cfg.occupancy_low && self.tpb / 2 >= self.min_tpb {
                self.tpb /= 2;
                true
            } else if occ > self.cfg.occupancy_high
                && self.tpb.saturating_mul(2) <= self.max_tpb
            {
                self.tpb *= 2;
                true
            } else {
                false
            };
            if stepped {
                self.last_geo_change = Some(iteration);
            }
        }

        TuneDecision {
            tpb: self.tpb,
            policy: self.policy,
            compact: input.divergence_ratio() > self.cfg.divergence_high,
            reorder: input.gmem_accesses > 0
                && input.coalescing_factor() < self.cfg.coalescing_low,
        }
    }
}

/// Detachable autotuner handle, carried by the engine like a `Tracer`:
/// `AutoTuner::default()` is detached (the driver keeps the paper's fixed
/// schedules, zero cost), [`AutoTuner::enabled`] closes the loop.
#[derive(Clone, Debug, Default)]
pub struct AutoTuner {
    cfg: Option<TuneConfig>,
}

impl AutoTuner {
    /// An attached tuner with the given thresholds.
    pub fn enabled(cfg: TuneConfig) -> Self {
        Self { cfg: Some(cfg) }
    }

    /// Is a controller attached?
    pub fn is_enabled(&self) -> bool {
        self.cfg.is_some()
    }

    /// The attached configuration, if any. The driver builds one
    /// [`Controller`] per run from this.
    pub fn config(&self) -> Option<TuneConfig> {
        self.cfg
    }
}

fn cooled(last: Option<u64>, now: u64, cooldown: u64) -> bool {
    last.is_none_or(|l| now.saturating_sub(l) >= cooldown)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_input() -> TuneInput {
        // 64 warps ran, 2 had an active lane: occupancy 0.031.
        TuneInput {
            commits: 10,
            warps: 64,
            active_warps: 2,
            ..TuneInput::default()
        }
    }

    fn busy_input() -> TuneInput {
        TuneInput {
            commits: 10,
            warps: 64,
            active_warps: 63,
            ..TuneInput::default()
        }
    }

    #[test]
    fn conflict_policy_string_roundtrip() {
        for p in [ConflictPolicy::ThreePhase, ConflictPolicy::SerialPin] {
            assert_eq!(ConflictPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(ConflictPolicy::parse("optimistic"), None);
    }

    #[test]
    fn initial_decision_matches_fixed_schedule_start() {
        let c = Controller::new(TuneConfig::default(), 64, 1024);
        let d = c.initial_decision();
        assert_eq!(d.tpb, 64);
        assert_eq!(d.policy, ConflictPolicy::ThreePhase);
        assert!(!d.compact && !d.reorder);
    }

    #[test]
    fn low_occupancy_shrinks_one_step_per_cooldown() {
        let mut c = Controller::new(TuneConfig::default(), 64, 1024);
        c.tpb = 512; // as if the schedule had grown it
        let d0 = c.decide(0, &idle_input());
        assert_eq!(d0.tpb, 256, "one halving, not a jump to the floor");
        let d1 = c.decide(1, &idle_input());
        assert_eq!(d1.tpb, 256, "cooldown holds the next step back");
        let d2 = c.decide(2, &idle_input());
        assert_eq!(d2.tpb, 128);
    }

    #[test]
    fn high_occupancy_grows_and_respects_max() {
        let mut c = Controller::new(TuneConfig::default(), 64, 128);
        assert_eq!(c.decide(0, &busy_input()).tpb, 128);
        assert_eq!(c.decide(2, &busy_input()).tpb, 128, "max_tpb caps growth");
    }

    #[test]
    fn shrink_never_goes_below_initial() {
        let mut c = Controller::new(TuneConfig::default(), 64, 1024);
        for it in 0..20 {
            let d = c.decide(it, &idle_input());
            assert!(d.tpb >= 64);
        }
        assert_eq!(c.decide(100, &idle_input()).tpb, 64);
    }

    #[test]
    fn abort_storm_pins_serial_and_band_releases_it() {
        let mut c = Controller::new(TuneConfig::default(), 64, 1024);
        let storm = TuneInput {
            aborts: 90,
            commits: 10,
            warps: 64,
            active_warps: 20,
            ..TuneInput::default()
        };
        let d = c.decide(0, &storm);
        assert_eq!(d.policy, ConflictPolicy::SerialPin);

        // Serial iterations commit without aborting; the cumulative ratio
        // decays, and once it crosses abort_low (after the cooldown) the
        // pin is released.
        let serial = TuneInput {
            commits: 60,
            warps: 1,
            active_warps: 1,
            ..TuneInput::default()
        };
        let mut released_at = None;
        for it in 1..10 {
            if c.decide(it, &serial).policy == ConflictPolicy::ThreePhase {
                released_at = Some(it);
                break;
            }
        }
        let released_at = released_at.expect("commit-only iterations must release the pin");
        assert!(released_at >= 2, "cooldown must delay the release");
    }

    #[test]
    fn pinned_iterations_do_not_drive_geometry() {
        let mut c = Controller::new(TuneConfig::default(), 64, 1024);
        let storm = TuneInput {
            aborts: 90,
            commits: 10,
            warps: 64,
            active_warps: 2,
            ..TuneInput::default()
        };
        assert_eq!(c.decide(0, &storm).policy, ConflictPolicy::SerialPin);
        // A pinned iteration measures occupancy 1.0; that must not grow tpb.
        let pinned = TuneInput {
            commits: 5,
            warps: 1,
            active_warps: 1,
            ..TuneInput::default()
        };
        let before = c.tpb;
        c.decide(2, &pinned);
        assert_eq!(c.tpb, before);
    }

    #[test]
    fn divergence_and_coalescing_set_layout_flags() {
        let mut c = Controller::new(TuneConfig::default(), 64, 64);
        let d = c.decide(
            0,
            &TuneInput {
                commits: 1,
                warps: 10,
                active_warps: 5,
                divergent_warps: 5,
                gmem_accesses: 100,
                gmem_transactions: 90,
                ..TuneInput::default()
            },
        );
        assert!(d.compact, "divergence 0.5 > 0.2");
        assert!(d.reorder, "coalescing 1.1 < 2.0");

        // An unmetered stream (gmem_accesses == 0) must not request a
        // reorder: 0.0 means "no data".
        let d = c.decide(1, &TuneInput { commits: 1, warps: 10, active_warps: 5, ..TuneInput::default() });
        assert!(!d.reorder);
    }

    #[test]
    fn detached_handle_is_disabled() {
        assert!(!AutoTuner::default().is_enabled());
        assert!(AutoTuner::default().config().is_none());
        let t = AutoTuner::enabled(TuneConfig::default());
        assert!(t.is_enabled());
        assert_eq!(t.config(), Some(TuneConfig::default()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_input() -> impl Strategy<Value = TuneInput> {
        (
            0u64..200,
            0u64..200,
            1u64..256,
            0u64..256,
            0u64..256,
            0u64..512,
            0u64..512,
        )
            .prop_map(|(aborts, commits, warps, active, divergent, gm, gt)| TuneInput {
                aborts,
                commits,
                warps,
                active_warps: active.min(warps),
                divergent_warps: divergent.min(warps),
                gmem_accesses: gm,
                gmem_transactions: gt.min(gm),
            })
    }

    proptest! {
        /// Bounded actuation: tpb stays within [initial, max] and moves by
        /// at most one doubling/halving per decision.
        #[test]
        fn tpb_bounded_and_single_step(
            initial_exp in 0u32..6,
            extra_exp in 0u32..5,
            inputs in prop::collection::vec(arb_input(), 1..60),
        ) {
            let initial = 1usize << initial_exp;
            let max = initial << extra_exp;
            let mut c = Controller::new(TuneConfig::default(), initial, max);
            let mut prev = c.initial_decision().tpb;
            for (it, input) in inputs.iter().enumerate() {
                let d = c.decide(it as u64, input);
                prop_assert!(d.tpb >= initial && d.tpb <= max, "tpb {} outside [{initial},{max}]", d.tpb);
                prop_assert!(
                    d.tpb == prev || d.tpb == prev * 2 || d.tpb == prev / 2,
                    "tpb jumped {prev} -> {}", d.tpb
                );
                prev = d.tpb;
            }
        }

        /// Hysteresis: no knob flips A→B→A within the cooldown window —
        /// any two changes of the same knob are at least `cooldown`
        /// decisions apart.
        #[test]
        fn no_flip_inside_cooldown(
            cooldown in 1u64..6,
            inputs in prop::collection::vec(arb_input(), 1..80),
        ) {
            let cfg = TuneConfig { cooldown, ..TuneConfig::default() };
            let mut c = Controller::new(cfg, 64, 1024);
            let mut prev = c.initial_decision();
            let mut last_tpb_change: Option<u64> = None;
            let mut last_policy_change: Option<u64> = None;
            for (it, input) in inputs.iter().enumerate() {
                let it = it as u64;
                let d = c.decide(it, input);
                if d.tpb != prev.tpb {
                    if let Some(l) = last_tpb_change {
                        prop_assert!(it - l >= cooldown, "geometry changed at {l} and again at {it}");
                    }
                    last_tpb_change = Some(it);
                }
                if d.policy != prev.policy {
                    if let Some(l) = last_policy_change {
                        prop_assert!(it - l >= cooldown, "policy flipped at {l} and again at {it}");
                    }
                    last_policy_change = Some(it);
                }
                prev = d;
            }
        }

        /// Determinism: the same counter stream yields the same decision
        /// stream, decision for decision.
        #[test]
        fn same_stream_same_decisions(
            inputs in prop::collection::vec(arb_input(), 0..60),
        ) {
            let mut a = Controller::new(TuneConfig::default(), 64, 1024);
            let mut b = Controller::new(TuneConfig::default(), 64, 1024);
            prop_assert_eq!(a.initial_decision(), b.initial_decision());
            for (it, input) in inputs.iter().enumerate() {
                prop_assert_eq!(a.decide(it as u64, input), b.decide(it as u64, input));
            }
        }
    }
}
