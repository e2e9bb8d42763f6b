//! morph-check — opt-in sanitizer layer for the virtual GPU.
//!
//! The simulator's memory model (`SharedSlice` in `morph-gpu-sim`) and the
//! morph runtime's slot machinery (`DeletionMarks`, `BumpAllocator` in
//! `morph-core`) state their safety contracts as prose: at most one writer
//! per element within a barrier interval, never touch a slot between
//! deletion and resurrection, never hand out a granted slot twice. This
//! crate turns those contracts into runtime checks.
//!
//! Everything here is *host-side shadow state* — none of it exists on a real
//! GPU. The crate is wired into `morph-gpu-sim` and `morph-core` behind a
//! `morph-check` cargo feature so release builds pay zero cost; when the
//! feature is enabled, violations abort the offending virtual thread with an
//! attributed panic (a "sanitizer trap") that the engine's existing failure
//! containment surfaces as a `KernelPanic` launch error.
//!
//! Modules:
//! - [`thread`]: per-OS-thread record of which *virtual* thread (and which
//!   barrier epoch) is currently executing, installed by the engine around
//!   each kernel phase call.
//! - [`race`]: shadow access logs keyed by (index, thread, barrier-epoch)
//!   flagging write/write and read/write pairs by distinct virtual threads
//!   within one barrier interval.

pub mod race;
pub mod thread;

pub use race::ShadowLog;
pub use thread::{in_kernel, next_launch_nonce, KernelScope};

/// Prefix carried by every sanitizer trap so callers (and tests) can tell a
/// morph-check verdict apart from an ordinary panic.
pub const VIOLATION_PREFIX: &str = "morph-check violation";

/// Abort the current (virtual) thread with an attributed sanitizer verdict.
///
/// Inside a kernel this unwinds into the engine's `catch_unwind`, which
/// converts it into `LaunchError::KernelPanic` with the full message; on the
/// host it fails the pipeline (and the test run) directly.
pub fn fail(check: &str, detail: &str) -> ! {
    panic!("{VIOLATION_PREFIX} [{check}]: {detail}");
}

/// Does a panic message carry a morph-check verdict?
pub fn is_violation(message: &str) -> bool {
    message.contains(VIOLATION_PREFIX)
}

/// If the calling OS thread is currently executing a virtual GPU thread,
/// trap: `what` is a host-side operation that requires quiescence (no launch
/// in flight). Used by `SharedSlice::as_mut_slice`/`to_vec` and friends.
pub fn assert_host_side(what: &str) {
    if let Some((vthread, epoch)) = thread::current() {
        fail(
            "quiescence",
            &format!(
                "{what} called from inside a kernel (virtual thread {vthread}, barrier epoch \
                 {epoch}); host-side exclusive access is only legal between launches"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_messages_are_recognizable() {
        let err = std::panic::catch_unwind(|| fail("demo", "slot 3 misused")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(is_violation(msg));
        assert!(msg.contains("[demo]"));
        assert!(msg.contains("slot 3"));
        assert!(!is_violation("ordinary panic"));
    }

    #[test]
    fn assert_host_side_passes_outside_kernels() {
        assert_host_side("SharedSlice::to_vec"); // must not panic
    }

    #[test]
    fn assert_host_side_traps_inside_kernel_scope() {
        let err = std::panic::catch_unwind(|| {
            let _scope = KernelScope::enter(7, 42);
            assert_host_side("SharedSlice::as_mut_slice");
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(is_violation(msg));
        assert!(msg.contains("virtual thread 7"));
        assert!(msg.contains("epoch 42"));
    }
}
