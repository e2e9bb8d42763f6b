//! Thread-divergence reduction by work compaction (paper §7.6).
//!
//! "To minimize thread divergence in DMR, we try to ensure that all
//! threads in a warp perform roughly the same amount of work by moving the
//! bad triangles to one side of the triangle array and the good triangles
//! to the other side. This way, the threads in each warp (except one) will
//! either all process bad triangles or not process any triangles."
//!
//! The same trick serves PTA ("we similarly move all pointer nodes with
//! enabled incoming edges to one side of the array"). The compaction here
//! operates on an *indirection array* of element ids rather than moving
//! the elements themselves, which is how all our kernels consume it.

/// Stably partition `order` so that ids satisfying `is_active` come first.
/// Returns the number of active ids. O(n) time, O(n) scratch.
pub fn partition_active(order: &mut [u32], mut is_active: impl FnMut(u32) -> bool) -> usize {
    let mut active = Vec::with_capacity(order.len());
    let mut idle = Vec::with_capacity(order.len());
    for &id in order.iter() {
        if is_active(id) {
            active.push(id);
        } else {
            idle.push(id);
        }
    }
    let n_active = active.len();
    order[..n_active].copy_from_slice(&active);
    order[n_active..].copy_from_slice(&idle);
    n_active
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_stable_and_complete() {
        let mut order: Vec<u32> = (0..10).collect();
        let n = partition_active(&mut order, |x| x % 3 == 0);
        assert_eq!(n, 4);
        assert_eq!(&order[..4], &[0, 3, 6, 9]);
        assert_eq!(&order[4..], &[1, 2, 4, 5, 7, 8]);
    }

    #[test]
    fn partition_handles_extremes() {
        let mut all: Vec<u32> = (0..5).collect();
        assert_eq!(partition_active(&mut all, |_| true), 5);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(partition_active(&mut all, |_| false), 0);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        let mut empty: Vec<u32> = vec![];
        assert_eq!(partition_active(&mut empty, |_| true), 0);
    }
}
