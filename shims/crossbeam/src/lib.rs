//! Vendored offline subset of `crossbeam`.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the tiny slice of the crossbeam API it actually uses:
//! [`utils::CachePadded`] (false-sharing avoidance for the virtual-GPU
//! barrier and per-block shared memory). Semantics match the real crate.

pub mod utils {
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to (at least) a cache-line boundary so that
    /// adjacent values never share a line.
    #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        pub const fn new(value: T) -> Self {
            Self { value }
        }

        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            Self::new(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::utils::CachePadded;

    #[test]
    fn cache_padded_derefs_and_aligns() {
        let p = CachePadded::new(7u32);
        assert_eq!(*p, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(CachePadded::new(3u64).into_inner(), 3);
    }
}
