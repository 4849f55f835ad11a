//! Deterministic work accounting: the [`WorkDelta`] attributed to named
//! kernels via [`crate::Recorder::record_work`].
//!
//! A `WorkDelta` is a bundle of exact integer costs — floating-point
//! operations, bytes moved, modeled cache hits/misses, items processed —
//! attributed to one named kernel (e.g. `"neural/matmul"`). Because every
//! field is an integer and accumulation is pure addition (commutative and
//! associative), per-kernel totals are **independent of thread count and
//! scheduling**: the same seed yields byte-identical profiles at any
//! `SCPAR_THREADS`. Only derived *rates* (GFLOP/s) depend on a clock.
//!
//! Kernel names use `/` as a frame separator (`"compute/kmeans/assign"`)
//! so profiles can be folded into flamegraph stacks.

use std::ops::{Add, AddAssign};

/// Exact integer costs attributed to one kernel invocation (or a batch of
/// them). All fields default to zero; use the builder-style constructors
/// to set the dimensions a kernel actually spends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkDelta {
    /// Floating-point operations (multiply-adds count as two).
    pub flops: u64,
    /// Bytes read plus bytes written by the kernel.
    pub bytes: u64,
    /// Modeled cache hits (e.g. KC-panel reuse in blocked matmul).
    pub cache_hits: u64,
    /// Modeled cache misses (cold panel loads).
    pub cache_misses: u64,
    /// Logical items processed (rows, events, requests, points).
    pub items: u64,
}

impl WorkDelta {
    /// A delta of `n` floating-point operations.
    pub const fn flops(n: u64) -> WorkDelta {
        WorkDelta {
            flops: n,
            bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            items: 0,
        }
    }

    /// A delta of `n` logical items.
    pub const fn items(n: u64) -> WorkDelta {
        WorkDelta {
            flops: 0,
            bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            items: n,
        }
    }

    /// A delta of `n` bytes moved.
    pub const fn bytes(n: u64) -> WorkDelta {
        WorkDelta {
            flops: 0,
            bytes: n,
            cache_hits: 0,
            cache_misses: 0,
            items: 0,
        }
    }

    /// Sets the bytes-moved dimension.
    pub const fn with_bytes(mut self, n: u64) -> WorkDelta {
        self.bytes = n;
        self
    }

    /// Sets the items dimension.
    pub const fn with_items(mut self, n: u64) -> WorkDelta {
        self.items = n;
        self
    }

    /// Sets the modeled cache dimensions.
    pub const fn with_cache(mut self, hits: u64, misses: u64) -> WorkDelta {
        self.cache_hits = hits;
        self.cache_misses = misses;
        self
    }
}

impl Add for WorkDelta {
    type Output = WorkDelta;

    fn add(self, rhs: WorkDelta) -> WorkDelta {
        WorkDelta {
            flops: self.flops + rhs.flops,
            bytes: self.bytes + rhs.bytes,
            cache_hits: self.cache_hits + rhs.cache_hits,
            cache_misses: self.cache_misses + rhs.cache_misses,
            items: self.items + rhs.items,
        }
    }
}

impl AddAssign for WorkDelta {
    fn add_assign(&mut self, rhs: WorkDelta) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let w = WorkDelta::flops(10)
            .with_bytes(80)
            .with_items(2)
            .with_cache(3, 1);
        assert_eq!(w.flops, 10);
        assert_eq!(w.bytes, 80);
        assert_eq!(w.items, 2);
        assert_eq!(w.cache_hits, 3);
        assert_eq!(w.cache_misses, 1);
    }

    #[test]
    fn addition_is_fieldwise() {
        let mut a = WorkDelta::flops(1).with_items(5);
        a += WorkDelta::bytes(7).with_cache(2, 3);
        assert_eq!(
            a,
            WorkDelta::flops(1)
                .with_bytes(7)
                .with_items(5)
                .with_cache(2, 3)
        );
    }
}
