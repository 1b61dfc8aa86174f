//! Thread-invariant executor counters.
//!
//! The pool deliberately exposes only aggregates that are identical at
//! any thread count: fan-out calls and the items they dealt out. Chunk
//! counts, worker counts and scheduling details vary with `KYP_THREADS`
//! and must never leak into observability output — the determinism suite
//! compares `metrics.json` byte-for-byte across thread counts.
//!
//! The counters are process-wide relaxed atomics: plain additions, so
//! the merged totals are independent of which worker incremented first.

use std::sync::atomic::{AtomicU64, Ordering};

static PAR_CALLS: AtomicU64 = AtomicU64::new(0);
static PAR_ITEMS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide executor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Fan-out calls made ([`Pool::par_map_index`](crate::Pool::par_map_index)
    /// and the primitives built on it, plus
    /// [`Pool::par_chunks_mut`](crate::Pool::par_chunks_mut)).
    pub par_calls: u64,
    /// Total items those calls dealt out.
    pub par_items: u64,
}

pub(crate) fn record_par(items: usize) {
    PAR_CALLS.fetch_add(1, Ordering::Relaxed);
    PAR_ITEMS.fetch_add(items as u64, Ordering::Relaxed);
}

/// The executor counters accumulated since process start (or the last
/// [`reset_stats`]).
pub fn stats() -> ExecStats {
    ExecStats {
        par_calls: PAR_CALLS.load(Ordering::Relaxed),
        par_items: PAR_ITEMS.load(Ordering::Relaxed),
    }
}

/// Zeroes the executor counters (test isolation; callers exporting
/// per-run metrics snapshot before/after instead).
pub fn reset_stats() {
    PAR_CALLS.store(0, Ordering::Relaxed);
    PAR_ITEMS.store(0, Ordering::Relaxed);
}

impl ExecStats {
    /// Exports the snapshot into `registry` as gauges (`exec.par_calls`,
    /// `exec.par_items`). Only thread-invariant values are exported, so
    /// the rendered json is byte-identical at any thread count.
    pub fn export_into(&self, registry: &mut kyp_obs::MetricsRegistry) {
        registry.set_gauge("exec.par_calls", self.par_calls.cast_signed());
        registry.set_gauge("exec.par_items", self.par_items.cast_signed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_gauges() {
        let mut registry = kyp_obs::MetricsRegistry::new();
        ExecStats {
            par_calls: 3,
            par_items: 42,
        }
        .export_into(&mut registry);
        assert_eq!(registry.gauge("exec.par_calls"), 3);
        assert_eq!(registry.gauge("exec.par_items"), 42);
    }
}
