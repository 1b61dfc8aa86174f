//! The process-wide executor counters, measured in a test binary of their
//! own: no other test here runs `par_map` concurrently, so the deltas
//! below count exactly the calls made in this test.

use kyp_exec::{stats, Pool};

#[test]
fn counters_are_thread_invariant() {
    // Measure deltas of a serial and a parallel run of the same workload.
    let before = stats();
    Pool::new(1).par_map_index(100, |i| i);
    let mid = stats();
    Pool::new(8).par_map_index(100, |i| i);
    let after = stats();
    let serial = (
        mid.par_calls - before.par_calls,
        mid.par_items - before.par_items,
    );
    let parallel = (
        after.par_calls - mid.par_calls,
        after.par_items - mid.par_items,
    );
    assert_eq!(serial, parallel);
    assert_eq!(serial.1, 100);
}
