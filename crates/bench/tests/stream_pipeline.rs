//! The streaming subsystem's reason to exist: a streamed pipeline
//! computes what its batch equivalent does, its stages overlap on the
//! local engine, and on the simulator it finishes strictly first.

mod workloads;

use workloads::stream::{allocation_violation, cases, overlapped_hops, run_batch, Comparison};

#[test]
fn sim_window_passes_the_check() {
    let c = Comparison::sim(32);
    assert!(c.violations().is_empty(), "{c:?}");
    let speedup = c.batch_ms / c.streamed_ms;
    assert!(speedup > 3.0, "four stages should overlap: {speedup}");
}

#[test]
fn local_streamed_agrees_with_batch_and_overlap_wins() {
    // Overlap is read off a traced run, not off two wall-clock samples
    // (a stall on the streamed side failed 1–3 runs in 20 on a 2-vCPU
    // host): every stage and the sink start executing before the task
    // feeding them finishes, which a consumer released only at its
    // producer's completion never does.
    for case in cases() {
        let (streamed, overlapped) = overlapped_hops(&case);
        let (batch, _) = run_batch(&case);
        assert_eq!(
            streamed, batch,
            "`{}` streamed and batch disagree",
            case.name
        );
        assert_eq!(
            overlapped,
            case.stages + 1,
            "`{}`: {overlapped} of {} hops overlapped",
            case.name,
            case.stages + 1
        );
    }
}

#[test]
fn check_catches_inversions() {
    let mut c = Comparison::sim(16);
    c.streamed_ms = c.batch_ms + 1.0;
    assert_eq!(c.violations().len(), 1);
    c.checksum_batch += 1;
    assert_eq!(c.violations().len(), 2);
}

#[test]
fn check_catches_per_element_allocation() {
    // The seed's `inference` row: one `Arc` per element per hop.
    assert!(allocation_violation(6_000, 18_133, 150).is_some());
    assert!(allocation_violation(6_000, 150 + 6_000 / 4, 150).is_none());
}
