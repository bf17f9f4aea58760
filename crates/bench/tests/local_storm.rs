//! What the `LocalRuntime` storms must produce whatever the worker
//! count: the same values, every task completed, a bounded live store,
//! and — for async bodies — a parked plateau that costs no threads.
//!
//! The OS thread bound below counts the whole process, so this binary
//! holds these two tests and no others.

mod workloads;

use workloads::local::{cases, run};

#[test]
fn every_case_is_deterministic_across_worker_counts() {
    for case in cases() {
        let reference = run(&case, 1);
        assert_eq!(reference.completed, case.tasks, "{}", case.name);
        for workers in [2, 4] {
            let outcome = run(&case, workers);
            assert_eq!(
                (outcome.checksum, outcome.completed),
                (reference.checksum, reference.completed),
                "{} at {workers} workers",
                case.name
            );
            // Each step consumes its predecessor's version, so all but
            // a handful of the chain's 1 200 values are evicted while
            // it runs (`crates/runtime/tests/local_executor.rs` has
            // the 10 k-step twin).
            if case.name == "chain" {
                assert!(
                    outcome.live_values_peak <= 16,
                    "chain kept {} values live at {workers} workers",
                    outcome.live_values_peak
                );
            }
        }
    }
}

#[test]
fn await_heavy_parks_the_whole_storm_on_two_workers() {
    let [.., case] = cases();
    let outcome = run(&case, 2);
    assert_eq!(outcome.completed, case.tasks);
    assert!(
        outcome.parked_samples > 0,
        "the deadline passed before the storm was submitted ({:?}): the \
         parked plateau was never sampled",
        outcome.submit
    );
    assert!(
        outcome.parked_peak >= case.tasks * 9 / 10,
        "parked plateau reached only {} of {} tasks",
        outcome.parked_peak,
        case.tasks
    );
    if outcome.os_threads_peak > 0 {
        // Harness + two test threads, this runtime's 2 workers +
        // reactor, the other test's ≤ 4 workers + reactor, and slack:
        // parked tasks must not cost threads.
        assert!(
            outcome.os_threads_peak <= 16,
            "{} OS threads for a 2-worker async storm",
            outcome.os_threads_peak
        );
    }
}
