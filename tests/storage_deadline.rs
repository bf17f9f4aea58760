//! Storage reply deadlines: a caller of `AsyncStorage` whose backend
//! is wedged waits a bounded time, never forever. An async task body
//! bounds a `get` with `TaskContext::timeout`; a blocking caller bounds
//! it with `wait_timeout` and gets its receiver back. Each scenario
//! runs on a thread of its own and the test thread holds a watchdog on
//! it, so a regression fails the test instead of stalling the suite;
//! each also releases the backend at its end, so that dropping the
//! handle, which joins its service thread, returns.

use continuum::dag::TaskSpec;
use continuum::platform::{Constraints, NodeId};
use continuum::runtime::{LocalConfig, LocalRuntime, RuntimeError};
use continuum::storage::{AsyncStorage, ObjectKey, StorageError, StorageRuntime, StoredValue};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a scenario may take before the watchdog fails the test.
const WATCHDOG: Duration = Duration::from_secs(30);

/// The deadline each caller puts on its `get`.
const DEADLINE: Duration = Duration::from_millis(200);

/// Runs `scenario` on its own thread and returns its result, failing
/// the test if it does not finish within [`WATCHDOG`].
fn watched<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done_tx.send(scenario());
    });
    let out = done_rx
        .recv_timeout(WATCHDOG)
        .expect("the scenario hung past its watchdog");
    runner.join().expect("scenario thread");
    out
}

/// A backend whose every `get` blocks until the test sends it one `()`
/// and then finds nothing.
struct WedgedStore {
    gate: Mutex<mpsc::Receiver<()>>,
}

impl StorageRuntime for WedgedStore {
    fn put(
        &self,
        _key: ObjectKey,
        _value: StoredValue,
        _hint: Option<NodeId>,
    ) -> Result<Vec<NodeId>, StorageError> {
        Ok(Vec::new())
    }

    fn get(&self, key: &ObjectKey) -> Result<StoredValue, StorageError> {
        if let Ok(gate) = self.gate.lock() {
            let _ = gate.recv();
        }
        Err(StorageError::NotFound(key.clone()))
    }

    fn locations(&self, _key: &ObjectKey) -> Result<Vec<NodeId>, StorageError> {
        Ok(Vec::new())
    }

    fn delete(&self, _key: &ObjectKey) {}

    fn contains(&self, _key: &ObjectKey) -> bool {
        false
    }
}

/// An async handle over a [`WedgedStore`], and the sender that
/// releases its `get`s one at a time.
fn wedged() -> (AsyncStorage, mpsc::Sender<()>) {
    let (release, gate) = mpsc::channel();
    let store = WedgedStore {
        gate: Mutex::new(gate),
    };
    (AsyncStorage::new(Arc::new(store)), release)
}

#[test]
fn an_async_get_from_a_wedged_store_ends_in_deadline_exceeded() {
    let (timed_out, elapsed) = watched(|| {
        let (storage, release) = wedged();
        let pending = storage.get(ObjectKey::new("k"));
        let rt = LocalRuntime::new(LocalConfig::with_workers(1));
        let out = rt.data::<(bool, Duration)>("outcome");
        rt.submit_async(
            TaskSpec::new("read").output(out.id()),
            Constraints::new(),
            move |mut ctx| async move {
                let start = Instant::now();
                let reply = ctx.timeout(DEADLINE, pending).await;
                let timed_out = matches!(reply, Err(RuntimeError::DeadlineExceeded { .. }));
                ctx.set_output(0, (timed_out, start.elapsed()));
                ctx
            },
        )
        .expect("admitted");
        let outcome = *rt.get(&out).expect("the body finishes");
        rt.wait_all().expect("the run completes");
        // Unwedge the backend so the service thread can be joined.
        release.send(()).expect("the service thread holds the gate");
        drop(storage);
        outcome
    });
    assert!(timed_out, "the wait ended in DeadlineExceeded");
    assert!(
        elapsed < Duration::from_secs(1),
        "the deadline fired late: {elapsed:?}"
    );
}

#[test]
fn a_blocking_get_from_a_wedged_store_hands_its_receiver_back() {
    let (timed_out, elapsed, late) = watched(|| {
        let (storage, release) = wedged();
        let start = Instant::now();
        let reply = storage.get(ObjectKey::new("k")).wait_timeout(DEADLINE);
        let elapsed = start.elapsed();
        let timed_out = reply.is_err();
        // Unwedge the backend: the receiver handed back still gets the
        // reply that was late, and the service thread can be joined.
        release.send(()).expect("the service thread holds the gate");
        let late = reply.err().and_then(|pending| pending.wait());
        drop(storage);
        (timed_out, elapsed, late)
    });
    assert!(timed_out, "the wait handed its receiver back");
    assert!(
        elapsed < Duration::from_secs(1),
        "the deadline fired late: {elapsed:?}"
    );
    assert!(
        matches!(late, Some(Err(StorageError::NotFound(_)))),
        "the late reply reached the receiver handed back: {late:?}"
    );
}
