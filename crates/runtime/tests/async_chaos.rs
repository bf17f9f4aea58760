//! Lost-wakeup stress for the park/wake handshake under preemption
//! injection: with `crossbeam::hooks` chaos mode on, every task-cell
//! transition (and every deque operation) yields the OS scheduler at
//! its load/CAS boundaries, amplifying the windows where a wake can
//! race a park. Any lost wakeup leaves a task parked forever and the
//! run hangs — the test would time out rather than pass.
//!
//! This lives in its own test binary because the chaos flag is global
//! to the process: the equivalence suite must not run with it on.

use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{LocalConfig, LocalRuntime};
use crossbeam::hooks;
use std::time::{Duration, Instant};

/// Turns chaos off again even if an assertion unwinds.
struct ChaosGuard;

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        hooks::set_chaos(false);
    }
}

#[test]
fn park_wake_handshake_survives_preemption_injection() {
    hooks::set_chaos(true);
    let _guard = ChaosGuard;
    // Short sleeps on a fine tick: wakes from the reactor thread land
    // while pollers are still between `Poll::Pending` and `try_park`,
    // exercising both the Parked→Enqueue and the NOTIFIED→MustRepoll
    // paths. Zero-length sleeps additionally hit the refused-
    // registration self-wake path.
    const ROUNDS: usize = 25;
    const TASKS: usize = 32;
    for round in 0..ROUNDS {
        let rt = LocalRuntime::new(
            LocalConfig::default()
                .worker_threads(4)
                .reactor_tick(Duration::from_micros(50)),
        );
        let outs = rt.data_batch::<u64>("o", TASKS);
        for (i, o) in outs.iter().enumerate() {
            let dur = Duration::from_micros(((round * TASKS + i) % 7) as u64 * 40);
            rt.submit_async(
                TaskSpec::new("racy").output(o.id()),
                Constraints::new(),
                move |mut ctx| async move {
                    // Three parks per task: each is a fresh race.
                    ctx.sleep(dur).await;
                    ctx.sleep(dur / 2).await;
                    ctx.sleep(Duration::ZERO).await;
                    ctx.set_output(0, i as u64);
                    ctx
                },
            )
            .unwrap();
        }
        let t0 = Instant::now();
        rt.wait_all().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "round {round} took pathologically long — suspected lost wakeup"
        );
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(*rt.get(o).unwrap(), i as u64);
        }
        assert_eq!(rt.parked_count(), 0, "round {round} left a task parked");
    }
}

#[test]
fn async_streams_survive_preemption_injection() {
    hooks::set_chaos(true);
    let _guard = ChaosGuard;
    // Stream wakes come from peer tasks (not the reactor), racing the
    // sender/receiver parks through the channel waiter queues.
    for _ in 0..10 {
        let rt = LocalRuntime::new(LocalConfig::default().worker_threads(2));
        let s = rt.stream::<u64>("s", 1);
        let total = rt.data::<u64>("total");
        rt.submit_async(
            TaskSpec::new("producer").stream_out(s.id()),
            Constraints::new(),
            |ctx| async move {
                let w = ctx.stream_writer::<u64>(0);
                for i in 0..48u64 {
                    assert!(w.send_async(i).await);
                }
                ctx
            },
        )
        .unwrap();
        rt.submit_async(
            TaskSpec::new("consumer")
                .stream_in(s.id())
                .output(total.id()),
            Constraints::new(),
            |mut ctx| async move {
                let r = ctx.stream_reader::<u64>(0);
                let mut sum = 0u64;
                while let Some(v) = r.recv_async().await {
                    sum += v;
                }
                ctx.set_output(0, sum);
                ctx
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&total).unwrap(), (0..48).sum::<u64>());
        rt.wait_all().unwrap();
    }
}
