//! Tier-1 smoke for the stream transport through the `continuum`
//! facade: one source → stage → sink pipeline over bounded streams,
//! run with blocking endpoints and with `send_async`/`recv_async`,
//! must deliver every element once, in an order-independent checksum
//! equal to the plain serial fold, and leave nothing parked.

use continuum::dag::TaskSpec;
use continuum::platform::Constraints;
use continuum::runtime::{LocalConfig, LocalRuntime};

const ELEMENTS: u64 = 5_000;
const CAPACITY: usize = 8;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the pipeline computes, as a loop.
fn serial_fold() -> u64 {
    (0..ELEMENTS).fold(0, |acc, i| acc.wrapping_add(mix(mix(i))))
}

fn run_blocking(workers: usize) -> u64 {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let raw = rt.stream::<u64>("raw", CAPACITY);
    let mixed = rt.stream::<u64>("mixed", CAPACITY);
    let sum = rt.data::<u64>("sum");
    rt.submit(
        TaskSpec::new("source").stream_out(raw.id()),
        Constraints::new(),
        |ctx| {
            let tx = ctx.stream_writer::<u64>(0);
            for i in 0..ELEMENTS {
                assert!(tx.send(mix(i)));
            }
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("stage")
            .stream_in(raw.id())
            .stream_out(mixed.id()),
        Constraints::new(),
        |ctx| {
            let rx = ctx.stream_reader::<u64>(0);
            let tx = ctx.stream_writer::<u64>(0);
            for v in rx.iter() {
                assert!(tx.send(mix(v)));
            }
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("sink").stream_in(mixed.id()).output(sum.id()),
        Constraints::new(),
        |ctx| {
            let rx = ctx.stream_reader::<u64>(0);
            ctx.set_output(0, rx.iter().fold(0u64, |acc, v| acc.wrapping_add(v)));
        },
    )
    .unwrap();
    rt.wait_all().unwrap();
    assert_eq!(rt.parked_count(), 0);
    *rt.get(&sum).unwrap()
}

fn run_async(workers: usize) -> u64 {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let raw = rt.stream::<u64>("raw", CAPACITY);
    let mixed = rt.stream::<u64>("mixed", CAPACITY);
    let sum = rt.data::<u64>("sum");
    rt.submit_async(
        TaskSpec::new("source").stream_out(raw.id()),
        Constraints::new(),
        |ctx| async move {
            let tx = ctx.stream_writer::<u64>(0);
            for i in 0..ELEMENTS {
                assert!(tx.send_async(mix(i)).await);
            }
            ctx
        },
    )
    .unwrap();
    rt.submit_async(
        TaskSpec::new("stage")
            .stream_in(raw.id())
            .stream_out(mixed.id()),
        Constraints::new(),
        |ctx| async move {
            let rx = ctx.stream_reader::<u64>(0);
            let tx = ctx.stream_writer::<u64>(0);
            while let Some(v) = rx.recv_async().await {
                assert!(tx.send_async(mix(v)).await);
            }
            ctx
        },
    )
    .unwrap();
    rt.submit_async(
        TaskSpec::new("sink").stream_in(mixed.id()).output(sum.id()),
        Constraints::new(),
        |mut ctx| async move {
            let rx = ctx.stream_reader::<u64>(0);
            let mut acc = 0u64;
            while let Some(v) = rx.recv_async().await {
                acc = acc.wrapping_add(v);
            }
            ctx.set_output(0, acc);
            ctx
        },
    )
    .unwrap();
    rt.wait_all().unwrap();
    assert_eq!(rt.parked_count(), 0, "{workers} worker(s)");
    *rt.get(&sum).unwrap()
}

#[test]
fn blocking_endpoints_match_the_serial_fold() {
    // A blocked synchronous endpoint holds its worker: one per stage.
    assert_eq!(run_blocking(3), serial_fold());
}

#[test]
fn async_endpoints_match_the_serial_fold_on_one_and_two_workers() {
    // Parked tasks free their worker, so three stages fit on one.
    for workers in [1, 2] {
        assert_eq!(run_async(workers), serial_fold(), "{workers} worker(s)");
    }
}
