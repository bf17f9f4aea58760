//! Property-based tests of the federated trace merge: span contexts
//! survive the Chrome export → parse round trip byte-identically, the
//! merge result is independent of input file order, and on random
//! synthetic offload trees with random per-agent clock skews the merge
//! recovers the true skew inside every feasible interval while the
//! cross-agent attribution tiles the makespan exactly.

use continuum_telemetry::{
    chrome_trace, cross_agent_report, merge_traces, parse_chrome_trace, AgentTrace, Event, Micros,
    SpanContext, TaskPhase, Track,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn span(
    track: Track,
    name: &str,
    phase: TaskPhase,
    start: Micros,
    dur: Micros,
    ctx: Option<SpanContext>,
) -> Event {
    Event::Span {
        track,
        name: name.to_string().into(),
        phase,
        start_us: start,
        dur_us: dur,
        ctx: ctx.map(Box::new),
    }
}

/// Random event stream mixing spans with and without contexts, child
/// and root contexts, hostile names, and instants.
fn random_events(seed: u64, n: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let root = SpanContext::root(rng.gen_range(1..1_000_000), rng.gen_range(0..8));
    let mut events = Vec::with_capacity(n);
    let tracks = [
        Track::Run,
        Track::Node(2),
        Track::Worker(1),
        Track::Agent(3),
    ];
    let phases = [
        TaskPhase::Executing,
        TaskPhase::Transferring,
        TaskPhase::Offloading,
        TaskPhase::StreamWait,
    ];
    for i in 0..n {
        let ctx = match rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(root),
            _ => Some(root.child(rng.gen_range(0..8), i as u64 + 1)),
        };
        let start = rng.gen_range(0..10_000u64);
        if rng.gen::<f64>() < 0.8 {
            events.push(span(
                tracks[rng.gen_range(0..tracks.len())],
                &format!("t{i}:a\"b\\c"),
                phases[rng.gen_range(0..phases.len())],
                start,
                rng.gen_range(1..5_000u64),
                ctx,
            ));
        } else {
            events.push(Event::Instant {
                track: tracks[rng.gen_range(0..tracks.len())],
                name: format!("i{i}").into(),
                phase: TaskPhase::Committed,
                at_us: start,
            });
        }
    }
    events
}

/// One synthetic federated run: a coordinator trace plus per-agent
/// traces, each agent's timestamps skewed by an unknown offset. Returns
/// the traces and the true skew per agent (root frame = agent clock +
/// skew).
fn random_federated_run(seed: u64, agents: usize, hops: usize) -> (Vec<AgentTrace>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let root = SpanContext::root(seed ^ 0x9E37, SpanContext::COORDINATOR);
    let skews: Vec<i64> = (0..agents)
        .map(|_| rng.gen_range(-5_000_000i64..5_000_000))
        .collect();
    let mut coord = Vec::new();
    let mut per_agent: Vec<Vec<Event>> = vec![Vec::new(); agents];

    // Sequential non-overlapping hops so the tiling has no ambiguity.
    // The true timeline starts past the largest skew magnitude so an
    // agent's (skewed) clock never reads a negative microsecond.
    let mut t = 6_000_000u64; // true time, root frame
    for h in 0..hops {
        let a = rng.gen_range(0..agents);
        let hop = root.child(SpanContext::COORDINATOR, h as u64 + 1);
        let send = t + rng.gen_range(0..200u64);
        let c1 = send + rng.gen_range(1..300u64); // remote starts
        let cm = c1 + rng.gen_range(1..2_000u64); // transfer done
        let c2 = cm + rng.gen_range(1..4_000u64); // exec done
        let reply = c2 + rng.gen_range(1..300u64);
        coord.push(span(
            Track::Agent(a as u32),
            &format!("offload:t{h}"),
            TaskPhase::Offloading,
            send,
            reply - send,
            Some(hop),
        ));
        let remote = hop.child(a as u32, 1);
        let to_agent = |x: u64| (x as i64 - skews[a]) as u64;
        per_agent[a].push(span(
            Track::Agent(a as u32),
            &format!("t{h}"),
            TaskPhase::Transferring,
            to_agent(c1),
            cm - c1,
            Some(remote),
        ));
        per_agent[a].push(span(
            Track::Agent(a as u32),
            &format!("t{h}"),
            TaskPhase::Executing,
            to_agent(cm),
            c2 - cm,
            Some(remote),
        ));
        t = reply + rng.gen_range(1..100u64);
    }
    let end = t + rng.gen_range(1..200u64);
    coord.insert(
        0,
        span(Track::Run, "app", TaskPhase::Executing, 0, end, Some(root)),
    );

    let mut traces = vec![AgentTrace {
        agent_id: SpanContext::COORDINATOR,
        events: coord,
    }];
    for (a, events) in per_agent.into_iter().enumerate() {
        if !events.is_empty() {
            traces.push(AgentTrace {
                agent_id: a as u32,
                events,
            });
        }
    }
    (traces, skews)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: `SpanContext` survives the Chrome export →
    /// `parse_chrome_trace` round trip byte-identically, and every
    /// payload event (context included) is preserved exactly.
    #[test]
    fn span_context_chrome_round_trip_is_byte_identical(
        seed in 0u64..400,
        n in 1usize..40,
    ) {
        let events = random_events(seed, n);
        let text = chrome_trace(&events);
        let back = parse_chrome_trace(&text).unwrap();
        prop_assert_eq!(back.len(), events.len());
        for event in &events {
            prop_assert!(back.contains(event), "missing {:?}", event);
        }
        // Re-exporting the parsed events reproduces the exact bytes.
        prop_assert_eq!(chrome_trace(&back), text);
    }

    /// Satellite: the merge result is independent of input file order —
    /// any permutation of the per-agent traces yields identical merged
    /// events, alignments, and violations.
    #[test]
    fn merge_is_independent_of_input_order(
        seed in 0u64..400,
        agents in 1usize..4,
        hops in 1usize..6,
        rotate in 0usize..6,
    ) {
        let (mut traces, _) = random_federated_run(seed, agents, hops);
        let one = merge_traces(&traces).unwrap();
        let k = rotate % traces.len().max(1);
        traces.rotate_left(k);
        traces.reverse();
        let two = merge_traces(&traces).unwrap();
        prop_assert_eq!(one.events, two.events);
        prop_assert_eq!(one.alignments, two.alignments);
        prop_assert_eq!(one.violations, two.violations);
        prop_assert_eq!(one.root, two.root);
    }

    /// Tentpole invariant on random synthetic multi-agent runs: the
    /// merge is causally consistent, every directly-aligned agent's
    /// true clock skew lies inside its feasible interval, and the
    /// cross-agent hop buckets sum exactly to the makespan.
    #[test]
    fn merge_recovers_skew_and_attribution_tiles_makespan(
        seed in 0u64..400,
        agents in 1usize..4,
        hops in 1usize..8,
    ) {
        let (traces, skews) = random_federated_run(seed, agents, hops);
        let merged = merge_traces(&traces).unwrap();
        prop_assert!(
            merged.violations.is_empty(),
            "violations: {:?}",
            merged.violations
        );
        // The feasible interval is exact for agents aligned directly
        // from the root (composed offsets are midpoints of midpoints,
        // so only direct hops carry a truth guarantee).
        let root_agent = SpanContext::COORDINATOR;
        for align in &merged.alignments {
            if align.agent_id == root_agent || align.via != root_agent {
                continue;
            }
            let truth = skews[align.agent_id as usize];
            prop_assert!(
                align.feasible_lo_us <= truth && truth <= align.feasible_hi_us,
                "agent {} true skew {} outside feasible [{}, {}]",
                align.agent_id,
                truth,
                align.feasible_lo_us,
                align.feasible_hi_us
            );
            prop_assert!(
                align.feasible_lo_us <= align.offset_us
                    && align.offset_us <= align.feasible_hi_us
            );
        }
        let report = cross_agent_report(&merged.events).unwrap();
        prop_assert_eq!(report.attributed_total_us(), report.makespan_us);
        prop_assert_eq!(report.critical_offload_hops(), 1, "sequential hops: the last gates");
        prop_assert_eq!(report.hops.len(), hops + 1, "root row plus one row per hop");
    }
}

/// An agent that shares no offload handshake with the aligned set
/// merges at offset 0, aligned through itself, and the report says so.
#[test]
fn an_agent_without_a_handshake_merges_unaligned() {
    let root = SpanContext::root(7, SpanContext::COORDINATOR);
    let lone = root.child(5, 0);
    let traces = [
        AgentTrace {
            agent_id: SpanContext::COORDINATOR,
            events: vec![span(
                Track::Run,
                "app",
                TaskPhase::Executing,
                10,
                90,
                Some(root),
            )],
        },
        AgentTrace {
            agent_id: 5,
            events: vec![span(
                Track::Run,
                "other",
                TaskPhase::Executing,
                40,
                20,
                Some(lone),
            )],
        },
    ];
    let report = merge_traces(&traces).expect("two well-formed traces merge");
    let lone_alignment = report.alignments.iter().find(|a| a.agent_id == 5);
    assert_eq!(lone_alignment.map(|a| (a.offset_us, a.via)), Some((0, 5)));
    assert_eq!(
        report.violations,
        ["agent 5 shares no offload handshake with the aligned set; merged unaligned"]
    );
    // Both timelines keep their own clocks, rebased to the earliest event.
    let starts: Vec<Micros> = report.events.iter().map(Event::at_us).collect();
    assert_eq!(starts, [0, 30]);
}
