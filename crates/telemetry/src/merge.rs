//! Federated trace merge: joins N per-agent traces into one causally
//! consistent timeline, and attributes the end-to-end makespan across
//! offload hops.
//!
//! Each agent records telemetry against its **own** clock origin (the
//! local runtime an `Instant` captured at startup, the simulator its
//! virtual t=0). A workflow that offloads work therefore leaves one
//! trace per agent, none of which agree on what "t = 5 ms" means. The
//! merge recovers a common timeline from the offload handshakes
//! themselves:
//!
//! * every [`TaskPhase::Offloading`] span on the submitter's trace is a
//!   `[send, reply]` interval in the submitter's clock;
//! * the spans the executor recorded for that hop (children of the
//!   hop's [`SpanContext`]) are a `[c1, c2]` envelope in the executor's
//!   clock;
//! * causality (send ≤ remote start, remote end ≤ reply) bounds the
//!   executor's clock offset `d` to the feasible interval
//!   `[send − c1, reply − c2]`. Intersecting over every hop between a
//!   pair of agents and taking the midpoint yields an offset that
//!   provably preserves happens-before whenever the interval is
//!   non-empty; an empty interval is reported as a violation instead of
//!   silently producing an acausal trace.
//!
//! Offsets compose over the hop graph by BFS from the agent that owns
//! the workflow root span, the merged timeline is rebased to start at
//! zero, and every remote row is remapped to [`Track::Remote`] so the
//! merged trace renders one process per agent.
//!
//! On top of the merged timeline, [`cross_agent_report`] tiles the root
//! span's interval over the span-context tree: each hop becomes a
//! [`HopAttribution`] row whose compute / transfer / offload-queue /
//! network buckets partition exactly the time tiled under that hop, so
//! the rows provably sum to the end-to-end makespan.

use crate::event::{Event, Micros, SpanContext, TaskPhase, Track};
use continuum_dag::Label;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One agent's trace, as loaded from its own telemetry buffer or trace
/// file. Timestamps are in the agent's own clock.
#[derive(Debug, Clone)]
pub struct AgentTrace {
    /// The agent that recorded these events
    /// ([`SpanContext::COORDINATOR`] for an orchestrator outside the
    /// bus).
    pub agent_id: u32,
    /// The events, in the agent's own timebase.
    pub events: Vec<Event>,
}

impl AgentTrace {
    /// Builds an [`AgentTrace`], inferring the recording agent from the
    /// span contexts in the events (majority vote over `ctx.agent_id`;
    /// the root span's agent wins outright if present).
    pub fn infer(events: Vec<Event>) -> AgentTrace {
        let mut votes: BTreeMap<u32, usize> = BTreeMap::new();
        let mut root_agent = None;
        for event in &events {
            if let Event::Span { ctx: Some(c), .. } = event {
                *votes.entry(c.agent_id).or_insert(0) += 1;
                if c.parent_span_id.is_none() {
                    root_agent = Some(c.agent_id);
                }
            }
        }
        let agent_id = root_agent
            .or_else(|| {
                votes
                    .iter()
                    .max_by_key(|(id, n)| (**n, u32::MAX - **id))
                    .map(|(id, _)| *id)
            })
            .unwrap_or(SpanContext::COORDINATOR);
        AgentTrace { agent_id, events }
    }
}

/// The clock offset the merge applied to one agent's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockAlignment {
    /// Whose clock this aligns.
    pub agent_id: u32,
    /// Offset added to the agent's timestamps to express them in the
    /// root agent's frame (before the final rebase to zero).
    pub offset_us: i64,
    /// Feasible-interval lower bound relative to `via` (µs).
    pub feasible_lo_us: i64,
    /// Feasible-interval upper bound relative to `via` (µs).
    pub feasible_hi_us: i64,
    /// The already-aligned agent this offset was derived through.
    pub via: u32,
}

/// Errors that make a merge impossible (as opposed to merely lossy —
/// recoverable oddities are reported in [`MergeReport::violations`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No input traces.
    Empty,
    /// Two input traces claim the same agent id.
    DuplicateAgent(u32),
    /// No trace contains a workflow root span (a span context with no
    /// parent), so there is no reference clock to align to.
    NoRoot,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no input traces"),
            MergeError::DuplicateAgent(a) => {
                write!(f, "two input traces claim agent id {a}")
            }
            MergeError::NoRoot => write!(
                f,
                "no trace contains a workflow root span (span context without a parent)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Result of a federated merge.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// The merged, clock-aligned, zero-rebased event stream, in a
    /// deterministic total order.
    pub events: Vec<Event>,
    /// Per-agent clock offsets, sorted by agent id (the root agent has
    /// offset 0 and `via == agent_id`).
    pub alignments: Vec<ClockAlignment>,
    /// Causality problems found during the merge: infeasible clock
    /// intervals, unreachable agents, duplicate span ids. Empty means
    /// the merged trace is causally consistent.
    pub violations: Vec<String>,
    /// The workflow root span's context.
    pub root: SpanContext,
}

/// Attribution of time tiled under one offload hop (or under the
/// workflow root, for the coordinator's own row). The four buckets
/// partition exactly the interval tiled under this hop excluding
/// nested hops, so summing every row of a report reproduces the
/// end-to-end makespan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopAttribution {
    /// Span name of the hop (root row: the workflow name).
    pub name: String,
    /// Agent that issued the offload (root row: the root agent).
    pub from_agent: u32,
    /// Agent that executed it (root row: the root agent).
    pub to_agent: u32,
    /// Hop nesting depth (root row is 0).
    pub depth: u32,
    /// Hop interval start in the merged timeline.
    pub start_us: Micros,
    /// Hop interval end in the merged timeline.
    pub end_us: Micros,
    /// Time in task bodies (plus coordinator think time between
    /// dispatches).
    pub compute_us: Micros,
    /// Time staging inputs ([`TaskPhase::Transferring`] /
    /// [`TaskPhase::StreamWait`] spans).
    pub transfer_us: Micros,
    /// Time an accepted offload sat before the remote agent produced
    /// its first span, and gaps between remote spans.
    pub queue_us: Micros,
    /// Round-trip tail after the remote finished until the reply
    /// landed; hops with no surviving remote spans (lost agents) are
    /// all network.
    pub network_us: Micros,
}

impl HopAttribution {
    /// Total time attributed to this row.
    pub fn total_us(&self) -> Micros {
        self.compute_us + self.transfer_us + self.queue_us + self.network_us
    }
}

/// One step of the cross-agent critical path, from the workflow root
/// down through the latest-gating child at each level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalHop {
    /// Span name.
    pub name: String,
    /// Agent that recorded it.
    pub agent_id: u32,
    /// Whether this step crosses an agent boundary (an
    /// [`TaskPhase::Offloading`] span).
    pub offload: bool,
    /// Interval start in the merged timeline.
    pub start_us: Micros,
    /// Interval end in the merged timeline.
    pub end_us: Micros,
}

/// Cross-agent makespan attribution over a merged trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossAgentReport {
    /// Name of the workflow root span.
    pub root_name: String,
    /// End-to-end makespan: the root span's duration.
    pub makespan_us: Micros,
    /// One row per hop plus the root row, in tree pre-order.
    pub hops: Vec<HopAttribution>,
    /// The latest-gating chain from the root to a leaf.
    pub critical: Vec<CriticalHop>,
}

impl CrossAgentReport {
    /// Sum of every row's buckets; equals [`Self::makespan_us`] by
    /// construction.
    pub fn attributed_total_us(&self) -> Micros {
        self.hops.iter().map(HopAttribution::total_us).sum()
    }

    /// How many offload hops the critical path crosses.
    pub fn critical_offload_hops(&self) -> usize {
        self.critical.iter().filter(|h| h.offload).count()
    }
}

/// A logical node of the span-context tree: all spans sharing one span
/// id (a remote task records its transfer and execute phases under the
/// same context).
struct CtxNode {
    ctx: SpanContext,
    lo: Micros,
    hi: Micros,
    /// `(phase, start, end)` of each constituent span.
    spans: Vec<(TaskPhase, Micros, Micros, Label)>,
    children: Vec<usize>,
    is_hop: bool,
}

impl CtxNode {
    fn name(&self) -> &str {
        self.spans
            .iter()
            .find(|s| s.0 == TaskPhase::Offloading || s.0 == TaskPhase::Executing)
            .or(self.spans.first())
            .map_or("?", |s| s.3.as_str())
    }
}

/// Builds the span-context forest from an event stream. Returns the
/// node arena and the root indices (contexts with no parent).
fn build_ctx_tree(events: &[Event]) -> (Vec<CtxNode>, Vec<usize>) {
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    let mut nodes: Vec<CtxNode> = Vec::new();
    for event in events {
        let Event::Span {
            name,
            phase,
            start_us,
            dur_us,
            ctx: Some(ctx),
            ..
        } = event
        else {
            continue;
        };
        let end = start_us + dur_us;
        let idx = *by_id.entry(ctx.span_id).or_insert_with(|| {
            nodes.push(CtxNode {
                ctx: **ctx,
                lo: *start_us,
                hi: end,
                spans: Vec::new(),
                children: Vec::new(),
                is_hop: false,
            });
            nodes.len() - 1
        });
        nodes[idx].lo = nodes[idx].lo.min(*start_us);
        nodes[idx].hi = nodes[idx].hi.max(end);
        nodes[idx]
            .spans
            .push((*phase, *start_us, end, name.clone()));
        nodes[idx].is_hop |= *phase == TaskPhase::Offloading;
    }
    let mut roots = Vec::new();
    for i in 0..nodes.len() {
        match nodes[i].ctx.parent_span_id.and_then(|p| by_id.get(&p)) {
            Some(&parent) if parent != i => nodes[parent].children.push(i),
            _ => roots.push(i),
        }
    }
    // Children sort by (interval, span id) so tiling and the critical
    // walk are deterministic whatever the event order was.
    let order: Vec<(Micros, Micros, u64)> =
        nodes.iter().map(|n| (n.lo, n.hi, n.ctx.span_id)).collect();
    for node in &mut nodes {
        node.spans.sort_by_key(|s| (s.1, s.2, s.0));
        node.children.sort_by_key(|&c| order[c]);
    }
    roots.sort_by_key(|&r| order[r]);
    (nodes, roots)
}

/// Recursively tiles `[a, b]` (the clamped interval of `node`) into
/// hop rows. `row` is the index of the nearest enclosing hop row in
/// `rows`. Every microsecond of `[a, b]` lands in exactly one bucket.
fn tile(
    nodes: &[CtxNode],
    idx: usize,
    a: Micros,
    b: Micros,
    row: usize,
    rows: &mut Vec<HopAttribution>,
    depth: u32,
) {
    let node = &nodes[idx];
    let (row, depth) = if node.is_hop {
        let to_agent = node
            .children
            .first()
            .map(|&c| nodes[c].ctx.agent_id)
            .unwrap_or(node.ctx.agent_id);
        rows.push(HopAttribution {
            name: node.name().to_string(),
            from_agent: node.ctx.agent_id,
            to_agent,
            depth: depth + 1,
            start_us: a,
            end_us: b,
            compute_us: 0,
            transfer_us: 0,
            queue_us: 0,
            network_us: 0,
        });
        (rows.len() - 1, depth + 1)
    } else {
        (row, depth)
    };

    let container = node.is_hop || !node.children.is_empty();
    let mut cursor = a;
    if container {
        for &child in &node.children {
            let s = nodes[child].lo.clamp(cursor, b);
            let e = nodes[child].hi.clamp(s, b);
            if s > cursor {
                // Gap before this child: offload latency on a hop,
                // coordinator/scheduler think time elsewhere.
                if node.is_hop {
                    rows[row].queue_us += s - cursor;
                } else {
                    rows[row].compute_us += s - cursor;
                }
            }
            tile(nodes, child, s, e, row, rows, depth);
            cursor = cursor.max(e);
        }
        if b > cursor {
            // Tail after the last child: reply latency on a hop.
            if node.is_hop {
                rows[row].network_us += b - cursor;
            } else {
                rows[row].compute_us += b - cursor;
            }
        }
    } else {
        // Leaf: tile its own phase spans.
        for (phase, s0, e0, _) in &node.spans {
            let s = (*s0).clamp(cursor, b);
            let e = (*e0).clamp(s, b);
            if s > cursor {
                rows[row].compute_us += s - cursor;
            }
            match phase {
                TaskPhase::Transferring | TaskPhase::StreamWait => {
                    rows[row].transfer_us += e - s;
                }
                _ => rows[row].compute_us += e - s,
            }
            cursor = cursor.max(e);
        }
        if b > cursor {
            rows[row].compute_us += b - cursor;
        }
    }
}

/// Walks the latest-gating chain from `idx` down to a leaf.
fn critical_chain(nodes: &[CtxNode], idx: usize, a: Micros, b: Micros, out: &mut Vec<CriticalHop>) {
    let node = &nodes[idx];
    out.push(CriticalHop {
        name: node.name().to_string(),
        agent_id: node.ctx.agent_id,
        offload: node.is_hop,
        start_us: a,
        end_us: b,
    });
    // The gating child is the one whose (clamped) end is latest; ties
    // break on the later start then the larger span id, so the walk is
    // deterministic.
    let mut best: Option<(Micros, Micros, u64, usize)> = None;
    for &child in &node.children {
        let s = nodes[child].lo.clamp(a, b);
        let e = nodes[child].hi.clamp(s, b);
        let key = (e, s, nodes[child].ctx.span_id, child);
        if best.is_none_or(|k| key > (k.0, k.1, k.2, k.3)) {
            best = Some(key);
        }
    }
    if let Some((e, s, _, child)) = best {
        critical_chain(nodes, child, s, e, out);
    }
}

/// Computes the cross-agent attribution report over a merged (or
/// single-agent) trace. Fails with a message when the trace has no
/// span contexts or no unique workflow root.
pub fn cross_agent_report(events: &[Event]) -> Result<CrossAgentReport, String> {
    let (nodes, roots) = build_ctx_tree(events);
    if nodes.is_empty() {
        return Err("trace carries no span contexts (was it produced before tracing, or with telemetry disabled?)".to_string());
    }
    let root = match roots.as_slice() {
        [] => return Err("span-context tree has no root".to_string()),
        [r] => *r,
        many => {
            // Prefer a true root (no parent at all) over orphans whose
            // parent span was dropped by sampling.
            let true_roots: Vec<usize> = many
                .iter()
                .copied()
                .filter(|&r| nodes[r].ctx.parent_span_id.is_none())
                .collect();
            match true_roots.as_slice() {
                [r] => *r,
                [] => {
                    return Err(format!(
                        "no workflow root span: {} orphan contexts whose parents were dropped",
                        many.len()
                    ))
                }
                _ => {
                    return Err(format!(
                        "ambiguous: {} workflow root spans in one trace",
                        true_roots.len()
                    ))
                }
            }
        }
    };
    let (a, b) = (nodes[root].lo, nodes[root].hi);
    let mut rows = vec![HopAttribution {
        name: nodes[root].name().to_string(),
        from_agent: nodes[root].ctx.agent_id,
        to_agent: nodes[root].ctx.agent_id,
        depth: 0,
        start_us: a,
        end_us: b,
        compute_us: 0,
        transfer_us: 0,
        queue_us: 0,
        network_us: 0,
    }];
    tile(&nodes, root, a, b, 0, &mut rows, 0);
    let mut critical = Vec::new();
    critical_chain(&nodes, root, a, b, &mut critical);
    Ok(CrossAgentReport {
        root_name: nodes[root].name().to_string(),
        makespan_us: b - a,
        hops: rows,
        critical,
    })
}

/// A pairwise clock constraint: offset of `b`'s clock expressed in
/// `a`'s frame must lie in `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
struct PairInterval {
    lo: i128,
    hi: i128,
}

/// Merges per-agent traces into one causally consistent timeline.
///
/// The result is independent of input order: traces are canonically
/// sorted by agent id before any processing.
pub fn merge_traces(traces: &[AgentTrace]) -> Result<MergeReport, MergeError> {
    if traces.is_empty() {
        return Err(MergeError::Empty);
    }
    let mut traces: Vec<&AgentTrace> = traces.iter().collect();
    traces.sort_by_key(|t| t.agent_id);
    for pair in traces.windows(2) {
        if pair[0].agent_id == pair[1].agent_id {
            return Err(MergeError::DuplicateAgent(pair[0].agent_id));
        }
    }

    let mut violations: BTreeSet<String> = BTreeSet::new();

    // Index every span context: span_id -> (trace index, envelope).
    // The same span id may legitimately appear several times within one
    // trace (phases of one logical unit); across traces it is a bug.
    let mut ctx_home: BTreeMap<u64, usize> = BTreeMap::new();
    let mut envelopes: BTreeMap<u64, (Micros, Micros)> = BTreeMap::new();
    let mut children_of: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut root: Option<(usize, SpanContext)> = None;
    for (ti, trace) in traces.iter().enumerate() {
        for event in &trace.events {
            let Event::Span {
                start_us,
                dur_us,
                ctx: Some(ctx),
                ..
            } = event
            else {
                continue;
            };
            match ctx_home.get(&ctx.span_id) {
                Some(&home) if home != ti => {
                    violations.insert(format!(
                        "span id {:#x} appears in both agent {} and agent {} traces",
                        ctx.span_id, traces[home].agent_id, trace.agent_id
                    ));
                }
                Some(_) => {}
                None => {
                    ctx_home.insert(ctx.span_id, ti);
                    if let Some(parent) = ctx.parent_span_id {
                        children_of.entry(parent).or_default().push(ctx.span_id);
                    } else if let Some((rt, rc)) = root {
                        if rc.span_id != ctx.span_id {
                            violations.insert(format!(
                                "multiple root spans: {:#x} (agent {}) and {:#x} (agent {})",
                                rc.span_id, traces[rt].agent_id, ctx.span_id, trace.agent_id
                            ));
                        }
                    } else {
                        root = Some((ti, **ctx));
                    }
                }
            }
            let e = envelopes
                .entry(ctx.span_id)
                .or_insert((*start_us, start_us + dur_us));
            e.0 = e.0.min(*start_us);
            e.1 = e.1.max(start_us + dur_us);
        }
    }
    let Some((root_trace, root_ctx)) = root else {
        return Err(MergeError::NoRoot);
    };

    // Pairwise feasible offset intervals from offload handshakes:
    // hop [s, r] in the submitter's clock vs the children's envelope
    // [c1, c2] in the executor's clock constrains the executor offset
    // (in the submitter's frame) to [s - c1, r - c2].
    let mut pair_intervals: BTreeMap<(usize, usize), PairInterval> = BTreeMap::new();
    for (ti, trace) in traces.iter().enumerate() {
        for event in &trace.events {
            let Event::Span {
                phase: TaskPhase::Offloading,
                start_us,
                dur_us,
                ctx: Some(hop),
                ..
            } = event
            else {
                continue;
            };
            let (s, r) = (*start_us as i128, (*start_us + *dur_us) as i128);
            // Group this hop's children by home trace.
            let mut per_trace: BTreeMap<usize, (Micros, Micros)> = BTreeMap::new();
            for child in children_of.get(&hop.span_id).into_iter().flatten() {
                let Some(&home) = ctx_home.get(child) else {
                    continue;
                };
                if home == ti {
                    continue; // local dispatch: same clock already
                }
                let (c1, c2) = envelopes[child];
                let e = per_trace.entry(home).or_insert((c1, c2));
                e.0 = e.0.min(c1);
                e.1 = e.1.max(c2);
            }
            for (home, (c1, c2)) in per_trace {
                let (lo, hi) = (s - c1 as i128, r - c2 as i128);
                let entry = pair_intervals.entry((ti, home)).or_insert(PairInterval {
                    lo: i128::MIN,
                    hi: i128::MAX,
                });
                entry.lo = entry.lo.max(lo);
                entry.hi = entry.hi.min(hi);
            }
        }
    }

    // Compose offsets by BFS from the root agent over the (undirected)
    // hop graph; the midpoint of each feasible interval preserves
    // happens-before whenever the interval is non-empty.
    let n = traces.len();
    let mut offset: Vec<Option<i128>> = vec![None; n];
    let mut alignments: Vec<ClockAlignment> = Vec::new();
    offset[root_trace] = Some(0);
    alignments.push(ClockAlignment {
        agent_id: traces[root_trace].agent_id,
        offset_us: 0,
        feasible_lo_us: 0,
        feasible_hi_us: 0,
        via: traces[root_trace].agent_id,
    });
    let mut queue = std::collections::VecDeque::from([root_trace]);
    while let Some(at) = queue.pop_front() {
        let base = offset[at].unwrap();
        // Deterministic neighbor order: ascending trace index.
        for next in 0..n {
            if offset[next].is_some() {
                continue;
            }
            // Constraint in either direction.
            let interval = if let Some(i) = pair_intervals.get(&(at, next)) {
                Some(*i)
            } else {
                pair_intervals.get(&(next, at)).map(|i| PairInterval {
                    lo: -i.hi,
                    hi: -i.lo,
                })
            };
            let Some(PairInterval { lo, hi }) = interval else {
                continue;
            };
            if lo > hi {
                violations.insert(format!(
                    "clock alignment infeasible between agent {} and agent {}: \
                     remote envelope exceeds the offload round trip by {} us",
                    traces[at].agent_id,
                    traces[next].agent_id,
                    lo - hi
                ));
            }
            let mid = lo.midpoint(hi);
            offset[next] = Some(base + mid);
            alignments.push(ClockAlignment {
                agent_id: traces[next].agent_id,
                offset_us: (base + mid).clamp(i64::MIN as i128, i64::MAX as i128) as i64,
                feasible_lo_us: lo.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
                feasible_hi_us: hi.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
                via: traces[at].agent_id,
            });
            queue.push_back(next);
        }
    }
    for (ti, trace) in traces.iter().enumerate() {
        if offset[ti].is_none() {
            violations.insert(format!(
                "agent {} shares no offload handshake with the aligned set; merged unaligned",
                trace.agent_id
            ));
            offset[ti] = Some(0);
            alignments.push(ClockAlignment {
                agent_id: trace.agent_id,
                offset_us: 0,
                feasible_lo_us: 0,
                feasible_hi_us: 0,
                via: trace.agent_id,
            });
        }
    }
    alignments.sort_by_key(|a| a.agent_id);

    // Validate happens-before under the chosen global offsets.
    for (ti, trace) in traces.iter().enumerate() {
        let off_a = offset[ti].unwrap();
        for event in &trace.events {
            let Event::Span {
                phase: TaskPhase::Offloading,
                start_us,
                dur_us,
                ctx: Some(hop),
                name,
                ..
            } = event
            else {
                continue;
            };
            let (s, r) = (
                *start_us as i128 + off_a,
                (*start_us + *dur_us) as i128 + off_a,
            );
            for child in children_of.get(&hop.span_id).into_iter().flatten() {
                let Some(&home) = ctx_home.get(child) else {
                    continue;
                };
                let off_b = offset[home].unwrap();
                let (c1, c2) = envelopes[child];
                if (c1 as i128 + off_b) < s || (c2 as i128 + off_b) > r {
                    violations.insert(format!(
                        "happens-before violated on hop {name:?}: remote span outside [send, reply] after alignment"
                    ));
                }
            }
        }
    }

    // Apply offsets, rebase the timeline to zero, and remap tracks.
    let mut min_ts = i128::MAX;
    for (ti, trace) in traces.iter().enumerate() {
        let off = offset[ti].unwrap();
        for event in &trace.events {
            min_ts = min_ts.min(event.at_us() as i128 + off);
        }
    }
    if min_ts == i128::MAX {
        min_ts = 0;
    }
    let shift = |t: Micros, off: i128| -> Micros { (t as i128 + off - min_ts).max(0) as u64 };
    let mut merged: Vec<Event> = Vec::new();
    for (ti, trace) in traces.iter().enumerate() {
        let off = offset[ti].unwrap();
        let remap = |track: Track| -> Track {
            if ti == root_trace {
                return track;
            }
            let agent = traces[ti].agent_id;
            match track {
                Track::Run => Track::Remote(agent, Track::REMOTE_RUN_ROW),
                Track::Node(i) => Track::Remote(agent, i & 0x3FFF),
                Track::Worker(i) => Track::Remote(agent, 0x4000 | (i & 0x3FFF)),
                Track::Agent(i) => Track::Remote(agent, 0x8000 | (i & 0x3FFF)),
                remote @ Track::Remote(..) => remote,
            }
        };
        for event in &trace.events {
            merged.push(match event {
                Event::Span {
                    track,
                    name,
                    phase,
                    start_us,
                    dur_us,
                    ctx,
                } => Event::Span {
                    track: remap(*track),
                    name: name.clone(),
                    phase: *phase,
                    start_us: shift(*start_us, off),
                    dur_us: *dur_us,
                    ctx: ctx.clone(),
                },
                Event::Instant {
                    track,
                    name,
                    phase,
                    at_us,
                } => Event::Instant {
                    track: remap(*track),
                    name: name.clone(),
                    phase: *phase,
                    at_us: shift(*at_us, off),
                },
                Event::Counter { key, at_us, value } => Event::Counter {
                    key: *key,
                    at_us: shift(*at_us, off),
                    value: *value,
                },
            });
        }
    }
    merged.sort_by(|a, b| event_order(a).cmp(&event_order(b)));

    Ok(MergeReport {
        events: merged,
        alignments,
        violations: violations.into_iter().collect(),
        root: root_ctx,
    })
}

/// Deterministic total order for merged events (mirrors the Chrome
/// exporter's stable sort, plus the span id as the final tiebreak).
#[allow(clippy::type_complexity)]
fn event_order(e: &Event) -> (Micros, u64, u64, u8, Micros, Label, &'static str, u64) {
    match e {
        Event::Span {
            track,
            name,
            phase,
            start_us,
            dur_us,
            ctx,
        } => (
            *start_us,
            track.chrome_pid(),
            track.chrome_tid(),
            0,
            u64::MAX - dur_us,
            name.clone(),
            phase.as_str(),
            ctx.as_ref().map_or(0, |c| c.span_id),
        ),
        Event::Instant {
            track,
            name,
            phase,
            at_us,
        } => (
            *at_us,
            track.chrome_pid(),
            track.chrome_tid(),
            1,
            0,
            name.clone(),
            phase.as_str(),
            0,
        ),
        Event::Counter { key, at_us, value } => {
            (*at_us, 0, 0, 2, 0, key.as_str().into(), "", value.to_bits())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        track: Track,
        name: &'static str,
        phase: TaskPhase,
        start: Micros,
        dur: Micros,
        ctx: SpanContext,
    ) -> Event {
        Event::Span {
            track,
            name: name.into(),
            phase,
            start_us: start,
            dur_us: dur,
            ctx: Some(Box::new(ctx)),
        }
    }

    /// Two agents, one offload hop, executor clock skewed by +1s.
    fn two_agent_traces() -> (Vec<AgentTrace>, SpanContext) {
        let root = SpanContext::root(7, SpanContext::COORDINATOR);
        let hop = root.child(SpanContext::COORDINATOR, 0);
        let remote = hop.child(1, 0);
        let orchestrator = AgentTrace {
            agent_id: SpanContext::COORDINATOR,
            events: vec![
                span(Track::Run, "app", TaskPhase::Executing, 0, 1000, root),
                span(
                    Track::Agent(1),
                    "offload:t0",
                    TaskPhase::Offloading,
                    100,
                    800,
                    hop,
                ),
            ],
        };
        // Executor clock: its 1_000_150 is the orchestrator's ~150.
        let executor = AgentTrace {
            agent_id: 1,
            events: vec![
                span(
                    Track::Agent(1),
                    "t0",
                    TaskPhase::Transferring,
                    1_000_150,
                    100,
                    remote,
                ),
                span(
                    Track::Agent(1),
                    "t0",
                    TaskPhase::Executing,
                    1_000_250,
                    500,
                    remote,
                ),
            ],
        };
        (vec![orchestrator, executor], root)
    }

    #[test]
    fn merge_aligns_clocks_and_preserves_happens_before() {
        let (traces, root) = two_agent_traces();
        let report = merge_traces(&traces).unwrap();
        assert_eq!(report.root, root);
        assert!(
            report.violations.is_empty(),
            "unexpected violations: {:?}",
            report.violations
        );
        // The remote spans must land inside the hop's [send, reply].
        let (mut hop_iv, mut remote_iv) = ((0, 0), (u64::MAX, 0));
        for event in &report.events {
            if let Event::Span {
                phase,
                start_us,
                dur_us,
                track,
                ..
            } = event
            {
                match phase {
                    TaskPhase::Offloading => hop_iv = (*start_us, start_us + dur_us),
                    TaskPhase::Transferring | TaskPhase::Executing
                        if matches!(track, Track::Remote(..)) =>
                    {
                        remote_iv.0 = remote_iv.0.min(*start_us);
                        remote_iv.1 = remote_iv.1.max(start_us + dur_us);
                    }
                    _ => {}
                }
            }
        }
        assert!(
            hop_iv.0 <= remote_iv.0 && remote_iv.1 <= hop_iv.1,
            "remote {remote_iv:?} must sit inside hop {hop_iv:?}"
        );
        // Executor offset is about -1s, within the feasible interval.
        let align = report.alignments.iter().find(|a| a.agent_id == 1).unwrap();
        assert!(align.feasible_lo_us <= align.offset_us); // offset in root frame, via root
        assert!((-1_000_200..=-999_800).contains(&align.offset_us));
    }

    #[test]
    fn merge_is_input_order_independent() {
        let (mut traces, _) = two_agent_traces();
        let one = merge_traces(&traces).unwrap();
        traces.reverse();
        let two = merge_traces(&traces).unwrap();
        assert_eq!(one.events, two.events);
        assert_eq!(one.alignments, two.alignments);
    }

    #[test]
    fn merge_remaps_remote_tracks() {
        let (traces, _) = two_agent_traces();
        let report = merge_traces(&traces).unwrap();
        assert!(report.events.iter().any(|e| matches!(
            e,
            Event::Span {
                track: Track::Remote(1, _),
                ..
            }
        )));
        // The root trace's rows are untouched.
        assert!(report.events.iter().any(|e| matches!(
            e,
            Event::Span {
                track: Track::Run,
                ..
            }
        )));
    }

    #[test]
    fn attribution_sums_to_makespan_across_agents() {
        let (traces, _) = two_agent_traces();
        let merged = merge_traces(&traces).unwrap();
        let report = cross_agent_report(&merged.events).unwrap();
        assert_eq!(report.makespan_us, 1000);
        assert_eq!(report.attributed_total_us(), report.makespan_us);
        assert_eq!(report.critical_offload_hops(), 1);
        // Hop row: 100 transfer + 500 compute inside, rest queue/network.
        let hop = report.hops.iter().find(|h| h.depth == 1).unwrap();
        assert_eq!(hop.transfer_us, 100);
        assert_eq!(hop.compute_us, 500);
        assert_eq!(hop.total_us(), 800);
        let root_row = &report.hops[0];
        assert_eq!(root_row.compute_us, 200, "100 head + 100 tail think time");
    }

    #[test]
    fn lost_hop_is_all_network() {
        let root = SpanContext::root(9, 0);
        let hop = root.child(0, 0);
        let traces = vec![AgentTrace {
            agent_id: 0,
            events: vec![
                span(Track::Run, "app", TaskPhase::Executing, 0, 300, root),
                span(
                    Track::Agent(2),
                    "offload:dead",
                    TaskPhase::Offloading,
                    50,
                    200,
                    hop,
                ),
            ],
        }];
        let merged = merge_traces(&traces).unwrap();
        let report = cross_agent_report(&merged.events).unwrap();
        let hop_row = report.hops.iter().find(|h| h.depth == 1).unwrap();
        assert_eq!(hop_row.network_us, 200);
        assert_eq!(report.attributed_total_us(), 300);
    }

    #[test]
    fn infeasible_clock_interval_is_reported() {
        let root = SpanContext::root(3, 0);
        let hop = root.child(0, 0);
        let remote = hop.child(1, 0);
        let traces = vec![
            AgentTrace {
                agent_id: 0,
                events: vec![
                    span(Track::Run, "app", TaskPhase::Executing, 0, 400, root),
                    // Hop lasts 100us...
                    span(
                        Track::Agent(1),
                        "offload:t",
                        TaskPhase::Offloading,
                        100,
                        100,
                        hop,
                    ),
                ],
            },
            AgentTrace {
                agent_id: 1,
                // ...but the remote claims 300us of work: impossible.
                events: vec![span(
                    Track::Agent(1),
                    "t",
                    TaskPhase::Executing,
                    5000,
                    300,
                    remote,
                )],
            },
        ];
        let report = merge_traces(&traces).unwrap();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("infeasible") || v.contains("happens-before")),
            "expected a causality violation, got {:?}",
            report.violations
        );
    }

    #[test]
    fn merge_rejects_degenerate_inputs() {
        assert_eq!(merge_traces(&[]).unwrap_err(), MergeError::Empty);
        let t = AgentTrace {
            agent_id: 4,
            events: Vec::new(),
        };
        assert_eq!(
            merge_traces(&[t.clone(), t.clone()]).unwrap_err(),
            MergeError::DuplicateAgent(4)
        );
        assert_eq!(merge_traces(&[t]).unwrap_err(), MergeError::NoRoot);
    }

    #[test]
    fn infer_prefers_root_agent() {
        let root = SpanContext::root(1, SpanContext::COORDINATOR);
        let hop = root.child(SpanContext::COORDINATOR, 0);
        let events = vec![
            span(Track::Run, "app", TaskPhase::Executing, 0, 10, root),
            span(Track::Agent(0), "h", TaskPhase::Offloading, 1, 5, hop),
        ];
        assert_eq!(AgentTrace::infer(events).agent_id, SpanContext::COORDINATOR);
    }

    #[test]
    fn three_hop_chain_parents_back_to_root() {
        // Coordinator -> agent 0 -> agent 1 -> agent 2: the deepest
        // task still chains to the root, and attribution still tiles.
        let root = SpanContext::root(11, SpanContext::COORDINATOR);
        let hop0 = root.child(SpanContext::COORDINATOR, 0);
        let sub0 = hop0.child(0, 0); // agent 0's orchestration span
        let hop1 = sub0.child(0, 1);
        let sub1 = hop1.child(1, 0);
        let hop2 = sub1.child(1, 1);
        let leaf = hop2.child(2, 0);
        let traces = vec![
            AgentTrace {
                agent_id: SpanContext::COORDINATOR,
                events: vec![
                    span(Track::Run, "app", TaskPhase::Executing, 0, 1000, root),
                    span(Track::Agent(0), "h0", TaskPhase::Offloading, 50, 900, hop0),
                ],
            },
            AgentTrace {
                agent_id: 0,
                events: vec![
                    span(Track::Run, "sub0", TaskPhase::Executing, 200_060, 880, sub0),
                    span(
                        Track::Agent(1),
                        "h1",
                        TaskPhase::Offloading,
                        200_100,
                        800,
                        hop1,
                    ),
                ],
            },
            AgentTrace {
                agent_id: 1,
                events: vec![
                    span(Track::Run, "sub1", TaskPhase::Executing, 110, 780, sub1),
                    span(Track::Agent(2), "h2", TaskPhase::Offloading, 150, 700, hop2),
                ],
            },
            AgentTrace {
                agent_id: 2,
                events: vec![
                    span(
                        Track::Agent(2),
                        "t",
                        TaskPhase::Transferring,
                        9_000_200,
                        100,
                        leaf,
                    ),
                    span(
                        Track::Agent(2),
                        "t",
                        TaskPhase::Executing,
                        9_000_300,
                        500,
                        leaf,
                    ),
                ],
            },
        ];
        let merged = merge_traces(&traces).unwrap();
        assert!(
            merged.violations.is_empty(),
            "violations: {:?}",
            merged.violations
        );
        let report = cross_agent_report(&merged.events).unwrap();
        assert_eq!(report.makespan_us, 1000);
        assert_eq!(report.attributed_total_us(), 1000);
        assert_eq!(report.critical_offload_hops(), 3);
        let leaf_step = report.critical.last().unwrap();
        assert_eq!(leaf_step.agent_id, 2);
        assert_eq!(report.hops.len(), 4, "root row + three hop rows");
    }
}
