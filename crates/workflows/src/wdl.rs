//! A textual workflow description language.
//!
//! The paper surveys three ways to express workflows: graphically
//! (Kepler/Taverna), **textually** (Pegasus/ASKALON) and
//! programmatically (COMPSs). `continuum` is programmatic-first, but
//! this module adds the textual modality: a plain line-based format
//! that parses into a [`SimWorkload`] and can be regenerated from one,
//! so workflows can be stored, diffed and shared as files.
//!
//! # Format
//!
//! ```text
//! # comments and blank lines are ignored
//! data <name> size=<bytes|K|M|G> [home=<node-index>]
//! task <type> [in=<d1,d2,..>] [inout=<d,..>] [out=<d,..>]
//!      [stream_in=<d,..>] [stream_out=<d,..>] dur=<seconds>
//!      [mem=<bytes|K|M|G>] [cores=<n>] [nodes=<n>] [out_bytes=<..>]
//!      [elems=<n>] [elem_bytes=<bytes|K|M|G>] [group=<label>]
//! ```
//!
//! `data` lines declare initial (externally provided) inputs; every
//! other datum is declared implicitly by first use in a task line.
//! The access keys are exactly the [`Direction::as_str`] labels, so
//! every parameter direction — including both stream ends — has a
//! textual spelling; `elems`/`elem_bytes` set the producer-side stream
//! profile (elements per output stream and payload bytes per element).

use continuum_dag::{DataId, Direction, Label, Param, TaskSpec};
use continuum_platform::{Constraints, NodeId};
use continuum_runtime::{SimWorkload, TaskProfile};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WdlError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for WdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for WdlError {}

fn err(line: usize, message: impl Into<String>) -> WdlError {
    WdlError {
        line,
        message: message.into(),
    }
}

/// Parses a byte quantity with optional K/M/G suffix.
fn parse_bytes(s: &str, line: usize) -> Result<u64, WdlError> {
    let (digits, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1_000),
        Some('M') => (&s[..s.len() - 1], 1_000_000),
        Some('G') => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|v| v.checked_mul(mult))
        .ok_or_else(|| err(line, format!("invalid byte quantity `{s}`")))
}

/// Task types and group labels repeat from line to line (a generated
/// sweep names a whole row alike): each distinct text becomes one
/// shared [`Label`], handed out by reference count afterwards. Keyed by
/// slices of the parsed text, so a lookup copies nothing.
#[derive(Default)]
struct Interner<'t> {
    /// The previous lookup, tried first.
    last: Option<(&'t str, Label)>,
    table: HashMap<&'t str, Label>,
}

impl<'t> Interner<'t> {
    fn label(&mut self, text: &'t str) -> Label {
        if let Some((seen, label)) = &self.last {
            if *seen == text {
                return label.clone();
            }
        }
        let label = self
            .table
            .entry(text)
            .or_insert_with(|| Label::shared(text))
            .clone();
        self.last = Some((text, label.clone()));
        label
    }
}

fn split_kv(token: &str, line: usize) -> Result<(&str, &str), WdlError> {
    token
        .split_once('=')
        .ok_or_else(|| err(line, format!("expected key=value, got `{token}`")))
}

/// Parses a workflow description into a [`SimWorkload`].
///
/// # Errors
///
/// Returns a [`WdlError`] naming the offending line for syntax errors,
/// unknown keys, duplicate data declarations or dependency-validation
/// failures.
///
/// # Example
///
/// ```
/// let text = "
/// data raw size=40M
/// task filter in=raw out=clean dur=12 mem=4G out_bytes=20M
/// task analyze in=clean out=stats dur=30 cores=4
/// ";
/// let w = continuum_workflows::parse_wdl(text)?;
/// assert_eq!(w.stats().tasks, 2);
/// assert_eq!(w.stats().edges, 1);
/// # Ok::<(), continuum_workflows::WdlError>(())
/// ```
pub fn parse_wdl(text: &str) -> Result<SimWorkload, WdlError> {
    let mut w = SimWorkload::new();
    // Keyed by slices of `text`: a mention of a datum copies nothing.
    let mut names: HashMap<&str, DataId> = HashMap::new();
    let mut types = Interner::default();
    let mut groups = Interner::default();
    // One line's parameters, handed to the spec in one sized step.
    let mut params: Vec<Param> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("data") => {
                let name = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "data needs a name"))?;
                if names.contains_key(name) {
                    return Err(err(line_no, format!("datum `{name}` already declared")));
                }
                let mut size = 0u64;
                let mut home = None;
                for token in tokens {
                    let (k, v) = split_kv(token, line_no)?;
                    match k {
                        "size" => size = parse_bytes(v, line_no)?,
                        "home" => {
                            let n: u32 = v
                                .parse()
                                .map_err(|_| err(line_no, format!("invalid home `{v}`")))?;
                            home = Some(NodeId::from_raw(n));
                        }
                        other => return Err(err(line_no, format!("unknown data key `{other}`"))),
                    }
                }
                let id = w.initial_data(name, size, home);
                names.insert(name, id);
            }
            Some("task") => {
                let ty = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "task needs a type name"))?;
                let mut group = None;
                let mut dur = None;
                let mut constraints = Constraints::new();
                let mut out_bytes = 0u64;
                let mut elems = None;
                let mut elem_bytes = 0u64;
                for token in tokens {
                    let (k, v) = split_kv(token, line_no)?;
                    // Access keys are the Direction labels themselves
                    // (`in`, `out`, `inout`, `stream_in`, `stream_out`),
                    // so every variant — present and future — parses
                    // without a per-variant arm here.
                    if let Some(dir) = Direction::parse(k) {
                        for name in v.split(',').filter(|s| !s.is_empty()) {
                            let id = *names.entry(name).or_insert_with(|| w.data(name));
                            params.push(Param::new(id, dir));
                        }
                        continue;
                    }
                    match k {
                        "dur" => {
                            // `f64` parses `NaN`, `inf` and negatives;
                            // none is a duration.
                            let d = v
                                .parse::<f64>()
                                .ok()
                                .filter(|d| d.is_finite() && *d >= 0.0)
                                .ok_or_else(|| err(line_no, format!("invalid duration `{v}`")))?;
                            dur = Some(d);
                        }
                        "mem" => {
                            constraints =
                                constraints.memory_mb(parse_bytes(v, line_no)? / 1_000_000)
                        }
                        "cores" => {
                            constraints = constraints.compute_units(
                                v.parse()
                                    .map_err(|_| err(line_no, format!("invalid cores `{v}`")))?,
                            )
                        }
                        "nodes" => {
                            constraints = constraints.nodes(
                                v.parse()
                                    .map_err(|_| err(line_no, format!("invalid nodes `{v}`")))?,
                            )
                        }
                        "gpus" => {
                            constraints = constraints.gpus(
                                v.parse()
                                    .map_err(|_| err(line_no, format!("invalid gpus `{v}`")))?,
                            )
                        }
                        "out_bytes" => out_bytes = parse_bytes(v, line_no)?,
                        "elems" => {
                            elems = Some(
                                v.parse::<u64>()
                                    .map_err(|_| err(line_no, format!("invalid elems `{v}`")))?,
                            )
                        }
                        "elem_bytes" => elem_bytes = parse_bytes(v, line_no)?,
                        "group" => group = Some(groups.label(v)),
                        other => return Err(err(line_no, format!("unknown task key `{other}`"))),
                    }
                }
                let dur = dur.ok_or_else(|| err(line_no, "task needs dur=<seconds>"))?;
                let mut spec = TaskSpec::new(types.label(ty)).params_from(params.drain(..));
                if let Some(group) = group {
                    spec = spec.group(group);
                }
                let mut profile = TaskProfile::new(dur)
                    .constraints(constraints)
                    .outputs_bytes(out_bytes)
                    .stream_element_bytes(elem_bytes);
                if let Some(n) = elems {
                    profile = profile.stream_elements(n);
                }
                w.task(spec, profile)
                    .map_err(|e| err(line_no, format!("invalid task: {e}")))?;
            }
            Some(other) => return Err(err(line_no, format!("unknown directive `{other}`"))),
            None => unreachable!("blank lines skipped"),
        }
    }
    Ok(w)
}

/// Serialises a workload back to the textual format. Data are written
/// with their registered names where unique; the output round-trips
/// through [`parse_wdl`] to a structurally identical workload.
pub fn to_wdl(w: &SimWorkload) -> String {
    let mut out = String::from("# continuum workflow description\n");
    // Initial data first.
    let mut initial: Vec<(DataId, u64, Option<NodeId>)> = w.initial_data_entries().collect();
    initial.sort_by_key(|(d, _, _)| *d);
    for (d, bytes, home) in initial {
        out.push_str(&format!("data d{} size={bytes}", d.as_u64()));
        if let Some(h) = home {
            out.push_str(&format!(" home={}", h.index()));
        }
        out.push('\n');
    }
    for node in w.graph().nodes() {
        let spec = node.spec();
        out.push_str(&format!("task {}", spec.name().replace(' ', "_")));
        // One `label=d1,d2` list per run of equal directions, in
        // declaration order, so the spec reads back with its parameters
        // in the order it has. The key is the direction's label, which
        // `parse_wdl` accepts for every direction, present and future.
        let mut last = None;
        for param in spec.params() {
            if last == Some(param.direction) {
                out.push(',');
            } else {
                out.push_str(&format!(" {}=", param.direction.as_str()));
                last = Some(param.direction);
            }
            out.push_str(&format!("d{}", param.data.as_u64()));
        }
        let profile = w.profile(node.id());
        out.push_str(&format!(" dur={}", profile.duration_s()));
        let c = profile.constraints_ref();
        if c.required_memory_mb() > 0 {
            out.push_str(&format!(" mem={}M", c.required_memory_mb()));
        }
        if c.required_compute_units() > 1 {
            out.push_str(&format!(" cores={}", c.required_compute_units()));
        }
        if c.required_nodes() > 1 {
            out.push_str(&format!(" nodes={}", c.required_nodes()));
        }
        if c.required_gpus() > 0 {
            out.push_str(&format!(" gpus={}", c.required_gpus()));
        }
        if profile.output_size(0) > 0 {
            out.push_str(&format!(" out_bytes={}", profile.output_size(0)));
        }
        // Written whatever the task's accesses: `parse_wdl` takes both
        // keys on any task, and what it took must come back.
        if profile.stream_elements_count() != 1 {
            out.push_str(&format!(" elems={}", profile.stream_elements_count()));
        }
        if profile.stream_element_size() > 0 {
            out.push_str(&format!(" elem_bytes={}", profile.stream_element_size()));
        }
        if let Some(g) = spec.group_label() {
            out.push_str(&format!(" group={}", g.replace(' ', "_")));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_dag::TaskId;

    const PIPELINE: &str = "
# a small pipeline
data raw size=40M home=2
task filter in=raw out=clean dur=12.5 mem=4G out_bytes=20M group=qc
task impute in=clean out=full dur=60 mem=48G out_bytes=40M
task merge in=full inout=summary dur=8 cores=2
task simulate in=summary out=result dur=300 nodes=4
";

    #[test]
    fn parses_structure_and_profiles() {
        let w = parse_wdl(PIPELINE).unwrap();
        let s = w.stats();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(w.initial_size(DataId::from_raw(0)), 40_000_000);
        assert_eq!(
            w.initial_home(DataId::from_raw(0)),
            Some(NodeId::from_raw(2))
        );
        let filter = w.profile(TaskId::from_raw(0));
        assert_eq!(filter.duration_s(), 12.5);
        assert_eq!(filter.constraints_ref().required_memory_mb(), 4_000);
        assert_eq!(filter.output_size(0), 20_000_000);
        let merge = w.profile(TaskId::from_raw(2));
        assert_eq!(merge.constraints_ref().required_compute_units(), 2);
        let sim = w.profile(TaskId::from_raw(3));
        assert_eq!(sim.constraints_ref().required_nodes(), 4);
        assert_eq!(
            w.graph()
                .node(TaskId::from_raw(0))
                .unwrap()
                .spec()
                .group_label(),
            Some("qc")
        );
    }

    #[test]
    fn inout_chains_parse() {
        let text = "
task a out=x dur=1
task b inout=x dur=1
task c inout=x dur=1
";
        let w = parse_wdl(text).unwrap();
        assert_eq!(w.stats().edges, 2);
        assert!((w.stats().critical_path_s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("task nodur out=x", 1, "dur"),
            ("data raw size=40M\ndata raw size=1", 2, "already declared"),
            ("bogus directive", 1, "unknown directive"),
            ("task t out=x dur=abc", 1, "invalid duration"),
            ("task t out=x dur=NaN", 1, "invalid duration"),
            ("task t out=x dur=inf", 1, "invalid duration"),
            ("task t out=x dur=-1", 1, "invalid duration"),
            ("task t out=x dur=1 wat=1", 1, "unknown task key"),
            ("data d size=4X", 1, "invalid byte quantity"),
            ("task t foo", 1, "key=value"),
        ];
        for (text, line, needle) in cases {
            let e = parse_wdl(text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
        }
    }

    #[test]
    fn byte_suffixes() {
        assert_eq!(parse_bytes("17", 1).unwrap(), 17);
        assert_eq!(parse_bytes("2K", 1).unwrap(), 2_000);
        assert_eq!(parse_bytes("3M", 1).unwrap(), 3_000_000);
        assert_eq!(parse_bytes("4G", 1).unwrap(), 4_000_000_000);
        assert_eq!(parse_bytes("18446744073709551615", 1).unwrap(), u64::MAX);
        assert_eq!(
            parse_bytes("18446744073G", 1).unwrap(),
            18_446_744_073_000_000_000
        );
    }

    /// A quantity whose suffix takes it past `u64` is an error naming
    /// the line, not a debug panic or a silently wrapped size.
    #[test]
    fn byte_quantities_that_overflow_are_rejected() {
        for text in [
            "data ok size=1\ndata big size=18446744073709551615G",
            "task a out=x dur=1\ntask t in=x dur=1 out_bytes=18446744074G",
            "\ntask t out=x dur=1 elem_bytes=18446744073709552K",
        ] {
            let e = parse_wdl(text).unwrap_err();
            assert_eq!(e.line, 2, "{text}");
            assert!(
                e.message.starts_with("invalid byte quantity `1844674407"),
                "{e}"
            );
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let w = parse_wdl(PIPELINE).unwrap();
        let text = to_wdl(&w);
        let w2 = parse_wdl(&text).unwrap();
        assert_eq!(w.stats(), w2.stats());
        for t in 0..w.stats().tasks {
            let id = TaskId::from_raw(t as u64);
            assert_eq!(w.profile(id), w2.profile(id), "task {t} profile");
            assert_eq!(
                w.graph().predecessors(id),
                w2.graph().predecessors(id),
                "task {t} deps"
            );
        }
        // Initial data metadata survives.
        assert_eq!(w2.initial_size(DataId::from_raw(0)), 40_000_000);
        assert_eq!(
            w2.initial_home(DataId::from_raw(0)),
            Some(NodeId::from_raw(2))
        );
    }

    #[test]
    fn stream_edges_parse_and_round_trip() {
        let text = "
task sensor stream_out=frames dur=30 elems=64 elem_bytes=4K
task featurize stream_in=frames stream_out=feats dur=30 elems=64 elem_bytes=1K
task model stream_in=feats out=preds dur=30 out_bytes=2M
";
        let w = parse_wdl(text).unwrap();
        assert_eq!(w.stats().tasks, 3);
        let g = w.graph();
        assert_eq!(g.stream_edge_count(), 2);
        assert_eq!(
            g.node(TaskId::from_raw(1)).unwrap().stream_predecessors(),
            &[TaskId::from_raw(0)]
        );
        let sensor = w.profile(TaskId::from_raw(0));
        assert_eq!(sensor.stream_elements_count(), 64);
        assert_eq!(sensor.stream_element_size(), 4_000);
        // Round trip: stream accesses and profiles survive the dump.
        let w2 = parse_wdl(&to_wdl(&w)).unwrap();
        assert_eq!(w.stats(), w2.stats());
        assert_eq!(w2.graph().stream_edge_count(), 2);
        for t in 0..3 {
            let id = TaskId::from_raw(t);
            assert_eq!(w.profile(id), w2.profile(id), "task {t} profile");
        }
    }

    #[test]
    fn every_direction_has_a_wdl_spelling() {
        // Exhaustive over Direction::ALL: each label must parse as a
        // task key and come back out of `to_wdl` verbatim. A direction
        // added to the dag without a WDL spelling fails here.
        for dir in Direction::ALL {
            // Versioned accesses target the versioned datum `x`, stream
            // accesses the stream datum `s` (mixing the modalities on
            // one datum is rejected by the access processor).
            let target = if dir.is_stream() { "s" } else { "x" };
            let text = format!(
                "task w out=x stream_out=s dur=1\ntask t {}={target} dur=2",
                dir.as_str()
            );
            let w = parse_wdl(&text).unwrap_or_else(|e| panic!("{}: {e}", dir.as_str()));
            let spec_dirs: Vec<Direction> = w
                .graph()
                .node(TaskId::from_raw(1))
                .unwrap()
                .spec()
                .params()
                .iter()
                .map(|p| p.direction)
                .collect();
            assert_eq!(spec_dirs, vec![dir], "{}", dir.as_str());
            let dumped = to_wdl(&w);
            assert!(
                dumped.contains(&format!(" {}=", dir.as_str())),
                "{}: {dumped}",
                dir.as_str()
            );
        }
    }

    #[test]
    fn generated_workloads_round_trip() {
        let w = crate::GwasWorkload::new()
            .chromosomes(2)
            .chunks_per_chromosome(3)
            .build();
        let w2 = parse_wdl(&to_wdl(&w)).unwrap();
        assert_eq!(w.stats(), w2.stats());
    }
}
