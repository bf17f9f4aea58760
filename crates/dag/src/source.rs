//! Lazy graph materialization: sources that expand a workflow on
//! demand instead of registering every task up front.
//!
//! The paper's flagship campaigns (GUIDANCE-scale GWAS) reach 10⁵–10⁶
//! tasks. Building that graph eagerly costs gigabytes of specs and
//! dependency lists before the first task runs. A [`GraphSource`] keeps
//! the *generator* — not the graph — in memory: the engine calls
//! [`GraphSource::prime`] once to materialize the initial frontier, and
//! [`GraphSource::on_task_complete`] after every completion so the
//! source can append the next subgraphs through an [`ExpandSink`]. The
//! access processor and the scheduler only ever see the materialized
//! frontier.
//!
//! Retirement is the other half of the protocol: when a source has
//! emitted every consumer a datum will ever have, it declares this with
//! [`ExpandSink::close_data`]. An engine combines that closure with its
//! value liveness (producer completed, all materialized readers
//! completed) to retire the datum's versions — and, once every value a
//! task produced is retired, the task's own payload
//! ([`crate::TaskGraph::retire_payload`]).

use crate::error::DagError;
use crate::ids::{DataId, TaskId};
use crate::spec::TaskSpec;
use std::fmt;

/// The surface a [`GraphSource`] expands into: data registration and
/// task submission, plus the retirement-side `close_data` declaration.
///
/// `P` is the per-task payload the embedding runtime needs alongside
/// the [`TaskSpec`] — e.g. a cost profile in the simulated engine. The
/// dag layer is agnostic to it.
pub trait ExpandSink<P> {
    /// Registers a logical datum produced by tasks.
    fn data(&mut self, name: &str) -> DataId;

    /// Registers an initial (externally provided) datum of `bytes`
    /// size, staged everywhere.
    fn initial_data(&mut self, name: &str, bytes: u64) -> DataId;

    /// [`ExpandSink::data`] with a formatted name
    /// (`sink.data_fmt(format_args!("imp_c{chrom}_{chunk}"))`). Sinks
    /// that store names in an arena override this to format in place;
    /// the default builds a temporary `String`.
    fn data_fmt(&mut self, name: fmt::Arguments<'_>) -> DataId {
        self.data(&name.to_string())
    }

    /// [`ExpandSink::initial_data`] with a formatted name (see
    /// [`ExpandSink::data_fmt`]).
    fn initial_data_fmt(&mut self, name: fmt::Arguments<'_>, bytes: u64) -> DataId {
        self.initial_data(&name.to_string(), bytes)
    }

    /// Submits a task with its payload; dependencies are derived from
    /// the access declarations as usual.
    ///
    /// # Errors
    ///
    /// Propagates access-processor validation errors.
    fn submit(&mut self, spec: TaskSpec, payload: P) -> Result<TaskId, DagError>;

    /// Declares that every consumer of `data` has been materialized:
    /// no task submitted in the future will read it. Together with
    /// completion of the producer and of all materialized readers this
    /// lets the engine retire the datum's versions.
    fn close_data(&mut self, data: DataId);
}

/// A workflow generator that materializes its task graph incrementally.
///
/// Implementations must be deterministic: expansion may depend only on
/// construction parameters and the sequence of completions observed,
/// never on wall-clock time or unseeded randomness, so that two runs of
/// the same source produce identical graphs (a lazy run is replayable,
/// and a source primed with a window spanning everything is its own
/// eager build).
pub trait GraphSource<P> {
    /// Materializes the initial frontier (tasks with no predecessors,
    /// or a bounded window of them). Called exactly once, before the
    /// first scheduling round.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    fn prime(&mut self, sink: &mut dyn ExpandSink<P>) -> Result<(), DagError>;

    /// Notifies the source that `task` completed, giving it the chance
    /// to materialize successors. Called once per completion, in
    /// completion order.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    fn on_task_complete(
        &mut self,
        task: TaskId,
        sink: &mut dyn ExpandSink<P>,
    ) -> Result<(), DagError>;

    /// Total number of tasks this source will ever emit, if known
    /// up front. A hint: the engine sizes the run's trace from it, so
    /// a wrong number costs memory or reallocations, never
    /// correctness.
    fn total_tasks(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessProcessor;
    use crate::graph::GraphRun;

    /// Test sink over a bare access processor (unit payloads).
    #[derive(Default)]
    struct ApSink {
        ap: AccessProcessor,
        closed: Vec<DataId>,
    }

    impl ExpandSink<()> for ApSink {
        fn data(&mut self, name: &str) -> DataId {
            self.ap.new_data(name)
        }
        fn initial_data(&mut self, name: &str, _bytes: u64) -> DataId {
            self.ap.new_data(name)
        }
        fn submit(&mut self, spec: TaskSpec, _payload: ()) -> Result<TaskId, DagError> {
            self.ap.register(spec)
        }
        fn close_data(&mut self, data: DataId) {
            self.closed.push(data);
        }
    }

    /// A chain a→b→c materialized one link per completion.
    struct Chain {
        emitted: usize,
        len: usize,
        last_out: Option<DataId>,
    }

    impl Chain {
        fn emit(&mut self, sink: &mut dyn ExpandSink<()>) -> Result<(), DagError> {
            let out = sink.data(&format!("d{}", self.emitted));
            let mut spec = TaskSpec::new(format!("t{}", self.emitted)).output(out);
            if let Some(prev) = self.last_out {
                spec = spec.input(prev);
                sink.close_data(prev);
            }
            sink.submit(spec, ())?;
            self.last_out = Some(out);
            self.emitted += 1;
            Ok(())
        }
    }

    impl GraphSource<()> for Chain {
        fn prime(&mut self, sink: &mut dyn ExpandSink<()>) -> Result<(), DagError> {
            self.emit(sink)
        }
        fn on_task_complete(
            &mut self,
            _task: TaskId,
            sink: &mut dyn ExpandSink<()>,
        ) -> Result<(), DagError> {
            if self.emitted < self.len {
                self.emit(sink)?;
            }
            Ok(())
        }
        fn total_tasks(&self) -> Option<u64> {
            Some(self.len as u64)
        }
    }

    #[test]
    fn incremental_expansion_executes_to_completion() {
        let mut src = Chain {
            emitted: 0,
            len: 5,
            last_out: None,
        };
        let mut sink = ApSink::default();
        src.prime(&mut sink).unwrap();
        let mut run = GraphRun::new(sink.ap.graph());
        let mut done = 0;
        while !run.all_completed() {
            let id = run.ready_tasks().first().expect("progress");
            run.complete(sink.ap.graph(), id).unwrap();
            done += 1;
            src.on_task_complete(id, &mut sink).unwrap();
            run.grow(sink.ap.graph());
        }
        assert_eq!(done, 5);
        assert_eq!(src.total_tasks(), Some(5));
        // Every intermediate datum was closed; the final one stays open.
        assert_eq!(sink.closed.len(), 4);
    }

    #[test]
    fn grow_sees_completed_predecessors_from_run_state() {
        // Build a producer, complete it through the run (the graph's
        // own node state stays Ready), then append a consumer: grow()
        // must mark the consumer ready because the RUN completed the
        // producer.
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        let a = ap.register(TaskSpec::new("a").output(x)).unwrap();
        let mut run = GraphRun::new(ap.graph());
        run.complete(ap.graph(), a).unwrap();
        let y = ap.new_data("y");
        let b = ap.register(TaskSpec::new("b").input(x).output(y)).unwrap();
        assert_eq!(run.state(b), None, "not yet grown");
        let grown = run.grow(ap.graph());
        assert_eq!(grown, 1);
        assert!(run.ready_tasks().contains(&b));
        // Idempotent when nothing new was appended.
        assert_eq!(run.grow(ap.graph()), 0);
    }
}
