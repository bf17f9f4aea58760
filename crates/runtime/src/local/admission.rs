//! Admission: the machine's free capacity and the ready tasks parked
//! until a release makes room for them.

use super::record::TaskMeta;
use super::Shared;
use crate::lockorder::{self, RANK_POOL};
use continuum_platform::{Constraints, NodeCapacity};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The part of a task's [`Constraints`] that admission counts: what it
/// takes from the machine while it runs. Software and architecture are
/// not here: they are checked once, at submit, against the static
/// capacity, and the free capacity always has the same sets, so a
/// claim-time check of them could never fail.
#[derive(Debug, Clone, Copy)]
pub(super) struct Demand {
    pub(super) cores: u32,
    pub(super) gpus: u32,
    pub(super) memory_mb: u64,
    pub(super) disk_mb: u64,
}

impl Demand {
    /// What a task with these constraints takes while it runs.
    pub(super) fn of(c: &Constraints) -> Demand {
        Demand {
            cores: c.required_compute_units(),
            gpus: c.required_gpus(),
            memory_mb: c.required_memory_mb(),
            disk_mb: c.required_disk_mb(),
        }
    }

    /// All of a machine's countable capacity, free.
    pub(super) fn capacity(total: &NodeCapacity) -> Demand {
        Demand {
            cores: total.cores(),
            gpus: total.gpus(),
            memory_mb: total.memory_mb(),
            disk_mb: total.disk_mb(),
        }
    }

    /// Whether `self`, as free capacity, can host `d` right now.
    fn covers(&self, d: &Demand) -> bool {
        self.cores >= d.cores
            && self.gpus >= d.gpus
            && self.memory_mb >= d.memory_mb
            && self.disk_mb >= d.disk_mb
    }

    /// Takes `d` out of free capacity that covers it. Disk saturates, as
    /// in [`NodeCapacity::allocate`]: its default is "ample", not a count.
    fn take(&mut self, d: &Demand) {
        debug_assert!(self.covers(d), "take without a covers check");
        self.cores -= d.cores;
        self.gpus -= d.gpus;
        self.memory_mb -= d.memory_mb;
        self.disk_mb = self.disk_mb.saturating_sub(d.disk_mb);
    }

    /// Returns what [`Demand::take`] took.
    fn give(&mut self, d: &Demand) {
        self.cores += d.cores;
        self.gpus += d.gpus;
        self.memory_mb += d.memory_mb;
        self.disk_mb = self.disk_mb.saturating_add(d.disk_mb);
    }
}

/// Side-queue classes for constraint-blocked ready tasks, keyed by the
/// scarcest dimension a task competes for.
const CLASS_CORES: usize = 0;
const CLASS_MEMORY: usize = 1;
const CLASS_GPU: usize = 2;

fn resource_class(d: &Demand) -> usize {
    if d.gpus > 0 {
        CLASS_GPU
    } else if d.memory_mb > 0 || d.disk_mb > 0 {
        CLASS_MEMORY
    } else {
        CLASS_CORES
    }
}

/// Resource accounting: the machine's free capacity plus the parked
/// ready tasks whose demand exceeds it right now. Admission
/// (check + allocate) and release (+ unblock scan) are each one
/// critical section, so a release can never slip between a failed
/// check and the park.
pub(super) struct ResourcePool {
    pub(super) free: Demand,
    pub(super) blocked: [VecDeque<Arc<TaskMeta>>; 3],
}

impl ResourcePool {
    /// Claims resources for `meta`, or parks it and returns `false`.
    fn try_admit(&mut self, meta: &Arc<TaskMeta>) -> bool {
        if self.free.covers(&meta.demand) {
            self.free.take(&meta.demand);
            true
        } else {
            self.blocked[resource_class(&meta.demand)].push_back(Arc::clone(meta));
            false
        }
    }

    /// Releases a finished task's resources, admits the successor its
    /// worker was handed (or parks it, returning `false`), and drains
    /// every parked task that now fits into `out` for re-injection. The
    /// handed task goes first: it is what the worker runs next.
    pub(super) fn release_and_unblock(
        &mut self,
        done: &Demand,
        handed: Option<&Arc<TaskMeta>>,
        out: &mut Vec<Arc<TaskMeta>>,
    ) -> bool {
        self.free.give(done);
        let admitted = handed.is_none_or(|meta| self.try_admit(meta));
        for queue in &mut self.blocked {
            for _ in 0..queue.len() {
                let m = queue.pop_front().expect("length checked");
                if self.free.covers(&m.demand) {
                    out.push(m);
                } else {
                    queue.push_back(m);
                }
            }
        }
        admitted
    }
}

/// Claims resources for the task or parks it in the pool's side
/// queues (a completing task will re-inject it).
pub(super) fn try_admit(shared: &Shared, meta: &Arc<TaskMeta>) -> bool {
    let _order = lockorder::acquire(RANK_POOL, "pool");
    let admitted = shared.pool.lock().try_admit(meta);
    if !admitted {
        shared.blocked_count.fetch_add(1, Ordering::SeqCst);
    }
    admitted
}

#[cfg(test)]
mod tests {
    use crate::{LintMode, LocalConfig, LocalRuntime, RuntimeError};
    use continuum_dag::TaskSpec;
    use continuum_platform::Constraints;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn arch_constraints_follow_the_host() {
        let rt = LocalRuntime::new(LocalConfig::with_workers(1));
        let d = rt.data::<u32>("d");
        rt.submit(
            TaskSpec::new("native").output(d.id()),
            Constraints::new().arch(std::env::consts::ARCH),
            |ctx| ctx.set_output(0, 1u32),
        )
        .unwrap();
        assert_eq!(*rt.get(&d).unwrap(), 1);
        let foreign = || Constraints::new().arch("no-such-arch");
        let e = rt.data::<u32>("e");
        let err = rt
            .submit(TaskSpec::new("foreign").output(e.id()), foreign(), |_| {})
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Unschedulable { .. }), "{err}");

        let strict = LocalRuntime::new(LocalConfig {
            strict_lints: LintMode::Reject,
            ..LocalConfig::with_workers(1)
        });
        let e = strict.data::<u32>("e");
        let err = strict
            .submit(TaskSpec::new("foreign").output(e.id()), foreign(), |_| {})
            .unwrap_err();
        assert!(matches!(err, RuntimeError::LintRejected { .. }), "{err}");
    }

    #[test]
    fn parked_software_task_is_readmitted() {
        // Software passes at submit only; at the claim the pool counts
        // memory, so two of these never fit together and each waits
        // parked for the one before it to release its 600 MB.
        for workers in [1, 4] {
            let rt = LocalRuntime::new(LocalConfig {
                memory_mb: 1000,
                software: vec!["blast".to_string()],
                ..LocalConfig::with_workers(workers)
            });
            let peak = Arc::new(AtomicUsize::new(0));
            let cur = Arc::new(AtomicUsize::new(0));
            let outs = rt.data_batch::<()>("o", 3);
            for o in &outs {
                let (peak, cur) = (Arc::clone(&peak), Arc::clone(&cur));
                rt.submit(
                    TaskSpec::new("align").output(o.id()),
                    Constraints::new().software("blast").memory_mb(600),
                    move |ctx| {
                        let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(10));
                        cur.fetch_sub(1, Ordering::SeqCst);
                        ctx.set_output(0, ());
                    },
                )
                .unwrap();
            }
            rt.wait_all().unwrap();
            assert_eq!(rt.completed_count(), 3, "{workers} workers");
            assert_eq!(peak.load(Ordering::SeqCst), 1, "{workers} workers");
        }
    }
}
