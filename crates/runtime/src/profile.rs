//! Cost models for simulated tasks.

use continuum_platform::Constraints;
use serde::{Deserialize, Serialize};

/// Execution profile of one simulated task: its resource constraints,
/// a reference duration (seconds on a speed-1.0 node) and the size of
/// each output it produces.
///
/// Workload generators calibrate these from the applications the paper
/// reports on (GUIDANCE task duration/memory distributions, NMMB phase
/// costs); the simulated engine turns them into virtual-time behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskProfile {
    duration_s: f64,
    constraints: Constraints,
    /// Bytes of each produced output, in the task's declaration order.
    /// Missing entries fall back to `default_output_bytes`.
    output_bytes: Vec<u64>,
    default_output_bytes: u64,
    /// Elements the task emits on *each* of its output streams, spaced
    /// evenly across its execution window. Zero models a producer that
    /// closes without sending (its consumers are released at its
    /// completion).
    stream_elements: u64,
    /// Approximate payload bytes per stream element.
    stream_element_bytes: u64,
}

impl Default for TaskProfile {
    fn default() -> Self {
        TaskProfile {
            duration_s: 1.0,
            constraints: Constraints::new(),
            output_bytes: Vec::new(),
            default_output_bytes: 0,
            stream_elements: 1,
            stream_element_bytes: 0,
        }
    }
}

impl TaskProfile {
    /// Creates a profile with the given reference duration, default
    /// constraints and zero-sized outputs.
    ///
    /// # Panics
    ///
    /// Panics if the duration is negative or not finite.
    pub fn new(duration_s: f64) -> Self {
        assert!(
            duration_s.is_finite() && duration_s >= 0.0,
            "duration must be finite and non-negative"
        );
        TaskProfile {
            duration_s,
            ..TaskProfile::default()
        }
    }

    /// Sets the resource constraints.
    pub fn constraints(mut self, c: Constraints) -> Self {
        self.constraints = c;
        self
    }

    /// Sets the byte size of every output.
    pub fn outputs_bytes(mut self, all: u64) -> Self {
        self.default_output_bytes = all;
        self
    }

    /// Sets per-output byte sizes (declaration order).
    pub fn output_bytes_per(mut self, sizes: Vec<u64>) -> Self {
        self.output_bytes = sizes;
        self
    }

    /// Sets how many elements the task sends on each output stream
    /// (default 1; 0 models a producer that closes without sending).
    pub fn stream_elements(mut self, n: u64) -> Self {
        self.stream_elements = n;
        self
    }

    /// Sets the approximate payload bytes per stream element.
    pub fn stream_element_bytes(mut self, bytes: u64) -> Self {
        self.stream_element_bytes = bytes;
        self
    }

    /// Reference duration in seconds on a speed-1.0 node.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// The task's resource constraints.
    pub fn constraints_ref(&self) -> &Constraints {
        &self.constraints
    }

    /// Bytes of the `i`-th output.
    pub fn output_size(&self, i: usize) -> u64 {
        self.output_bytes
            .get(i)
            .copied()
            .unwrap_or(self.default_output_bytes)
    }

    /// Elements the task sends on each of its output streams.
    pub fn stream_elements_count(&self) -> u64 {
        self.stream_elements
    }

    /// Approximate payload bytes per stream element.
    pub fn stream_element_size(&self) -> u64 {
        self.stream_element_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lazily run campaign keeps a profile per resident task: one
    /// that kept its constraints' software set and architecture inline
    /// took 136 B.
    #[test]
    fn profile_stays_on_budget() {
        let size = std::mem::size_of::<TaskProfile>();
        assert!(size <= 96, "task profile is {size} B");
    }

    #[test]
    fn defaults() {
        let p = TaskProfile::default();
        assert_eq!(p.duration_s(), 1.0);
        assert_eq!(p.output_size(0), 0);
        assert_eq!(p.constraints_ref().required_compute_units(), 1);
    }

    #[test]
    fn builder_sets_fields() {
        let p = TaskProfile::new(5.0)
            .constraints(Constraints::new().memory_mb(2048))
            .outputs_bytes(1_000);
        assert_eq!(p.duration_s(), 5.0);
        assert_eq!(p.constraints_ref().required_memory_mb(), 2048);
        assert_eq!(p.output_size(3), 1_000);
    }

    #[test]
    fn per_output_sizes_override_default() {
        let p = TaskProfile::new(1.0)
            .outputs_bytes(10)
            .output_bytes_per(vec![100, 200]);
        assert_eq!(p.output_size(0), 100);
        assert_eq!(p.output_size(1), 200);
        assert_eq!(p.output_size(2), 10, "falls back to default");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_rejected() {
        let _ = TaskProfile::new(-1.0);
    }

    #[test]
    fn stream_fields_default_and_build() {
        let p = TaskProfile::default();
        assert_eq!(p.stream_elements_count(), 1);
        assert_eq!(p.stream_element_size(), 0);
        let p = TaskProfile::new(2.0)
            .stream_elements(16)
            .stream_element_bytes(4_096);
        assert_eq!(p.stream_elements_count(), 16);
        assert_eq!(p.stream_element_size(), 4_096);
    }

    #[test]
    fn stream_fields_round_trip_through_serde() {
        let p = TaskProfile::new(2.5)
            .stream_elements(9)
            .stream_element_bytes(512);
        let json = serde::to_string(&p);
        let back: TaskProfile = serde::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
