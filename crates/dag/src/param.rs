//! Task parameters and access directions.

use crate::ids::DataId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which end of a stream a task holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamRole {
    /// The task appends elements to the stream (a writer).
    Produce,
    /// The task pulls elements from the stream (a reader).
    Consume,
}

/// How a task accesses one of its parameters.
///
/// Directions are the programmer-visible annotation from which all
/// dependencies are derived (the `direction=IN/OUT/INOUT` annotation of
/// PyCOMPSs tasks). `Stream` is the hybrid-workflows extension: instead
/// of versioned whole-value dataflow, the datum is an unbounded channel
/// of elements, and the consumer is released at the producer's *first
/// element* rather than at producer completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// The task only reads the parameter.
    #[default]
    In,
    /// The task creates/overwrites the parameter without reading it.
    Out,
    /// The task reads and then updates the parameter.
    InOut,
    /// The task holds one end of a streamed parameter.
    Stream(StreamRole),
}

impl Direction {
    /// Every direction, in declaration order. Serialization surfaces
    /// (WDL, lint bundles) iterate this so a future variant cannot be
    /// silently skipped.
    pub const ALL: [Direction; 5] = [
        Direction::In,
        Direction::Out,
        Direction::InOut,
        Direction::Stream(StreamRole::Produce),
        Direction::Stream(StreamRole::Consume),
    ];

    /// Returns `true` if the access reads the previous value.
    ///
    /// Stream accesses never read a versioned value: they neither hold
    /// input versions live nor create completion dependencies.
    pub fn reads(self) -> bool {
        matches!(self, Direction::In | Direction::InOut)
    }

    /// Returns `true` if the access produces a new version.
    ///
    /// Stream accesses never bump a datum's version; their datum lives
    /// outside the renaming catalog.
    pub fn writes(self) -> bool {
        matches!(self, Direction::Out | Direction::InOut)
    }

    /// Returns `true` for either stream end.
    pub fn is_stream(self) -> bool {
        matches!(self, Direction::Stream(_))
    }

    /// The stream role, if this is a stream access.
    pub fn stream_role(self) -> Option<StreamRole> {
        match self {
            Direction::Stream(role) => Some(role),
            _ => None,
        }
    }

    /// Stable textual label, used everywhere directions are serialized.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::In => "in",
            Direction::Out => "out",
            Direction::InOut => "inout",
            Direction::Stream(StreamRole::Produce) => "stream_out",
            Direction::Stream(StreamRole::Consume) => "stream_in",
        }
    }

    /// Parses the label produced by [`Direction::as_str`].
    pub fn parse(s: &str) -> Option<Direction> {
        Direction::ALL.into_iter().find(|d| d.as_str() == s)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One declared parameter access of a task: a datum plus the direction
/// in which the task accesses it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Param {
    /// The datum being accessed.
    pub data: DataId,
    /// The access direction.
    pub direction: Direction,
}

impl Param {
    /// Creates a parameter access.
    pub fn new(data: DataId, direction: Direction) -> Self {
        Param { data, direction }
    }

    /// Convenience constructor for a read-only parameter.
    pub fn input(data: DataId) -> Self {
        Param::new(data, Direction::In)
    }

    /// Convenience constructor for a write-only parameter.
    pub fn output(data: DataId) -> Self {
        Param::new(data, Direction::Out)
    }

    /// Convenience constructor for a read-write parameter.
    pub fn inout(data: DataId) -> Self {
        Param::new(data, Direction::InOut)
    }

    /// Convenience constructor for the writing end of a stream.
    pub fn stream_write(data: DataId) -> Self {
        Param::new(data, Direction::Stream(StreamRole::Produce))
    }

    /// Convenience constructor for the reading end of a stream.
    pub fn stream_read(data: DataId) -> Self {
        Param::new(data, Direction::Stream(StreamRole::Consume))
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.data, self.direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_read_write_classification() {
        assert!(Direction::In.reads());
        assert!(!Direction::In.writes());
        assert!(!Direction::Out.reads());
        assert!(Direction::Out.writes());
        assert!(Direction::InOut.reads());
        assert!(Direction::InOut.writes());
        // Stream ends participate in neither versioned reads nor writes.
        for role in [StreamRole::Produce, StreamRole::Consume] {
            assert!(!Direction::Stream(role).reads());
            assert!(!Direction::Stream(role).writes());
            assert!(Direction::Stream(role).is_stream());
            assert_eq!(Direction::Stream(role).stream_role(), Some(role));
        }
        assert!(!Direction::In.is_stream());
        assert_eq!(Direction::Out.stream_role(), None);
    }

    #[test]
    fn param_constructors() {
        let d = DataId::from_raw(1);
        assert_eq!(Param::input(d).direction, Direction::In);
        assert_eq!(Param::output(d).direction, Direction::Out);
        assert_eq!(Param::inout(d).direction, Direction::InOut);
        assert_eq!(
            Param::stream_write(d).direction,
            Direction::Stream(StreamRole::Produce)
        );
        assert_eq!(
            Param::stream_read(d).direction,
            Direction::Stream(StreamRole::Consume)
        );
    }

    #[test]
    fn display_formats() {
        let p = Param::inout(DataId::from_raw(4));
        assert_eq!(p.to_string(), "d4(inout)");
        let s = Param::stream_read(DataId::from_raw(2));
        assert_eq!(s.to_string(), "d2(stream_in)");
    }

    #[test]
    fn every_direction_round_trips_through_its_label() {
        // Exhaustive over ALL: adding a variant without a distinct,
        // parseable label fails here before it can reach WDL or JSON.
        for d in Direction::ALL {
            assert_eq!(Direction::parse(d.as_str()), Some(d), "{d:?}");
            assert_eq!(d.to_string(), d.as_str());
        }
        let labels: std::collections::BTreeSet<&str> =
            Direction::ALL.iter().map(|d| d.as_str()).collect();
        assert_eq!(labels.len(), Direction::ALL.len(), "labels must be unique");
        assert_eq!(Direction::parse("sideways"), None);
    }
}
