//! Logical data objects and task data accesses.
//!
//! Mirrors the OmpSs data model the paper relies on: tasks declare which
//! regions of which buffers they read and write (`in`/`out`/`inout`
//! clauses), and the runtime derives both the dependence graph and the
//! host↔device data transfers from these declarations.

use crate::interval::Interval;
use serde::{Deserialize, Serialize};

/// Identifies a logical buffer within a [`crate::Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct BufferId(pub usize);

/// A logical 1-D array of fixed-size items.
///
/// Data-parallel partitioning splits the *item index space*; an "item" is
/// whatever unit the application partitions by (an option for BlackScholes,
/// a matrix row for MatrixMul, a grid row for HotSpot, ...). `item_bytes`
/// carries the per-item footprint so transfer volumes follow from region
/// sizes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BufferDesc {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Number of items.
    pub items: u64,
    /// Bytes per item.
    pub item_bytes: u64,
}

impl BufferDesc {
    /// The full index range of the buffer.
    pub fn full(&self) -> Interval {
        Interval::new(0, self.items)
    }
}

/// A contiguous region of a buffer, in items.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Region {
    /// The buffer.
    pub buffer: BufferId,
    /// Item interval within the buffer.
    pub span: Interval,
}

impl Region {
    /// Construct a region covering `[start, end)` of `buffer`.
    pub fn new(buffer: BufferId, start: u64, end: u64) -> Self {
        Region {
            buffer,
            span: Interval::new(start, end),
        }
    }

    /// Number of items in the region.
    pub fn len(&self) -> u64 {
        self.span.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.span.is_empty()
    }
}

/// How a task accesses a region — the OmpSs `in`/`out`/`inout` clauses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum AccessMode {
    /// Read-only (`in`): orders after previous writers of the region.
    In,
    /// Write-only (`out`): orders after previous readers and writers.
    Out,
    /// Read-write (`inout`): both of the above.
    InOut,
}

impl AccessMode {
    /// `true` if the access observes previous values.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }

    /// `true` if the access produces new values.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }
}

/// One declared access of a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// The region touched.
    pub region: Region,
    /// Read/write mode.
    pub mode: AccessMode,
}

impl Access {
    /// Shorthand for an `in` access.
    pub fn read(region: Region) -> Self {
        Access {
            region,
            mode: AccessMode::In,
        }
    }

    /// Shorthand for an `out` access.
    pub fn write(region: Region) -> Self {
        Access {
            region,
            mode: AccessMode::Out,
        }
    }

    /// Shorthand for an `inout` access.
    pub fn read_write(region: Region) -> Self {
        Access {
            region,
            mode: AccessMode::InOut,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_footprint() {
        let b = BufferDesc {
            name: "a".into(),
            items: 100,
            item_bytes: 8,
        };
        assert_eq!(b.full(), Interval::new(0, 100));
    }

    #[test]
    fn access_modes() {
        assert!(AccessMode::In.reads() && !AccessMode::In.writes());
        assert!(!AccessMode::Out.reads() && AccessMode::Out.writes());
        assert!(AccessMode::InOut.reads() && AccessMode::InOut.writes());
    }

    #[test]
    fn region_len() {
        let r = Region::new(BufferId(0), 10, 25);
        assert_eq!(r.len(), 15);
        assert!(!r.is_empty());
        assert!(Region::new(BufferId(0), 3, 3).is_empty());
    }
}
