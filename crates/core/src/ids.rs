//! Identifier newtypes used by the DMU and the runtime ↔ DMU interface.
//!
//! The runtime system identifies tasks by the (64-bit) address of their task
//! descriptor and dependences by the address of the data they touch. Inside
//! the DMU both are renamed to small internal IDs via the alias tables
//! (Section III-B1), which lets the Task/Dependence Tables be direct-mapped
//! SRAMs and shrinks the list arrays by ~5.8× (11-bit IDs instead of 64-bit
//! addresses). These newtypes keep the two ID spaces, and the two address
//! spaces, statically distinct.

use std::fmt;

/// Internal DMU identifier of an in-flight task: an index into the Task
/// Table. With the paper's configuration (2048 entries) it fits in 11 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates a task ID from a raw table index.
    pub const fn new(raw: u32) -> Self {
        TaskId(raw)
    }

    /// The raw table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw value as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Internal DMU identifier of an in-flight dependence: an index into the
/// Dependence Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DepId(u32);

impl DepId {
    /// Creates a dependence ID from a raw table index.
    pub const fn new(raw: u32) -> Self {
        DepId(raw)
    }

    /// The raw table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw value as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Address of a task descriptor in the runtime system's address space. This
/// is what the runtime passes to `create_task` / `finish_task` and what
/// `get_ready_task` returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DescriptorAddr(pub u64);

impl DescriptorAddr {
    /// The raw 64-bit address.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DescriptorAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "desc:{:#x}", self.0)
    }
}

impl From<u64> for DescriptorAddr {
    fn from(raw: u64) -> Self {
        DescriptorAddr(raw)
    }
}

/// Base address of a data dependence (the storage region named in a
/// `depend(in/out/inout: ...)` clause).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DepAddr(pub u64);

impl DepAddr {
    /// The raw 64-bit address.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DepAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dep:{:#x}", self.0)
    }
}

impl From<u64> for DepAddr {
    fn from(raw: u64) -> Self {
        DepAddr(raw)
    }
}

/// Direction of a dependence as annotated by the programmer.
///
/// OpenMP 4.0 distinguishes `in`, `out` and `inout`; for dependence-tracking
/// purposes `inout` behaves as an `in` followed by an `out` on the same
/// address, which is exactly how the DMU (and our software baseline) treat
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepDirection {
    /// The task reads the data (RAW edges from the last writer).
    In,
    /// The task writes the data (WAR edges from readers, WAW from the last
    /// writer).
    Out,
    /// The task both reads and writes the data.
    InOut,
}

impl DepDirection {
    /// True if the task reads the dependence.
    pub fn reads(self) -> bool {
        matches!(self, DepDirection::In | DepDirection::InOut)
    }

    /// True if the task writes the dependence.
    pub fn writes(self) -> bool {
        matches!(self, DepDirection::Out | DepDirection::InOut)
    }
}

impl fmt::Display for DepDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepDirection::In => "in",
            DepDirection::Out => "out",
            DepDirection::InOut => "inout",
        };
        f.write_str(s)
    }
}

// Snapshot support: IDs and addresses persist as their raw integers,
// directions as a one-byte tag.
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

impl Persist for TaskId {
    fn save(&self, out: &mut Vec<u8>) {
        self.0.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(TaskId(u32::load(r)?))
    }
}

impl Persist for DepId {
    fn save(&self, out: &mut Vec<u8>) {
        self.0.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DepId(u32::load(r)?))
    }
}

impl Persist for DescriptorAddr {
    fn save(&self, out: &mut Vec<u8>) {
        self.0.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DescriptorAddr(u64::load(r)?))
    }
}

impl Persist for DepAddr {
    fn save(&self, out: &mut Vec<u8>) {
        self.0.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DepAddr(u64::load(r)?))
    }
}

impl Persist for DepDirection {
    fn save(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            DepDirection::In => 0,
            DepDirection::Out => 1,
            DepDirection::InOut => 2,
        };
        tag.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::load(r)? {
            0 => Ok(DepDirection::In),
            1 => Ok(DepDirection::Out),
            2 => Ok(DepDirection::InOut),
            other => Err(SnapshotError::Corrupt {
                context: format!("dependence-direction tag {other} (expected 0..=2)"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_and_dep_ids_are_distinct_types_with_indices() {
        let t = TaskId::new(5);
        let d = DepId::new(5);
        assert_eq!(t.index(), 5);
        assert_eq!(d.index(), 5);
        assert_eq!(t.raw(), 5);
        assert_eq!(t.to_string(), "T5");
        assert_eq!(d.to_string(), "D5");
    }

    #[test]
    fn addresses_display_in_hex() {
        let desc = DescriptorAddr(0x8AB0_4600);
        let dep = DepAddr(0x0BCE_0860);
        assert!(desc.to_string().contains("0x8ab04600"));
        assert!(dep.to_string().contains("0xbce0860"));
    }

    #[test]
    fn address_conversions_from_u64() {
        let desc: DescriptorAddr = 42u64.into();
        let dep: DepAddr = 43u64.into();
        assert_eq!(desc.raw(), 42);
        assert_eq!(dep.raw(), 43);
    }

    #[test]
    fn direction_read_write_predicates() {
        assert!(DepDirection::In.reads());
        assert!(!DepDirection::In.writes());
        assert!(!DepDirection::Out.reads());
        assert!(DepDirection::Out.writes());
        assert!(DepDirection::InOut.reads());
        assert!(DepDirection::InOut.writes());
    }

    #[test]
    fn direction_display() {
        assert_eq!(DepDirection::In.to_string(), "in");
        assert_eq!(DepDirection::Out.to_string(), "out");
        assert_eq!(DepDirection::InOut.to_string(), "inout");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(TaskId::new(3) < TaskId::new(7));
        assert!(DepId::new(0) < DepId::new(1));
    }
}
