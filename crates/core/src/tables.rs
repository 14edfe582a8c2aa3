//! Task Table and Dependence Table (Figure 4 of the paper).
//!
//! Both tables are direct-access SRAMs indexed by the internal IDs produced
//! by the alias tables. The Task Table stores, per in-flight task, the task
//! descriptor address, the predecessor and successor counts and the head
//! pointers of its successor and dependence lists. The Dependence Table
//! stores, per in-flight dependence, the ID of its last writer and the head
//! pointer of its reader list.
//!
//! Storage is struct-of-arrays: each logical entry field lives in its own
//! parallel column, so the DMU's hot paths (predecessor decrements in
//! `finish_task`, last-writer updates in `add_dependence`) touch one dense
//! column instead of dragging whole entry structs through the cache. The
//! [`TaskEntry`] / [`DepEntry`] structs remain as by-value row types for
//! insertion, removal and inspection.

use crate::ids::{DepAddr, DepId, DescriptorAddr, TaskId};
use crate::list_array::ListHandle;

/// One Task Table entry: the bookkeeping of a single in-flight task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEntry {
    /// Address of the runtime's task descriptor (returned by
    /// `get_ready_task`).
    pub descriptor: DescriptorAddr,
    /// Number of unsatisfied predecessors. The task becomes ready when this
    /// reaches zero after its creation completed.
    pub num_predecessors: u32,
    /// Number of successors registered so far (returned to the runtime so
    /// priority schedulers can use it).
    pub num_successors: u32,
    /// Head of this task's successor list in the Successor List Array.
    pub successor_list: ListHandle,
    /// Head of this task's dependence list in the Dependence List Array.
    pub dependence_list: ListHandle,
    /// True while the runtime is still adding dependences (between
    /// `create_task` and the implicit submission at the first instruction of
    /// another task or at execution). Tasks are not inserted in the Ready
    /// Queue while under construction even if their predecessor count is
    /// zero.
    pub under_construction: bool,
}

/// A direct-mapped table of in-flight tasks, indexed by [`TaskId`].
///
/// Entry fields are stored as parallel columns; the hot accessors
/// ([`TaskTable::dec_predecessors`] and friends) read and write exactly one
/// column. Every accessor panics on a dead or out-of-range ID — the alias
/// table guarantees the DMU only holds live IDs.
#[derive(Debug, Clone)]
pub struct TaskTable {
    descriptor: Vec<DescriptorAddr>,
    num_predecessors: Vec<u32>,
    num_successors: Vec<u32>,
    successor_list: Vec<ListHandle>,
    dependence_list: Vec<ListHandle>,
    under_construction: Vec<bool>,
    occupied: Vec<bool>,
    live: usize,
    peak: usize,
}

impl TaskTable {
    /// Creates a table with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "task table needs at least one entry");
        TaskTable {
            descriptor: vec![DescriptorAddr(0); capacity],
            num_predecessors: vec![0; capacity],
            num_successors: vec![0; capacity],
            successor_list: vec![ListHandle::from_raw(0); capacity],
            dependence_list: vec![ListHandle::from_raw(0); capacity],
            under_construction: vec![false; capacity],
            occupied: vec![false; capacity],
            live: 0,
            peak: 0,
        }
    }

    /// Total number of entries.
    pub fn capacity(&self) -> usize {
        self.occupied.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest number of simultaneously live entries.
    pub fn peak(&self) -> usize {
        self.peak
    }

    fn check_live(&self, id: TaskId) {
        assert!(
            self.occupied.get(id.index()).copied().unwrap_or(false),
            "task table entry {id} is not live"
        );
    }

    /// Installs `entry` at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already occupied — the alias table
    /// guarantees freshly allocated IDs are free.
    pub fn insert(&mut self, id: TaskId, entry: TaskEntry) {
        let i = id.index();
        assert!(
            !self.occupied[i],
            "task table entry {id} is already occupied"
        );
        self.descriptor[i] = entry.descriptor;
        self.num_predecessors[i] = entry.num_predecessors;
        self.num_successors[i] = entry.num_successors;
        self.successor_list[i] = entry.successor_list;
        self.dependence_list[i] = entry.dependence_list;
        self.under_construction[i] = entry.under_construction;
        self.occupied[i] = true;
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// Returns the entry at `id` (recomposed from the columns), if live.
    pub fn get(&self, id: TaskId) -> Option<TaskEntry> {
        let i = id.index();
        if !self.occupied.get(i).copied().unwrap_or(false) {
            return None;
        }
        Some(TaskEntry {
            descriptor: self.descriptor[i],
            num_predecessors: self.num_predecessors[i],
            num_successors: self.num_successors[i],
            successor_list: self.successor_list[i],
            dependence_list: self.dependence_list[i],
            under_construction: self.under_construction[i],
        })
    }

    /// Descriptor address of a live task.
    pub fn descriptor(&self, id: TaskId) -> DescriptorAddr {
        self.check_live(id);
        self.descriptor[id.index()]
    }

    /// Successor-list head of a live task.
    pub fn successor_list(&self, id: TaskId) -> ListHandle {
        self.check_live(id);
        self.successor_list[id.index()]
    }

    /// Dependence-list head of a live task.
    pub fn dependence_list(&self, id: TaskId) -> ListHandle {
        self.check_live(id);
        self.dependence_list[id.index()]
    }

    /// Unsatisfied-predecessor count of a live task.
    pub fn num_predecessors(&self, id: TaskId) -> u32 {
        self.check_live(id);
        self.num_predecessors[id.index()]
    }

    /// Successor count of a live task.
    pub fn num_successors(&self, id: TaskId) -> u32 {
        self.check_live(id);
        self.num_successors[id.index()]
    }

    /// Whether a live task is still under construction.
    pub fn under_construction(&self, id: TaskId) -> bool {
        self.check_live(id);
        self.under_construction[id.index()]
    }

    /// Increments the successor count of a live task.
    pub fn inc_successors(&mut self, id: TaskId) {
        self.check_live(id);
        self.num_successors[id.index()] += 1;
    }

    /// Increments the predecessor count of a live task.
    pub fn inc_predecessors(&mut self, id: TaskId) {
        self.check_live(id);
        self.num_predecessors[id.index()] += 1;
    }

    /// Decrements the predecessor count of a live task and returns the new
    /// count.
    pub fn dec_predecessors(&mut self, id: TaskId) -> u32 {
        self.check_live(id);
        let slot = &mut self.num_predecessors[id.index()];
        *slot -= 1;
        *slot
    }

    /// Marks a live task as submitted (no longer under construction).
    pub fn submit(&mut self, id: TaskId) {
        self.check_live(id);
        self.under_construction[id.index()] = false;
    }

    /// Removes and returns the entry at `id`.
    pub fn remove(&mut self, id: TaskId) -> Option<TaskEntry> {
        let entry = self.get(id)?;
        self.occupied[id.index()] = false;
        self.live -= 1;
        Some(entry)
    }

    /// Iterates over the live `(id, entry)` pairs, recomposing rows.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, TaskEntry)> + '_ {
        self.occupied.iter().enumerate().filter_map(|(i, &occ)| {
            let id = TaskId::new(i as u32);
            occ.then(|| (id, self.get(id).expect("occupied entry is live")))
        })
    }
}

/// One Dependence Table entry: the bookkeeping of a single in-flight
/// dependence (a data address that at least one in-flight task names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEntry {
    /// Base address of the dependence.
    pub addr: DepAddr,
    /// Size in bytes, as provided by the runtime in `add_dependence` (used
    /// for the dynamic index-bit selection and by locality modelling).
    pub size: u64,
    /// Task that last declared an output on this address, if still in flight.
    pub last_writer: Option<TaskId>,
    /// Head of the reader list in the Reader List Array.
    pub reader_list: ListHandle,
}

/// A direct-mapped table of in-flight dependences, indexed by [`DepId`].
///
/// Same struct-of-arrays layout as [`TaskTable`]: each [`DepEntry`] field is
/// a parallel column with panicking single-column accessors for the hot
/// paths.
#[derive(Debug, Clone)]
pub struct DependenceTable {
    addr: Vec<DepAddr>,
    size: Vec<u64>,
    last_writer: Vec<Option<TaskId>>,
    reader_list: Vec<ListHandle>,
    occupied: Vec<bool>,
    live: usize,
    peak: usize,
}

impl DependenceTable {
    /// Creates a table with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dependence table needs at least one entry");
        DependenceTable {
            addr: vec![DepAddr(0); capacity],
            size: vec![0; capacity],
            last_writer: vec![None; capacity],
            reader_list: vec![ListHandle::from_raw(0); capacity],
            occupied: vec![false; capacity],
            live: 0,
            peak: 0,
        }
    }

    /// Total number of entries.
    pub fn capacity(&self) -> usize {
        self.occupied.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest number of simultaneously live entries.
    pub fn peak(&self) -> usize {
        self.peak
    }

    fn check_live(&self, id: DepId) {
        assert!(
            self.occupied.get(id.index()).copied().unwrap_or(false),
            "dependence table entry {id} is not live"
        );
    }

    /// Installs `entry` at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already occupied.
    pub fn insert(&mut self, id: DepId, entry: DepEntry) {
        let i = id.index();
        assert!(
            !self.occupied[i],
            "dependence table entry {id} is already occupied"
        );
        self.addr[i] = entry.addr;
        self.size[i] = entry.size;
        self.last_writer[i] = entry.last_writer;
        self.reader_list[i] = entry.reader_list;
        self.occupied[i] = true;
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// Returns the entry at `id` (recomposed from the columns), if live.
    pub fn get(&self, id: DepId) -> Option<DepEntry> {
        let i = id.index();
        if !self.occupied.get(i).copied().unwrap_or(false) {
            return None;
        }
        Some(DepEntry {
            addr: self.addr[i],
            size: self.size[i],
            last_writer: self.last_writer[i],
            reader_list: self.reader_list[i],
        })
    }

    /// True if the entry at `id` is live.
    pub fn contains(&self, id: DepId) -> bool {
        self.occupied.get(id.index()).copied().unwrap_or(false)
    }

    /// Base address of a live dependence.
    pub fn addr(&self, id: DepId) -> DepAddr {
        self.check_live(id);
        self.addr[id.index()]
    }

    /// Size in bytes of a live dependence.
    pub fn size(&self, id: DepId) -> u64 {
        self.check_live(id);
        self.size[id.index()]
    }

    /// Last writer of a live dependence, if still in flight.
    pub fn last_writer(&self, id: DepId) -> Option<TaskId> {
        self.check_live(id);
        self.last_writer[id.index()]
    }

    /// Updates the last writer of a live dependence.
    pub fn set_last_writer(&mut self, id: DepId, writer: Option<TaskId>) {
        self.check_live(id);
        self.last_writer[id.index()] = writer;
    }

    /// Reader-list head of a live dependence.
    pub fn reader_list(&self, id: DepId) -> ListHandle {
        self.check_live(id);
        self.reader_list[id.index()]
    }

    /// Removes and returns the entry at `id`.
    pub fn remove(&mut self, id: DepId) -> Option<DepEntry> {
        let entry = self.get(id)?;
        self.occupied[id.index()] = false;
        self.live -= 1;
        Some(entry)
    }

    /// Iterates over the live `(id, entry)` pairs, recomposing rows.
    pub fn iter(&self) -> impl Iterator<Item = (DepId, DepEntry)> + '_ {
        self.occupied.iter().enumerate().filter_map(|(i, &occ)| {
            let id = DepId::new(i as u32);
            occ.then(|| (id, self.get(id).expect("occupied entry is live")))
        })
    }
}

// Snapshot support: every column is persisted verbatim, dead slots
// included — the column contents of unoccupied rows are never observed,
// but persisting them verbatim keeps the load path a straight copy.
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

impl Persist for TaskTable {
    fn save(&self, out: &mut Vec<u8>) {
        self.descriptor.save(out);
        self.num_predecessors.save(out);
        self.num_successors.save(out);
        self.successor_list.save(out);
        self.dependence_list.save(out);
        self.under_construction.save(out);
        self.occupied.save(out);
        self.live.save(out);
        self.peak.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let table = TaskTable {
            descriptor: Vec::load(r)?,
            num_predecessors: Vec::load(r)?,
            num_successors: Vec::load(r)?,
            successor_list: Vec::load(r)?,
            dependence_list: Vec::load(r)?,
            under_construction: Vec::load(r)?,
            occupied: Vec::load(r)?,
            live: usize::load(r)?,
            peak: usize::load(r)?,
        };
        let capacity = table.occupied.len();
        let live = table.occupied.iter().filter(|&&o| o).count();
        if capacity == 0
            || table.descriptor.len() != capacity
            || table.num_predecessors.len() != capacity
            || table.num_successors.len() != capacity
            || table.successor_list.len() != capacity
            || table.dependence_list.len() != capacity
            || table.under_construction.len() != capacity
            || live != table.live
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "task table is inconsistent ({capacity} entries, {} occupied vs \
                     recorded {})",
                    live, table.live
                ),
            });
        }
        Ok(table)
    }
}

impl Persist for DependenceTable {
    fn save(&self, out: &mut Vec<u8>) {
        self.addr.save(out);
        self.size.save(out);
        self.last_writer.save(out);
        self.reader_list.save(out);
        self.occupied.save(out);
        self.live.save(out);
        self.peak.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let table = DependenceTable {
            addr: Vec::load(r)?,
            size: Vec::load(r)?,
            last_writer: Vec::load(r)?,
            reader_list: Vec::load(r)?,
            occupied: Vec::load(r)?,
            live: usize::load(r)?,
            peak: usize::load(r)?,
        };
        let capacity = table.occupied.len();
        let live = table.occupied.iter().filter(|&&o| o).count();
        if capacity == 0
            || table.addr.len() != capacity
            || table.size.len() != capacity
            || table.last_writer.len() != capacity
            || table.reader_list.len() != capacity
            || live != table.live
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "dependence table is inconsistent ({capacity} entries, {} occupied \
                     vs recorded {})",
                    live, table.live
                ),
            });
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> ListHandle {
        // A placeholder handle for table-only tests; tables never dereference
        // handles themselves.
        let mut la = crate::list_array::ListArray::new(1, 1);
        la.alloc_list().unwrap()
    }

    fn task_entry(addr: u64) -> TaskEntry {
        TaskEntry {
            descriptor: DescriptorAddr(addr),
            num_predecessors: 0,
            num_successors: 0,
            successor_list: handle(),
            dependence_list: handle(),
            under_construction: true,
        }
    }

    #[test]
    fn task_table_insert_get_remove() {
        let mut t = TaskTable::new(4);
        let id = TaskId::new(2);
        t.insert(id, task_entry(0x1000));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap().descriptor, DescriptorAddr(0x1000));
        for _ in 0..3 {
            t.inc_predecessors(id);
        }
        assert_eq!(t.get(id).unwrap().num_predecessors, 3);
        assert_eq!(t.num_predecessors(id), 3);
        let removed = t.remove(id).unwrap();
        assert_eq!(removed.num_predecessors, 3);
        assert!(t.get(id).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn task_table_column_accessors_roundtrip() {
        let mut t = TaskTable::new(4);
        let id = TaskId::new(1);
        t.insert(id, task_entry(0x2000));
        assert_eq!(t.descriptor(id), DescriptorAddr(0x2000));
        assert!(t.under_construction(id));
        t.submit(id);
        assert!(!t.under_construction(id));
        t.inc_successors(id);
        t.inc_successors(id);
        assert_eq!(t.num_successors(id), 2);
        t.inc_predecessors(id);
        assert_eq!(t.dec_predecessors(id), 0);
        assert_eq!(t.successor_list(id), t.get(id).unwrap().successor_list);
        assert_eq!(t.dependence_list(id), t.get(id).unwrap().dependence_list);
    }

    #[test]
    fn task_table_peak_tracks_high_water_mark() {
        let mut t = TaskTable::new(4);
        t.insert(TaskId::new(0), task_entry(1));
        t.insert(TaskId::new(1), task_entry(2));
        t.remove(TaskId::new(0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn task_table_double_insert_panics() {
        let mut t = TaskTable::new(4);
        t.insert(TaskId::new(0), task_entry(1));
        t.insert(TaskId::new(0), task_entry(2));
    }

    #[test]
    #[should_panic(expected = "is not live")]
    fn task_table_dead_accessor_panics() {
        let t = TaskTable::new(4);
        let _ = t.descriptor(TaskId::new(0));
    }

    #[test]
    fn task_table_iter_yields_live_entries() {
        let mut t = TaskTable::new(8);
        t.insert(TaskId::new(1), task_entry(10));
        t.insert(TaskId::new(5), task_entry(50));
        let ids: Vec<u32> = t.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![1, 5]);
    }

    #[test]
    fn dependence_table_insert_get_remove() {
        let mut t = DependenceTable::new(4);
        let id = DepId::new(3);
        t.insert(
            id,
            DepEntry {
                addr: DepAddr(0xBEEF),
                size: 4096,
                last_writer: None,
                reader_list: handle(),
            },
        );
        assert_eq!(t.get(id).unwrap().addr, DepAddr(0xBEEF));
        assert_eq!(t.addr(id), DepAddr(0xBEEF));
        assert_eq!(t.size(id), 4096);
        assert!(t.contains(id));
        t.set_last_writer(id, Some(TaskId::new(7)));
        assert_eq!(t.get(id).unwrap().last_writer, Some(TaskId::new(7)));
        assert_eq!(t.last_writer(id), Some(TaskId::new(7)));
        assert!(t.remove(id).is_some());
        assert!(t.remove(id).is_none());
        assert!(!t.contains(id));
    }

    #[test]
    fn dependence_table_len_and_peak() {
        let mut t = DependenceTable::new(4);
        assert!(t.is_empty());
        for i in 0..3u32 {
            t.insert(
                DepId::new(i),
                DepEntry {
                    addr: DepAddr(u64::from(i)),
                    size: 64,
                    last_writer: None,
                    reader_list: handle(),
                },
            );
        }
        assert_eq!(t.len(), 3);
        t.remove(DepId::new(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.peak(), 3);
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_task_table_panics() {
        let _ = TaskTable::new(0);
    }
}
