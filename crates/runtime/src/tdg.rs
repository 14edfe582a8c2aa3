//! Reference Task Dependence Graph (TDG).
//!
//! [`TaskGraph`] builds the dependence graph of a workload in software, using
//! the same RAW/WAR/WAW semantics the DMU implements in hardware: a task
//! depends on the last writer of every address it touches and, when it
//! writes, on all in-flight readers of that address.
//!
//! The graph serves two purposes:
//!
//! * it is the functional core of the **software runtime baseline** (and of
//!   Carbon, which keeps dependence tracking in software), and
//! * it is the **golden model** against which the DMU is property-tested:
//!   any execution order the DMU permits must respect this graph, and the
//!   DMU must never withhold a task whose graph predecessors all finished.
//!
//! Unlike the DMU, the reference graph is built over the *whole* program at
//! once (software has no capacity limits), which also gives the cost model
//! the per-task edge counts it needs.

use crate::fast_map::FastMap;
use crate::task::{TaskRef, Workload};

/// The dependence graph of a workload: predecessor/successor adjacency in
/// program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    /// `successors[i]` = tasks that must wait for task `i`.
    successors: Vec<Vec<TaskRef>>,
    /// `predecessors[i]` = number of tasks task `i` must wait for
    /// (with multiplicity, matching the DMU's counter semantics).
    predecessor_counts: Vec<u32>,
    /// `predecessors[i]` = distinct predecessor tasks (deduplicated), for
    /// analysis and tests.
    predecessors: Vec<Vec<TaskRef>>,
    /// Number of reader-list entries walked while registering each task's
    /// dependences (the work a software runtime, or the DMU, performs during
    /// creation of that task).
    creation_edge_work: Vec<u32>,
}

impl TaskGraph {
    /// Builds the dependence graph of `workload` by simulating program-order
    /// creation with last-writer and reader tracking per address.
    pub fn build(workload: &Workload) -> Self {
        let n = workload.len();
        let mut successors: Vec<Vec<TaskRef>> = vec![Vec::new(); n];
        let mut predecessor_counts = vec![0u32; n];
        let mut predecessors: Vec<Vec<TaskRef>> = vec![Vec::new(); n];
        let mut creation_edge_work = vec![0u32; n];

        struct AddrState {
            last_writer: Option<TaskRef>,
            readers: Vec<TaskRef>,
        }
        let mut addr_state: FastMap<u64, AddrState> = FastMap::default();

        for (task, spec) in workload.iter() {
            for dep in &spec.deps {
                let state = addr_state.entry(dep.addr).or_insert(AddrState {
                    last_writer: None,
                    readers: Vec::new(),
                });
                // RAW / WAW edge from the last writer.
                if let Some(writer) = state.last_writer {
                    if writer != task {
                        successors[writer.index()].push(task);
                        predecessor_counts[task.index()] += 1;
                        predecessors[task.index()].push(writer);
                        creation_edge_work[task.index()] += 1;
                    }
                }
                if dep.direction.writes() {
                    // WAR edges from every reader, then take over as writer.
                    creation_edge_work[task.index()] += state.readers.len() as u32;
                    for &reader in &state.readers {
                        if reader != task {
                            successors[reader.index()].push(task);
                            predecessor_counts[task.index()] += 1;
                            predecessors[task.index()].push(reader);
                        }
                    }
                    state.readers.clear();
                    state.last_writer = Some(task);
                } else {
                    state.readers.push(task);
                    creation_edge_work[task.index()] += 1;
                }
            }
        }

        for preds in &mut predecessors {
            preds.sort_unstable();
            preds.dedup();
        }

        TaskGraph {
            successors,
            predecessor_counts,
            predecessors,
            creation_edge_work,
        }
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.successors.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.successors.is_empty()
    }

    /// Tasks that must wait for `task` (with multiplicity).
    pub fn successors(&self, task: TaskRef) -> &[TaskRef] {
        &self.successors[task.index()]
    }

    /// Distinct predecessors of `task`.
    pub fn predecessors(&self, task: TaskRef) -> &[TaskRef] {
        &self.predecessors[task.index()]
    }

    /// Number of predecessor edges of `task` (with multiplicity, i.e. the
    /// initial value of the DMU's predecessor counter).
    pub fn predecessor_count(&self, task: TaskRef) -> u32 {
        self.predecessor_counts[task.index()]
    }

    /// Number of successor edges of `task` (with multiplicity).
    pub fn successor_count(&self, task: TaskRef) -> u32 {
        self.successors[task.index()].len() as u32
    }

    /// Dependence-registration work performed while creating `task`
    /// (address-map lookups plus reader-list walks), used by the software
    /// cost model.
    pub fn creation_edge_work(&self, task: TaskRef) -> u32 {
        self.creation_edge_work[task.index()]
    }

    /// Tasks with no predecessors (ready as soon as they are created).
    pub fn roots(&self) -> Vec<TaskRef> {
        (0..self.len())
            .map(TaskRef)
            .filter(|&t| self.predecessor_count(t) == 0)
            .collect()
    }

    /// Total number of edges (with multiplicity).
    pub fn edge_count(&self) -> usize {
        self.successors.iter().map(|s| s.len()).sum()
    }

    /// Length (in tasks) of the longest dependence chain, computed over the
    /// DAG. This is the critical path ignoring task durations.
    pub fn critical_path_len(&self) -> usize {
        let n = self.len();
        if n == 0 {
            return 0;
        }
        // Tasks are created in program order and edges always point from an
        // earlier task to a later one, so index order is a topological order.
        let mut depth = vec![1usize; n];
        let mut best = 1;
        for i in 0..n {
            let d = depth[i];
            best = best.max(d);
            for succ in &self.successors[i] {
                depth[succ.index()] = depth[succ.index()].max(d + 1);
            }
        }
        best
    }

    /// Verifies that an execution order (a permutation of all tasks, in the
    /// order they *finished*) respects every dependence edge: no task
    /// appears before one of its predecessors. Returns the first violation
    /// found as `(predecessor, task)`.
    pub fn check_order(&self, order: &[TaskRef]) -> Result<(), (TaskRef, TaskRef)> {
        let mut position = vec![usize::MAX; self.len()];
        for (pos, task) in order.iter().enumerate() {
            position[task.index()] = pos;
        }
        for task in order {
            for &pred in self.predecessors(*task) {
                if position[pred.index()] == usize::MAX
                    || position[pred.index()] > position[task.index()]
                {
                    return Err((pred, *task));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{DependenceSpec, TaskSpec};
    use tdm_sim::clock::Cycle;

    fn spec(deps: Vec<DependenceSpec>) -> TaskSpec {
        TaskSpec::new("t", Cycle::new(100), deps)
    }

    fn chain(n: usize) -> Workload {
        Workload::new(
            "chain",
            (0..n)
                .map(|_| spec(vec![DependenceSpec::inout(0xA000, 64)]))
                .collect(),
        )
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let w = Workload::new(
            "indep",
            (0..4)
                .map(|i| spec(vec![DependenceSpec::output(0x1000 + i * 64, 64)]))
                .collect(),
        );
        let g = TaskGraph::build(&w);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.roots().len(), 4);
        assert_eq!(g.critical_path_len(), 1);
    }

    #[test]
    fn inout_chain_is_fully_serialized() {
        let g = TaskGraph::build(&chain(5));
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.roots(), vec![TaskRef(0)]);
        assert_eq!(g.critical_path_len(), 5);
        for i in 1..5 {
            assert_eq!(g.predecessors(TaskRef(i)), &[TaskRef(i - 1)]);
        }
    }

    #[test]
    fn raw_edge_producer_to_consumer() {
        let w = Workload::new(
            "raw",
            vec![
                spec(vec![DependenceSpec::output(0x1000, 64)]),
                spec(vec![DependenceSpec::input(0x1000, 64)]),
            ],
        );
        let g = TaskGraph::build(&w);
        assert_eq!(g.successors(TaskRef(0)), &[TaskRef(1)]);
        assert_eq!(g.predecessor_count(TaskRef(1)), 1);
    }

    #[test]
    fn war_edge_reader_to_writer() {
        let w = Workload::new(
            "war",
            vec![
                spec(vec![DependenceSpec::input(0x1000, 64)]),
                spec(vec![DependenceSpec::output(0x1000, 64)]),
            ],
        );
        let g = TaskGraph::build(&w);
        // Reader 0 has no predecessor (no prior writer); writer 1 waits for
        // the reader (WAR).
        assert_eq!(g.predecessor_count(TaskRef(0)), 0);
        assert_eq!(g.predecessors(TaskRef(1)), &[TaskRef(0)]);
    }

    #[test]
    fn waw_edge_between_writers() {
        let w = Workload::new(
            "waw",
            vec![
                spec(vec![DependenceSpec::output(0x1000, 64)]),
                spec(vec![DependenceSpec::output(0x1000, 64)]),
            ],
        );
        let g = TaskGraph::build(&w);
        assert_eq!(g.successors(TaskRef(0)), &[TaskRef(1)]);
    }

    #[test]
    fn readers_do_not_depend_on_each_other() {
        let w = Workload::new(
            "readers",
            vec![
                spec(vec![DependenceSpec::output(0x1000, 64)]),
                spec(vec![DependenceSpec::input(0x1000, 64)]),
                spec(vec![DependenceSpec::input(0x1000, 64)]),
                spec(vec![DependenceSpec::input(0x1000, 64)]),
            ],
        );
        let g = TaskGraph::build(&w);
        for i in 1..4 {
            assert_eq!(g.predecessors(TaskRef(i)), &[TaskRef(0)]);
        }
        assert_eq!(g.successor_count(TaskRef(0)), 3);
        // A subsequent writer waits for all three readers.
    }

    #[test]
    fn writer_after_readers_waits_for_all_of_them() {
        let mut tasks = vec![spec(vec![DependenceSpec::output(0x1000, 64)])];
        for _ in 0..3 {
            tasks.push(spec(vec![DependenceSpec::input(0x1000, 64)]));
        }
        tasks.push(spec(vec![DependenceSpec::output(0x1000, 64)]));
        let g = TaskGraph::build(&Workload::new("war-many", tasks));
        let writer = TaskRef(4);
        // WAW edge from the first writer plus WAR edges from the 3 readers,
        // matching the DMU's Algorithm 1 (the last writer stays valid while
        // readers are registered).
        assert_eq!(
            g.predecessors(writer),
            &[TaskRef(0), TaskRef(1), TaskRef(2), TaskRef(3)]
        );
        assert_eq!(g.predecessor_count(writer), 4);
    }

    #[test]
    fn diamond_pattern() {
        let w = Workload::new(
            "diamond",
            vec![
                spec(vec![DependenceSpec::output(0x1, 64)]),
                spec(vec![
                    DependenceSpec::input(0x1, 64),
                    DependenceSpec::output(0x2, 64),
                ]),
                spec(vec![
                    DependenceSpec::input(0x1, 64),
                    DependenceSpec::output(0x3, 64),
                ]),
                spec(vec![
                    DependenceSpec::input(0x2, 64),
                    DependenceSpec::input(0x3, 64),
                ]),
            ],
        );
        let g = TaskGraph::build(&w);
        assert_eq!(g.critical_path_len(), 3);
        assert_eq!(g.predecessors(TaskRef(3)), &[TaskRef(1), TaskRef(2)]);
        assert_eq!(g.roots(), vec![TaskRef(0)]);
    }

    #[test]
    fn creation_edge_work_counts_reader_walks() {
        let mut tasks = vec![spec(vec![DependenceSpec::output(0x1, 64)])];
        for _ in 0..5 {
            tasks.push(spec(vec![DependenceSpec::input(0x1, 64)]));
        }
        tasks.push(spec(vec![DependenceSpec::output(0x1, 64)]));
        let g = TaskGraph::build(&Workload::new("w", tasks));
        // The final writer walks 5 readers plus the last-writer edge.
        assert_eq!(g.creation_edge_work(TaskRef(6)), 6);
    }

    #[test]
    fn check_order_accepts_valid_and_rejects_invalid() {
        let g = TaskGraph::build(&chain(3));
        let valid = vec![TaskRef(0), TaskRef(1), TaskRef(2)];
        assert!(g.check_order(&valid).is_ok());
        let invalid = vec![TaskRef(1), TaskRef(0), TaskRef(2)];
        assert_eq!(g.check_order(&invalid), Err((TaskRef(0), TaskRef(1))));
    }

    #[test]
    fn empty_workload_graph() {
        let g = TaskGraph::build(&Workload::new("empty", vec![]));
        assert!(g.is_empty());
        assert_eq!(g.critical_path_len(), 0);
        assert_eq!(g.roots(), Vec::<TaskRef>::new());
        assert!(g.check_order(&[]).is_ok());
    }
}
