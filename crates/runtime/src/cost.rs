//! Cycle cost model of runtime-system operations.
//!
//! The paper's characterization (Section II-B, Figure 2) attributes the
//! execution time of every thread to dependence management (DEPS),
//! scheduling (SCHED), task execution (EXEC) and idle time (IDLE). The
//! execution driver charges DEPS and SCHED cycles using this cost model;
//! EXEC comes from the task durations and IDLE emerges from the simulation.
//!
//! Costs are split between a fixed part and parts that scale with the work
//! actually performed (dependences declared, reader lists walked, successors
//! woken), mirroring how a software runtime such as Nanos++ behaves: creating
//! a task allocates and initializes a descriptor, registering a dependence
//! performs a hash-map lookup plus list manipulation under a lock, and the
//! cost grows with the number of edges discovered. The default constants are
//! calibrated so that the per-task creation cost lands in the few-microsecond
//! range measured for software runtimes on out-of-order cores, producing the
//! DEPS fractions of Figure 2.

use tdm_sim::clock::Cycle;

/// Cycle costs of the runtime-system operations modelled by the simulator.
///
/// All values are in cycles of the 2 GHz simulated chip (2000 cycles = 1 µs).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // --- Software runtime system (baseline, also used by Carbon) ---
    /// Allocating and initializing a task descriptor in software.
    pub sw_task_alloc: Cycle,
    /// Registering one declared dependence in the software dependence
    /// tracker (hash-map lookup/insert, locking).
    pub sw_dep_register: Cycle,
    /// Cost per dependence edge discovered or reader-list element walked
    /// while registering dependences.
    pub sw_edge_work: Cycle,
    /// Fixed part of notifying a task finished in software.
    pub sw_finish_base: Cycle,
    /// Cost per successor woken during a software finish.
    pub sw_finish_per_successor: Cycle,
    /// Selecting a task from the software ready pool (one scheduling
    /// decision, including synchronization on the pool).
    pub sw_sched_pick: Cycle,
    /// Inserting a ready task into the software ready pool.
    pub sw_sched_push: Cycle,

    // --- TDM (DMU for dependences, software scheduling) ---
    /// Allocating and initializing a task descriptor when the DMU tracks
    /// dependences (smaller than `sw_task_alloc`: no software dependence
    /// structures are initialized).
    pub tdm_task_alloc: Cycle,
    /// Core-side cost of issuing one TDM ISA instruction (barrier semantics,
    /// operand setup), excluding the NoC round trip and DMU processing.
    pub tdm_instr_issue: Cycle,

    // --- Hardware task queues (Carbon, Task Superscalar) ---
    /// Pushing or popping a task on a hardware task queue, including the
    /// enqueue/dequeue instruction and NoC round trip.
    pub hw_queue_op: Cycle,
    /// Task-descriptor allocation under Task Superscalar (descriptors still
    /// live in memory, but no software dependence structures exist).
    pub tss_task_alloc: Cycle,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            sw_task_alloc: Cycle::new(3_000),         // 1.5 us
            sw_dep_register: Cycle::new(3_400),       // 1.7 us per declared dependence
            sw_edge_work: Cycle::new(500),            // 0.25 us per edge / reader walked
            sw_finish_base: Cycle::new(1_200),        // 0.6 us
            sw_finish_per_successor: Cycle::new(300), // 0.15 us
            sw_sched_pick: Cycle::new(400),           // 0.2 us
            sw_sched_push: Cycle::new(200),           // 0.1 us
            tdm_task_alloc: Cycle::new(1_200),        // 0.6 us
            tdm_instr_issue: Cycle::new(20),
            hw_queue_op: Cycle::new(40),
            tss_task_alloc: Cycle::new(1_200),
        }
    }
}

impl CostModel {
    /// Software cost of creating one task that declares `num_deps`
    /// dependences and performs `edge_work` units of edge discovery
    /// (successor registration / reader walks).
    pub fn sw_creation_cost(&self, num_deps: usize, edge_work: u32) -> Cycle {
        self.sw_task_alloc
            + self.sw_dep_register.scaled(num_deps as u64)
            + self.sw_edge_work.scaled(u64::from(edge_work))
    }

    /// Software cost of finishing a task that wakes `num_successors`
    /// successors.
    pub fn sw_finish_cost(&self, num_successors: u32) -> Cycle {
        self.sw_finish_base
            + self
                .sw_finish_per_successor
                .scaled(u64::from(num_successors))
    }

    /// Core-side cost of one TDM instruction excluding DMU processing:
    /// issue overhead plus the NoC round trip to the DMU.
    pub fn tdm_instr_overhead(&self, noc_round_trip: Cycle) -> Cycle {
        self.tdm_instr_issue + noc_round_trip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_in_the_microsecond_range() {
        let c = CostModel::default();
        // A 3-dependence task (Cholesky sgemm-like) costs a handful of
        // microseconds to create in software at 2 GHz.
        let cost = c.sw_creation_cost(3, 3);
        let micros = cost.as_f64() / 2000.0;
        assert!(
            (4.0..12.0).contains(&micros),
            "software creation cost {micros:.2} us out of expected range"
        );
    }

    #[test]
    fn creation_cost_scales_with_dependences() {
        let c = CostModel::default();
        assert!(c.sw_creation_cost(6, 0) > c.sw_creation_cost(1, 0));
        assert!(c.sw_creation_cost(1, 10) > c.sw_creation_cost(1, 0));
        assert_eq!(c.sw_creation_cost(0, 0), c.sw_task_alloc);
    }

    #[test]
    fn finish_cost_scales_with_successors() {
        let c = CostModel::default();
        assert_eq!(c.sw_finish_cost(0), c.sw_finish_base);
        assert!(c.sw_finish_cost(8) > c.sw_finish_cost(1));
    }

    #[test]
    fn tdm_instruction_overhead_is_orders_of_magnitude_cheaper() {
        let c = CostModel::default();
        let tdm = c.tdm_instr_overhead(Cycle::new(16));
        // One TDM instruction (tens of cycles) vs one software dependence
        // registration (thousands of cycles).
        assert!(tdm.raw() * 20 < c.sw_dep_register.raw());
    }

    #[test]
    fn hardware_queue_ops_are_cheaper_than_software_scheduling() {
        let c = CostModel::default();
        assert!(c.hw_queue_op < c.sw_sched_pick);
    }
}
