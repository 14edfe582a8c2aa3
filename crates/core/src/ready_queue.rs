//! The DMU's Ready Queue.
//!
//! Tasks whose predecessor count reaches zero are pushed into a hardware FIFO
//! (Figure 3). The runtime drains it with `get_ready_task`, moving ready
//! tasks into its own software pool where the scheduling policy is applied —
//! the separation of concerns that distinguishes TDM from Carbon and Task
//! Superscalar.

use std::collections::VecDeque;

use crate::ids::TaskId;

/// Error returned when the Ready Queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyQueueFull;

impl std::fmt::Display for ReadyQueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ready queue is full")
    }
}

impl std::error::Error for ReadyQueueFull {}

/// A bounded FIFO of ready task IDs.
///
/// # Example
///
/// ```
/// use tdm_core::ids::TaskId;
/// use tdm_core::ready_queue::ReadyQueue;
///
/// let mut q = ReadyQueue::new(4);
/// q.push(TaskId::new(1)).unwrap();
/// q.push(TaskId::new(2)).unwrap();
/// assert_eq!(q.pop(), Some(TaskId::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct ReadyQueue {
    queue: VecDeque<TaskId>,
    capacity: usize,
    peak: usize,
}

impl ReadyQueue {
    /// Creates a ready queue holding at most `capacity` task IDs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ready queue needs a non-zero capacity");
        ReadyQueue {
            queue: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            peak: 0,
        }
    }

    /// Maximum number of task IDs the queue can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of task IDs currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Enqueues a ready task.
    ///
    /// # Errors
    ///
    /// Returns [`ReadyQueueFull`] if the queue is at capacity.
    pub fn push(&mut self, task: TaskId) -> Result<(), ReadyQueueFull> {
        if self.queue.len() >= self.capacity {
            return Err(ReadyQueueFull);
        }
        self.queue.push_back(task);
        self.peak = self.peak.max(self.queue.len());
        Ok(())
    }

    /// Dequeues the oldest ready task, if any.
    pub fn pop(&mut self) -> Option<TaskId> {
        self.queue.pop_front()
    }

    /// Peeks at the oldest ready task without dequeuing it.
    pub fn front(&self) -> Option<TaskId> {
        self.queue.front().copied()
    }
}

// Snapshot support: the FIFO contents in order, plus capacity and peak.
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

impl Persist for ReadyQueue {
    fn save(&self, out: &mut Vec<u8>) {
        self.queue.save(out);
        self.capacity.save(out);
        self.peak.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let queue: VecDeque<TaskId> = VecDeque::load(r)?;
        let capacity = usize::load(r)?;
        let peak = usize::load(r)?;
        if capacity == 0 || queue.len() > capacity {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "ready queue holds {} tasks but has capacity {capacity}",
                    queue.len()
                ),
            });
        }
        Ok(ReadyQueue {
            queue,
            capacity,
            peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = ReadyQueue::new(8);
        for i in 0..5 {
            q.push(TaskId::new(i)).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|t| t.raw()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn push_fails_when_full() {
        let mut q = ReadyQueue::new(2);
        q.push(TaskId::new(0)).unwrap();
        q.push(TaskId::new(1)).unwrap();
        assert_eq!(q.push(TaskId::new(2)), Err(ReadyQueueFull));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let mut q = ReadyQueue::new(2);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.front(), None);
    }

    #[test]
    fn front_does_not_consume() {
        let mut q = ReadyQueue::new(2);
        q.push(TaskId::new(9)).unwrap();
        assert_eq!(q.front(), Some(TaskId::new(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peak_tracks_maximum_occupancy() {
        let mut q = ReadyQueue::new(4);
        q.push(TaskId::new(0)).unwrap();
        q.push(TaskId::new(1)).unwrap();
        q.pop();
        q.pop();
        assert_eq!(q.peak(), 2);
        assert_eq!(q.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_panics() {
        let _ = ReadyQueue::new(0);
    }
}
