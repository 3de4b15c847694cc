use std::cmp::Reverse;
use std::collections::BinaryHeap;

use maco_sim::SimTime;
use maco_vm::page_table::TranslateFault;

use super::{InFlightGemm, MacoSystem, NodeReport};

/// The in-flight GEMM tasks of one machine, each with a caller's tag `T`,
/// stepped in minimum `(task.now(), seq, node)` order, where `seq` counts
/// inserts (`seq == node` for the closed-loop runners). A task stays in
/// its node's slot and is stepped in place; its key changes only while
/// out of the heap (pop, step a batch, push), so no decrease-key is
/// needed.
pub struct TaskHeap<T> {
    slots: Vec<Option<(InFlightGemm, T)>>,
    keys: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
}

impl<T> TaskHeap<T> {
    /// An empty heap for a `nodes`-node machine.
    pub fn new(nodes: usize) -> Self {
        TaskHeap {
            slots: (0..nodes).map(|_| None).collect(),
            keys: BinaryHeap::with_capacity(nodes),
            seq: 0,
        }
    }

    /// Adds `task` under the next `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the task's node already holds a task.
    pub fn insert(&mut self, task: InFlightGemm, tag: T) {
        let node = task.node();
        assert!(
            self.slots[node].is_none(),
            "node {node} already runs a task"
        );
        self.keys.push(Reverse((task.now(), self.seq, node)));
        self.slots[node] = Some((task, tag));
        self.seq += 1;
    }

    /// The time of the next task step, `None` when no task is in flight.
    pub fn next_time(&self) -> Option<SimTime> {
        self.keys.peek().map(|&Reverse((t, _, _))| t)
    }

    /// Whether no task is in flight.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drops every in-flight task. Their MTQ/STQ entries stay on the
    /// machine, so it must be discarded too (see [`InFlightGemm`]).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.slots.fill_with(|| None);
    }

    /// Steps the task with the minimum key once, then on while its time
    /// is before `bound` (the caller's next own event) and its key at or
    /// below the runner-up's. Returns the task with its [`NodeReport`] and
    /// tag once it finishes; until then its new key goes back in.
    ///
    /// # Errors
    ///
    /// Propagates a step's [`TranslateFault`]; the faulted task leaves the
    /// heap.
    ///
    /// # Panics
    ///
    /// Panics if the heap is empty.
    pub fn step(
        &mut self,
        system: &mut MacoSystem,
        bound: Option<SimTime>,
    ) -> Result<Option<(InFlightGemm, NodeReport, T)>, TranslateFault> {
        let Reverse((_, seq, node)) = self.keys.pop().expect("step on an empty task heap");
        let runner_up = self.keys.peek().map(|&Reverse(key)| key);
        let slot = &mut self.slots[node];
        let (task, _) = slot.as_mut().expect("every key names an occupied slot");
        // While the key stays at or below the runner-up, the next pop would
        // return this task again: each inline step is that pop and push.
        loop {
            let stepped = system.step_gemm(task);
            if !matches!(stepped, Ok(None)) {
                let (task, tag) = slot.take().expect("stepped above");
                return stepped.map(|report| report.map(|report| (task, report, tag)));
            }
            let key = (task.now(), seq, node);
            if bound.is_some_and(|b| key.0 >= b) || runner_up.is_some_and(|r| key > r) {
                self.keys.push(Reverse(key));
                return Ok(None);
            }
        }
    }
}
