//! Trace-driven core model.
//!
//! Table I's CMP (4 cores, 4-wide, 128-entry ROB) is modeled at the level
//! that matters to the memory system: each core retires up to
//! `retire_width x cpu_cycles_per_mem_cycle` instructions per memory cycle
//! until it reaches the next memory operation in its trace, issues it, and
//! continues — up to `max_outstanding` misses may be in flight before the
//! core stalls (the ROB's memory-level parallelism). With
//! `max_outstanding = 1` the core blocks on every miss, the conservative
//! model; ORAM serializes transactions at the controller anyway, so MLP
//! mainly keeps the ORAM request queue fed (see the `ablation_mlp`
//! experiment of `cargo bench --bench paper`).

use trace_synth::TraceRecord;

/// Execution state of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Retiring gap instructions (possibly with misses in flight).
    Running,
    /// At the outstanding-miss limit; waiting for a completion.
    Blocked,
    /// Trace exhausted (in-flight misses may still be draining).
    Done,
}

/// A memory operation a core wants serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Issuing core.
    pub core: usize,
    /// Block (cache-line) address.
    pub block: u64,
    /// Store or load.
    pub is_write: bool,
}

/// One trace-driven core.
#[derive(Debug, Clone)]
pub struct Core {
    id: usize,
    trace: Vec<TraceRecord>,
    next: usize,
    gap_remaining: u64,
    outstanding: usize,
    max_outstanding: usize,
    instructions_retired: u64,
    /// Memory cycles spent stalled at the outstanding-miss limit.
    blocked_cycles: u64,
}

impl Core {
    /// Creates a blocking-miss core (one outstanding miss) over its trace.
    #[must_use]
    pub fn new(id: usize, trace: Vec<TraceRecord>) -> Self {
        Self::with_mlp(id, trace, 1)
    }

    /// Creates a core that may keep up to `max_outstanding` misses in
    /// flight before stalling.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    #[must_use]
    pub fn with_mlp(id: usize, trace: Vec<TraceRecord>, max_outstanding: usize) -> Self {
        assert!(max_outstanding >= 1, "max_outstanding must be at least 1");
        let mut c = Self {
            id,
            trace,
            next: 0,
            gap_remaining: 0,
            outstanding: 0,
            max_outstanding,
            instructions_retired: 0,
            blocked_cycles: 0,
        };
        c.load_next_gap();
        c
    }

    fn load_next_gap(&mut self) {
        if self.next < self.trace.len() {
            self.gap_remaining = u64::from(self.trace[self.next].gap_instructions);
        }
    }

    /// Core id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> CoreState {
        if self.next >= self.trace.len() {
            CoreState::Done
        } else if self.outstanding >= self.max_outstanding {
            CoreState::Blocked
        } else {
            CoreState::Running
        }
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// Memory cycles spent stalled at the miss limit so far.
    #[must_use]
    pub fn blocked_cycles(&self) -> u64 {
        self.blocked_cycles
    }

    /// Trace records consumed (memory ops issued) so far.
    #[must_use]
    pub fn records_consumed(&self) -> usize {
        self.next
    }

    /// Misses currently in flight.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Advances the core by one memory cycle with an instruction budget of
    /// `ipc_budget`. Returns a [`CoreRequest`] when the core issues its
    /// next memory operation.
    pub fn tick(&mut self, ipc_budget: u64) -> Option<CoreRequest> {
        match self.state() {
            CoreState::Done => None,
            CoreState::Blocked => {
                self.blocked_cycles += 1;
                None
            }
            CoreState::Running => {
                let retired = self.gap_remaining.min(ipc_budget);
                self.gap_remaining -= retired;
                self.instructions_retired += retired;
                if self.gap_remaining > 0 {
                    return None;
                }
                // Gap done: issue the memory operation; the memory
                // instruction itself retires when the data returns.
                let rec = self.trace[self.next];
                self.next += 1;
                self.outstanding += 1;
                self.load_next_gap();
                Some(CoreRequest {
                    core: self.id,
                    block: rec.op.block,
                    is_write: rec.op.is_write,
                })
            }
        }
    }

    /// Completes one outstanding memory operation: the memory instruction
    /// retires and (if the core was at its limit) execution resumes.
    ///
    /// # Panics
    ///
    /// Panics if no memory operation is outstanding.
    pub fn complete_memory_op(&mut self) {
        assert!(self.outstanding > 0, "core was not waiting");
        self.outstanding -= 1;
        self.instructions_retired += 1;
    }

    /// Whether the core consumed its whole trace **and** every in-flight
    /// miss has completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next >= self.trace.len() && self.outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(20, 100, false),
            TraceRecord::new(0, 200, true),
            TraceRecord::new(5, 300, false),
        ]
    }

    #[test]
    fn gap_paces_the_request() {
        let mut c = Core::new(0, trace());
        // 20-instruction gap at 16 IPC: nothing after 1 cycle.
        assert_eq!(c.tick(16), None);
        let req = c.tick(16).expect("request after gap");
        assert_eq!(req.block, 100);
        assert!(!req.is_write);
        assert_eq!(c.state(), CoreState::Blocked);
    }

    #[test]
    fn blocked_core_waits_and_counts() {
        let mut c = Core::new(0, trace());
        let _ = c.tick(16);
        let _ = c.tick(16).unwrap();
        assert_eq!(c.tick(16), None);
        assert_eq!(c.tick(16), None);
        assert_eq!(c.blocked_cycles(), 2);
        c.complete_memory_op();
        assert_eq!(c.state(), CoreState::Running);
    }

    #[test]
    fn zero_gap_issues_immediately() {
        let mut c = Core::new(1, trace());
        // The 20-instruction gap fits one 32-wide cycle, so the memory op
        // issues in that same cycle.
        let _ = c.tick(32).unwrap();
        c.complete_memory_op();
        // Second record has gap 0: issues on the very next tick.
        let req = c.tick(16).expect("immediate request");
        assert_eq!(req.block, 200);
        assert!(req.is_write);
        assert_eq!(req.core, 1);
    }

    #[test]
    fn trace_exhaustion() {
        let mut c = Core::new(0, trace());
        for _ in 0..3 {
            while c.tick(1000).is_none() {
                assert!(!c.is_done());
            }
            c.complete_memory_op();
        }
        assert!(c.is_done());
        assert_eq!(c.tick(16), None);
        // 20 + 0 + 5 gap instructions + 3 memory instructions.
        assert_eq!(c.instructions_retired(), 28);
        assert_eq!(c.records_consumed(), 3);
    }

    #[test]
    fn empty_trace_is_done_immediately() {
        let c = Core::new(0, Vec::new());
        assert!(c.is_done());
    }

    #[test]
    #[should_panic(expected = "core was not waiting")]
    fn complete_requires_outstanding() {
        let mut c = Core::new(0, trace());
        c.complete_memory_op();
    }

    #[test]
    fn mlp_overlaps_misses() {
        // With MLP 2, the second (gap 0) request issues while the first is
        // still outstanding.
        let mut c = Core::with_mlp(0, trace(), 2);
        let r1 = c.tick(32).expect("first miss");
        assert_eq!(r1.block, 100);
        assert_eq!(c.state(), CoreState::Running, "one slot still free");
        let r2 = c.tick(32).expect("second miss overlaps");
        assert_eq!(r2.block, 200);
        assert_eq!(c.outstanding(), 2);
        assert_eq!(c.state(), CoreState::Blocked);
        // Completions retire in-flight ops and resume execution.
        c.complete_memory_op();
        assert_eq!(c.state(), CoreState::Running);
        c.complete_memory_op();
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn done_waits_for_inflight_drain() {
        let mut c = Core::with_mlp(0, vec![TraceRecord::new(0, 1, false)], 2);
        let _ = c.tick(16).expect("miss");
        assert_eq!(c.state(), CoreState::Done, "trace consumed");
        assert!(!c.is_done(), "in-flight miss still draining");
        c.complete_memory_op();
        assert!(c.is_done());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_mlp_rejected() {
        let _ = Core::with_mlp(0, Vec::new(), 0);
    }
}
