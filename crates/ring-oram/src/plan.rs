//! Access plans: the physical slot touches one ORAM operation generates.
//!
//! The protocol layer is deliberately decoupled from timing: each logical
//! program access expands into a sequence of [`AccessPlan`]s, and each plan
//! becomes one **ORAM transaction** at the memory controller (the atomic,
//! ordered unit of the paper's transaction-based scheduling).

use crate::types::BucketId;

/// The kind of ORAM operation a plan represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Selective read-path operation serving a program request.
    ReadPath,
    /// A read path issued purely to reach the eviction interval without
    /// leaking that the stash is filling (background eviction support).
    DummyReadPath,
    /// The periodic eviction: full path read + write in reverse
    /// lexicographic order.
    Eviction,
    /// Early reshuffle of a single over-touched bucket.
    EarlyReshuffle,
    /// Bounded re-reads of slots whose fetched blocks failed their
    /// integrity check (fault recovery). Retry touches re-read already
    /// public slots, so they reveal only where a fault occurred — never
    /// data-dependent state.
    RetryRead,
}

impl OpKind {
    /// Short label used in reports ("read", "evict", ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::ReadPath => "read",
            Self::DummyReadPath => "dummy-read",
            Self::Eviction => "evict",
            Self::EarlyReshuffle => "reshuffle",
            Self::RetryRead => "retry",
        }
    }

    /// Whether the operation sits on the program's critical path (the
    /// paper's "read path operation is always a critical operation").
    /// Retry reads block the program only when the *target* fetch was the
    /// one retried, which the plan's `target_index` records; the kind
    /// itself stays non-critical.
    #[must_use]
    pub fn is_critical(self) -> bool {
        matches!(self, Self::ReadPath)
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One physical slot access within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTouch {
    /// Bucket being touched.
    pub bucket: BucketId,
    /// Slot index within the bucket.
    pub slot: u32,
    /// `true` for a write-back, `false` for a read.
    pub write: bool,
}

impl SlotTouch {
    /// A read touch.
    #[must_use]
    pub fn read(bucket: BucketId, slot: u32) -> Self {
        Self {
            bucket,
            slot,
            write: false,
        }
    }

    /// A write touch.
    #[must_use]
    pub fn write(bucket: BucketId, slot: u32) -> Self {
        Self {
            bucket,
            slot,
            write: true,
        }
    }
}

/// The physical footprint of one ORAM operation: an ordered list of slot
/// touches, executed atomically and in order as one memory transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    /// Operation type.
    pub kind: OpKind,
    /// Slot touches in issue order (reads of a phase precede writes).
    pub touches: Vec<SlotTouch>,
    /// Index into `touches` of the read that returns the program's block,
    /// when this plan serves a program request from the tree.
    pub target_index: Option<usize>,
}

impl AccessPlan {
    /// Creates a plan; `target_index`, if given, must index a read touch.
    ///
    /// # Panics
    ///
    /// Panics if `target_index` is out of range or points at a write.
    #[must_use]
    pub fn new(kind: OpKind, touches: Vec<SlotTouch>, target_index: Option<usize>) -> Self {
        if let Some(i) = target_index {
            assert!(i < touches.len(), "target_index out of range");
            assert!(!touches[i].write, "target must be a read");
        }
        Self {
            kind,
            touches,
            target_index,
        }
    }

    /// Number of read touches.
    #[must_use]
    pub fn reads(&self) -> usize {
        self.touches.iter().filter(|t| !t.write).count()
    }

    /// Number of write touches.
    #[must_use]
    pub fn writes(&self) -> usize {
        self.touches.iter().filter(|t| t.write).count()
    }
}

/// The crate's one pool of plan and touch vectors. All three engines draw
/// the vectors backing an `AccessOutcome` from here and get them back
/// through their `recycle_outcome`, which is what keeps a warm engine's
/// access path allocation-free; callers that drop outcomes instead just
/// let the pool refill lazily.
#[derive(Debug, Default)]
pub(crate) struct PlanPool {
    plan_lists: Vec<Vec<AccessPlan>>,
    touch_lists: Vec<Vec<SlotTouch>>,
}

impl PlanPool {
    /// An empty plan vector, pooled if one is available.
    pub(crate) fn plans(&mut self) -> Vec<AccessPlan> {
        self.plan_lists.pop().unwrap_or_default()
    }

    /// An empty touch vector, pooled if one is available and otherwise
    /// allocated with room for `capacity` touches.
    pub(crate) fn touches(&mut self, capacity: usize) -> Vec<SlotTouch> {
        self.touch_lists
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(capacity))
    }

    /// Takes back a touch vector that ended up in no plan.
    pub(crate) fn put_touches(&mut self, mut touches: Vec<SlotTouch>) {
        touches.clear();
        self.touch_lists.push(touches);
    }

    /// Takes back an outcome's plan vector and every touch vector in it.
    pub(crate) fn recycle(&mut self, mut plans: Vec<AccessPlan>) {
        for plan in plans.drain(..) {
            self.put_touches(plan.touches);
        }
        self.plan_lists.push(plans);
    }

    /// Pooled `(plan vectors, touch vectors)`.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> (usize, usize) {
        (self.plan_lists.len(), self.touch_lists.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            OpKind::ReadPath,
            OpKind::DummyReadPath,
            OpKind::Eviction,
            OpKind::EarlyReshuffle,
            OpKind::RetryRead,
        ]
        .into_iter()
        .map(OpKind::label)
        .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn only_read_path_is_critical() {
        assert!(OpKind::ReadPath.is_critical());
        assert!(!OpKind::DummyReadPath.is_critical());
        assert!(!OpKind::Eviction.is_critical());
        assert!(!OpKind::EarlyReshuffle.is_critical());
        assert!(!OpKind::RetryRead.is_critical());
    }

    #[test]
    fn read_write_counts() {
        let plan = AccessPlan::new(
            OpKind::Eviction,
            vec![
                SlotTouch::read(BucketId(0), 0),
                SlotTouch::read(BucketId(1), 1),
                SlotTouch::write(BucketId(0), 0),
            ],
            None,
        );
        assert_eq!(plan.reads(), 2);
        assert_eq!(plan.writes(), 1);
    }

    #[test]
    fn target_index_validated() {
        let touches = vec![SlotTouch::read(BucketId(0), 0)];
        let plan = AccessPlan::new(OpKind::ReadPath, touches, Some(0));
        assert_eq!(plan.target_index, Some(0));
    }

    #[test]
    #[should_panic(expected = "target must be a read")]
    fn target_cannot_be_a_write() {
        let touches = vec![SlotTouch::write(BucketId(0), 0)];
        let _ = AccessPlan::new(OpKind::ReadPath, touches, Some(0));
    }

    #[test]
    #[should_panic(expected = "target_index out of range")]
    fn target_range_checked() {
        let _ = AccessPlan::new(OpKind::ReadPath, vec![], Some(0));
    }
}
