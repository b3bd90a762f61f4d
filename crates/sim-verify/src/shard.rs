//! Cross-shard residency auditing for the sharded simulation engine.
//!
//! A sharded run partitions the block address space across `N` independent
//! ORAM instances. Two global invariants must hold at any merge point:
//!
//! 1. **Disjoint residency** — no global block address is resident in more
//!    than one shard (a duplicated block would mean duplicated, divergent
//!    state);
//! 2. **Routing consistency** — every block resident in shard `s` actually
//!    belongs there under the routing function (`block mod N == s`), i.e.
//!    the local→global renumbering was applied correctly.
//!
//! The auditor is passive: it consumes per-shard residency snapshots (the
//! protocol layer's position-map entries, renumbered to global addresses)
//! and reports [`Violation`]s with [`Rule::ShardResidency`]. Feed it shards
//! in shard-id order so the violation stream is deterministic.

use std::collections::HashMap;

use crate::violation::{Rule, Violation};

/// Checks the cross-shard residency invariants over one merge point.
///
/// # Examples
///
/// ```
/// use sim_verify::shard::ShardResidencyAuditor;
///
/// let mut auditor = ShardResidencyAuditor::new(2);
/// auditor.record_shard(0, [0u64, 2, 4].iter().copied());
/// auditor.record_shard(1, [1u64, 3].iter().copied());
/// assert!(auditor.finish().is_empty());
/// ```
#[derive(Debug)]
pub struct ShardResidencyAuditor {
    shards: usize,
    /// Global block address → shard id of first sighting.
    seen: HashMap<u64, usize>,
    violations: Vec<Violation>,
}

impl ShardResidencyAuditor {
    /// An auditor for a run with `shards` partitions (`block mod shards`
    /// routing).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            seen: HashMap::new(),
            violations: Vec::new(),
        }
    }

    /// Records the residency snapshot of one shard: the *global* addresses
    /// of every block the shard currently holds (position map + stash).
    /// Call once per shard, in shard-id order.
    pub fn record_shard(&mut self, shard: usize, resident: impl Iterator<Item = u64>) {
        for block in resident {
            let expected = (block % self.shards as u64) as usize;
            if expected != shard {
                self.violations.push(Violation::new(
                    block,
                    Rule::ShardResidency,
                    format!(
                        "block {block} resident in shard {shard} but routes to shard {expected}"
                    ),
                ));
            }
            if let Some(&first) = self.seen.get(&block) {
                if first != shard {
                    self.violations.push(Violation::new(
                        block,
                        Rule::ShardResidency,
                        format!("block {block} resident in both shard {first} and shard {shard}"),
                    ));
                }
            } else {
                self.seen.insert(block, shard);
            }
        }
    }

    /// Consumes the auditor and returns every violation found.
    #[must_use]
    pub fn finish(self) -> Vec<Violation> {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_partitions_pass() {
        let mut a = ShardResidencyAuditor::new(4);
        for shard in 0..4usize {
            a.record_shard(shard, (0..32u64).map(|i| i * 4 + shard as u64));
        }
        assert_eq!(a.seen.len(), 128);
        assert!(a.finish().is_empty());
    }

    #[test]
    fn duplicate_residency_is_flagged() {
        let mut a = ShardResidencyAuditor::new(2);
        a.record_shard(0, [0u64, 2].iter().copied());
        // Block 2 also claimed by shard 1: both a routing and a duplication
        // violation (2 routes to shard 0).
        a.record_shard(1, [1u64, 2].iter().copied());
        let v = a.finish();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == Rule::ShardResidency));
        assert!(v
            .iter()
            .any(|v| v.message.contains("both shard 0 and shard 1")));
    }

    #[test]
    fn misrouted_block_is_flagged() {
        let mut a = ShardResidencyAuditor::new(2);
        a.record_shard(0, [1u64].iter().copied());
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("routes to shard 1"));
    }

    #[test]
    fn singleton_run_accepts_everything() {
        let mut a = ShardResidencyAuditor::new(1);
        a.record_shard(0, (0..100u64).chain(0..100u64));
        assert!(a.finish().is_empty());
    }
}
