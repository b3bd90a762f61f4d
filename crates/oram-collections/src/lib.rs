//! # oram-collections — oblivious data structures over any ORAM engine
//!
//! The String ORAM paper motivates ORAM with programs whose *data-structure
//! traversals* leak secrets (searchable encryption, DNN extraction, RSA key
//! recovery). This crate closes the loop for downstream users: classic
//! collections whose **physical access pattern is independent of the keys,
//! indices and operations performed**, built on the payload-carrying
//! `operate` (an `Op::Read` or an `Op::Write`) of any `ring-oram` engine
//! (Ring+CB, Ring, Path or Circuit, as a `Box<dyn ObliviousProtocol>`):
//!
//! * [`ObliviousArray`] — one ORAM access per `get`/`set`;
//! * [`ObliviousMap`] — fixed-probe open addressing: every operation walks
//!   exactly [`ObliviousMap::PROBES`] slots, so hits, misses, inserts and
//!   updates are indistinguishable;
//! * [`ObliviousStack`] / [`ObliviousQueue`] — push/pop/enqueue/dequeue with
//!   on-ORAM headers and dummy accesses on the empty/full paths, hiding
//!   occupancy and whether the operation succeeded;
//! * [`ObliviousHeap`] — a priority queue whose push/pop cost a fixed
//!   number of accesses determined only by the capacity.
//!
//! A failed or missed operation pads with the accesses it skips (a read of
//! an in-range block is the same access on the bus as a write), so every
//! operation's access count depends only on the operation and the
//! capacity. Combined with `string-oram`'s timing stack these let you price
//! an oblivious workload end to end: protocol accesses per operation here,
//! DRAM cycles per access there.
//!
//! # Example
//!
//! ```
//! use oram_collections::ObliviousMap;
//! use ring_oram::{ProtocolKind, RingConfig};
//!
//! let engine = ProtocolKind::RingCb.engine(&RingConfig::test_small_cb(), 1, 0.7);
//! let mut index = ObliviousMap::new(engine, 128);
//! index.put(b"patient-993", b"record-17")?;
//! assert_eq!(index.get(b"patient-993")?, Some(b"record-17".to_vec()));
//! // A miss costs exactly the same accesses as the hit above.
//! assert_eq!(index.get(b"patient-000")?, None);
//! # Ok::<(), oram_collections::CollectionError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod array;
pub mod heap;
pub mod map;
pub mod queue;
pub mod stack;

pub use array::{CollectionError, ObliviousArray};
pub use heap::ObliviousHeap;
pub use map::ObliviousMap;
pub use queue::ObliviousQueue;
pub use stack::ObliviousStack;

/// The engines the unit tests run every collection on.
#[cfg(test)]
mod testing {
    use ring_oram::{ObliviousProtocol, ProtocolKind, RingConfig};

    /// One engine of each protocol over `RingConfig::test_small_cb`'s tree.
    pub(crate) fn engines(seed: u64) -> impl Iterator<Item = Box<dyn ObliviousProtocol>> {
        ProtocolKind::ALL
            .into_iter()
            .map(move |kind| kind.engine(&RingConfig::test_small_cb(), seed, 0.7))
    }
}
