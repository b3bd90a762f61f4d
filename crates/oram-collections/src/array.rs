//! A fixed-capacity oblivious array.

use ring_oram::{AccessOutcome, BlockId, ObliviousProtocol, RingConfig, RingOram};

/// Error returned by oblivious-collection operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectionError {
    /// Index beyond the declared capacity.
    IndexOutOfBounds {
        /// Offending index.
        index: u64,
        /// Declared capacity.
        capacity: u64,
    },
    /// Value longer than one block payload.
    ValueTooLarge {
        /// Supplied length.
        len: usize,
        /// Maximum payload bytes per element.
        max: usize,
    },
    /// The structure is full.
    Full,
    /// The structure is empty.
    Empty,
}

impl std::fmt::Display for CollectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::IndexOutOfBounds { index, capacity } => {
                write!(f, "index {index} out of bounds (capacity {capacity})")
            }
            Self::ValueTooLarge { len, max } => {
                write!(
                    f,
                    "value of {len} bytes exceeds the {max}-byte element size"
                )
            }
            Self::Full => write!(f, "collection is full"),
            Self::Empty => write!(f, "collection is empty"),
        }
    }
}

impl std::error::Error for CollectionError {}

/// A fixed-capacity array of fixed-size elements whose accesses are
/// oblivious: every `get`/`set` is exactly one ORAM access, so the physical
/// access sequence is independent of which index is touched.
///
/// Elements are stored length-prefixed inside one ORAM block each, so the
/// usable element size is `block_bytes - 2`.
///
/// # Examples
///
/// ```
/// use oram_collections::ObliviousArray;
/// use ring_oram::RingConfig;
///
/// let mut arr = ObliviousArray::new(RingConfig::test_small(), 64, 42);
/// arr.set(7, b"hello").unwrap();
/// assert_eq!(arr.get(7).unwrap(), Some(b"hello".to_vec()));
/// assert_eq!(arr.get(8).unwrap(), None);
/// ```
#[derive(Debug)]
pub struct ObliviousArray {
    oram: RingOram,
    capacity: u64,
    block_bytes: usize,
}

impl ObliviousArray {
    /// Creates an array of `capacity` elements backed by a Ring ORAM with
    /// configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid, `capacity` is zero, or the tree cannot
    /// hold `capacity` blocks at ~50 % utilization.
    #[must_use]
    pub fn new(cfg: RingConfig, capacity: u64, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        assert!(
            capacity * 2 <= cfg.real_capacity_blocks(),
            "capacity {} exceeds half the tree's real capacity {}",
            capacity,
            cfg.real_capacity_blocks()
        );
        let block_bytes = cfg.block_bytes as usize;
        assert!(block_bytes > 2, "blocks must hold a length prefix");
        Self {
            oram: RingOram::new(cfg, seed),
            capacity,
            block_bytes,
        }
    }

    /// Declared capacity in elements.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Maximum bytes per element.
    #[must_use]
    pub fn element_bytes(&self) -> usize {
        self.block_bytes - 2
    }

    /// The underlying ORAM engine (for statistics and invariant checks).
    #[must_use]
    pub fn oram(&self) -> &dyn ObliviousProtocol {
        &self.oram
    }

    fn check_index(&self, index: u64) -> Result<(), CollectionError> {
        if index >= self.capacity {
            Err(CollectionError::IndexOutOfBounds {
                index,
                capacity: self.capacity,
            })
        } else {
            Ok(())
        }
    }

    /// Reads element `index`; `None` if never written.
    ///
    /// # Errors
    ///
    /// [`CollectionError::IndexOutOfBounds`].
    pub fn get(&mut self, index: u64) -> Result<Option<Vec<u8>>, CollectionError> {
        self.check_index(index)?;
        let (_, data) = self.oram.read_block(BlockId(index));
        Ok(data.map(|d| decode(&d)))
    }

    /// Writes element `index`.
    ///
    /// # Errors
    ///
    /// [`CollectionError::IndexOutOfBounds`] or
    /// [`CollectionError::ValueTooLarge`].
    pub fn set(&mut self, index: u64, value: &[u8]) -> Result<AccessOutcome, CollectionError> {
        self.check_index(index)?;
        let encoded = encode(value, self.block_bytes).ok_or(CollectionError::ValueTooLarge {
            len: value.len(),
            max: self.element_bytes(),
        })?;
        Ok(self.oram.write_block(BlockId(index), &encoded))
    }
}

/// Encodes `value` into a fixed-size block: 2-byte little-endian length
/// prefix + payload + zero padding. Returns `None` when too large.
pub(crate) fn encode(value: &[u8], block_bytes: usize) -> Option<Vec<u8>> {
    if value.len() > block_bytes - 2 {
        return None;
    }
    let mut out = vec![0u8; block_bytes];
    let len = value.len() as u16;
    out[..2].copy_from_slice(&len.to_le_bytes());
    out[2..2 + value.len()].copy_from_slice(value);
    Some(out)
}

/// Decodes a block produced by [`encode`].
pub(crate) fn decode(block: &[u8]) -> Vec<u8> {
    let len = u16::from_le_bytes([block[0], block[1]]) as usize;
    block[2..2 + len.min(block.len() - 2)].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ObliviousArray {
        ObliviousArray::new(RingConfig::test_small(), 128, 1)
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = arr();
        a.set(0, b"zero").unwrap();
        a.set(127, b"last").unwrap();
        assert_eq!(a.get(0).unwrap(), Some(b"zero".to_vec()));
        assert_eq!(a.get(127).unwrap(), Some(b"last".to_vec()));
        assert_eq!(a.get(64).unwrap(), None);
    }

    #[test]
    fn overwrite_takes_latest() {
        let mut a = arr();
        a.set(5, b"one").unwrap();
        a.set(5, b"two").unwrap();
        assert_eq!(a.get(5).unwrap(), Some(b"two".to_vec()));
    }

    #[test]
    fn bounds_checked() {
        let mut a = arr();
        assert_eq!(
            a.get(128),
            Err(CollectionError::IndexOutOfBounds {
                index: 128,
                capacity: 128
            })
        );
        // set() shares the bounds check (AccessOutcome is not Eq; compare
        // the error side only).
        assert!(a.set(200, b"x").is_err());
    }

    #[test]
    fn value_size_checked() {
        let mut a = arr();
        let too_big = vec![0u8; a.element_bytes() + 1];
        assert_eq!(
            a.set(0, &too_big).unwrap_err(),
            CollectionError::ValueTooLarge {
                len: too_big.len(),
                max: a.element_bytes()
            }
        );
        // Exactly the maximum fits.
        let max = vec![7u8; a.element_bytes()];
        a.set(0, &max).unwrap();
        assert_eq!(a.get(0).unwrap(), Some(max));
    }

    #[test]
    fn empty_values_roundtrip() {
        let mut a = arr();
        a.set(3, b"").unwrap();
        assert_eq!(a.get(3).unwrap(), Some(Vec::new()));
    }

    #[test]
    fn every_access_is_one_oram_access() {
        let mut a = arr();
        let before = a.oram().stats().read_paths;
        a.set(1, b"x").unwrap();
        let _ = a.get(2).unwrap();
        let _ = a.get(1).unwrap();
        assert_eq!(a.oram().stats().read_paths, before + 3);
    }

    #[test]
    fn survives_churn() {
        let mut a = arr();
        for round in 0..10u64 {
            for i in 0..50u64 {
                a.set(i, format!("v{}-{}", i, round).as_bytes()).unwrap();
            }
            for i in 0..50u64 {
                assert_eq!(
                    a.get(i).unwrap(),
                    Some(format!("v{}-{}", i, round).into_bytes())
                );
            }
        }
        a.oram().check_invariants();
    }

    #[test]
    fn encode_decode_roundtrip() {
        for len in [0usize, 1, 10, 62] {
            let v: Vec<u8> = (0..len as u8).collect();
            let e = encode(&v, 64).unwrap();
            assert_eq!(e.len(), 64);
            assert_eq!(decode(&e), v);
        }
        assert!(encode(&[0u8; 63], 64).is_none());
    }
}
