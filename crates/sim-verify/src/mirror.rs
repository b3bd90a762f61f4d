//! The value referee: every read returns the last write.
//!
//! [`MirrorOracle`] applies a program's operation to an engine and checks
//! the payload every read hands back against the block's last write — the
//! property Path ORAM's correctness argument states (Stefanov et al.):
//! whatever the protocol fetched, evicted, reshuffled, sealed or retried in
//! between, a read returns what the last write stored, and a block never
//! written reads as nothing. It keeps no bytes: a write's payload is a
//! function of the block and of the access index that wrote it, so the
//! mirror is one index per written block, and the bytes a read expects are
//! regenerated into the one buffer writes are made in.

use std::hash::Hasher;

use ring_oram::fasthash::{DetHashMap, DetHasher};
use ring_oram::{AccessOutcome, BlockId, ObliviousProtocol, Op};

use crate::violation::{Rule, Violation};

/// A mirror of every block's last write, checking each read against it.
#[derive(Debug)]
pub struct MirrorOracle {
    /// The access index of each written block's last write.
    last_write: DetHashMap<BlockId, u64>,
    /// A write's payload, or the bytes a read expects: `block_bytes` long.
    buf: Vec<u8>,
    reads: u64,
    writes: u64,
    violations: Vec<Violation>,
}

/// The payload access `index` writes to `block`: the index in the first
/// word, then a hash chain over both.
fn payload(buf: &mut [u8], block: BlockId, index: u64) {
    let mut words = DetHasher::default();
    words.write_u64(block.0);
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        words.write_u64(index);
        let word = if i == 0 { index } else { words.finish() };
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
    }
}

impl MirrorOracle {
    /// An empty mirror for payloads of `block_bytes` bytes.
    #[must_use]
    pub fn new(block_bytes: usize) -> Self {
        Self {
            last_write: DetHashMap::default(),
            buf: vec![0; block_bytes],
            reads: 0,
            writes: 0,
            violations: Vec::new(),
        }
    }

    /// Pre-sizes the mirror for `n` further accesses: no steady-state growth.
    pub fn reserve(&mut self, n: usize) {
        self.last_write.reserve(n);
    }

    /// Performs access `index` of the program on `oram`: a write stores the
    /// payload derived from `(block, index)`, a read's payload is checked
    /// against the block's last write.
    ///
    /// # Panics
    ///
    /// As [`ObliviousProtocol::operate`]: the mirror's `block_bytes` must
    /// be the engine's.
    pub fn apply(
        &mut self,
        oram: &mut dyn ObliviousProtocol,
        block: BlockId,
        is_write: bool,
        index: u64,
    ) -> AccessOutcome {
        if is_write {
            payload(&mut self.buf, block, index);
            self.last_write.insert(block, index);
            self.writes += 1;
            return oram.operate(block, Op::Write(&self.buf)).0;
        }
        let (outcome, got) = oram.operate(block, Op::Read);
        self.check_read(block, index, got);
        outcome
    }

    /// Checks that access `index`, a read of `block`, returned `got`: the
    /// payload of the block's last write, or nothing when it has none.
    fn check_read(&mut self, block: BlockId, index: u64, got: Option<&[u8]>) {
        self.reads += 1;
        let expected = self.last_write.get(&block).copied();
        if let Some(w) = expected {
            payload(&mut self.buf, block, w);
        }
        if got == expected.map(|_| &self.buf[..]) {
            return;
        }
        let observed = match got {
            None => "no payload".to_owned(),
            Some(bytes) => {
                let mut word = [0u8; 8];
                let n = bytes.len().min(8);
                word[..n].copy_from_slice(&bytes[..n]);
                let w = u64::from_le_bytes(word);
                payload(&mut self.buf, block, w);
                if bytes == self.buf {
                    format!("write {w}")
                } else {
                    "garbled bytes".to_owned()
                }
            }
        };
        let expected = expected.map_or("no payload".to_owned(), |w| format!("write {w}"));
        self.violations.push(Violation::new(
            index,
            Rule::ValueMismatch,
            format!("{block} read by access {index}: expected {expected}, observed {observed}"),
        ));
    }

    /// Reads checked so far.
    #[must_use]
    pub fn reads_checked(&self) -> u64 {
        self.reads
    }

    /// Writes mirrored so far.
    #[must_use]
    pub fn writes_checked(&self) -> u64 {
        self.writes
    }

    /// Drains the findings since the last call.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(block: u64, index: u64) -> Vec<u8> {
        let mut buf = vec![0; 64];
        payload(&mut buf, BlockId(block), index);
        buf
    }

    /// One read of block 3 by access 9, after block 3 was written by access
    /// 4 when `written`: the findings it makes.
    fn findings(written: bool, got: Option<&[u8]>) -> Vec<Violation> {
        let mut oracle = MirrorOracle::new(64);
        if written {
            oracle.last_write.insert(BlockId(3), 4);
        }
        oracle.check_read(BlockId(3), 9, got);
        assert_eq!(oracle.reads_checked(), 1);
        oracle.take_violations()
    }

    #[test]
    fn the_last_write_and_an_unwritten_block_read_clean() {
        assert!(findings(true, Some(&bytes(3, 4))).is_empty());
        assert!(findings(false, None).is_empty());
    }

    #[test]
    fn wrong_bytes_are_one_mismatch() {
        let mut garbled = bytes(3, 4);
        garbled[40] ^= 0x10;
        for (got, observed) in [(garbled, "garbled bytes"), (bytes(3, 2), "write 2")] {
            let v = findings(true, Some(&got));
            assert_eq!(v.len(), 1);
            assert_eq!((v[0].rule, v[0].cycle), (Rule::ValueMismatch, 9));
            let want = format!("B3 read by access 9: expected write 4, observed {observed}");
            assert!(v[0].message.contains(&want), "{}", v[0]);
        }
    }

    #[test]
    fn bytes_for_a_never_written_block_are_one_mismatch() {
        let v = findings(false, Some(&bytes(3, 7)));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ValueMismatch);
        assert!(v[0]
            .message
            .contains("expected no payload, observed write 7"));
    }

    #[test]
    fn none_after_a_write_is_one_mismatch() {
        let v = findings(true, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ValueMismatch);
        assert!(v[0]
            .message
            .contains("expected write 4, observed no payload"));
    }

    #[test]
    fn payloads_differ_by_block_and_by_write() {
        assert_ne!(bytes(3, 4), bytes(3, 5));
        assert_ne!(bytes(3, 4), bytes(2, 4));
        let mut short = [0u8; 5];
        payload(&mut short, BlockId(3), 4);
        assert_eq!(short, [4, 0, 0, 0, 0]);
    }
}
