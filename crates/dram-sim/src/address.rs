//! Physical address interpretation.
//!
//! The memory controller splits a flat physical byte address into DRAM
//! coordinates (channel, rank, bank, row, column) by slicing bit fields. The
//! *order* of the fields — which bits map to which coordinate — determines
//! how consecutive addresses spread over the module and therefore how much
//! channel/bank parallelism and row-buffer locality an access stream sees.
//!
//! The paper fixes the order to `row:bank:column:rank:channel:offset`
//! (most-significant field first), which combined with the subtree data
//! layout maximizes row-buffer locality for tree-based ORAM (Ren et al.).

use crate::geometry::DramGeometry;

/// A flat physical byte address.
///
/// Newtype so that physical addresses cannot be confused with ORAM block
/// indices or program addresses at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

/// Decoded DRAM coordinates of a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Column (cache-line) index within the row.
    pub column: u32,
}

impl DramLocation {
    /// A flat identifier for the (channel, rank, bank) triple, useful as a
    /// key for per-bank bookkeeping.
    #[must_use]
    pub fn bank_key(&self, geometry: &DramGeometry) -> u32 {
        (self.channel * geometry.ranks_per_channel + self.rank) * geometry.banks_per_rank
            + self.bank
    }
}

/// One bit-field of the address mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Byte offset within a column (cache line); never reaches the DRAM.
    Offset,
    /// Channel select bits.
    Channel,
    /// Rank select bits.
    Rank,
    /// Column select bits.
    Column,
    /// Bank select bits.
    Bank,
    /// Row select bits.
    Row,
}

/// Bit-field address mapping: a permutation of [`Field`]s from least- to
/// most-significant, with widths derived from a [`DramGeometry`].
///
/// # Examples
///
/// ```
/// use dram_sim::address::{AddressMapping, PhysAddr};
/// use dram_sim::geometry::DramGeometry;
///
/// let g = DramGeometry::hpca_default();
/// let m = AddressMapping::hpca_default(&g);
/// // Consecutive cache lines stripe across the four channels first.
/// assert_eq!(m.decode(PhysAddr(0)).channel, 0);
/// assert_eq!(m.decode(PhysAddr(64)).channel, 1);
/// assert_eq!(m.decode(PhysAddr(128)).channel, 2);
/// assert_eq!(m.decode(PhysAddr(256)).channel, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapping {
    /// Fields from least significant to most significant.
    order_lsb_first: Vec<Field>,
    /// Bit width of each field, parallel to `order_lsb_first`.
    widths: Vec<u32>,
    /// Precomputed per-coordinate extraction, for the branch-free decode
    /// on the per-request hot path.
    plan: DecodePlan,
    geometry: DramGeometry,
}

/// `(shift, mask)` of each coordinate within a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct DecodePlan {
    channel: (u32, u64),
    rank: (u32, u64),
    column: (u32, u64),
    bank: (u32, u64),
    row: (u32, u64),
}

impl DecodePlan {
    fn new(order_lsb_first: &[Field], widths: &[u32]) -> Self {
        let mut plan = Self::default();
        let mut shift = 0u32;
        for (field, &width) in order_lsb_first.iter().zip(widths) {
            let part = (shift, (1u64 << width) - 1);
            match field {
                Field::Offset => {}
                Field::Channel => plan.channel = part,
                Field::Rank => plan.rank = part,
                Field::Column => plan.column = part,
                Field::Bank => plan.bank = part,
                Field::Row => plan.row = part,
            }
            shift += width;
        }
        plan
    }
}

impl AddressMapping {
    /// Builds a mapping with the given field order (least-significant field
    /// first). Field widths are derived from `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if `order_lsb_first` is not a permutation of all six fields or
    /// if the geometry fails [`DramGeometry::validate`].
    #[must_use]
    pub fn new(geometry: &DramGeometry, order_lsb_first: &[Field]) -> Self {
        if let Err(e) = geometry.validate() {
            panic!("invalid DramGeometry: {e}");
        }
        assert_eq!(order_lsb_first.len(), 6, "mapping must list all 6 fields");
        for f in [
            Field::Offset,
            Field::Channel,
            Field::Rank,
            Field::Column,
            Field::Bank,
            Field::Row,
        ] {
            assert!(
                order_lsb_first.contains(&f),
                "mapping must contain {f:?} exactly once"
            );
        }
        let widths: Vec<u32> = order_lsb_first
            .iter()
            .map(|f| Self::field_width(geometry, *f))
            .collect();
        Self {
            plan: DecodePlan::new(order_lsb_first, &widths),
            order_lsb_first: order_lsb_first.to_vec(),
            widths,
            geometry: geometry.clone(),
        }
    }

    /// The paper's mapping, `row:bank:column:rank:channel:offset` written
    /// most-significant-first — i.e. offset in the lowest bits, then channel,
    /// rank, column, bank, and row on top.
    #[must_use]
    pub fn hpca_default(geometry: &DramGeometry) -> Self {
        Self::new(
            geometry,
            &[
                Field::Offset,
                Field::Channel,
                Field::Rank,
                Field::Column,
                Field::Bank,
                Field::Row,
            ],
        )
    }

    /// A row-interleaved mapping (`channel:rank:bank:row:column:offset`
    /// MSB-first) that sacrifices channel parallelism for naive contiguity;
    /// used by the layout ablation.
    #[must_use]
    pub fn sequential(geometry: &DramGeometry) -> Self {
        Self::new(
            geometry,
            &[
                Field::Offset,
                Field::Column,
                Field::Row,
                Field::Bank,
                Field::Rank,
                Field::Channel,
            ],
        )
    }

    fn field_width(g: &DramGeometry, f: Field) -> u32 {
        let count: u64 = match f {
            Field::Offset => u64::from(g.column_bytes),
            Field::Channel => u64::from(g.channels),
            Field::Rank => u64::from(g.ranks_per_channel),
            Field::Column => u64::from(g.columns_per_row),
            Field::Bank => u64::from(g.banks_per_rank),
            Field::Row => g.rows_per_bank,
        };
        count.trailing_zeros()
    }

    /// Geometry the mapping was built for.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Decodes a physical address into DRAM coordinates.
    ///
    /// Address bits above the mapping's widths wrap around (the simulated
    /// module aliases, which is harmless because the layout layer guarantees
    /// in-range addresses).
    #[must_use]
    pub fn decode(&self, addr: PhysAddr) -> DramLocation {
        let a = addr.0;
        let part = |(shift, mask): (u32, u64)| (a >> shift) & mask;
        DramLocation {
            channel: part(self.plan.channel) as u32,
            rank: part(self.plan.rank) as u32,
            bank: part(self.plan.bank) as u32,
            row: part(self.plan.row),
            column: part(self.plan.column) as u32,
        }
    }

    /// Encodes DRAM coordinates back into a physical address (offset 0).
    ///
    /// Inverse of [`Self::decode`] for in-range coordinates.
    #[must_use]
    pub fn encode(&self, loc: &DramLocation) -> PhysAddr {
        let mut addr = 0u64;
        let mut shift = 0u32;
        for (field, width) in self.order_lsb_first.iter().zip(&self.widths) {
            let v = match field {
                Field::Offset => 0,
                Field::Channel => u64::from(loc.channel),
                Field::Rank => u64::from(loc.rank),
                Field::Column => u64::from(loc.column),
                Field::Bank => u64::from(loc.bank),
                Field::Row => loc.row,
            };
            debug_assert!(v < (1u64 << width) || *width == 0, "{field:?} out of range");
            addr |= v << shift;
            shift += width;
        }
        PhysAddr(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_pair() -> (DramGeometry, AddressMapping) {
        let g = DramGeometry::hpca_default();
        let m = AddressMapping::hpca_default(&g);
        (g, m)
    }

    #[test]
    fn address_bits_match_capacity() {
        let (g, m) = default_pair();
        assert_eq!(1u64 << m.widths.iter().sum::<u32>(), g.capacity_bytes());
    }

    #[test]
    fn consecutive_lines_stripe_channels() {
        let (_, m) = default_pair();
        for i in 0..8u64 {
            let loc = m.decode(PhysAddr(i * 64));
            assert_eq!(loc.channel, (i % 4) as u32, "line {i}");
            assert_eq!(loc.column, (i / 4) as u32, "line {i}");
            assert_eq!(loc.row, 0);
            assert_eq!(loc.bank, 0);
        }
    }

    #[test]
    fn bank_changes_after_columns_exhaust() {
        let (g, m) = default_pair();
        // One full row set across all channels:
        let row_set = g.row_bytes() * u64::from(g.channels);
        let last_of_bank0 = m.decode(PhysAddr(row_set - 64));
        let first_of_bank1 = m.decode(PhysAddr(row_set));
        assert_eq!(last_of_bank0.bank, 0);
        assert_eq!(first_of_bank1.bank, 1);
        assert_eq!(first_of_bank1.row, 0);
        assert_eq!(first_of_bank1.column, 0);
    }

    #[test]
    fn row_changes_after_banks_exhaust() {
        let (g, m) = default_pair();
        let per_row_index = g.row_bytes() * u64::from(g.channels) * u64::from(g.banks_per_rank);
        let loc = m.decode(PhysAddr(per_row_index));
        assert_eq!(loc.row, 1);
        assert_eq!(loc.bank, 0);
        assert_eq!(loc.channel, 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (_, m) = default_pair();
        let loc = DramLocation {
            channel: 3,
            rank: 0,
            bank: 5,
            row: 12345,
            column: 55,
        };
        assert_eq!(m.decode(m.encode(&loc)), loc);
    }

    #[test]
    fn sequential_mapping_keeps_channel_in_msbs() {
        let g = DramGeometry::hpca_default();
        let m = AddressMapping::sequential(&g);
        // The first channel's worth of capacity stays in channel 0.
        let quarter = g.capacity_bytes() / u64::from(g.channels);
        assert_eq!(m.decode(PhysAddr(0)).channel, 0);
        assert_eq!(m.decode(PhysAddr(quarter - 64)).channel, 0);
        assert_eq!(m.decode(PhysAddr(quarter)).channel, 1);
    }

    #[test]
    fn bank_key_is_unique_per_bank() {
        let (g, m) = default_pair();
        let mut seen = std::collections::HashSet::new();
        for channel in 0..g.channels {
            for bank in 0..g.banks_per_rank {
                let loc = DramLocation {
                    channel,
                    rank: 0,
                    bank,
                    row: 0,
                    column: 0,
                };
                // Round-trip through an address to confirm the key survives.
                let decoded = m.decode(m.encode(&loc));
                assert!(seen.insert(decoded.bank_key(&g)), "duplicate key");
            }
        }
        assert_eq!(seen.len(), g.total_banks() as usize);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(PhysAddr(0x40).to_string(), "0x40");
    }

    #[test]
    #[should_panic(expected = "mapping must list all 6 fields")]
    fn incomplete_mapping_panics() {
        let g = DramGeometry::hpca_default();
        let _ = AddressMapping::new(&g, &[Field::Offset, Field::Row]);
    }
}
