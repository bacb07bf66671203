//! Memory-controller address mapping: physical byte address ⇄ (bank, row,
//! column).
//!
//! Real memory controllers spread consecutive physical addresses across
//! channels and banks with XOR functions, and may remap row indices, so that
//! physically adjacent *rows* do not correspond to monotonically increasing
//! physical *addresses* (DRAMA, Pessl et al. 2016). The paper exploits this
//! (§4.2): it lets an attacker find aggressor/victim row triples whose backing
//! addresses straddle the attacker/victim partition boundary. We provide both
//! a trivially linear mapping and an XOR+affine-swizzled family.

use ssdhammer_simkit::DramAddr;

use crate::geometry::{DramGeometry, Location};

/// How the controller scatters physical addresses over DRAM resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// `addr = [row | bank | col]`: consecutive addresses fill a row, then
    /// move to the next bank, then the next row. Rows are monotone in the
    /// address — the layout the paper calls *more challenging* for two-sided
    /// hammering of a linear L2P table.
    Linear,
    /// DRAMA-style: bank bits are XORed with low row bits (bank permutation),
    /// and the low `swizzle_bits` of the row index are remapped by an
    /// odd-multiplier affine map. Row adjacency is thereby decoupled from
    /// address adjacency *locally*: every aligned `2^swizzle_bits`-row group
    /// keeps its rows but reorders them, which is exactly how the paper's
    /// testbed exhibits "a contiguous run of three rows that do not have
    /// monotonically increasing physical addresses" (§4.2).
    XorSwizzle {
        /// Odd multiplier for the affine row swizzle.
        row_mul: u32,
        /// Additive constant for the affine row swizzle.
        row_add: u32,
        /// How many low row bits participate in the swizzle.
        swizzle_bits: u32,
    },
}

/// A concrete, invertible address mapping for a given geometry.
///
/// The shifts and masks of both directions are derived once at
/// construction, so a decode or encode is a handful of bit operations and
/// one multiply. `Linear` is the XOR/swizzle form with an empty bank XOR
/// and an empty swizzle, so both kinds share one branch-free decode.
///
/// # Examples
///
/// ```
/// use ssdhammer_dram::{AddressMapping, DramGeometry, MappingKind};
/// use ssdhammer_simkit::DramAddr;
///
/// let g = DramGeometry::ssd_onboard_512mib();
/// let m = AddressMapping::new(g, MappingKind::default_xor());
/// let loc = m.decode(DramAddr(0x12345));
/// assert_eq!(m.encode(loc), DramAddr(0x12345));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    geometry: DramGeometry,
    kind: MappingKind,
    /// Capacity in bytes.
    total_bytes: u64,
    /// Column (byte-in-row) bits of an address.
    col_bits: u32,
    /// Shift of the row field: column plus bank bits.
    row_shift: u32,
    /// Global bank count − 1.
    bank_mask: u32,
    /// Rows per bank − 1.
    row_mask: u32,
    /// Low row bits XORed into the bank field (`0` for `Linear`).
    bank_xor: u32,
    /// Low row bits the affine swizzle remaps (`0` for `Linear`).
    swizzle_mask: u32,
    row_mul: u32,
    row_add: u32,
    /// Inverse of `row_mul` modulo `swizzle_mask + 1`.
    row_mul_inv: u32,
}

impl MappingKind {
    /// The XOR/swizzle preset used throughout the experiments: a golden-ratio
    /// odd multiplier that scatters consecutive address-rows far apart.
    #[must_use]
    pub fn default_xor() -> Self {
        MappingKind::XorSwizzle {
            row_mul: 0x9E3779B9 | 1,
            row_add: 0x1234_5677,
            swizzle_bits: 4,
        }
    }
}

impl AddressMapping {
    /// Creates a mapping over `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`DramGeometry::validate`] or if an
    /// `XorSwizzle` multiplier is even (not invertible).
    #[must_use]
    pub fn new(geometry: DramGeometry, kind: MappingKind) -> Self {
        geometry.validate().expect("invalid geometry"); // lint:allow(P1) -- documented `# Panics` constructor contract
        let bank_mask = geometry.total_banks() - 1;
        let (bank_xor, swizzle_mask, row_mul, row_add, row_mul_inv) = match kind {
            MappingKind::Linear => (0, 0, 1, 0, 1),
            MappingKind::XorSwizzle {
                row_mul,
                row_add,
                swizzle_bits,
            } => {
                assert!(row_mul % 2 == 1, "row multiplier must be odd");
                let k = swizzle_bits.min(geometry.row_bits());
                let mask = (1u32 << k) - 1;
                (
                    bank_mask,
                    mask,
                    row_mul,
                    row_add,
                    mod_inverse_pow2(row_mul, k),
                )
            }
        };
        AddressMapping {
            geometry,
            kind,
            total_bytes: geometry.total_bytes().as_u64(),
            col_bits: geometry.col_bits(),
            row_shift: geometry.col_bits() + geometry.bank_bits(),
            bank_mask,
            row_mask: geometry.rows_per_bank - 1,
            bank_xor,
            swizzle_mask,
            row_mul,
            row_add,
            row_mul_inv,
        }
    }

    /// The geometry this mapping addresses.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The mapping function in use.
    #[must_use]
    pub fn kind(&self) -> MappingKind {
        self.kind
    }

    /// Capacity in bytes: every address below it decodes.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Decodes a physical byte address into its DRAM location.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry's capacity.
    #[must_use]
    pub fn decode(&self, addr: DramAddr) -> Location {
        let a = addr.as_u64();
        assert!(
            a < self.total_bytes,
            "address {addr} beyond DRAM capacity {}",
            self.geometry.total_bytes()
        );
        let col = (a & ((1u64 << self.col_bits) - 1)) as u32;
        let bank_field = (a >> self.col_bits) as u32 & self.bank_mask;
        let row_field = (a >> self.row_shift) as u32 & self.row_mask;
        let low = self
            .row_mul
            .wrapping_mul(row_field & self.swizzle_mask)
            .wrapping_add(self.row_add)
            & self.swizzle_mask;
        Location {
            bank: bank_field ^ (row_field & self.bank_xor),
            row: (row_field & !self.swizzle_mask) | low,
            col,
        }
    }

    /// Encodes a DRAM location back into its physical byte address — the
    /// inverse of [`AddressMapping::decode`].
    ///
    /// # Panics
    ///
    /// Panics if any component of `loc` is out of range for the geometry.
    #[must_use]
    pub fn encode(&self, loc: Location) -> DramAddr {
        let g = &self.geometry;
        assert!(loc.bank < g.total_banks(), "bank {} out of range", loc.bank);
        assert!(loc.row < g.rows_per_bank, "row {} out of range", loc.row);
        assert!(loc.col < g.row_bytes, "col {} out of range", loc.col);
        // Invert the affine map on the low bits: odd multipliers are units
        // mod 2^k.
        let low = self
            .row_mul_inv
            .wrapping_mul((loc.row & self.swizzle_mask).wrapping_sub(self.row_add))
            & self.swizzle_mask;
        let row_field = (loc.row & !self.swizzle_mask) | low;
        let bank_field = loc.bank ^ (row_field & self.bank_xor);
        DramAddr(
            (u64::from(row_field) << self.row_shift)
                | (u64::from(bank_field) << self.col_bits)
                | u64::from(loc.col),
        )
    }

    /// The set of physical byte addresses (row starts) backing the three
    /// consecutive physical rows `(row-1, row, row+1)` of `bank`, if all
    /// three exist. This is the aggressor/victim triple used by a
    /// double-sided attack.
    #[must_use]
    pub fn triple_addrs(&self, bank: u32, row: u32) -> Option<[DramAddr; 3]> {
        if row == 0 || row + 1 >= self.geometry.rows_per_bank {
            return None;
        }
        let enc = |r: u32| {
            self.encode(Location {
                bank,
                row: r,
                col: 0,
            })
        };
        Some([enc(row - 1), enc(row), enc(row + 1)])
    }
}

/// Multiplicative inverse of odd `a` modulo `2^bits` (Newton iteration).
fn mod_inverse_pow2(a: u32, bits: u32) -> u32 {
    debug_assert!(a % 2 == 1);
    // x_{n+1} = x_n * (2 - a*x_n); converges quadratically; 5 steps cover 32 bits.
    let mut x: u32 = 1;
    for _ in 0..5 {
        x = x.wrapping_mul(2u32.wrapping_sub(a.wrapping_mul(x)));
    }
    if bits >= 32 {
        x
    } else {
        x & ((1 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdhammer_simkit::rng::splitmix64;

    fn roundtrip(kind: MappingKind) {
        let g = DramGeometry::tiny_test();
        let m = AddressMapping::new(g, kind);
        for i in 0..g.total_bytes().as_u64() {
            let loc = m.decode(DramAddr(i));
            assert_eq!(m.encode(loc), DramAddr(i), "round-trip failed at {i}");
        }
    }

    #[test]
    fn linear_roundtrip_exhaustive() {
        roundtrip(MappingKind::Linear);
    }

    #[test]
    fn xor_roundtrip_exhaustive() {
        roundtrip(MappingKind::default_xor());
    }

    #[test]
    fn xor_roundtrip_sampled_large() {
        let g = DramGeometry::testbed_i7_2600();
        let m = AddressMapping::new(g, MappingKind::default_xor());
        let cap = g.total_bytes().as_u64();
        for i in 0..10_000u64 {
            let addr = DramAddr(splitmix64(i) % cap);
            assert_eq!(m.encode(m.decode(addr)), addr);
        }
    }

    #[test]
    fn decode_is_injective_on_tiny() {
        let g = DramGeometry::tiny_test();
        let m = AddressMapping::new(g, MappingKind::default_xor());
        let mut seen = std::collections::HashSet::new();
        for i in 0..g.total_bytes().as_u64() {
            assert!(seen.insert(m.decode(DramAddr(i))));
        }
    }

    #[test]
    fn linear_rows_are_monotone_in_address() {
        let g = DramGeometry::tiny_test();
        let m = AddressMapping::new(g, MappingKind::Linear);
        let row_stride = u64::from(g.row_bytes) * u64::from(g.total_banks());
        let r0 = m.decode(DramAddr(0)).row;
        let r1 = m.decode(DramAddr(row_stride)).row;
        assert_eq!(r1, r0 + 1);
    }

    #[test]
    fn xor_swizzle_breaks_row_monotonicity() {
        let g = DramGeometry::tiny_test();
        let m = AddressMapping::new(g, MappingKind::default_xor());
        let row_stride = u64::from(g.row_bytes) * u64::from(g.total_banks());
        let rows: Vec<u32> = (0..8)
            .map(|i| m.decode(DramAddr(i * row_stride)).row)
            .collect();
        assert!(
            rows.windows(2).any(|w| w[1] != w[0] + 1),
            "swizzled rows should not be consecutive: {rows:?}"
        );
    }

    #[test]
    fn triple_addrs_exist_away_from_edges() {
        let g = DramGeometry::tiny_test();
        let m = AddressMapping::new(g, MappingKind::default_xor());
        assert!(m.triple_addrs(0, 0).is_none());
        assert!(m.triple_addrs(0, 63).is_none());
        let t = m.triple_addrs(1, 10).unwrap();
        assert_eq!(m.decode(t[0]).row, 9);
        assert_eq!(m.decode(t[1]).row, 10);
        assert_eq!(m.decode(t[2]).row, 11);
        assert!(t.iter().all(|a| m.decode(*a).bank == 1));
    }

    #[test]
    fn mod_inverse_is_inverse() {
        for a in [1u32, 3, 5, 0x9E3779B9 | 1, u32::MAX] {
            let inv = mod_inverse_pow2(a, 32);
            assert_eq!(a.wrapping_mul(inv), 1);
        }
        // Reduced width.
        let inv = mod_inverse_pow2(5, 6);
        assert_eq!((5 * inv) & 63, 1);
    }

    #[test]
    #[should_panic(expected = "beyond DRAM capacity")]
    fn decode_rejects_out_of_range() {
        let g = DramGeometry::tiny_test();
        let m = AddressMapping::new(g, MappingKind::Linear);
        let _ = m.decode(DramAddr(g.total_bytes().as_u64()));
    }
}
