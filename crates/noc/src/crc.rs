//! CRC-32 integrity checking for packet wire images.
//!
//! The photonic fault layer can corrupt flits in flight; receivers
//! detect this by checking a CRC-32 of the packet's wire image computed
//! at the transmitter against one recomputed at the photodetector. A
//! mismatch triggers the NACK/retransmission path in `pearl-core`.
//!
//! The polynomial is the IEEE 802.3 reflected CRC-32 (0xEDB88320),
//! computed eight bytes at a time ("slicing-by-8") with eight 256-entry
//! tables (8 KiB) built at compile time, and a byte at a time for the
//! tail. The eight lookups of a step are independent of each other,
//! where the byte-at-a-time loop chains every lookup on the one before.
//! Every launched and every landed packet is checksummed, so the
//! checksum sits on the PEARL kernel's hot path.

use crate::packet::Packet;

/// Reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Byte-at-a-time CRC table: entry `n` is the CRC register after
/// shifting the byte `n` through eight polynomial steps.
const fn byte_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[n] = crc;
        n += 1;
    }
    table
}

/// Slicing-by-8 tables: `tables[0]` is the byte table, and entry `n` of
/// `tables[k]` is the CRC register after shifting the byte `n` followed
/// by `k` zero bytes, so byte `i` of an 8-byte step is looked up in
/// `tables[7 - i]`.
const fn slice_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = byte_table();
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = slice_tables();

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// CRC-32 of a packet's wire image: every routed field, serialized in a
/// fixed order. Two packets differing in any field checksum differently
/// (up to CRC collisions); a corrupted wire image fails verification.
pub fn packet_checksum(packet: &Packet) -> u32 {
    crc32(&wire_image(packet))
}

/// The bytes [`packet_checksum`] covers.
fn wire_image(packet: &Packet) -> [u8; 35] {
    let mut bytes = [0u8; 8 + 8 + 8 + 1 + 1 + 1 + 8];
    bytes[0..8].copy_from_slice(&packet.id.to_le_bytes());
    bytes[8..16].copy_from_slice(&(packet.src.index() as u64).to_le_bytes());
    bytes[16..24].copy_from_slice(&(packet.dst.index() as u64).to_le_bytes());
    bytes[24] = packet.core as u8;
    bytes[25] = packet.kind as u8;
    bytes[26] = packet.class.index() as u8;
    bytes[27..35].copy_from_slice(&packet.injected_at.as_u64().to_le_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::Cycle;
    use crate::packet::{CoreType, PacketKind, TrafficClass};
    use crate::rng::SimRng;
    use crate::topology::NodeId;

    /// The byte-at-a-time CRC that slicing-by-8 replaced, kept as its
    /// reference: one lookup in the byte table per byte, each depending
    /// on the one before.
    fn byte_crc32(bytes: &[u8]) -> u32 {
        let table = byte_table();
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// The nibble-at-a-time CRC the byte table replaced, kept as its
    /// reference: two lookups in a 16-entry table per byte.
    fn nibble_crc32(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 16];
        for (n, slot) in table.iter_mut().enumerate() {
            let mut crc = n as u32;
            for _ in 0..4 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 4) ^ table[((crc ^ u32::from(b)) & 0xF) as usize];
            crc = (crc >> 4) ^ table[((crc ^ u32::from(b >> 4)) & 0xF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        for vector in [&b"123456789"[..], b"", b"a"] {
            assert_eq!(nibble_crc32(vector), crc32(vector));
            assert_eq!(byte_crc32(vector), crc32(vector));
        }
    }

    #[test]
    fn byte_table_crc_matches_the_nibble_table() {
        let mut rng = SimRng::from_seed(29);
        for len in 0..300 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&bytes), nibble_crc32(&bytes), "bytes {bytes:?}");
            assert_eq!(crc32(&bytes), byte_crc32(&bytes), "bytes {bytes:?}");
        }
        for _ in 0..2_000 {
            let packet = Packet {
                id: rng.next_u64(),
                src: NodeId(rng.below(17)),
                dst: NodeId(rng.below(17)),
                core: *rng.choose(&CoreType::ALL),
                kind: *rng.choose(&PacketKind::ALL),
                class: *rng.choose(&TrafficClass::ALL),
                injected_at: Cycle(rng.next_u64() >> 8),
            };
            let bytes = wire_image(&packet);
            assert_eq!(packet_checksum(&packet), nibble_crc32(&bytes), "{packet:?}");
            assert_eq!(packet_checksum(&packet), byte_crc32(&bytes), "{packet:?}");
        }
    }

    #[test]
    fn packet_checksum_distinguishes_fields() {
        let base = Packet::request(
            1,
            NodeId(0),
            NodeId(16),
            CoreType::Cpu,
            TrafficClass::CpuL1Data,
            Cycle(10),
        );
        let crc = packet_checksum(&base);
        // Same packet, same checksum.
        assert_eq!(packet_checksum(&base.clone()), crc);
        // Each varied field changes the checksum.
        let mut other = base.clone();
        other.id = 2;
        assert_ne!(packet_checksum(&other), crc);
        let mut other = base.clone();
        other.dst = NodeId(3);
        assert_ne!(packet_checksum(&other), crc);
        let mut other = base.clone();
        other.core = CoreType::Gpu;
        assert_ne!(packet_checksum(&other), crc);
        let mut other = base;
        other.injected_at = Cycle(11);
        assert_ne!(packet_checksum(&other), crc);
    }

    #[test]
    fn corrupted_wire_image_fails_verification() {
        let p =
            Packet::response(9, NodeId(16), NodeId(2), CoreType::Gpu, TrafficClass::L3, Cycle(0));
        let sent = packet_checksum(&p);
        // A single flipped bit anywhere in the stored CRC is detected.
        for bit in 0..32 {
            assert_ne!(sent ^ (1 << bit), packet_checksum(&p));
        }
    }
}
