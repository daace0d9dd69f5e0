//! CRC-32 checksums (ISO-HDLC / zlib polynomial).
//!
//! The checkpoint durability layer (`lra-recover`) ends every binary
//! envelope with a CRC over all of its preceding bytes, so torn writes
//! and media bit flips are *detected* at load time instead of silently
//! resuming from garbage. The helper lives here because `lra-obs` is
//! the std-only leaf crate every other workspace member may depend on.
//!
//! This is CRC-32/ISO-HDLC — reflected, polynomial `0xEDB88320`,
//! initial value and final XOR `0xFFFFFFFF` — the same parameters as
//! zlib/PNG/gzip, so stored checksums can be cross-checked with any
//! standard tool.

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is
/// the classic reflected-polynomial byte table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight input bytes
/// fold into the state with eight independent lookups.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte folded into a running (pre-inverted) CRC state.
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// CRC-32/ISO-HDLC of `bytes` in one shot, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = step(crc, b);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sliced kernel against the bytewise loop it replaced: every
    /// length through 512 eight-byte strides plus tails, at all eight
    /// start alignments of the backing buffer. The reference state is
    /// carried from one length to the next (a CRC is a fold).
    #[test]
    fn sliced_kernel_equals_the_bytewise_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for off in 0..8 {
            let mut reference = 0xFFFF_FFFFu32;
            for len in 0..=4096 {
                assert_eq!(
                    crc32(&buf[off..off + len]),
                    !reference,
                    "offset {off}, length {len}"
                );
                reference = step(reference, buf[off + len]);
            }
        }
    }

    #[test]
    fn known_vectors() {
        // The CRC catalogue's check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // zlib's crc32("hello world").
        assert_eq!(crc32(b"hello world"), 0x0D4A_1185);
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let base = b"{\"kind\":\"lu_crtp\",\"state\":{\"x\":0.1}}".to_vec();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32(&mutated), want, "undetected flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn truncation_changes_the_checksum() {
        let base = b"checkpoint envelope payload bytes".to_vec();
        let want = crc32(&base);
        for keep in 0..base.len() {
            assert_ne!(crc32(&base[..keep]), want, "undetected truncation at {keep}");
        }
    }
}
