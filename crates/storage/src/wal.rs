//! Write-ahead log: length-prefixed, checksummed, append-only records.
//!
//! One WAL record = one committed write (a single op or a whole
//! group-commit batch — the batch amortises the fsync the same way it
//! amortises the signing sweep). The commit path appends **and syncs**
//! the record *before* acknowledging the commit, so every acked write is
//! replayable after a crash.
//!
//! ## On-disk format
//!
//! ```text
//! file   := header record*
//! header := "VWAL1" 0x00 0x00 0x00                      (8 bytes)
//! record := [u32 len][u32 crc32(payload)][payload]      (big-endian)
//! ```
//!
//! The payload is an opaque byte string to this module; `vbx-core`
//! defines the record codec (`durable::encode_wal_*`).
//!
//! ## Torn tails
//!
//! A crash can leave a partial record at the end of the file (torn
//! write) or garbage (a checksum mismatch). [`Wal::scan`] reads the
//! longest valid prefix and reports how the tail ended; recovery keeps
//! the valid records and discards the tail — by the append-before-ack
//! rule a torn record was never acknowledged, so dropping it is safe.

use crate::vfs::Vfs;
use crate::StorageError;
use std::sync::Arc;

/// Default WAL file name inside a [`Vfs`].
pub const WAL_FILE: &str = "wal.log";

const MAGIC: &[u8; 8] = b"VWAL1\x00\x00\x00";

/// Records larger than this are rejected as corrupt length prefixes
/// (a "length lie" can otherwise ask for gigabytes).
pub const MAX_RECORD_LEN: u32 = 1 << 28;

/// Look-up tables for [`crc32`], slicing-by-8: `[0]` is the classic
/// byte table, and `[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold in with eight independent look-ups
/// instead of a chain of dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
/// Implemented locally — the workspace builds offline with no
/// checksum crate available.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// How a [`Wal::scan`] pass over the file ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// The file ended exactly on a record boundary.
    Clean,
    /// A partial or corrupt record was found at `offset` and discarded:
    /// either fewer than 8 header bytes remained, the length prefix
    /// pointed past the end of the file (torn write), the length was
    /// absurd, or the checksum did not match.
    Torn {
        /// Byte offset of the first invalid record.
        offset: usize,
        /// Human-readable reason the tail was rejected.
        reason: String,
    },
}

/// Result of scanning a WAL file: the valid record payloads plus how
/// the tail ended.
#[derive(Debug, Clone)]
pub struct WalScan {
    /// Payloads of every valid record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether the file ended cleanly or with a discarded torn tail.
    pub tail: WalTail,
}

/// Append-side handle for a write-ahead log inside a [`Vfs`].
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    file: String,
}

impl Wal {
    /// Open (creating and writing the header if absent) the WAL named
    /// `file` inside `vfs`.
    pub fn open(vfs: Arc<dyn Vfs>, file: &str) -> Result<Self, StorageError> {
        match vfs.read(file)? {
            Some(bytes) if !bytes.is_empty() => {
                if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
                    return Err(StorageError::Corrupt("bad WAL magic".into()));
                }
            }
            _ => {
                vfs.append(file, MAGIC)?;
                vfs.sync(file)?;
            }
        }
        Ok(Self {
            vfs,
            file: file.to_string(),
        })
    }

    /// The file name this WAL writes to.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Append one record and fsync it (append-before-ack: the caller
    /// must not acknowledge the commit until this returns `Ok`).
    pub fn append_sync(&self, payload: &[u8]) -> Result<(), StorageError> {
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        framed.extend_from_slice(&crc32(payload).to_be_bytes());
        framed.extend_from_slice(payload);
        self.vfs.append(&self.file, &framed)?;
        self.vfs.sync(&self.file)
    }

    /// Durably reset the log to just its header (after a checkpoint has
    /// made the logged records redundant).
    pub fn reset(&self) -> Result<(), StorageError> {
        self.vfs.truncate(&self.file)?;
        self.vfs.append(&self.file, MAGIC)?;
        self.vfs.sync(&self.file)
    }

    /// Scan the longest valid prefix of the log (see [`scan_bytes`]).
    pub fn scan(&self) -> Result<WalScan, StorageError> {
        let bytes = self.vfs.read(&self.file)?.unwrap_or_default();
        scan_bytes(&bytes)
    }
}

/// Scan raw WAL bytes: validate the header, then read records until the
/// clean end of file or the first invalid record (torn tail). Never
/// panics on arbitrary input — corruption before any valid record is an
/// error; corruption after valid records truncates to them.
pub fn scan_bytes(bytes: &[u8]) -> Result<WalScan, StorageError> {
    if bytes.is_empty() {
        // Never created / never synced: an empty log.
        return Ok(WalScan {
            records: Vec::new(),
            tail: WalTail::Clean,
        });
    }
    if bytes.len() < MAGIC.len() {
        return Ok(WalScan {
            records: Vec::new(),
            tail: WalTail::Torn {
                offset: 0,
                reason: "torn header".into(),
            },
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(StorageError::Corrupt("bad WAL magic".into()));
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    let tail = loop {
        if pos == bytes.len() {
            break WalTail::Clean;
        }
        if bytes.len() - pos < 8 {
            break WalTail::Torn {
                offset: pos,
                reason: "torn record header".into(),
            };
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break WalTail::Torn {
                offset: pos,
                reason: format!("record length {len} exceeds cap"),
            };
        }
        let len = len as usize;
        if bytes.len() - pos - 8 < len {
            break WalTail::Torn {
                offset: pos,
                reason: "torn record payload".into(),
            };
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break WalTail::Torn {
                offset: pos,
                reason: "checksum mismatch".into(),
            };
        }
        records.push(payload.to_vec());
        pos += 8 + len;
    };
    Ok(WalScan { records, tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32 (IEEE) check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The nibble-table implementation [`crc32`] replaced, kept as the
    /// oracle: 16 entries, two dependent look-ups per byte.
    fn crc32_nibble(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 16] = {
            let mut t = [0u32; 16];
            let mut i = 0;
            while i < 16 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 4 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    k += 1;
                }
                t[i] = c;
                i += 1;
            }
            t
        };
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLE[((crc ^ b as u32) & 0x0F) as usize] ^ (crc >> 4);
            crc = TABLE[((crc ^ (b as u32 >> 4)) & 0x0F) as usize] ^ (crc >> 4);
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_nibble_oracle() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4C3_2026);
        let mut buf = vec![0u8; 20_000];
        rng.fill_bytes(&mut buf);
        // Every length around the 8-byte stride, at every alignment of
        // the tail, then whole frames.
        for len in 0..=64 {
            for start in 0..8 {
                let part = &buf[start..start + len];
                assert_eq!(crc32(part), crc32_nibble(part), "len {len} at {start}");
            }
        }
        for _ in 0..32 {
            let len = rng.gen_range(65..=buf.len());
            rng.fill_bytes(&mut buf[..len]);
            assert_eq!(crc32(&buf[..len]), crc32_nibble(&buf[..len]), "len {len}");
        }
    }

    fn mem_wal() -> (Arc<MemVfs>, Wal) {
        let vfs = Arc::new(MemVfs::new());
        let wal = Wal::open(vfs.clone(), WAL_FILE).unwrap();
        (vfs, wal)
    }

    #[test]
    fn append_scan_roundtrip() {
        let (_vfs, wal) = mem_wal();
        wal.append_sync(b"alpha").unwrap();
        wal.append_sync(b"").unwrap();
        wal.append_sync(&[7u8; 300]).unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0], b"alpha");
        assert_eq!(scan.records[1], b"");
        assert_eq!(scan.records[2], vec![7u8; 300]);
    }

    #[test]
    fn torn_tail_discarded() {
        let (vfs, wal) = mem_wal();
        wal.append_sync(b"good").unwrap();
        // Append half a record by hand and "crash".
        let mut torn = Vec::new();
        torn.extend_from_slice(&100u32.to_be_bytes());
        torn.extend_from_slice(&0u32.to_be_bytes());
        torn.extend_from_slice(b"only-a-little");
        vfs.append(WAL_FILE, &torn).unwrap();
        vfs.sync(WAL_FILE).unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.records, vec![b"good".to_vec()]);
        assert!(matches!(scan.tail, WalTail::Torn { .. }));
    }

    #[test]
    fn checksum_mismatch_truncates() {
        let (vfs, wal) = mem_wal();
        wal.append_sync(b"first").unwrap();
        wal.append_sync(b"second").unwrap();
        let mut bytes = vfs.read(WAL_FILE).unwrap().unwrap();
        // Flip a bit in the second record's payload.
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        vfs.set_durable(WAL_FILE, bytes);
        let scan = wal.scan().unwrap();
        assert_eq!(scan.records, vec![b"first".to_vec()]);
        assert!(matches!(scan.tail, WalTail::Torn { .. }));
    }

    #[test]
    fn length_lie_bounded() {
        let (vfs, wal) = mem_wal();
        wal.append_sync(b"ok").unwrap();
        let mut lie = Vec::new();
        lie.extend_from_slice(&u32::MAX.to_be_bytes());
        lie.extend_from_slice(&0u32.to_be_bytes());
        vfs.append(WAL_FILE, &lie).unwrap();
        vfs.sync(WAL_FILE).unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.records, vec![b"ok".to_vec()]);
        assert!(matches!(scan.tail, WalTail::Torn { .. }));
    }

    #[test]
    fn reset_empties_log() {
        let (_vfs, wal) = mem_wal();
        wal.append_sync(b"gone").unwrap();
        wal.reset().unwrap();
        let scan = wal.scan().unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, WalTail::Clean);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(scan_bytes(b"NOTWAL00rest").is_err());
        // Shorter than a header: treated as torn, not panic.
        let scan = scan_bytes(b"VW").unwrap();
        assert!(scan.records.is_empty());
        assert!(matches!(scan.tail, WalTail::Torn { .. }));
    }
}
