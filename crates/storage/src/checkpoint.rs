//! Checkpoint files: named byte sections in one CRC-protected buffer.
//!
//! A checkpoint is a point-in-time snapshot of the central's durable
//! state — table stores, the `DeltaLog` tail, the freshness-stamp
//! history, clock counters — written as one file so the WAL can be
//! truncated. Sections are opaque `(key, bytes)` pairs; the layer above
//! (`vbx-edge::durability`) decides what goes in them.
//!
//! ## On-disk format
//!
//! ```text
//! file    := "VCKP2" 0x00 [u64 body_len][u32 crc32(body)] body
//! body    := section*
//! section := [u16 key_len][key][u32 len] bytes
//! ```
//!
//! The file is written atomically and read whole, so the whole-body CRC
//! is the only framing it needs: it makes a torn checkpoint
//! (non-atomic filesystem) detectable, so recovery can fall back to the
//! previous checkpoint — the writer keeps the prior file until the new
//! one is durable. A file carrying another `VCKP` version is reported as
//! [`CheckpointError::Version`], never as a torn write, so recovery can
//! refuse it instead of discarding it.

/// Magic prefix shared by every checkpoint version.
const FAMILY: &[u8; 4] = b"VCKP";
const MAGIC: &[u8; 6] = b"VCKP2\x00";
const HEADER_LEN: usize = MAGIC.len() + 8 + 4;

/// Why a checkpoint image was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// A checkpoint of another format version: intact, but not readable
    /// by this build.
    Version(String),
    /// Framing damage — short header, wrong magic, length or CRC
    /// mismatch, a section running past the body. This is how a torn
    /// checkpoint write is detected.
    Corrupt(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Streaming writer: append `(key, bytes)` sections in place, then
/// [`finish`](Self::finish) into the checkpoint image.
pub struct CheckpointBuilder {
    buf: Vec<u8>,
}

impl Default for CheckpointBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointBuilder {
    /// An empty checkpoint.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        buf.resize(HEADER_LEN, 0);
        Self { buf }
    }

    /// Append one section. Keys must be unique and ≤ `u16::MAX` bytes;
    /// values must be < 4 GiB.
    pub fn add(&mut self, key: &str, value: &[u8]) {
        self.add_with(key, |out| out.extend_from_slice(value));
    }

    /// Append one section whose bytes `write` encodes straight into the
    /// image buffer — no intermediate copy of the section.
    pub fn add_with(&mut self, key: &str, write: impl FnOnce(&mut Vec<u8>)) {
        let key = key.as_bytes();
        let key_len = u16::try_from(key.len()).expect("checkpoint section key ≤ u16::MAX");
        self.buf.extend_from_slice(&key_len.to_be_bytes());
        self.buf.extend_from_slice(key);
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        write(&mut self.buf);
        let len = u32::try_from(self.buf.len() - len_at - 4).expect("checkpoint section < 4 GiB");
        self.buf[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// Seal the header (body length and CRC) and return the image.
    pub fn finish(mut self) -> Vec<u8> {
        let body_len = (self.buf.len() - HEADER_LEN) as u64;
        let crc = crate::wal::crc32(&self.buf[HEADER_LEN..]);
        let at = MAGIC.len();
        self.buf[at..at + 8].copy_from_slice(&body_len.to_be_bytes());
        self.buf[at + 8..HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
        self.buf
    }
}

/// Parsed checkpoint: ordered `(key, bytes)` sections borrowed from the
/// image.
pub struct CheckpointReader<'a> {
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> CheckpointReader<'a> {
    /// Validate a checkpoint image and index its sections. Never
    /// panics: a file of another `VCKP` version is
    /// [`CheckpointError::Version`]; any other damage is
    /// [`CheckpointError::Corrupt`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        let corrupt = |m: &str| CheckpointError::Corrupt(m.to_string());
        if bytes.len() >= MAGIC.len()
            && bytes.starts_with(FAMILY)
            && bytes[..MAGIC.len()] != MAGIC[..]
        {
            let version = &bytes[FAMILY.len()..MAGIC.len()];
            let version = version.strip_suffix(&[0]).unwrap_or(version);
            return Err(CheckpointError::Version(
                String::from_utf8_lossy(version).escape_debug().to_string(),
            ));
        }
        if bytes.len() < HEADER_LEN {
            return Err(corrupt("short header"));
        }
        if bytes[..MAGIC.len()] != MAGIC[..] {
            return Err(corrupt("bad magic"));
        }
        let at = MAGIC.len();
        let body_len = u64::from_be_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let crc = u32::from_be_bytes(bytes[at + 8..HEADER_LEN].try_into().expect("4 bytes"));
        let mut body = &bytes[HEADER_LEN..];
        if body.len() as u64 != body_len {
            return Err(corrupt("body length mismatch"));
        }
        if crate::wal::crc32(body) != crc {
            return Err(corrupt("crc mismatch"));
        }
        let mut sections = Vec::new();
        while !body.is_empty() {
            let key_len = u16::from_be_bytes(take(&mut body, 2)?.try_into().expect("2 bytes"));
            let key = core::str::from_utf8(take(&mut body, key_len.into())?)
                .map_err(|_| corrupt("non-utf8 section key"))?;
            let len = u32::from_be_bytes(take(&mut body, 4)?.try_into().expect("4 bytes"));
            sections.push((key, take(&mut body, len as usize)?));
        }
        Ok(Self { sections })
    }

    /// All sections in write order.
    pub fn sections(&self) -> &[(&'a str, &'a [u8])] {
        &self.sections
    }

    /// The first section named `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }
}

/// Split `n` bytes off the front of `body`.
fn take<'a>(body: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
    if body.len() < n {
        return Err(CheckpointError::Corrupt(
            "section runs past the body".into(),
        ));
    }
    let (head, rest) = body.split_at(n);
    *body = rest;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sections: &[(&str, Vec<u8>)]) {
        let mut b = CheckpointBuilder::new();
        for (k, v) in sections {
            b.add(k, v);
        }
        let image = b.finish();
        let r = CheckpointReader::parse(&image).unwrap();
        assert_eq!(r.sections().len(), sections.len());
        for ((k, v), (rk, rv)) in sections.iter().zip(r.sections()) {
            assert_eq!(k, rk);
            assert_eq!(v.as_slice(), *rv);
        }
    }

    fn sample() -> Vec<u8> {
        let mut b = CheckpointBuilder::new();
        b.add("meta", &[9u8; 30]);
        b.add("", b"");
        b.add_with("stores", |out| out.extend_from_slice(b"in place"));
        b.finish()
    }

    #[test]
    fn empty_checkpoint() {
        roundtrip(&[]);
        assert_eq!(CheckpointBuilder::new().finish().len(), HEADER_LEN);
    }

    #[test]
    fn small_sections_roundtrip_and_lookup() {
        let mut b = CheckpointBuilder::new();
        b.add("meta", b"abc");
        b.add("log", b"defgh");
        let image = b.finish();
        // Header + two sections, no padding.
        assert_eq!(image.len(), HEADER_LEN + (2 + 4 + 4 + 3) + (2 + 3 + 4 + 5));
        let r = CheckpointReader::parse(&image).unwrap();
        assert_eq!(r.get("meta").unwrap(), b"abc");
        assert_eq!(r.get("log").unwrap(), b"defgh");
        assert_eq!(r.get("nope"), None);
    }

    #[test]
    fn large_sections_roundtrip() {
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        roundtrip(&[("big", big.clone()), ("after", b"tail".to_vec())]);
        roundtrip(&[("empty", vec![]), ("one", vec![42])]);
        for n in [0usize, 1, 63, 64, 65, 4095, 4096, 4097] {
            roundtrip(&[("k", vec![7u8; n])]);
        }
    }

    #[test]
    fn in_place_sections_equal_copied_ones() {
        let mut copied = CheckpointBuilder::new();
        copied.add("meta", &[9u8; 30]);
        copied.add("", b"");
        copied.add("stores", b"in place");
        assert_eq!(copied.finish(), sample());
    }

    #[test]
    fn crc_detects_torn_checkpoint() {
        let image = sample();
        // Truncation at every length must error, never panic.
        for cut in 0..image.len() {
            assert!(CheckpointReader::parse(&image[..cut]).is_err(), "cut {cut}");
        }
        // Every single-bit flip, in the header or the body, is caught.
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut flipped = image.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    CheckpointReader::parse(&flipped).is_err(),
                    "flip {byte}.{bit}"
                );
            }
        }
    }

    /// Re-seal a hand-built body under a valid header, so only the
    /// section walk can reject it.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&(body.len() as u64).to_be_bytes());
        image.extend_from_slice(&crate::wal::crc32(body).to_be_bytes());
        image.extend_from_slice(body);
        image
    }

    #[test]
    fn section_running_past_the_body_is_refused() {
        let mut body = Vec::new();
        body.extend_from_slice(&1u16.to_be_bytes());
        body.push(b'k');
        body.extend_from_slice(&100u32.to_be_bytes());
        body.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            CheckpointReader::parse(&sealed(&body)),
            Err(CheckpointError::Corrupt(_))
        ));
        // A key length past the body, and a cut inside a length field.
        assert!(CheckpointReader::parse(&sealed(&[0, 9, b'k'])).is_err());
        assert!(CheckpointReader::parse(&sealed(&[0, 1, b'k', 0, 0])).is_err());
        // A non-UTF-8 key.
        assert!(CheckpointReader::parse(&sealed(&[0, 1, 0xFF, 0, 0, 0, 0])).is_err());
        // The same framing with an honest length parses.
        let ok = sealed(&[0, 1, b'k', 0, 0, 0, 1, 7]);
        assert_eq!(
            CheckpointReader::parse(&ok).unwrap().get("k"),
            Some(&[7u8][..])
        );
    }

    #[test]
    fn other_versions_are_refused_by_name() {
        let mut old = b"VCKP1\x00".to_vec();
        old.extend_from_slice(&[0u8; 12]);
        assert_eq!(
            CheckpointReader::parse(&old).err(),
            Some(CheckpointError::Version("1".into()))
        );
        // Too short to carry a version: a torn write, not a version.
        assert!(matches!(
            CheckpointReader::parse(b"VCKP"),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
