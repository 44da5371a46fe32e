//! `VBX5` — the framed transport layer that puts the VBX protocol on
//! sockets.
//!
//! Every connection in the networked deployment exchanges **frames**:
//!
//! ```text
//! | len u32 | crc32 u32 | kind u8 | payload … |
//! ```
//!
//! `len` counts the kind byte plus the payload; the CRC-32 (same
//! polynomial as the durability WAL) covers the same bytes, so a bit
//! flip anywhere in the body — including the kind tag — surfaces as a
//! checksum error before the payload is ever parsed. Frames carry the
//! existing envelopes verbatim (`VBX2` responses, `VBX3` batches,
//! `VBX4` compact VOs, `VBB1` bundles, `VBX7` txns) plus
//! small request/control payloads defined here: range/SQL/compact
//! queries, subscribe-from-cursor, heartbeat, and errors. The frame
//! layer authenticates nothing — transport integrity only; all
//! authentication stays in [`crate::verify`] on the decoded envelopes.
//!
//! [`FrameBuffer`] is the incremental decoder both transports share: a
//! connection appends whatever bytes the socket produced and pulls zero
//! or more complete frames out, so partial and interleaved reads are
//! handled in one place. Structurally hostile input — truncation,
//! length lies beyond [`MAX_FRAME_LEN`], checksum flips, unknown kinds
//! — returns [`CoreError::Wire`] and never panics.
//!
//! This module also hosts the shared length-prefix helpers
//! ([`put_block16`]/[`get_block16`], [`put_sig`]/[`get_sig`],
//! [`put_str`]/[`get_str`]) that the `VBX2`–`VBX4` codecs in
//! [`crate::wire`] previously each re-implemented inline.

use crate::verify::FreshnessStamp;
use crate::vo::RangeQuery;
use crate::wire::{get_stamp, put_stamp};
use crate::CoreError;
use bytes::{Buf, BufMut};
use vbx_crypto::Signature;
use vbx_storage::crc32;

/// Hard upper bound on a frame body (kind + payload). A `len` field
/// above this is a length lie: the decoder rejects it instead of
/// allocating, so a hostile peer cannot balloon a server's memory with
/// an 8-byte header.
pub const MAX_FRAME_LEN: usize = 1 << 26; // 64 MiB — bundles included

/// Bytes of the fixed frame header (`len` + `crc32`).
pub const FRAME_HEADER_LEN: usize = 8;

// ---------------------------------------------------------------------
// Shared length-prefix helpers (the one framing vocabulary all codecs
// use: u16-prefixed binary blocks, u32-prefixed UTF-8 strings).
// ---------------------------------------------------------------------

/// Append a `u16` length prefix followed by `bytes`.
///
/// The framing used for every signature on the wire. Panics in debug
/// builds if `bytes` exceeds `u16::MAX` — signatures and short blocks
/// only.
pub fn put_block16(out: &mut Vec<u8>, bytes: &[u8]) {
    debug_assert!(bytes.len() <= u16::MAX as usize);
    out.put_u16(bytes.len() as u16);
    out.extend_from_slice(bytes);
}

/// Decode a [`put_block16`] block, advancing `buf`. `what` names the
/// field in the error message.
pub fn get_block16<'a>(buf: &mut &'a [u8], what: &str) -> Result<&'a [u8], CoreError> {
    if buf.remaining() < 2 {
        return Err(CoreError::Wire(format!("{what} length truncated")));
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(CoreError::Wire(format!("{what} truncated")));
    }
    let block = &buf[..len];
    buf.advance(len);
    Ok(block)
}

/// Append a signature as a [`put_block16`] block.
pub fn put_sig(out: &mut Vec<u8>, sig: &Signature) {
    put_block16(out, sig.as_bytes());
}

/// Decode a signature written by [`put_sig`].
pub fn get_sig(buf: &mut &[u8], what: &str) -> Result<Signature, CoreError> {
    Ok(Signature(get_block16(buf, what)?.to_vec()))
}

/// Append a `u32` length prefix followed by the UTF-8 bytes of `s` —
/// the framing used for table names and SQL text.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Decode a [`put_str`] string, advancing `buf`.
pub fn get_str(buf: &mut &[u8], what: &str) -> Result<String, CoreError> {
    if buf.remaining() < 4 {
        return Err(CoreError::Wire(format!("{what} length truncated")));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(CoreError::Wire(format!("{what} truncated")));
    }
    let s = core::str::from_utf8(&buf[..len])
        .map_err(|_| CoreError::Wire(format!("{what} not UTF-8")))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Message kind tag of a `VBX5` frame. Requests live in `0x1x`,
/// responses and subscription-stream items in `0x2x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Liveness probe (either direction).
    Ping = 0x01,
    /// Reply to [`Ping`](Self::Ping), carrying the peer's applied seq.
    Pong = 0x02,
    /// Range query against a table.
    RangeReq = 0x10,
    /// SQL query (the edge plans it; the client re-plans to verify).
    SqlReq = 0x11,
    /// Multi-range compact (`VBX4`) query.
    CompactReq = 0x12,
    /// Request the central's provisioning bundle (`VBB1`).
    BundleReq = 0x13,
    /// Subscribe to the delta stream from a cursor.
    Subscribe = 0x14,
    /// Pull up to `max` entries from the subscription cursor.
    PollDeltas = 0x15,
    /// Ask the central for a freshly signed stamp.
    HeartbeatReq = 0x16,
    /// Request chunk `index` of a table's verified sync stream.
    ChunkRequest = 0x17,
    /// A `VBX2` query response, verbatim.
    QueryResp = 0x20,
    /// A `VBX4` compact response, verbatim.
    CompactResp = 0x21,
    /// A `VBB1` edge bundle, verbatim.
    BundleResp = 0x22,
    // 0x23 carried the retired `VBX6` single-op delta; the tag is
    // not reused.
    /// A `VBX3` group-commit batch, verbatim.
    DeltaBatch = 0x24,
    /// Advisory: `count` deltas from `start_seq` target other tables.
    SkipRange = 0x25,
    /// A bare owner freshness stamp (heartbeat reply).
    Stamp = 0x26,
    /// Subscription accepted; reports the log head and oldest seq.
    SubAck = 0x27,
    /// Generic acknowledgement carrying the receiver's applied seq.
    Ack = 0x28,
    /// One `VBC1` sync chunk, verbatim.
    Chunk = 0x29,
    /// Sync stream complete: chunk count plus the log head to subscribe
    /// from for catch-up.
    RestoreDone = 0x2A,
    /// A `VBX7` atomic multi-table txn, verbatim.
    DeltaTxn = 0x2B,
    /// Error reply; the request that caused it got no other answer.
    Error = 0x3F,
}

impl FrameKind {
    /// Decode a kind tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0x01 => Self::Ping,
            0x02 => Self::Pong,
            0x10 => Self::RangeReq,
            0x11 => Self::SqlReq,
            0x12 => Self::CompactReq,
            0x13 => Self::BundleReq,
            0x14 => Self::Subscribe,
            0x15 => Self::PollDeltas,
            0x16 => Self::HeartbeatReq,
            0x17 => Self::ChunkRequest,
            0x20 => Self::QueryResp,
            0x21 => Self::CompactResp,
            0x22 => Self::BundleResp,
            0x24 => Self::DeltaBatch,
            0x25 => Self::SkipRange,
            0x26 => Self::Stamp,
            0x27 => Self::SubAck,
            0x28 => Self::Ack,
            0x29 => Self::Chunk,
            0x2A => Self::RestoreDone,
            0x2B => Self::DeltaTxn,
            0x3F => Self::Error,
            _ => return None,
        })
    }
}

/// One framed message: a kind tag plus its payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Kind-specific payload (often a whole `VBX2`–`VBX4` envelope).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Exact size of [`encode`](Self::encode)'s output.
    pub fn encoded_len(&self) -> usize {
        FRAME_HEADER_LEN + 1 + self.payload.len()
    }

    /// Serialize `len | crc32 | kind | payload`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Serialize into an existing buffer (batching frames on one send).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let body_len = 1 + self.payload.len();
        debug_assert!(body_len <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
        out.put_u32(body_len as u32);
        let crc_at = out.len();
        out.put_u32(0);
        out.push(self.kind as u8);
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out[crc_at + 4..]);
        out[crc_at..crc_at + 4].copy_from_slice(&crc.to_be_bytes());
    }

    /// Strict one-shot decode: exactly one frame, nothing trailing.
    /// Truncation, length lies, checksum flips, and unknown kinds all
    /// error; nothing panics.
    pub fn decode(bytes: &[u8]) -> Result<Frame, CoreError> {
        let mut fb = FrameBuffer::new();
        fb.extend(bytes);
        let frame = fb
            .try_frame()?
            .ok_or_else(|| CoreError::Wire("frame truncated".into()))?;
        if fb.pending() != 0 {
            return Err(CoreError::Wire("trailing bytes after frame".into()));
        }
        Ok(frame)
    }
}

/// Incremental `VBX5` decoder shared by every transport: append bytes
/// as the socket produces them, pull complete frames out. Handles
/// partial and interleaved reads — a frame split across any number of
/// `extend` calls decodes identically to one contiguous buffer.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes read off the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes"; an error means the stream is
    /// structurally corrupt (empty frame, length lie, checksum
    /// mismatch, unknown kind) and the connection should be dropped —
    /// after an error the buffer's contents are unspecified.
    pub fn try_frame(&mut self) -> Result<Option<Frame>, CoreError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_HEADER_LEN {
            self.compact();
            return Ok(None);
        }
        let body_len = u32::from_be_bytes(avail[0..4].try_into().unwrap()) as usize;
        if body_len == 0 {
            return Err(CoreError::Wire("empty frame".into()));
        }
        if body_len > MAX_FRAME_LEN {
            return Err(CoreError::Wire(format!(
                "frame length {body_len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
            )));
        }
        if avail.len() < FRAME_HEADER_LEN + body_len {
            self.compact();
            return Ok(None);
        }
        let want_crc = u32::from_be_bytes(avail[4..8].try_into().unwrap());
        let body = &avail[FRAME_HEADER_LEN..FRAME_HEADER_LEN + body_len];
        let got_crc = crc32(body);
        if got_crc != want_crc {
            return Err(CoreError::Wire(format!(
                "frame checksum mismatch (want {want_crc:#010x}, got {got_crc:#010x})"
            )));
        }
        let kind = FrameKind::from_tag(body[0])
            .ok_or_else(|| CoreError::Wire(format!("unknown frame kind {:#04x}", body[0])))?;
        let payload = body[1..].to_vec();
        self.pos += FRAME_HEADER_LEN + body_len;
        self.compact();
        Ok(Some(Frame { kind, payload }))
    }

    /// Drop consumed bytes once they dominate the buffer, keeping the
    /// amortized cost of long-lived connections O(bytes received).
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

// ---------------------------------------------------------------------
// Typed messages
// ---------------------------------------------------------------------

/// Why a request failed, as reported in an [`NetMsg::Error`] frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The named table is not served here.
    UnknownTable = 1,
    /// The request payload did not parse or was semantically invalid.
    BadRequest = 2,
    /// The subscription cursor fell behind the bounded queue/retention
    /// window; the subscriber must re-bootstrap from a bundle.
    Lagging = 3,
    /// A delta arrived out of order (expected vs got in the message).
    OutOfOrder = 4,
    /// The scheme layer rejected the operation.
    Scheme = 5,
    /// Anything else; the message says what.
    Internal = 6,
}

impl ErrorCode {
    /// Decode an error-code tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            1 => Self::UnknownTable,
            2 => Self::BadRequest,
            3 => Self::Lagging,
            4 => Self::OutOfOrder,
            5 => Self::Scheme,
            6 => Self::Internal,
            _ => return None,
        })
    }
}

/// A decoded `VBX5` message. Envelope-carrying variants keep their
/// payload as the verbatim inner encoding (`VBX2`/`VBX3`/`VBX4`/
/// `VBB1`/`VBX7` bytes) so the frame layer stays independent of the
/// digest width `L`; decode them with the matching `wire`/bundle
/// decoder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetMsg {
    /// Liveness probe.
    Ping,
    /// Liveness reply with the peer's applied sequence.
    Pong {
        /// Highest delta sequence the peer has applied.
        applied_seq: u64,
    },
    /// Range query against `table`.
    RangeReq {
        /// Target table.
        table: String,
        /// Key range + projection.
        query: RangeQuery,
    },
    /// SQL text for the edge to plan and execute.
    SqlReq {
        /// The SELECT statement.
        sql: String,
    },
    /// Multi-range compact (`VBX4`) query against `table`.
    CompactReq {
        /// Target table.
        table: String,
        /// The ranges, merged into one op stream by the edge.
        queries: Vec<RangeQuery>,
        /// Ask for a condensed (aggregated) signature sweep.
        aggregate: bool,
    },
    /// Request the provisioning bundle.
    BundleReq,
    /// Subscribe to the delta stream starting at `cursor`.
    Subscribe {
        /// First sequence number the subscriber still needs.
        cursor: u64,
    },
    /// Pull up to `max` entries from the subscription cursor.
    PollDeltas {
        /// Entry budget for this poll.
        max: u32,
    },
    /// Ask for a freshly signed owner stamp.
    HeartbeatReq,
    /// Request chunk `index` of `table`'s verified sync stream.
    ChunkRequest {
        /// Table to restore.
        table: String,
        /// Zero-based chunk index.
        index: u32,
    },
    /// A `VBX2` response (decode with [`crate::wire::decode_response`]).
    QueryResp(
        /// Verbatim `VBX2` bytes.
        Vec<u8>,
    ),
    /// A `VBX4` response
    /// (decode with [`crate::wire::decode_compact_response`]).
    CompactResp(
        /// Verbatim `VBX4` bytes.
        Vec<u8>,
    ),
    /// A `VBB1` edge bundle.
    BundleResp(
        /// Verbatim `VBB1` bytes.
        Vec<u8>,
    ),
    /// A group-commit batch
    /// (decode with [`crate::wire::decode_delta_batch`]).
    DeltaBatch(
        /// Verbatim `VBX3` bytes.
        Vec<u8>,
    ),
    /// An atomic multi-table txn
    /// (decode with [`crate::wire::decode_txn_batch`]).
    DeltaTxn(
        /// Verbatim `VBX7` bytes.
        Vec<u8>,
    ),
    /// `count` sequence numbers from `start_seq` carry no deltas for
    /// the receiver's tables; advance the cursor without applying.
    SkipRange {
        /// First skipped sequence.
        start_seq: u64,
        /// How many sequences to skip.
        count: u64,
    },
    /// A bare owner freshness stamp.
    Stamp {
        /// The stamp, absent when the owner has not signed one yet.
        stamp: Option<FreshnessStamp>,
    },
    /// Subscription accepted.
    SubAck {
        /// The log's next (head) sequence.
        head: u64,
        /// Oldest sequence still retained.
        oldest: u64,
    },
    /// Acknowledgement carrying the receiver's applied sequence.
    Ack {
        /// Highest delta sequence applied after this message.
        applied_seq: u64,
    },
    /// One sync chunk (feed to a scheme's
    /// [`StoreRestorer`](crate::chunks::StoreRestorer)).
    Chunk(
        /// Verbatim `VBC1` bytes.
        Vec<u8>,
    ),
    /// The requested chunk index is past the end: the sync stream is
    /// complete.
    RestoreDone {
        /// Chunks the stream comprised.
        chunks: u32,
        /// The source's log head (`next_seq`) — subscribe from here to
        /// catch up on anything committed after the stream.
        head: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn put_range_query(out: &mut Vec<u8>, q: &RangeQuery) {
    out.put_u64(q.lo);
    out.put_u64(q.hi);
    match &q.projection {
        None => out.push(0),
        Some(cols) => {
            out.push(1);
            out.put_u16(cols.len() as u16);
            for c in cols {
                out.put_u32(*c as u32);
            }
        }
    }
}

fn get_range_query(buf: &mut &[u8]) -> Result<RangeQuery, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 17 {
        return Err(corrupt("range query truncated"));
    }
    let lo = buf.get_u64();
    let hi = buf.get_u64();
    let projection = match buf.get_u8() {
        0 => None,
        1 => {
            if buf.remaining() < 2 {
                return Err(corrupt("projection truncated"));
            }
            let n = buf.get_u16() as usize;
            if buf.remaining() < n * 4 {
                return Err(corrupt("projection truncated"));
            }
            Some((0..n).map(|_| buf.get_u32() as usize).collect())
        }
        _ => return Err(corrupt("bad projection tag")),
    };
    Ok(RangeQuery { lo, hi, projection })
}

impl NetMsg {
    /// The frame kind this message travels under.
    pub fn kind(&self) -> FrameKind {
        match self {
            NetMsg::Ping => FrameKind::Ping,
            NetMsg::Pong { .. } => FrameKind::Pong,
            NetMsg::RangeReq { .. } => FrameKind::RangeReq,
            NetMsg::SqlReq { .. } => FrameKind::SqlReq,
            NetMsg::CompactReq { .. } => FrameKind::CompactReq,
            NetMsg::BundleReq => FrameKind::BundleReq,
            NetMsg::Subscribe { .. } => FrameKind::Subscribe,
            NetMsg::PollDeltas { .. } => FrameKind::PollDeltas,
            NetMsg::HeartbeatReq => FrameKind::HeartbeatReq,
            NetMsg::ChunkRequest { .. } => FrameKind::ChunkRequest,
            NetMsg::QueryResp(_) => FrameKind::QueryResp,
            NetMsg::CompactResp(_) => FrameKind::CompactResp,
            NetMsg::BundleResp(_) => FrameKind::BundleResp,
            NetMsg::DeltaBatch(_) => FrameKind::DeltaBatch,
            NetMsg::DeltaTxn(_) => FrameKind::DeltaTxn,
            NetMsg::SkipRange { .. } => FrameKind::SkipRange,
            NetMsg::Stamp { .. } => FrameKind::Stamp,
            NetMsg::SubAck { .. } => FrameKind::SubAck,
            NetMsg::Ack { .. } => FrameKind::Ack,
            NetMsg::Chunk(_) => FrameKind::Chunk,
            NetMsg::RestoreDone { .. } => FrameKind::RestoreDone,
            NetMsg::Error { .. } => FrameKind::Error,
        }
    }

    /// Encode into a [`Frame`].
    pub fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        match self {
            NetMsg::Ping | NetMsg::BundleReq | NetMsg::HeartbeatReq => {}
            NetMsg::Pong { applied_seq } | NetMsg::Ack { applied_seq } => {
                payload.put_u64(*applied_seq);
            }
            NetMsg::RangeReq { table, query } => {
                put_str(&mut payload, table);
                put_range_query(&mut payload, query);
            }
            NetMsg::SqlReq { sql } => put_str(&mut payload, sql),
            NetMsg::CompactReq {
                table,
                queries,
                aggregate,
            } => {
                put_str(&mut payload, table);
                payload.push(u8::from(*aggregate));
                payload.put_u16(queries.len() as u16);
                for q in queries {
                    put_range_query(&mut payload, q);
                }
            }
            NetMsg::Subscribe { cursor } => payload.put_u64(*cursor),
            NetMsg::PollDeltas { max } => payload.put_u32(*max),
            NetMsg::ChunkRequest { table, index } => {
                put_str(&mut payload, table);
                payload.put_u32(*index);
            }
            NetMsg::QueryResp(bytes)
            | NetMsg::CompactResp(bytes)
            | NetMsg::BundleResp(bytes)
            | NetMsg::DeltaBatch(bytes)
            | NetMsg::DeltaTxn(bytes)
            | NetMsg::Chunk(bytes) => payload.extend_from_slice(bytes),
            NetMsg::RestoreDone { chunks, head } => {
                payload.put_u32(*chunks);
                payload.put_u64(*head);
            }
            NetMsg::SkipRange { start_seq, count } => {
                payload.put_u64(*start_seq);
                payload.put_u64(*count);
            }
            NetMsg::Stamp { stamp } => put_stamp(&mut payload, stamp.as_ref()),
            NetMsg::SubAck { head, oldest } => {
                payload.put_u64(*head);
                payload.put_u64(*oldest);
            }
            NetMsg::Error { code, message } => {
                payload.push(*code as u8);
                put_str(&mut payload, message);
            }
        }
        Frame {
            kind: self.kind(),
            payload,
        }
    }

    /// Decode a frame's payload into a typed message. Hostile payloads
    /// error; envelope-carrying kinds are passed through verbatim (the
    /// inner decoder validates them).
    pub fn from_frame(frame: &Frame) -> Result<NetMsg, CoreError> {
        let corrupt = |m: &str| CoreError::Wire(m.to_string());
        let mut buf = frame.payload.as_slice();
        let need = |buf: &&[u8], n: usize, what: &str| -> Result<(), CoreError> {
            if buf.remaining() < n {
                return Err(CoreError::Wire(format!("{what} truncated")));
            }
            Ok(())
        };
        let msg = match frame.kind {
            FrameKind::Ping => NetMsg::Ping,
            FrameKind::Pong => {
                need(&buf, 8, "pong")?;
                NetMsg::Pong {
                    applied_seq: buf.get_u64(),
                }
            }
            FrameKind::RangeReq => {
                let table = get_str(&mut buf, "table name")?;
                let query = get_range_query(&mut buf)?;
                NetMsg::RangeReq { table, query }
            }
            FrameKind::SqlReq => NetMsg::SqlReq {
                sql: get_str(&mut buf, "sql")?,
            },
            FrameKind::CompactReq => {
                let table = get_str(&mut buf, "table name")?;
                need(&buf, 3, "compact request")?;
                let aggregate = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return Err(corrupt("bad aggregate flag")),
                };
                let n = buf.get_u16() as usize;
                let mut queries = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    queries.push(get_range_query(&mut buf)?);
                }
                NetMsg::CompactReq {
                    table,
                    queries,
                    aggregate,
                }
            }
            FrameKind::BundleReq => NetMsg::BundleReq,
            FrameKind::Subscribe => {
                need(&buf, 8, "subscribe")?;
                NetMsg::Subscribe {
                    cursor: buf.get_u64(),
                }
            }
            FrameKind::PollDeltas => {
                need(&buf, 4, "poll")?;
                NetMsg::PollDeltas { max: buf.get_u32() }
            }
            FrameKind::HeartbeatReq => NetMsg::HeartbeatReq,
            FrameKind::ChunkRequest => {
                let table = get_str(&mut buf, "table name")?;
                need(&buf, 4, "chunk request")?;
                NetMsg::ChunkRequest {
                    table,
                    index: buf.get_u32(),
                }
            }
            FrameKind::QueryResp => return Ok(NetMsg::QueryResp(frame.payload.clone())),
            FrameKind::CompactResp => return Ok(NetMsg::CompactResp(frame.payload.clone())),
            FrameKind::BundleResp => return Ok(NetMsg::BundleResp(frame.payload.clone())),
            FrameKind::DeltaBatch => return Ok(NetMsg::DeltaBatch(frame.payload.clone())),
            FrameKind::DeltaTxn => return Ok(NetMsg::DeltaTxn(frame.payload.clone())),
            FrameKind::Chunk => return Ok(NetMsg::Chunk(frame.payload.clone())),
            FrameKind::RestoreDone => {
                need(&buf, 12, "restore done")?;
                NetMsg::RestoreDone {
                    chunks: buf.get_u32(),
                    head: buf.get_u64(),
                }
            }
            FrameKind::SkipRange => {
                need(&buf, 16, "skip range")?;
                NetMsg::SkipRange {
                    start_seq: buf.get_u64(),
                    count: buf.get_u64(),
                }
            }
            FrameKind::Stamp => NetMsg::Stamp {
                stamp: get_stamp(&mut buf)?,
            },
            FrameKind::SubAck => {
                need(&buf, 16, "subscribe ack")?;
                NetMsg::SubAck {
                    head: buf.get_u64(),
                    oldest: buf.get_u64(),
                }
            }
            FrameKind::Ack => {
                need(&buf, 8, "ack")?;
                NetMsg::Ack {
                    applied_seq: buf.get_u64(),
                }
            }
            FrameKind::Error => {
                need(&buf, 1, "error code")?;
                let code =
                    ErrorCode::from_tag(buf.get_u8()).ok_or_else(|| corrupt("bad error code"))?;
                let message = get_str(&mut buf, "error message")?;
                NetMsg::Error { code, message }
            }
        };
        if buf.has_remaining() {
            return Err(corrupt("trailing bytes in frame payload"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &NetMsg) {
        let frame = msg.to_frame();
        let bytes = frame.encode();
        let back = Frame::decode(&bytes).expect("frame decodes");
        assert_eq!(&back, &frame);
        let typed = NetMsg::from_frame(&back).expect("payload decodes");
        assert_eq!(&typed, msg);
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        let msgs = vec![
            NetMsg::Ping,
            NetMsg::Pong { applied_seq: 7 },
            NetMsg::RangeReq {
                table: "items".into(),
                query: RangeQuery {
                    lo: 10,
                    hi: 20,
                    projection: Some(vec![0, 2]),
                },
            },
            NetMsg::SqlReq {
                sql: "SELECT * FROM items WHERE k BETWEEN 1 AND 9".into(),
            },
            NetMsg::CompactReq {
                table: "items".into(),
                queries: vec![
                    RangeQuery {
                        lo: 1,
                        hi: 2,
                        projection: None,
                    },
                    RangeQuery {
                        lo: 5,
                        hi: 9,
                        projection: Some(vec![1]),
                    },
                ],
                aggregate: true,
            },
            NetMsg::BundleReq,
            NetMsg::Subscribe { cursor: 42 },
            NetMsg::PollDeltas { max: 64 },
            NetMsg::HeartbeatReq,
            NetMsg::ChunkRequest {
                table: "orders".into(),
                index: 7,
            },
            NetMsg::QueryResp(vec![1, 2, 3]),
            NetMsg::CompactResp(vec![4, 5]),
            NetMsg::BundleResp(vec![6]),
            NetMsg::DeltaBatch(vec![9]),
            NetMsg::DeltaTxn(vec![0xB7; 12]),
            NetMsg::SkipRange {
                start_seq: 3,
                count: 11,
            },
            NetMsg::Stamp {
                stamp: Some(FreshnessStamp {
                    seq: 1,
                    clock: 2,
                    key_version: 3,
                    sig: Signature(vec![0xAA; 16]),
                }),
            },
            NetMsg::Stamp { stamp: None },
            NetMsg::SubAck { head: 9, oldest: 4 },
            NetMsg::Ack { applied_seq: 12 },
            NetMsg::Chunk(vec![0xC5; 24]),
            NetMsg::RestoreDone {
                chunks: 5,
                head: 99,
            },
            NetMsg::Error {
                code: ErrorCode::Lagging,
                message: "cursor 3 below oldest 9".into(),
            },
        ];
        for m in &msgs {
            roundtrip(m);
        }
    }

    #[test]
    fn frame_buffer_handles_split_and_interleaved_frames() {
        let a = NetMsg::Ping.to_frame();
        let b = NetMsg::SqlReq {
            sql: "SELECT * FROM t WHERE k BETWEEN 0 AND 9".into(),
        }
        .to_frame();
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());

        // Feed one byte at a time: frames must pop out exactly when
        // complete, in order.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for byte in &stream {
            fb.extend(std::slice::from_ref(byte));
            while let Some(f) = fb.try_frame().expect("clean stream never errors") {
                got.push(f);
            }
        }
        assert_eq!(got, vec![a, b]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn length_lie_and_checksum_flip_error() {
        let frame = NetMsg::Pong { applied_seq: 1 }.to_frame();
        let good = frame.encode();

        // Length lie: claim a body far beyond MAX_FRAME_LEN.
        let mut lie = good.clone();
        lie[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(Frame::decode(&lie).is_err());

        // Flip one payload bit: checksum must catch it.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(Frame::decode(&flipped).is_err());

        // Flip the kind byte: still a checksum error, never a panic.
        let mut kind_flip = good;
        kind_flip[FRAME_HEADER_LEN] ^= 0xFF;
        assert!(Frame::decode(&kind_flip).is_err());
    }
}
