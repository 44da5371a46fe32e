//! The request side of the frame protocol: typed calls over a
//! [`Conn`], plus the replication helpers an edge node uses to
//! bootstrap and stay current over the wire.
//!
//! The client never trusts what it receives here — it returns verbatim
//! envelope bytes (`VBX2`/`VBX4`/`VBB1`) for the caller to decode and
//! **verify** with the usual [`vbx_core::verify`] machinery. The only
//! interpretation done locally is protocol shape (matching response
//! kinds, unwrapping `Error` frames).

use super::transport::{Conn, Transport};
use crate::central::EdgeBundle;
use crate::edge_server::EdgeServer;
use crate::service::EdgeError;
use std::io;
use std::time::{Duration, Instant};
use vbx_core::scheme::VbScheme;
use vbx_core::verify::FreshnessStamp;
use vbx_core::{commit_from_msg, CoreError, ErrorCode, NetMsg, RangeQuery, SyncError};
use vbx_crypto::accum::Accumulator;

/// How long a call waits for its response before giving up.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side failures.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (dial, send, receive, peer hang-up).
    Io(io::Error),
    /// A frame or envelope failed to decode.
    Wire(CoreError),
    /// The server answered with an `Error` frame.
    Remote {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with an unexpected message kind.
    Protocol(String),
    /// The local apply of a replicated entry failed partway through a
    /// poll round: `applied` entries landed before `source` stopped the
    /// round, so the edge's cursor has still advanced by that much.
    Apply {
        /// Entries applied before the failure.
        applied: usize,
        /// The typed apply failure.
        source: EdgeError<vbx_core::scheme::VbSchemeError>,
    },
    /// Verified state sync rejected a chunk stream.
    Sync(SyncError),
    /// Bounded retries of a transiently failing call ran out.
    RetriesExhausted {
        /// Attempts made, including the first.
        attempts: u32,
        /// The last transient failure observed.
        last: Box<NetError>,
    },
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<CoreError> for NetError {
    fn from(e: CoreError) -> Self {
        NetError::Wire(e)
    }
}

impl From<SyncError> for NetError {
    fn from(e: SyncError) -> Self {
        NetError::Sync(e)
    }
}

/// Bounded retry policy for the replication helpers: transient
/// transport failures (`NetError::Io` — dial refused, timeout, peer
/// reset) are retried with exponential backoff; every other failure
/// (protocol violations, remote errors, verification rejects) is
/// deterministic and surfaces immediately. When the budget runs out
/// the caller gets [`NetError::RetriesExhausted`] carrying the final
/// transport error.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Backoff before retry `n` is `base_delay << (n - 1)`.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_delay: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// No retries: a single attempt whose failure surfaces verbatim.
    pub fn none() -> Self {
        Self {
            attempts: 1,
            base_delay: Duration::ZERO,
        }
    }

    fn backoff(&self, retry: u32) -> Duration {
        self.base_delay.saturating_mul(1u32 << retry.min(16))
    }
}

fn is_transient(e: &NetError) -> bool {
    matches!(e, NetError::Io(_))
}

fn with_retries<T>(
    policy: &RetryPolicy,
    mut f: impl FnMut() -> Result<T, NetError>,
) -> Result<T, NetError> {
    let attempts = policy.attempts.max(1);
    let mut last: Option<NetError> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(policy.backoff(attempt - 1));
        }
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(NetError::RetriesExhausted {
        attempts,
        last: Box::new(last.expect("loop ran at least once")),
    })
}

/// One step of a chunked state-sync fetch.
#[derive(Debug)]
pub enum ChunkFetch {
    /// The next chunk's bytes — feed them to the restorer, then ask for
    /// the next index.
    Chunk(Vec<u8>),
    /// The requested index is past the end: the table has `chunks`
    /// chunks in total and the central's delta log head was `head` when
    /// it answered (the cursor a fresh subscription should start from).
    Done {
        /// Total chunks in the stream.
        chunks: u32,
        /// Central's delta-log head at answer time.
        head: u64,
    },
}

/// A typed frame-protocol client over any transport.
pub struct NetClient {
    conn: Box<dyn Conn>,
    retry: RetryPolicy,
}

impl NetClient {
    /// Dial `addr` over `transport`.
    pub fn connect(transport: &dyn Transport, addr: &str) -> Result<Self, NetError> {
        Ok(Self {
            conn: transport.connect(addr)?,
            retry: RetryPolicy::default(),
        })
    }

    /// Wrap an existing connection.
    pub fn from_conn(conn: Box<dyn Conn>) -> Self {
        Self {
            conn,
            retry: RetryPolicy::default(),
        }
    }

    /// Override the retry budget the replication helpers
    /// ([`fetch_chunk`](Self::fetch_chunk), [`replicate_once`],
    /// [`bootstrap_edge`]) spend on transient transport failures.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The client's current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    fn recv_msg(&mut self) -> Result<NetMsg, NetError> {
        let deadline = Instant::now() + CALL_TIMEOUT;
        loop {
            match self.conn.recv() {
                Ok(frame) => return Ok(NetMsg::from_frame(&frame)?),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Io(e));
                    }
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Send one message and receive one response message.
    pub fn call(&mut self, msg: &NetMsg) -> Result<NetMsg, NetError> {
        self.conn.send(&msg.to_frame())?;
        match self.recv_msg()? {
            NetMsg::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Ok(other),
        }
    }

    fn expect<T>(
        got: NetMsg,
        what: &str,
        f: impl FnOnce(NetMsg) -> Option<T>,
    ) -> Result<T, NetError> {
        let kind = got.kind();
        f(got).ok_or_else(|| NetError::Protocol(format!("expected {what}, got {kind:?}")))
    }

    /// Liveness probe; returns the peer's applied/committed sequence.
    pub fn ping(&mut self) -> Result<u64, NetError> {
        let resp = self.call(&NetMsg::Ping)?;
        Self::expect(resp, "Pong", |m| match m {
            NetMsg::Pong { applied_seq } => Some(applied_seq),
            _ => None,
        })
    }

    /// Range query; returns verbatim `VBX2` bytes to decode and verify.
    pub fn query_range(&mut self, table: &str, query: &RangeQuery) -> Result<Vec<u8>, NetError> {
        let resp = self.call(&NetMsg::RangeReq {
            table: table.to_string(),
            query: query.clone(),
        })?;
        Self::expect(resp, "QueryResp", |m| match m {
            NetMsg::QueryResp(bytes) => Some(bytes),
            _ => None,
        })
    }

    /// SQL query; returns verbatim `VBX2` bytes (the client re-plans
    /// the SQL itself to verify them).
    pub fn query_sql(&mut self, sql: &str) -> Result<Vec<u8>, NetError> {
        let resp = self.call(&NetMsg::SqlReq {
            sql: sql.to_string(),
        })?;
        Self::expect(resp, "QueryResp", |m| match m {
            NetMsg::QueryResp(bytes) => Some(bytes),
            _ => None,
        })
    }

    /// Compact multi-range query; returns verbatim `VBX4` bytes.
    pub fn query_compact(
        &mut self,
        table: &str,
        queries: &[RangeQuery],
        aggregate: bool,
    ) -> Result<Vec<u8>, NetError> {
        let resp = self.call(&NetMsg::CompactReq {
            table: table.to_string(),
            queries: queries.to_vec(),
            aggregate,
        })?;
        Self::expect(resp, "CompactResp", |m| match m {
            NetMsg::CompactResp(bytes) => Some(bytes),
            _ => None,
        })
    }

    /// Fetch the central's provisioning bundle (verbatim `VBB1` bytes).
    pub fn fetch_bundle(&mut self) -> Result<Vec<u8>, NetError> {
        let resp = self.call(&NetMsg::BundleReq)?;
        Self::expect(resp, "BundleResp", |m| match m {
            NetMsg::BundleResp(bytes) => Some(bytes),
            _ => None,
        })
    }

    /// Ask the peer for a freshness stamp (the central signs a new one;
    /// an edge relays its latest).
    pub fn heartbeat(&mut self) -> Result<Option<FreshnessStamp>, NetError> {
        let resp = self.call(&NetMsg::HeartbeatReq)?;
        Self::expect(resp, "Stamp", |m| match m {
            NetMsg::Stamp { stamp } => Some(stamp),
            _ => None,
        })
    }

    /// Subscribe to the delta stream from `cursor`; returns
    /// `(head, oldest)` of the server's log.
    pub fn subscribe(&mut self, cursor: u64) -> Result<(u64, u64), NetError> {
        let resp = self.call(&NetMsg::Subscribe { cursor })?;
        Self::expect(resp, "SubAck", |m| match m {
            NetMsg::SubAck { head, oldest } => Some((head, oldest)),
            _ => None,
        })
    }

    /// Pull up to `max` subscription entries. Returns the entry
    /// messages (`DeltaBatch`/`DeltaTxn`) followed by the log's
    /// `(head, oldest)` from the terminating `SubAck`.
    pub fn poll_deltas(&mut self, max: u32) -> Result<(Vec<NetMsg>, u64, u64), NetError> {
        self.conn.send(&NetMsg::PollDeltas { max }.to_frame())?;
        let mut entries = Vec::new();
        loop {
            match self.recv_msg()? {
                NetMsg::SubAck { head, oldest } => return Ok((entries, head, oldest)),
                NetMsg::Error { code, message } => return Err(NetError::Remote { code, message }),
                entry
                @ (NetMsg::DeltaBatch(_) | NetMsg::DeltaTxn(_) | NetMsg::SkipRange { .. }) => {
                    entries.push(entry)
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected {:?} in poll stream",
                        other.kind()
                    )))
                }
            }
        }
    }

    /// Request chunk `index` of `table`'s verified sync stream. The
    /// bytes come back verbatim for the scheme's restorer to
    /// authenticate — the client does not interpret them. Transient
    /// transport failures are retried per the client's
    /// [`RetryPolicy`] — the request is idempotent, so a replay after
    /// a dropped response is harmless.
    pub fn fetch_chunk(&mut self, table: &str, index: u32) -> Result<ChunkFetch, NetError> {
        let policy = self.retry;
        let resp = with_retries(&policy, || {
            self.call(&NetMsg::ChunkRequest {
                table: table.to_string(),
                index,
            })
        })?;
        Self::expect(resp, "Chunk or RestoreDone", |m| match m {
            NetMsg::Chunk(bytes) => Some(ChunkFetch::Chunk(bytes)),
            NetMsg::RestoreDone { chunks, head } => Some(ChunkFetch::Done { chunks, head }),
            _ => None,
        })
    }

    /// Push one replication message (a `VBX3`/`VBX7` envelope, skip, or
    /// stamp) to an edge and return its applied sequence from the Ack.
    pub fn push_replication(&mut self, msg: &NetMsg) -> Result<u64, NetError> {
        let resp = self.call(msg)?;
        Self::expect(resp, "Ack", |m| match m {
            NetMsg::Ack { applied_seq } => Some(applied_seq),
            _ => None,
        })
    }
}

/// Fetch and decode the central's bundle and stand up an edge server
/// from it. The bundle must be non-empty (its trees carry the scheme
/// parameters); provision empty edges via
/// [`EdgeServer::from_bundle_with_scheme`] instead.
pub fn bootstrap_edge<const L: usize>(
    client: &mut NetClient,
    acc: &Accumulator<L>,
) -> Result<EdgeServer<VbScheme<L>>, NetError> {
    let policy = client.retry_policy();
    let bytes = with_retries(&policy, || client.fetch_bundle())?;
    let bundle = EdgeBundle::from_bytes(&bytes, acc)?;
    Ok(EdgeServer::from_bundle(bundle))
}

/// Pull one round of subscription entries from `client` (a connection
/// to the central) and apply them to `edge`. Returns the number of
/// entries applied. A [`NetError::Remote`] with
/// [`ErrorCode::Lagging`] means the edge fell out of the bounded
/// backlog / retention window and must re-bootstrap from a bundle.
pub fn replicate_once<const L: usize>(
    client: &mut NetClient,
    edge: &EdgeServer<VbScheme<L>>,
    max: u32,
) -> Result<usize, NetError> {
    // Only the poll itself retries: a transient transport failure before
    // any entry was handed over is safely re-issued, while apply and
    // decode failures are deterministic and surface immediately.
    let policy = client.retry_policy();
    let (entries, _head, _oldest) = with_retries(&policy, || client.poll_deltas(max))?;
    let mut applied = 0usize;
    for entry in entries {
        let res = match entry {
            NetMsg::SkipRange { start_seq, count } => edge.service().skip_deltas(start_seq, count),
            msg => edge.apply_commit(&commit_from_msg(&msg, &edge.scheme().acc)?),
        };
        res.map_err(|source| NetError::Apply { applied, source })?;
        applied += 1;
    }
    Ok(applied)
}

/// Relay a fresh owner stamp from the central to a local edge: one
/// heartbeat call, then install the stamp so queries served from
/// `edge` republish it.
pub fn sync_stamp<const L: usize>(
    client: &mut NetClient,
    edge: &EdgeServer<VbScheme<L>>,
) -> Result<(), NetError> {
    if let Some(stamp) = client.heartbeat()? {
        edge.service().set_freshness_stamp(stamp);
    }
    Ok(())
}
