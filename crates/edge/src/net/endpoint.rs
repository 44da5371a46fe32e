//! Transport-agnostic endpoint handlers.
//!
//! An endpoint turns one inbound frame into the frames to send back —
//! no sockets, no threads. The connection loop in
//! [`crate::net::server`] drives it; tests can drive it directly with
//! in-memory frames. Per-connection protocol state (today: the
//! subscription cursor) lives in [`ConnState`], owned by the
//! connection, not the endpoint — endpoints themselves are `&self` and
//! shared across every connection thread.
//!
//! [`EdgeEndpoint`] is the untrusted serving side: range/SQL/compact
//! queries plus the push-replication path (batches, txns, skips,
//! stamps) a central or relay streams into it. [`CentralEndpoint`] is
//! the trusted side: provisioning bundles, heartbeat stamps, and the
//! subscribe-from-cursor delta stream with an explicit **bounded
//! backlog** — a subscriber that falls more than `max_backlog` entries
//! behind is disconnected with [`ErrorCode::Lagging`] instead of
//! growing an unbounded queue, and must re-bootstrap from a bundle.

use crate::central::CentralServer;
use crate::edge_server::EdgeServer;
use crate::service::EdgeError;
use std::sync::{Arc, Mutex};
use vbx_core::scheme::{AuthScheme, VbScheme};
use vbx_core::{commit_from_msg, commit_to_msg, encode_response, ErrorCode, Frame, NetMsg};
use vbx_crypto::SigVerifier;

/// Hard cap on entries one poll may return, whatever the client asks.
const MAX_POLL_ENTRIES: usize = 1024;

/// Per-connection protocol state, owned by the connection loop.
#[derive(Clone, Debug, Default)]
pub struct ConnState {
    /// The subscription cursor: next delta sequence this connection
    /// wants. `None` until a successful `Subscribe` (and again after a
    /// lag disconnect).
    pub cursor: Option<u64>,
}

/// A request handler: one inbound frame in, response frames out.
pub trait FrameEndpoint: Send + Sync {
    /// Serve one frame. Never panics on hostile input — protocol
    /// violations come back as [`NetMsg::Error`] frames.
    fn serve_frame(&self, state: &mut ConnState, frame: &Frame) -> Vec<Frame>;
}

fn err_frame(code: ErrorCode, message: impl Into<String>) -> Vec<Frame> {
    vec![NetMsg::Error {
        code,
        message: message.into(),
    }
    .to_frame()]
}

fn edge_err_frame<E: std::fmt::Debug>(e: &EdgeError<E>) -> Vec<Frame> {
    match e {
        EdgeError::UnknownTable(t) => err_frame(ErrorCode::UnknownTable, format!("table {t:?}")),
        EdgeError::OutOfOrder { expected, got } => err_frame(
            ErrorCode::OutOfOrder,
            format!("expected seq {expected}, got {got}"),
        ),
        EdgeError::Scheme(e) => err_frame(ErrorCode::Scheme, format!("{e:?}")),
    }
}

// ---------------------------------------------------------------------
// Edge
// ---------------------------------------------------------------------

/// The edge server behind a frame interface: untrusted query serving
/// plus the push side of replication.
pub struct EdgeEndpoint<const L: usize> {
    server: Arc<EdgeServer<VbScheme<L>>>,
    aggregator: Option<Arc<dyn SigVerifier>>,
}

impl<const L: usize> EdgeEndpoint<L> {
    /// Wrap a (shared) edge server.
    pub fn new(server: Arc<EdgeServer<VbScheme<L>>>) -> Self {
        Self {
            server,
            aggregator: None,
        }
    }

    /// Configure the verifier used to condense signatures when a
    /// compact request asks for aggregation.
    pub fn with_aggregator(mut self, aggregator: Arc<dyn SigVerifier>) -> Self {
        self.aggregator = Some(aggregator);
        self
    }

    /// The served edge (e.g. to flip tamper modes in a conformance
    /// script).
    pub fn server(&self) -> &Arc<EdgeServer<VbScheme<L>>> {
        &self.server
    }
}

impl<const L: usize> FrameEndpoint for EdgeEndpoint<L> {
    fn serve_frame(&self, _state: &mut ConnState, frame: &Frame) -> Vec<Frame> {
        let msg = match NetMsg::from_frame(frame) {
            Ok(msg) => msg,
            Err(e) => return err_frame(ErrorCode::BadRequest, format!("{e:?}")),
        };
        match msg {
            NetMsg::Ping => vec![NetMsg::Pong {
                applied_seq: self.server.applied_seq(),
            }
            .to_frame()],
            NetMsg::RangeReq { table, query } => match self.server.query_range(&table, &query) {
                Ok(resp) => vec![NetMsg::QueryResp(encode_response(&resp)).to_frame()],
                Err(e) => edge_err_frame(&e),
            },
            NetMsg::SqlReq { sql } => match self.server.query_sql(&sql) {
                Ok((_plan, resp)) => vec![NetMsg::QueryResp(encode_response(&resp)).to_frame()],
                Err(e) => err_frame(ErrorCode::BadRequest, format!("{e:?}")),
            },
            NetMsg::CompactReq {
                table,
                queries,
                aggregate,
            } => {
                let agg = if aggregate {
                    self.aggregator.as_deref()
                } else {
                    None
                };
                match self.server.query_compact(&table, &queries, agg) {
                    Ok(bytes) => vec![NetMsg::CompactResp(bytes).to_frame()],
                    Err(e) => edge_err_frame(&e),
                }
            }
            msg @ (NetMsg::DeltaBatch(_) | NetMsg::DeltaTxn(_)) => {
                match commit_from_msg(&msg, &self.server.scheme().acc) {
                    Ok(commit) => match self.server.apply_commit(&commit) {
                        Ok(()) => vec![self.ack()],
                        Err(e) => edge_err_frame(&e),
                    },
                    Err(e) => err_frame(ErrorCode::BadRequest, format!("{e:?}")),
                }
            }
            NetMsg::SkipRange { start_seq, count } => {
                match self.server.service().skip_deltas(start_seq, count) {
                    Ok(()) => vec![self.ack()],
                    Err(e) => edge_err_frame(&e),
                }
            }
            NetMsg::Stamp { stamp } => {
                if let Some(stamp) = stamp {
                    self.server.service().set_freshness_stamp(stamp);
                }
                vec![self.ack()]
            }
            NetMsg::HeartbeatReq => {
                // The edge relays the owner-signed stamp it last saw; it
                // cannot mint one.
                vec![NetMsg::Stamp {
                    stamp: self.server.service().current_freshness().stamp,
                }
                .to_frame()]
            }
            _ => err_frame(
                ErrorCode::BadRequest,
                format!("{:?} is not an edge request", frame.kind),
            ),
        }
    }
}

impl<const L: usize> EdgeEndpoint<L> {
    fn ack(&self) -> Frame {
        NetMsg::Ack {
            applied_seq: self.server.applied_seq(),
        }
        .to_frame()
    }
}

// ---------------------------------------------------------------------
// Central
// ---------------------------------------------------------------------

/// Default bound on a subscriber's backlog (entries between its cursor
/// and the log head) before it is disconnected as lagging.
pub const DEFAULT_MAX_BACKLOG: u64 = 4096;

/// The trusted central behind a frame interface: bundles, heartbeats,
/// and the cursor-based subscription stream.
pub struct CentralEndpoint<const L: usize> {
    central: Mutex<CentralServer<VbScheme<L>>>,
    max_backlog: u64,
}

impl<const L: usize> CentralEndpoint<L> {
    /// Wrap a central server (the endpoint serializes access — the
    /// central's write path is `&mut`).
    pub fn new(central: CentralServer<VbScheme<L>>) -> Self {
        Self {
            central: Mutex::new(central),
            max_backlog: DEFAULT_MAX_BACKLOG,
        }
    }

    /// Override the lag bound after which a subscriber is disconnected.
    pub fn with_max_backlog(mut self, max_backlog: u64) -> Self {
        self.max_backlog = max_backlog.max(1);
        self
    }

    /// Run `f` against the wrapped central (commits in tests/benches
    /// while connections are being served).
    pub fn with_central<R>(&self, f: impl FnOnce(&mut CentralServer<VbScheme<L>>) -> R) -> R {
        // Recover a poisoned lock: a connection thread that panicked
        // mid-frame must not cascade panics across every other
        // connection (the central's write path keeps its own
        // atomicity — a failed commit rolls back before unwinding).
        f(&mut self.central.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<const L: usize> FrameEndpoint for CentralEndpoint<L> {
    fn serve_frame(&self, state: &mut ConnState, frame: &Frame) -> Vec<Frame> {
        let msg = match NetMsg::from_frame(frame) {
            Ok(msg) => msg,
            Err(e) => return err_frame(ErrorCode::BadRequest, format!("{e:?}")),
        };
        // See `with_central` for why the lock is recovered, not
        // propagated.
        let mut central = self.central.lock().unwrap_or_else(|e| e.into_inner());
        match msg {
            NetMsg::Ping => {
                let head = central.delta_log().next_seq();
                vec![NetMsg::Pong {
                    applied_seq: head.saturating_sub(1),
                }
                .to_frame()]
            }
            NetMsg::BundleReq => {
                vec![NetMsg::BundleResp(central.bundle().to_bytes()).to_frame()]
            }
            NetMsg::HeartbeatReq => vec![NetMsg::Stamp {
                stamp: Some(central.heartbeat()),
            }
            .to_frame()],
            NetMsg::Subscribe { cursor } => {
                let log = central.delta_log();
                let (head, oldest) = (log.next_seq(), log.oldest_seq());
                if cursor < oldest {
                    state.cursor = None;
                    return err_frame(
                        ErrorCode::Lagging,
                        format!("cursor {cursor} below retention horizon {oldest}; re-bundle"),
                    );
                }
                state.cursor = Some(cursor);
                vec![NetMsg::SubAck { head, oldest }.to_frame()]
            }
            NetMsg::PollDeltas { max } => {
                let Some(cursor) = state.cursor else {
                    return err_frame(ErrorCode::BadRequest, "poll before subscribe");
                };
                let log = central.delta_log();
                let (head, oldest) = (log.next_seq(), log.oldest_seq());
                let backlog = head.saturating_sub(cursor);
                if backlog > self.max_backlog {
                    // The bounded send queue: rather than buffering an
                    // unbounded fan-out for a slow subscriber, drop the
                    // subscription with an explicit lag error.
                    state.cursor = None;
                    return err_frame(
                        ErrorCode::Lagging,
                        format!(
                            "subscriber {backlog} entries behind exceeds bound {}; re-subscribe",
                            self.max_backlog
                        ),
                    );
                }
                let entries = match log.collect_since(cursor) {
                    Ok(entries) => entries,
                    Err(e) => {
                        state.cursor = None;
                        return err_frame(ErrorCode::Lagging, format!("{e:?}"));
                    }
                };
                let budget = (max as usize).clamp(1, MAX_POLL_ENTRIES);
                let mut frames = Vec::new();
                let mut next = cursor;
                for entry in entries.into_iter().take(budget) {
                    next = entry.end_seq();
                    frames.push(commit_to_msg(&entry).to_frame());
                }
                state.cursor = Some(next);
                // A SubAck trailer marks the poll complete and reports
                // the log shape, so an empty poll still answers.
                frames.push(NetMsg::SubAck { head, oldest }.to_frame());
                frames
            }
            NetMsg::ChunkRequest { table, index } => {
                let Some(store) = central.store(&table) else {
                    return err_frame(ErrorCode::UnknownTable, format!("table {table:?}"));
                };
                let total = central.scheme().sync_chunk_count(store);
                if (index as usize) >= total {
                    // Past the end (or a scheme without sync support,
                    // total 0): report the stream shape and the log
                    // head to subscribe from.
                    return vec![NetMsg::RestoreDone {
                        chunks: total as u32,
                        head: central.delta_log().next_seq(),
                    }
                    .to_frame()];
                }
                match central.scheme().encode_sync_chunk(store, index as usize) {
                    Ok(bytes) => vec![NetMsg::Chunk(bytes).to_frame()],
                    Err(e) => err_frame(ErrorCode::Internal, format!("{e}")),
                }
            }
            _ => err_frame(
                ErrorCode::BadRequest,
                format!("{:?} is not a central request", frame.kind),
            ),
        }
    }
}
