//! The stage replay of a traced run, and the layer metrics it yields.
//!
//! The servers run in this process but behind sockets and threads, so
//! what they do inside one request cannot be timed from outside while
//! it is served. A traced run therefore takes the next ops from the
//! run's own generator and walks each through the public call of every
//! layer in turn, on this thread, one span per call: frame codec →
//! edge serve (with tree walk + VO assembly and wire encode measured
//! by calling the inner public function on the same input) → frame
//! codec → wire decode → verify → one real round trip on the run's
//! connection; and for commits: central commit (signing, fsync and
//! checkpoint time taken from the decorators' counters) → wire encode
//! → frame codec → round trip → wire decode → edge apply. Replayed
//! commits are real commits of the same deployment. The ops are
//! replayed a few at a time after each measured round, so that they see
//! the same seconds of the box as the rounds they are compared with.

use crate::decor::TimedVfs;
use crate::deploy::{self, Deployment, Keys, L};
use crate::run::Plan;
use crate::stats::median;
use crate::trace::{stage_table, Tracer};
use crate::workloads::{self, Client, Inputs, Op, Replace};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use vbx_core::{
    decode_compact_response, decode_delta_batch, decode_response, decode_txn_batch,
    encode_compact_prefix, encode_response, execute, measure_compact, measure_response,
    ClientVerifier, FrameBuffer, NetMsg, RangeQuery,
};
use vbx_crypto::accum::exp_from_seed;
use vbx_edge::KeyFreshnessPolicy;
use vbx_mathx::groups::rsa_fixtures;
use vbx_mathx::{MontCtx, U1024};
use vbx_query::{parse_select, plan_select};

pub type Layers = BTreeMap<&'static str, f64>;

fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// What both ends do to move one message: build and encode the frame,
/// reassemble and checksum it, parse the message.
fn codec(msg: &NetMsg) -> Result<NetMsg, String> {
    let bytes = msg.to_frame().encode();
    let mut buf = FrameBuffer::new();
    buf.extend(&bytes);
    let frame = buf
        .try_frame()
        .map_err(|e| format!("frame: {e}"))?
        .ok_or("frame incomplete")?;
    NetMsg::from_frame(&frame).map_err(|e| format!("message: {e}"))
}

/// Sums and samples the replay collects beside its spans.
#[derive(Default)]
struct Seen {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    rows: f64,
    digests: f64,
    vo_ops: f64,
    dict: f64,
    vo_bytes: f64,
}

struct Replay<'c, 'd, 't> {
    c: &'c mut Client<'d>,
    keys: &'t Keys,
    tr: &'t mut Tracer,
    seen: &'t mut Seen,
}

impl Replay<'_, '_, '_> {
    /// One real round trip on the run's read connection. A read's comes
    /// last in its replay, after the verify stage, so that the server
    /// thread has slept about as long as it does between live ops: how
    /// long a thread slept decides how long it takes to wake.
    fn round_trip(&mut self, op: u64) -> Result<(), String> {
        self.tr
            .time("edge.net.rtt", None, op, || self.c.ping())
            .1
            .map(|_| ())
    }

    fn codec(&mut self, op: u64, msg: &NetMsg) -> Result<(), String> {
        self.tr
            .time("core.frame.codec", None, op, || codec(msg))
            .1
            .map(|_| ())
    }

    /// One compact read. When `again`, the same request is then served
    /// a second time, outside the op's spans, to time a cache hit.
    fn compact(&mut self, op: u64, queries: &[RangeQuery], again: bool) -> Result<(), String> {
        let dep: &Deployment = self.c.dep;
        let table = self.c.table();
        let agg = Some(dep.verifier.as_ref());
        self.codec(
            op,
            &NetMsg::CompactReq {
                table: table.into(),
                queries: queries.to_vec(),
                aggregate: true,
            },
        )?;

        let hits = || dep.edge.service().compact_cache_stats().hits;
        let hits0 = hits();
        let (serve, bytes) = self.tr.time("edge.serve_miss", None, op, || {
            dep.edge.query_compact(table, queries, agg)
        });
        let bytes = bytes.map_err(|e| format!("edge serve: {e}"))?;
        let serve_us = self.tr.spans[serve as usize].ns() as f64 / 1e3;
        if hits() > hits0 {
            self.tr.spans[serve as usize].name = "edge.serve_hit";
            self.seen.hit_us.push(serve_us);
        } else {
            self.seen.miss_us.push(serve_us);
            // What the miss ran inside: tree walk + VO assembly, then
            // the wire encoding of the prefix it caches.
            let tree = dep.edge.tree(table).ok_or("replica missing")?;
            let t0 = Instant::now();
            let resp = dep.edge.scheme().multi_query_compact(&tree, queries, agg);
            let exec_ns = ns(t0);
            let t0 = Instant::now();
            std::hint::black_box(encode_compact_prefix(&resp));
            let encode_ns = ns(t0);
            self.tr.nest("core.vo.exec", serve, exec_ns);
            self.tr.nest("core.wire.encode", serve, encode_ns);
        }
        if again {
            let t0 = Instant::now();
            dep.edge
                .query_compact(table, queries, agg)
                .map_err(|e| format!("edge serve: {e}"))?;
            self.seen.hit_us.push(ns(t0) as f64 / 1e3);
        }

        self.codec(op, &NetMsg::CompactResp(bytes.clone()))?;
        let resp = self
            .tr
            .time("core.wire.decode", None, op, || {
                decode_compact_response::<L>(&bytes, &dep.acc)
            })
            .1
            .map_err(|e| format!("decode: {e}"))?;
        let sig_ns = self.keys.verify_counts.ns();
        let (verify, report) = self.tr.time("core.verify", None, op, || {
            ClientVerifier::new(&dep.acc, &dep.schemas[table]).verify_compact(
                dep.verifier.as_ref(),
                queries,
                &resp,
            )
        });
        let report = report.map_err(|e| format!("verify: {e}"))?;
        self.tr.nest(
            "crypto.verify",
            verify,
            self.keys.verify_counts.ns() - sig_ns,
        );
        self.round_trip(op)?;

        self.seen.rows += report.rows as f64;
        self.seen.digests += resp.digest_count() as f64;
        self.seen.vo_ops += resp.parts.iter().map(|p| p.ops.len()).sum::<usize>() as f64;
        self.seen.dict += resp.dict.len() as f64;
        self.seen.vo_bytes += measure_compact(&resp).vo_bytes as f64;
        Ok(())
    }

    /// One SQL read of the session's statement set (a cache hit once
    /// the set is primed), then a statement of the same shape that no
    /// one asked before, outside the op's spans, to time a miss.
    fn sql(&mut self, op: u64, statement: usize) -> Result<(), String> {
        let dep: &Deployment = self.c.dep;
        let sql = self.c.statement_sql(statement).to_string();
        self.codec(op, &NetMsg::SqlReq { sql: sql.clone() })?;

        let plan = |sql: &str| -> Result<u64, String> {
            let t0 = Instant::now();
            let stmt = parse_select(sql).map_err(|e| format!("parse: {e}"))?;
            std::hint::black_box(
                plan_select(&stmt, &dep.schemas).map_err(|e| format!("plan: {e}"))?,
            );
            Ok(ns(t0))
        };
        let hits = || dep.edge.service().cache_stats().hits;
        let hits0 = hits();
        let (serve, served) = self
            .tr
            .time("edge.serve_miss", None, op, || dep.edge.query_sql(&sql));
        let (planned, resp) = served.map_err(|e| format!("edge serve: {e}"))?;
        let serve_us = self.tr.spans[serve as usize].ns() as f64 / 1e3;
        self.tr.nest("query.plan", serve, plan(&sql)?);
        if hits() > hits0 {
            self.tr.spans[serve as usize].name = "edge.serve_hit";
            self.seen.hit_us.push(serve_us);
        } else {
            self.seen.miss_us.push(serve_us);
            let tree = dep.edge.tree(&planned.target).ok_or("replica missing")?;
            let t0 = Instant::now();
            std::hint::black_box(execute(&tree, &planned.range_query, None));
            self.tr.nest("core.vo.exec", serve, ns(t0));
        }
        let fresh = self.c.fresh_sql();
        let t0 = Instant::now();
        dep.edge
            .query_sql(&fresh)
            .map_err(|e| format!("edge serve: {e}"))?;
        self.seen.miss_us.push(ns(t0) as f64 / 1e3);

        let bytes = self
            .tr
            .time("core.wire.encode", None, op, || encode_response(&resp))
            .1;
        self.codec(op, &NetMsg::QueryResp(bytes.clone()))?;
        let resp = self
            .tr
            .time("core.wire.decode", None, op, || {
                decode_response::<L>(&bytes, &dep.acc)
            })
            .1
            .map_err(|e| format!("decode: {e}"))?;
        let sig_ns = self.keys.verify_counts.ns();
        let (verify, verified) = self.tr.time("core.verify", None, op, || {
            self.c.sql.verify(
                &sql,
                &resp,
                &dep.registry,
                KeyFreshnessPolicy::RequireCurrent,
            )
        });
        let verified = verified.map_err(|e| format!("verify: {e}"))?;
        // The client plans the statement again rather than trust the edge.
        self.tr.nest("query.plan", verify, plan(&sql)?);
        self.tr.nest(
            "crypto.verify",
            verify,
            self.keys.verify_counts.ns() - sig_ns,
        );
        self.round_trip(op)?;

        self.seen.rows += verified.rows.len() as f64;
        self.seen.digests += resp.vo.digest_count() as f64;
        self.seen.vo_bytes += measure_response(&resp).vo_bytes as f64;
        Ok(())
    }

    /// One commit — an atomic txn, or a batch on the single table —
    /// made at the central, encoded, decoded and applied at the edge.
    fn commit(&mut self, op: u64, writes: &[Replace], txn: bool) -> Result<(), String> {
        let dep: &Deployment = self.c.dep;
        let sign0 = self.keys.sign_counts.ns();
        let vfs0 = dep.vfs.counts();
        let (commit, done) = self.tr.time("edge.central.commit", None, op, || {
            dep.central
                .with_central(|c| workloads::commit(dep, c, writes, txn))
        });
        let done = done?;
        let (msg, _) = self
            .tr
            .time("core.wire.encode", None, op, || done.encode())
            .1;
        let vfs = dep.vfs.counts().since(&vfs0);
        self.tr
            .nest("crypto.sign", commit, self.keys.sign_counts.ns() - sign0);
        self.tr.nest("storage.vfs.sync", commit, vfs.sync_ns);
        self.tr
            .nest("storage.checkpoint", commit, vfs.checkpoint_ns);
        self.c.note_written(writes);

        self.codec(op, &msg)?;
        self.codec(op, &NetMsg::Ack { applied_seq: 0 })?;
        self.round_trip(op)?;
        let acc = &dep.acc;
        match &msg {
            NetMsg::DeltaTxn(bytes) => {
                let (_, t) = self.tr.time("core.wire.decode", None, op, || {
                    decode_txn_batch(bytes, acc)
                });
                let t = t.map_err(|e| format!("decode: {e}"))?;
                self.tr
                    .time("edge.apply", None, op, || dep.edge.apply_txn(&t))
                    .1
                    .map_err(|e| format!("apply: {e}"))
            }
            NetMsg::DeltaBatch(bytes) => {
                let (_, b) = self.tr.time("core.wire.decode", None, op, || {
                    decode_delta_batch(bytes, acc)
                });
                let b = b.map_err(|e| format!("decode: {e}"))?;
                self.tr
                    .time("edge.apply", None, op, || dep.edge.apply_delta_batch(&b))
                    .1
                    .map_err(|e| format!("apply: {e}"))
            }
            _ => unreachable!("commit builds a txn or a batch"),
        }
    }

    fn op(&mut self, id: u64, op: &Op) -> Result<(), String> {
        match op {
            Op::Compact(q) => self.compact(id, q, true),
            Op::Sql(i) => self.sql(id, *i),
            Op::Txn(w) => self.commit(id, w, true),
            Op::Cycle(w, reads) => {
                self.commit(id, w, false)?;
                reads.iter().try_for_each(|&r| {
                    let q = self.c.hot_range(r);
                    self.compact(id, &[q], false)
                })
            }
        }
    }
}

/// What a run replayed so far: the spans, and what was counted beside.
pub struct Replayed {
    pub tracer: Tracer,
    seen: Seen,
    ops: u64,
}

impl Replayed {
    pub fn new(origin: Instant) -> Self {
        Self {
            tracer: Tracer::new(origin),
            seen: Seen::default(),
            ops: 0,
        }
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Replay the session's next `n` ops through each layer.
    pub fn step(&mut self, c: &mut Client<'_>, keys: &Keys, n: usize) -> Result<(), String> {
        let ops = c.round_ops(n);
        let mut r = Replay {
            c,
            keys,
            tr: &mut self.tracer,
            seen: &mut self.seen,
        };
        for op in &ops {
            r.op(self.ops, op)?;
            self.ops += 1;
        }
        Ok(())
    }

    /// The layer metrics the replay yields.
    pub fn layers(&self) -> Layers {
        let (tr, seen) = (&self.tracer, &self.seen);
        let stages = stage_table(&tr.spans);
        let stage = |name: &str| stages.iter().find(|s| s.name == name);
        let per_op_us = |name: &str| stage(name).map_or(0.0, |s| s.total_ms * 1e3);
        let per_call = |name: &str| {
            let spans = tr.spans.iter().filter(|s| s.name == name);
            median(&spans.map(|s| s.ns() as f64).collect::<Vec<_>>())
        };
        let per_row = |x: f64| if seen.rows > 0.0 { x / seen.rows } else { 0.0 };
        BTreeMap::from([
            ("query.plan_us_per_op", per_op_us("query.plan")),
            ("edge.serve_hit_us", median(&seen.hit_us)),
            ("edge.serve_miss_us", median(&seen.miss_us)),
            ("core.vo.exec_us_per_op", per_op_us("core.vo.exec")),
            ("core.vo.digests_per_row", per_row(seen.digests)),
            ("core.vo.ops_per_row", per_row(seen.vo_ops)),
            (
                "core.vo.dict_entries_per_op",
                seen.dict / self.ops.max(1) as f64,
            ),
            ("core.wire.encode_us_per_op", per_op_us("core.wire.encode")),
            ("core.wire.decode_us_per_op", per_op_us("core.wire.decode")),
            ("core.wire.vo_bytes_per_row", per_row(seen.vo_bytes)),
            ("core.frame.codec_us_per_op", per_op_us("core.frame.codec")),
            ("core.verify.us_per_op", per_op_us("core.verify")),
            ("edge.net.rtt_us", per_call("edge.net.rtt") / 1e3),
            (
                "edge.central.commit_ms",
                per_op_us("edge.central.commit") / 1e3,
            ),
            ("edge.apply.ms_per_commit", per_op_us("edge.apply") / 1e3),
        ])
    }
}

/// Unit costs of the crypto and bignum primitives, each the median of
/// a fixed number of calls on fixed inputs.
pub fn primitives(dep: &Deployment, keys: &Keys) -> Layers {
    fn median_us(n: u64, mut f: impl FnMut(u64)) -> f64 {
        let v: Vec<f64> = (0..n)
            .map(|i| {
                let t0 = Instant::now();
                f(i);
                ns(t0) as f64 / 1e3
            })
            .collect();
        median(&v)
    }
    let msg = |i: u64| format!("vbx-benchmark primitive probe {i:>12}").into_bytes();
    let sigs: Vec<_> = (0..32).map(|i| keys.signer.sign(&msg(i))).collect();
    // The modular exponentiation signing and lifting run on: one
    // 1024-bit power in a Montgomery context.
    let (mont, d) = (MontCtx::new(rsa_fixtures::n_1024()), rsa_fixtures::d_1024());
    BTreeMap::from([
        (
            "crypto.sign_us",
            median_us(32, |i| {
                std::hint::black_box(keys.signer.sign(&msg(i)));
            }),
        ),
        (
            "crypto.verify_us",
            median_us(32, |i| {
                assert!(keys.verifier.verify(&msg(i), &sigs[i as usize]));
            }),
        ),
        (
            "crypto.lift_us",
            median_us(64, |i| {
                std::hint::black_box(dep.acc.lift(&exp_from_seed(&dep.acc, i)));
            }),
        ),
        (
            "mathx.pow_mod_us",
            median_us(16, |i| {
                let base = d.wrapping_add(&U1024::from_u64(i));
                std::hint::black_box(mont.pow_mod(&base, &d));
            }),
        ),
    ])
}

/// Commit time at the run's table size ÷ commit time at a quarter of
/// it: 1.0 when a commit costs O(delta), 4.0 when it costs O(rows).
pub fn commit_scaling(
    plan: &Plan,
    keys: &Keys,
    run_dir: &Path,
    commit_ms: f64,
) -> Result<f64, String> {
    let inputs = Inputs::generate(plan.workload, plan.rows / 4, plan.seed);
    let dir = deploy::fresh_dir(run_dir, "central-quarter")?;
    let (dep, _) = Deployment::set_up(&dir, &inputs.tables, keys)?;
    let net = crate::decor::CountingTransport::default();
    let (reads, repl) = (dep.dial_edge(&net)?, dep.dial_edge(&net)?);
    let mut c = Client::new(&dep, &inputs, 0, 1, reads, repl);
    let mut replayed = Replayed::new(Instant::now());
    replayed.step(&mut c, keys, 32)?;
    let small = replayed.layers()["edge.central.commit_ms"];
    drop(c);
    dep.shut_down();
    Ok(if small > 0.0 { commit_ms / small } else { 0.0 })
}

/// Ops replayed from the WAL suffix per second of recovery spent on
/// them: recovery of the crash image minus recovery of the same image
/// without its WAL.
pub fn wal_replay_rate(
    vfs: &TimedVfs,
    keys: &Keys,
    run_dir: &Path,
    suffix_ops: u64,
    reps: usize,
) -> Result<f64, String> {
    if suffix_ops == 0 {
        return Ok(0.0);
    }
    let mut with_wal = Vec::new();
    let mut without = Vec::new();
    for i in 0..reps {
        for (keep_wal, out) in [(true, &mut with_wal), (false, &mut without)] {
            let dir = deploy::fresh_dir(run_dir, &format!("replay-{i}-{keep_wal}"))?;
            vfs.write_crash_image(&dir)
                .map_err(|e| format!("crash image: {e}"))?;
            if !keep_wal {
                std::fs::remove_file(dir.join(vbx_storage::wal::WAL_FILE))
                    .map_err(|e| format!("drop WAL: {e}"))?;
            }
            out.push(deploy::recover(&dir, keys)?.1);
        }
    }
    let replay_s = median(&with_wal) - median(&without);
    Ok(if replay_s > 0.0 {
        suffix_ops as f64 / replay_s
    } else {
        0.0
    })
}
