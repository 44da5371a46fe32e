//! The four workloads: what one op is, how ops are generated from the
//! seed, and the client session that runs an op end to end — request,
//! verified reply, comparison with the shadow table.
//!
//! Every workload is a closed loop: a session sends its next request
//! only after the previous reply was verified.

use crate::deploy::{self, Central, Deployment, Scheme, L};
use crate::trace::{Probe, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use vbx_core::{
    decode_compact_response, decode_response, encode_delta_batch, encode_txn_batch, AuthScheme,
    ClientVerifier, CompactResponse, DeltaBatch, NetMsg, QueryResponse, RangeQuery, ResultRow,
    TxnBatch, UpdateOp, VerifyReport,
};
use vbx_edge::{EdgeClient, KeyFreshnessPolicy, NetClient};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Table, Tuple, Value};

/// Paper Table 1 shape: 10 attributes of 20 bytes.
const COLUMNS: usize = 10;
const ATTR_BYTES: usize = 20;
/// Rows per table unless `--rows` says otherwise.
pub const DEFAULT_ROWS: u64 = 2_400;
/// `point_hot` draws from this many statements.
const STATEMENTS: usize = 64;
const ZIPF_S: f64 = 0.99;
/// `mixed`: reads per cycle, and the hot ranges they are spread over.
const CYCLE_READS: usize = 16;
const HOT_RANGES: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RangeCold,
    PointHot,
    TxnCommit,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RangeCold,
        Workload::PointHot,
        Workload::TxnCommit,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RangeCold => "range_cold",
            Workload::PointHot => "point_hot",
            Workload::TxnCommit => "txn_commit",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn tables(self) -> &'static [&'static str] {
        match self {
            Workload::TxnCommit => &["t0", "t1"],
            _ => &["items"],
        }
    }

    /// Ops in one round, frozen so that counts repeat exactly per
    /// seed. Calibrated once on a 2-vCPU box (see README, "Sizes").
    pub fn ops_per_round(self) -> usize {
        match self {
            Workload::RangeCold => 320,
            Workload::PointHot => 560,
            Workload::TxnCommit => 40,
            Workload::Mixed => 64,
        }
    }

    /// Client sessions (threads and connections): one, so that client
    /// and server threads alternate and latency is a plain stage sum;
    /// `mixed` alone contends, with as many as the box has cores, up
    /// to two.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::Mixed => nproc.clamp(1, 2),
            _ => 1,
        }
    }

    /// Whether the workload commits, so that its crash image holds
    /// more than set-up wrote.
    pub fn commits(self) -> bool {
        matches!(self, Workload::TxnCommit | Workload::Mixed)
    }
}

fn spec(table: &str, rows: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        table: table.into(),
        seed,
        ..WorkloadSpec::new(rows, COLUMNS, ATTR_BYTES)
    }
}

/// What a run's deployment and sessions are made from; all of it
/// follows from the workload, the row count and the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub tables: Vec<Table>,
}

impl Inputs {
    pub fn generate(workload: Workload, rows: u64, seed: u64) -> Self {
        let table_seed = |i: usize| seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let tables = workload.tables().iter().enumerate();
        Self {
            workload,
            seed,
            tables: tables
                .map(|(i, t)| spec(t, rows, table_seed(i)).build())
                .collect(),
        }
    }
}

/// The generator's own copy of the rows a session is answerable for.
pub type Shadow = BTreeMap<&'static str, BTreeMap<u64, Vec<Value>>>;

struct Statement {
    sql: String,
    lo: u64,
    hi: u64,
}

/// One row replaced: deleted and inserted again with new values.
pub struct Replace {
    pub table: &'static str,
    pub tuple: Tuple,
}

pub enum Op {
    /// One aggregated compact (`VBX4`) request.
    Compact(Vec<RangeQuery>),
    /// One SQL statement of the session's set, answered flat (`VBX2`).
    Sql(usize),
    /// One atomic multi-table txn, replicated to the edge.
    Txn(Vec<Replace>),
    /// One durable batch, replicated, then compact reads of hot ranges.
    Cycle(Vec<Replace>, Vec<usize>),
}

/// Deterministic op source of one session.
struct OpGen {
    wl: Workload,
    rng: StdRng,
    rows: u64,
    /// Keys this session writes and reads in `mixed`.
    part: (u64, u64),
    specs: Vec<WorkloadSpec>,
    // range_cold: a walk over distinct range pairs.
    walk_next: u64,
    walk_start: u64,
    walk_stride: u64,
    statements: Vec<Statement>,
    hot: Vec<RangeQuery>,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// How often each of `ranks` items occurs among `n` Zipf(s) draws,
/// rounded by largest remainder: the distribution without the
/// sampling noise, so every round has the same mix.
fn zipf_counts(ranks: usize, n: usize, s: f64) -> Vec<usize> {
    let w: Vec<f64> = (1..=ranks).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_rem: Vec<usize> = (0..ranks).collect();
    by_rem.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &r in by_rem.iter().take(short) {
        counts[r] += 1;
    }
    counts
}

impl OpGen {
    fn new(wl: Workload, rows: u64, seed: u64, client: usize, clients: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E_0000 + client as u64));
        let part = (
            rows * client as u64 / clients as u64,
            rows * (client as u64 + 1) / clients as u64,
        );
        let specs = wl.tables().iter().map(|t| spec(t, rows, 0)).collect();
        let span = Self::span(wl, rows);
        let m = rows - span + 1;
        let mut walk_stride = rng.gen_range(m / 3..m);
        while gcd(walk_stride, m) != 1 {
            walk_stride += 1;
        }

        // A bulk-loaded table packs `fanout` consecutive keys into each
        // leaf. A hot range that lies inside one full leaf has the same
        // VO shape wherever it lies, so what a hot op costs and ships
        // depends on the code and not on where the seed put it.
        let leaf = deploy::tree_config().fanout() as u64;
        let in_full_leaf = |lo: u64, hi: u64| lo / leaf == hi / leaf && hi / leaf < rows / leaf;

        // Statement r is a point lookup for even r and a 4-row lookup
        // for odd r, so the mix by rank does not depend on the seed.
        let mut statements: Vec<Statement> = Vec::new();
        while wl == Workload::PointHot && statements.len() < STATEMENTS {
            let lo = rng.gen_range(0..rows - 4);
            let hi = if statements.len() % 2 == 0 {
                lo
            } else {
                lo + 3
            };
            if !in_full_leaf(lo, hi) || statements.iter().any(|s| s.lo == lo) {
                continue;
            }
            let sql = if lo == hi {
                format!("SELECT * FROM items WHERE id = {lo}")
            } else {
                format!("SELECT * FROM items WHERE id BETWEEN {lo} AND {hi}")
            };
            statements.push(Statement { sql, lo, hi });
        }

        let mut hot: Vec<RangeQuery> = Vec::new();
        while wl == Workload::Mixed && hot.len() < HOT_RANGES {
            let lo = rng.gen_range(part.0..part.1 - span);
            if in_full_leaf(lo, lo + span - 1) && hot.iter().all(|q| q.lo != lo) {
                hot.push(RangeQuery::select_all(lo, lo + span - 1));
            }
        }

        Self {
            wl,
            rows,
            part,
            specs,
            walk_next: 0,
            walk_start: rng.gen_range(0..m),
            walk_stride,
            rng,
            statements,
            hot,
        }
    }

    /// Keys per range: 1 % of the table cold, 0.5 % in `mixed`.
    fn span(wl: Workload, rows: u64) -> u64 {
        match wl {
            Workload::Mixed => (rows / 200).max(1),
            _ => (rows / 100).max(1),
        }
    }

    /// The next pair of ranges of a walk that never repeats a pair:
    /// the first range steps through every position with a stride
    /// coprime to their number, the second sits at an offset that
    /// grows each time the walk wraps.
    fn cold_pair(&mut self) -> Vec<RangeQuery> {
        let span = Self::span(self.wl, self.rows);
        let m = self.rows - span + 1;
        let (lap, step) = (self.walk_next / m, self.walk_next % m);
        self.walk_next += 1;
        let lo1 = (self.walk_start + step * self.walk_stride) % m;
        let lo2 = (lo1 + m / 2 + 97 * lap) % m;
        vec![
            RangeQuery::select_all(lo1, lo1 + span - 1),
            RangeQuery::select_all(lo2, lo2 + span - 1),
        ]
    }

    /// Replace `n` distinct rows of table `t` with keys in `lo..hi`.
    fn replaces(&mut self, t: usize, n: usize, lo: u64, hi: u64, out: &mut Vec<Replace>) {
        let table = self.wl.tables()[t];
        let schema = self.specs[t].schema();
        let first = out.len();
        while out.len() < first + n {
            let key = self.rng.gen_range(lo..hi);
            if out[first..].iter().all(|r| r.tuple.key != key) {
                let tuple = self.specs[t].make_tuple(&schema, key, &mut self.rng);
                out.push(Replace { table, tuple });
            }
        }
    }

    /// The ops of one round, made before its clock starts.
    fn round(&mut self, n: usize) -> Vec<Op> {
        match self.wl {
            Workload::RangeCold => (0..n).map(|_| Op::Compact(self.cold_pair())).collect(),
            Workload::PointHot => {
                let mut ops: Vec<usize> = zipf_counts(self.statements.len(), n, ZIPF_S)
                    .into_iter()
                    .enumerate()
                    .flat_map(|(rank, count)| std::iter::repeat_n(rank, count))
                    .collect();
                shuffle(&mut ops, &mut self.rng);
                ops.into_iter().map(Op::Sql).collect()
            }
            Workload::TxnCommit => (0..n)
                .map(|_| {
                    let mut w = Vec::with_capacity(4);
                    self.replaces(0, 2, 0, self.rows, &mut w);
                    self.replaces(1, 2, 0, self.rows, &mut w);
                    Op::Txn(w)
                })
                .collect(),
            Workload::Mixed => (0..n)
                .map(|_| {
                    let mut w = Vec::with_capacity(2);
                    self.replaces(0, 2, self.part.0, self.part.1, &mut w);
                    let mut reads: Vec<usize> =
                        (0..CYCLE_READS).map(|i| i % self.hot.len()).collect();
                    shuffle(&mut reads, &mut self.rng);
                    Op::Cycle(w, reads)
                })
                .collect(),
        }
    }
}

/// What a session counted, summed over its ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub commits: u64,
    pub rows_verified: u64,
    pub rows_written: u64,
    /// Encoded replication payload bytes (envelopes, without frames).
    pub repl_payload_bytes: u64,
    pub hash_ops: u64,
    pub combine_ops: u64,
    pub lift_ops: u64,
    pub sigs: u64,
    pub peak_stack: u64,
}

impl Tally {
    fn zip(&self, o: &Tally, f: fn(u64, u64) -> u64, peak_stack: u64) -> Tally {
        Tally {
            attempted: f(self.attempted, o.attempted),
            failed: f(self.failed, o.failed),
            commits: f(self.commits, o.commits),
            rows_verified: f(self.rows_verified, o.rows_verified),
            rows_written: f(self.rows_written, o.rows_written),
            repl_payload_bytes: f(self.repl_payload_bytes, o.repl_payload_bytes),
            hash_ops: f(self.hash_ops, o.hash_ops),
            combine_ops: f(self.combine_ops, o.combine_ops),
            lift_ops: f(self.lift_ops, o.lift_ops),
            sigs: f(self.sigs, o.sigs),
            peak_stack,
        }
    }

    pub fn add(&mut self, o: &Tally) {
        *self = self.zip(o, |a, b| a + b, self.peak_stack.max(o.peak_stack));
    }

    pub fn since(&self, earlier: &Tally) -> Tally {
        self.zip(earlier, |now, then| now - then, self.peak_stack)
    }

    fn verified(&mut self, report: &VerifyReport) {
        self.rows_verified += report.rows as u64;
        self.hash_ops += report.meter.hash_ops;
        self.combine_ops += report.meter.combine_ops;
        self.lift_ops += report.meter.lift_ops;
        self.sigs += report.signatures_checked as u64;
        self.peak_stack = self.peak_stack.max(report.peak_stack_depth as u64);
    }
}

/// One closed-loop client session: its connections, its op source,
/// its shadow rows and what it counted.
pub struct Client<'a> {
    pub dep: &'a Deployment,
    reads: NetClient,
    repl: NetClient,
    pub sql: EdgeClient<L>,
    gen: OpGen,
    /// Keys [`fresh_sql`](Self::fresh_sql) already asked.
    fresh: Vec<u64>,
    pub shadow: Shadow,
    pub tally: Tally,
}

fn rows_match(rows: &[ResultRow], q: &RangeQuery, shadow: &BTreeMap<u64, Vec<Value>>) -> bool {
    let mut want = shadow.range(q.lo..=q.hi);
    rows.iter().all(|r| {
        want.next()
            .is_some_and(|(k, v)| *k == r.key && *v == r.values)
    }) && want.next().is_none()
}

impl<'a> Client<'a> {
    /// Session `client` of `clients`, over its two connections.
    pub fn new(
        dep: &'a Deployment,
        inputs: &Inputs,
        client: usize,
        clients: usize,
        reads: NetClient,
        repl: NetClient,
    ) -> Self {
        let (wl, tables) = (inputs.workload, &inputs.tables);
        let rows = tables[0].len() as u64;
        let gen = OpGen::new(wl, rows, inputs.seed, client, clients);
        // Only `mixed` splits the rows between sessions.
        let mine = |k: u64| wl != Workload::Mixed || (gen.part.0..gen.part.1).contains(&k);
        let shadow = wl
            .tables()
            .iter()
            .zip(tables)
            .map(|(name, t)| {
                let rows = t
                    .iter()
                    .filter(|r| mine(r.key))
                    .map(|r| (r.key, r.values.clone()));
                (*name, rows.collect())
            })
            .collect();
        Self {
            dep,
            reads,
            repl,
            sql: EdgeClient::new(dep.schemas.clone(), dep.acc.clone()),
            gen,
            fresh: Vec::new(),
            shadow,
            tally: Tally::default(),
        }
    }

    pub fn round_ops(&mut self, n: usize) -> Vec<Op> {
        self.gen.round(n)
    }

    /// Every statement once, so that `point_hot` starts its measured
    /// rounds with all of them cached.
    pub fn prime_ops(&self) -> Vec<Op> {
        (0..self.gen.statements.len()).map(Op::Sql).collect()
    }

    /// One round trip on the read connection.
    pub fn ping(&mut self) -> Result<u64, String> {
        self.reads.ping().map_err(|e| format!("ping: {e:?}"))
    }

    /// A read of this workload's kind (the tamper check sends it while
    /// the edge forges its replies).
    pub fn probe_read(&mut self) -> Result<(), String> {
        let op = match self.gen.wl {
            Workload::PointHot => Op::Sql(0),
            Workload::Mixed => Op::Compact(vec![self.gen.hot[0].clone()]),
            _ => Op::Compact(self.gen.cold_pair()),
        };
        self.read(&op, &mut Probe::new(None, 0)).map(|_| ())
    }

    /// Run one op and return its latency in ns, from request encode to
    /// rows accepted by the verifier (or commit call to edge ack). A
    /// failed, refused or rejected op is an `Err`, never a latency.
    pub fn run(&mut self, op: &Op, id: u64, tracer: Option<&mut Tracer>) -> Result<u64, String> {
        self.tally.attempted += 1;
        let mut probe = Probe::new(tracer, id);
        let t0 = Instant::now();
        let res = match op {
            Op::Compact(_) | Op::Sql(_) => self.read(op, &mut probe),
            Op::Txn(w) => self.write(w, true, &mut probe),
            Op::Cycle(w, reads) => self.write(w, false, &mut probe).and_then(|()| {
                reads.iter().try_for_each(|&r| {
                    let q = Op::Compact(vec![self.gen.hot[r].clone()]);
                    self.read(&q, &mut probe)
                })
            }),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        probe.finish();
        if res.is_err() {
            self.tally.failed += 1;
        }
        res.map(|()| ns)
    }

    /// The table this workload reads.
    pub fn table(&self) -> &'static str {
        self.gen.wl.tables()[0]
    }

    pub fn statement_sql(&self, i: usize) -> &str {
        &self.gen.statements[i].sql
    }

    pub fn hot_range(&self, i: usize) -> RangeQuery {
        self.gen.hot[i].clone()
    }

    /// A point lookup no statement of the set asks, so never cached.
    pub fn fresh_sql(&mut self) -> String {
        loop {
            let k = self.gen.rng.gen_range(0..self.gen.rows);
            let asked = |s: &Statement| (s.lo..=s.hi).contains(&k);
            if !self.gen.statements.iter().any(asked) && !self.fresh.contains(&k) {
                self.fresh.push(k);
                return format!("SELECT * FROM items WHERE id = {k}");
            }
        }
    }

    /// Record an acked commit of `writes` in the shadow and the tally.
    pub fn note_written(&mut self, writes: &[Replace]) {
        for w in writes {
            self.shadow
                .get_mut(w.table)
                .expect("workload table")
                .insert(w.tuple.key, w.tuple.values.clone());
        }
        self.tally.commits += 1;
        self.tally.rows_written += writes.len() as u64;
    }

    /// A verified read; its rows are then compared with the shadow.
    fn read(&mut self, op: &Op, probe: &mut Probe<'_>) -> Result<(), String> {
        let dep = self.dep;
        let table = self.table();
        let shadow = &self.shadow[table];
        match op {
            Op::Compact(queries) => {
                let bytes = probe
                    .time("live.request", || {
                        self.reads.query_compact(table, queries, true)
                    })
                    .map_err(|e| format!("compact request: {e:?}"))?;
                let resp: CompactResponse<L> = probe
                    .time("live.decode", || decode_compact_response(&bytes, &dep.acc))
                    .map_err(|e| format!("compact decode: {e}"))?;
                let report = probe
                    .time("live.verify", || {
                        ClientVerifier::new(&dep.acc, &dep.schemas[table]).verify_compact(
                            dep.verifier.as_ref(),
                            queries,
                            &resp,
                        )
                    })
                    .map_err(|e| format!("compact verify: {e}"))?;
                self.tally.verified(&report);
                let same = resp.parts.len() == queries.len()
                    && resp
                        .parts
                        .iter()
                        .zip(queries)
                        .all(|(p, q)| rows_match(&p.rows, q, shadow));
                same.then_some(()).ok_or("rows differ from shadow".into())
            }
            Op::Sql(i) => {
                let st = &self.gen.statements[*i];
                let bytes = probe
                    .time("live.request", || self.reads.query_sql(&st.sql))
                    .map_err(|e| format!("sql request: {e:?}"))?;
                let resp: QueryResponse<L> = probe
                    .time("live.decode", || decode_response(&bytes, &dep.acc))
                    .map_err(|e| format!("sql decode: {e}"))?;
                let verified = probe
                    .time("live.verify", || {
                        self.sql.verify(
                            &st.sql,
                            &resp,
                            &dep.registry,
                            KeyFreshnessPolicy::RequireCurrent,
                        )
                    })
                    .map_err(|e| format!("sql verify: {e}"))?;
                self.tally.verified(&verified.report);
                let q = RangeQuery::select_all(st.lo, st.hi);
                rows_match(&verified.rows, &q, shadow)
                    .then_some(())
                    .ok_or("rows differ from shadow".into())
            }
            _ => unreachable!("not a read"),
        }
    }

    /// Commit `writes` durably at the central and replicate the
    /// envelope to the edge. Commit and push happen under the central's
    /// mutex, so the edge sees commits in sequence order whichever
    /// session made them.
    fn write(
        &mut self,
        writes: &[Replace],
        txn: bool,
        probe: &mut Probe<'_>,
    ) -> Result<(), String> {
        let (dep, repl) = (self.dep, &mut self.repl);
        let (payload, applied, end_seq) = dep.central.with_central(|c| {
            let done = probe.time("live.commit", || commit(dep, c, writes, txn))?;
            let (msg, payload) = probe.time("live.encode", || done.encode());
            // The commit is acked from here on: the shadow must hold
            // it even if replication then fails.
            let applied = probe.time("live.replicate", || repl.push_replication(&msg));
            Ok::<_, String>((payload, applied, done.end_seq()))
        })?;
        self.note_written(writes);
        self.tally.repl_payload_bytes += payload;
        match applied {
            Ok(seq) if seq == end_seq => Ok(()),
            Ok(seq) => Err(format!("edge acked seq {seq}, commit ended at {end_seq}")),
            Err(e) => Err(format!("replicate: {e:?}")),
        }
    }
}

type Delta = <Scheme as AuthScheme>::Delta;

/// What the central returned for a commit.
pub enum Committed {
    Txn(Arc<TxnBatch<Delta>>),
    Batch(Arc<DeltaBatch<Delta>>),
}

impl Committed {
    fn end_seq(&self) -> u64 {
        match self {
            Committed::Txn(t) => t.end_seq(),
            Committed::Batch(b) => b.end_seq(),
        }
    }

    /// The replication message for the edge, and its envelope's bytes.
    pub fn encode(&self) -> (NetMsg, u64) {
        match self {
            Committed::Txn(t) => {
                let bytes = encode_txn_batch(t.as_ref());
                let len = bytes.len() as u64;
                (NetMsg::DeltaTxn(bytes), len)
            }
            Committed::Batch(b) => {
                let bytes = encode_delta_batch(b.as_ref());
                let len = bytes.len() as u64;
                (NetMsg::DeltaBatch(bytes), len)
            }
        }
    }
}

/// Commit `writes` (each a delete and an insert of its row) at the
/// central: as one atomic multi-table txn, or as one batch on the
/// single table they share.
pub fn commit(
    dep: &Deployment,
    c: &mut Central,
    writes: &[Replace],
    txn: bool,
) -> Result<Committed, String> {
    let stage = |w: &Replace| {
        [
            UpdateOp::Delete(w.tuple.key),
            UpdateOp::Insert(w.tuple.clone()),
        ]
    };
    let done = if txn {
        let mut t = c.begin_txn();
        for w in writes {
            for op in stage(w) {
                t.stage(w.table, op);
            }
        }
        Committed::Txn(c.commit_txn(t).map_err(|e| format!("commit_txn: {e}"))?)
    } else {
        let ops = writes.iter().flat_map(stage).collect();
        let batch = c.execute_update_batch(writes[0].table, ops);
        Committed::Batch(batch.map_err(|e| format!("commit batch: {e}"))?)
    };
    dep.note_committed(writes.len() as u64 * 2);
    Ok(done)
}
