//! One run of one workload: set-up (repeated), a warm-up round,
//! measured rounds of a fixed op count (a traced run replays a few ops
//! stage by stage after each), the tamper check, then crash image,
//! recovery (repeated) and the durable-state checks. Prints every
//! metric by name and ends with one JSON line.

use crate::decor::{CountingTransport, VfsCounts};
use crate::deploy::{self, Deployment, Keys};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay::{self, Layers, Replayed};
use crate::stats::{median, percentile, quartiles, sorted};
use crate::trace::{self, Tracer};
use crate::workloads::{Client, Inputs, Op, Shadow, Tally, Workload};
use crate::{alloc, env, json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::Instant;
use vbx_edge::TamperMode;

/// Everything that decides what a run does.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub rows: u64,
    pub rounds: usize,
    pub ops_per_round: usize,
    pub setups: usize,
    pub recoveries: usize,
    pub out_dir: PathBuf,
}

/// Measured rounds at the declared `run_seconds`; `--seconds` scales
/// the number of rounds, never the ops in one.
pub const ROUNDS: usize = 8;
pub const RUN_SECONDS: u64 = 10;
pub const SETUPS: usize = 3;
pub const RECOVERIES: usize = 7;
/// Ops a traced run replays through each layer in turn, spread over
/// its rounds.
const REPLAY_SAMPLE: usize = 40;

/// What one round measured.
struct Round {
    /// Latencies in ms, ascending, of the ops that succeeded: those
    /// run without a tracer (in an untraced run, all), and those a
    /// traced run recorded spans for (every other op).
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    wall_s: f64,
    cpu_ns: u64,
    tally: Tally,
    counters: Counters,
}

impl Round {
    fn ops(&self) -> f64 {
        (self.plain_ms.len() + self.traced_ms.len()).max(1) as f64
    }

    fn rows(&self) -> f64 {
        (self.tally.rows_verified + self.tally.rows_written).max(1) as f64
    }
}

fn total_tally(clients: &[Client<'_>]) -> Tally {
    let mut t = Tally::default();
    for c in clients {
        t.add(&c.tally);
    }
    t
}

/// The deployment's counters; the layer metrics are their differences
/// over the measured rounds.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidated: u64,
    cache_evicted: u64,
    locks_acquired: u64,
    lock_conflicts: u64,
    central_lock_conflicts: u64,
    vfs: VfsCounts,
    signs: u64,
    frames: u64,
    wire_bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Counters {
    fn read(dep: &Deployment, keys: &Keys, nets: &[&CountingTransport]) -> Self {
        let svc = dep.edge.service();
        // The flat-response cache and the compact-prefix cache.
        let (a, b) = (svc.cache_stats(), svc.compact_cache_stats());
        let locks = svc.lock_stats();
        let net = nets.iter().map(|n| n.counts.totals());
        let (allocs, alloc_bytes) = alloc::totals();
        Self {
            cache_hits: a.hits + b.hits,
            cache_misses: a.misses + b.misses,
            cache_invalidated: a.invalidated + b.invalidated,
            cache_evicted: a.evicted + b.evicted,
            locks_acquired: locks.acquired,
            lock_conflicts: locks.conflicts,
            central_lock_conflicts: dep.central.with_central(|c| c.lock_stats().conflicts),
            vfs: dep.vfs.counts(),
            signs: keys.sign_counts.calls(),
            frames: net.clone().map(|t| t.0).sum(),
            wire_bytes: net.map(|t| t.1).sum(),
            allocs,
            alloc_bytes,
        }
    }

    fn zip(&self, o: &Self, f: fn(u64, u64) -> u64) -> Self {
        Self {
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            cache_invalidated: f(self.cache_invalidated, o.cache_invalidated),
            cache_evicted: f(self.cache_evicted, o.cache_evicted),
            locks_acquired: f(self.locks_acquired, o.locks_acquired),
            lock_conflicts: f(self.lock_conflicts, o.lock_conflicts),
            central_lock_conflicts: f(self.central_lock_conflicts, o.central_lock_conflicts),
            vfs: self.vfs.zip(&o.vfs, f),
            signs: f(self.signs, o.signs),
            frames: f(self.frames, o.frames),
            wire_bytes: f(self.wire_bytes, o.wire_bytes),
            allocs: f(self.allocs, o.allocs),
            alloc_bytes: f(self.alloc_bytes, o.alloc_bytes),
        }
    }
}

/// Run `ops[i]` on `clients[i]`, all sessions at once, and measure
/// the round. No other thread of the harness runs meanwhile: with one
/// session the ops run on this thread, with more this thread sleeps
/// on a barrier until every session is done. With `tracers`, every
/// other op records client-side spans; the ops between are the
/// untraced reference, taken in the same seconds.
fn run_round(
    clients: &mut [Client<'_>],
    ops: &[Vec<Op>],
    first_id: u64,
    tracers: Option<&mut Vec<Tracer>>,
    read: impl Fn() -> Counters,
) -> Round {
    type Latencies = (Vec<f64>, Vec<f64>);
    fn drive(c: &mut Client<'_>, ops: &[Op], id: u64, mut tr: Option<&mut Tracer>) -> Latencies {
        let (mut plain, mut traced) = (Vec::with_capacity(ops.len()), Vec::new());
        for (i, op) in ops.iter().enumerate() {
            let tr = tr.as_deref_mut().filter(|_| i % 2 == 1);
            let lat = if tr.is_some() {
                &mut traced
            } else {
                &mut plain
            };
            match c.run(op, id + i as u64, tr) {
                Ok(ns) => lat.push(ns as f64 / 1e6),
                Err(e) => eprintln!("op {} failed: {e}", id + i as u64),
            }
        }
        (plain, traced)
    }

    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(t) => t.iter_mut().map(Some).collect(),
        None => clients.iter().map(|_| None).collect(),
    };
    let tally0 = total_tally(clients);
    let counters0 = read();
    let cpu0 = env::process_cpu_ns();
    let t0 = Instant::now();
    let (lat, wall_s, cpu_ns) = if clients.len() == 1 {
        let lat = drive(&mut clients[0], &ops[0], first_id, tracers.remove(0));
        let wall_s = t0.elapsed().as_secs_f64();
        (vec![lat], wall_s, env::process_cpu_ns() - cpu0)
    } else {
        // Sessions stay alive between the barriers so that their CPU
        // time is still readable when the round's is sampled.
        let (done, release) = (
            Barrier::new(clients.len() + 1),
            Barrier::new(clients.len() + 1),
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(ops)
                .zip(tracers.drain(..))
                .enumerate()
                .map(|(i, ((c, ops), tr))| {
                    let (done, release) = (&done, &release);
                    let id = first_id + (i * ops.len()) as u64;
                    s.spawn(move || {
                        let lat = drive(c, ops, id, tr);
                        let end = t0.elapsed().as_secs_f64();
                        done.wait();
                        release.wait();
                        (lat, end)
                    })
                })
                .collect();
            done.wait();
            let cpu_ns = env::process_cpu_ns() - cpu0;
            release.wait();
            let mut lat = Vec::new();
            let mut wall_s = 0f64;
            for h in handles {
                let (l, end) = h.join().expect("client session panicked");
                lat.push(l);
                wall_s = wall_s.max(end);
            }
            (lat, wall_s, cpu_ns)
        })
    };
    let all = |f: fn(&Latencies) -> &Vec<f64>| {
        sorted(&lat.iter().flat_map(f).copied().collect::<Vec<_>>())
    };
    Round {
        plain_ms: all(|l| &l.0),
        traced_ms: all(|l| &l.1),
        wall_s,
        cpu_ns,
        tally: total_tally(clients).since(&tally0),
        counters: read().zip(&counters0, |now, then| now - then),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The layer metrics that are plain counter differences, summed over
/// the measured rounds.
fn counted_layers(m: &mut Layers, c: &Counters, t: &Tally) {
    let ops = t.attempted as f64;
    let commits = t.commits as f64;
    let rows = t.rows_verified as f64;
    let per = |n: u64, den: f64| ratio(n as f64, den);
    let mut put = |name, value| {
        m.insert(name, value);
    };
    put(
        "edge.cache.hit_ratio",
        per(c.cache_hits, (c.cache_hits + c.cache_misses) as f64),
    );
    put(
        "edge.cache.invalidated_per_commit",
        per(c.cache_invalidated, commits),
    );
    put("edge.cache.evicted_per_op", per(c.cache_evicted, ops));
    put(
        "edge.locks.conflict_ratio",
        per(
            c.lock_conflicts,
            (c.locks_acquired + c.lock_conflicts) as f64,
        ),
    );
    put("edge.locks.acquired_per_op", per(c.locks_acquired, ops));
    put(
        "edge.central.lock_conflicts",
        c.central_lock_conflicts as f64,
    );
    put("core.verify.sigs_per_op", per(t.sigs, ops));
    put("core.verify.hash_ops_per_row", per(t.hash_ops, rows));
    put("core.verify.combine_ops_per_row", per(t.combine_ops, rows));
    put("core.verify.lift_ops_per_op", per(t.lift_ops, ops));
    put("core.verify.peak_stack_depth", t.peak_stack as f64);
    put("crypto.sign_calls_per_commit", per(c.signs, commits));
    put("edge.net.bytes_per_op", per(c.wire_bytes, ops));
    put("edge.net.frames_per_op", per(c.frames, ops));
    put(
        "storage.vfs.sync_ms_per_commit",
        ratio(c.vfs.sync_ns as f64 / 1e6, commits),
    );
    put("storage.vfs.syncs_per_commit", per(c.vfs.syncs, commits));
    put(
        "storage.wal.bytes_per_row",
        per(c.vfs.wal_bytes, t.rows_written as f64),
    );
    put("storage.checkpoint.count", c.vfs.checkpoints as f64);
    put(
        "storage.checkpoint.ms",
        ratio(c.vfs.checkpoint_ns as f64 / 1e6, c.vfs.checkpoints as f64),
    );
    put(
        "edge.apply.bytes_per_commit",
        per(t.repl_payload_bytes, commits),
    );
    put("alloc.count_per_op", per(c.allocs, ops));
    put("alloc.bytes_per_op", per(c.alloc_bytes, ops));
}

/// Every table of the recovered central holds exactly the shadow rows.
fn holds_shadow(central: &deploy::Central, shadow: &Shadow) -> bool {
    shadow.iter().all(|(table, rows)| {
        central.store(table).is_some_and(|tree| {
            tree.len() == rows.len() as u64
                && rows
                    .iter()
                    .all(|(k, v)| tree.get(*k).is_some_and(|t| t.values == *v))
        })
    })
}

struct Reduced {
    median: f64,
    q1: f64,
    q3: f64,
}

fn reduce(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Reduced {
    let v: Vec<f64> = rounds.iter().map(f).collect();
    let (q1, _, q3) = quartiles(&v);
    Reduced {
        median: median(&v),
        q1,
        q3,
    }
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<40} {value:>16.6} {unit:<6} {note}");
}

/// Run the plan. `Ok(correct)` once a result line was printed.
pub fn run(plan: &Plan) -> Result<bool, String> {
    let wl = plan.workload;
    let nproc = env::nproc();
    let clients_n = wl.clients(nproc);
    let run_dir = deploy::fresh_dir(
        &plan.out_dir,
        &format!("run-{}-{}", wl.name(), std::process::id()),
    )?;
    println!(
        "# workload {} seed {} trace {} — {} rows × {} table(s), {} client(s), closed loop, \
         {} rounds × {} ops after 1 warm-up round",
        wl.name(),
        plan.seed,
        u8::from(plan.traced),
        plan.rows,
        wl.tables().len(),
        clients_n,
        plan.rounds,
        plan.ops_per_round
    );

    let inputs = Inputs::generate(wl, plan.rows, plan.seed);
    let keys = Keys::new(plan.traced);

    // ---- set-up, repeated; the last deployment is the one measured --
    let mut setup_s = Vec::new();
    let mut kept: Option<Deployment> = None;
    for i in 0..plan.setups {
        // One deployment at a time, so the heap peak is one's.
        if let Some(dep) = kept.take() {
            dep.shut_down();
        }
        let dir = deploy::fresh_dir(&run_dir, &format!("central-{i}"))?;
        let (dep, s) = Deployment::set_up(&dir, &inputs.tables, &keys)?;
        setup_s.push(s);
        kept = Some(dep);
    }
    let dep = kept.ok_or("at least one set-up")?;

    let read_net = CountingTransport::default();
    let repl_net = CountingTransport::default();
    let mut clients = Vec::new();
    for c in 0..clients_n {
        let (reads, repl) = (dep.dial_edge(&read_net)?, dep.dial_edge(&repl_net)?);
        clients.push(Client::new(&dep, &inputs, c, clients_n, reads, repl));
    }
    let read_counters = || Counters::read(&dep, &keys, &[&read_net, &repl_net]);
    let per_client = (plan.ops_per_round / clients_n).max(1);

    // ---- warm-up (discarded): every statement of a hot set once, then
    // half a round ------------------------------------------------------
    let mut ops: Vec<Vec<Op>> = clients
        .iter_mut()
        .map(|c| c.round_ops(per_client.div_ceil(2)))
        .collect();
    for (c, o) in clients.iter().zip(&mut ops) {
        o.splice(0..0, c.prime_ops());
    }
    let warm = run_round(&mut clients, &ops, 0, None, read_counters);
    if warm.tally.failed > 0 {
        return Err(format!("{} ops failed while warming up", warm.tally.failed));
    }

    // ---- measured rounds --------------------------------------------
    // A traced run replays a few ops through each layer after every
    // round, so that the replay and the rounds it is compared with see
    // the same seconds of a box whose speed drifts.
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..clients_n).map(|_| Tracer::new(origin)).collect();
    let mut replayed = Replayed::new(origin);
    let mut rounds = Vec::with_capacity(plan.rounds);
    for r in 0..plan.rounds {
        let ops: Vec<Vec<Op>> = clients
            .iter_mut()
            .map(|c| c.round_ops(per_client))
            .collect();
        let first_id = (r * per_client * clients_n) as u64;
        let tr = plan.traced.then_some(&mut tracers);
        rounds.push(run_round(&mut clients, &ops, first_id, tr, read_counters));
        if plan.traced {
            let sample = REPLAY_SAMPLE.div_ceil(plan.rounds);
            replayed.step(&mut clients[0], &keys, sample)?;
        }
    }
    let mut tally = Tally::default();
    let mut counted = Counters::default();
    for r in &rounds {
        tally.add(&r.tally);
        counted = counted.zip(&r.counters, |sum, round| sum + round);
    }

    // ---- one tampered request path: the verifier must reject it -----
    dep.edge.set_tamper(TamperMode::MutateValue);
    let tamper_rejected = clients[0].probe_read().is_err();
    dep.edge.set_tamper(TamperMode::None);
    let honest_again = clients[0].probe_read().is_ok();

    // ---- traced run: the stage table, and does it reconcile? --------
    let p50 = reduce(&rounds, |r| percentile(&r.plain_ms, 0.50));
    let mut layers = Layers::new();
    let mut reconciled = true;
    if plan.traced {
        counted_layers(&mut layers, &counted, &tally);
        layers.extend(replayed.layers());
        layers.extend(replay::primitives(&dep, &keys));
        let server_errors = dep.edge_srv.stats().errors.load(Ordering::Relaxed);
        layers.insert("edge.net.server_errors", server_errors as f64);
        if wl.commits() {
            let scaling =
                replay::commit_scaling(plan, &keys, &run_dir, layers["edge.central.commit_ms"])?;
            layers.insert("edge.central.commit_scaling", scaling);
        }

        let traced_p50 = reduce(&rounds, |r| percentile(&r.traced_ms, 0.50));
        let overhead = ratio(traced_p50.median, p50.median);
        let stages = trace::stage_table(&replayed.tracer.spans);
        let coverage = ratio(stages.iter().map(|s| s.self_ms).sum(), p50.median);
        layers.insert("trace.overhead_ratio", overhead);
        layers.insert("trace.coverage", coverage);

        println!(
            "\n# stage table — {} ops replayed in-process, one span per call; op_p50_ms = {:.4}",
            replayed.ops(),
            p50.median
        );
        println!(
            "{:<28} {:>12} {:>12} {:>10} {:>8}",
            "stage", "self ms/op", "total ms/op", "calls/op", "share"
        );
        for s in &stages {
            println!(
                "{:<28} {:>12.4} {:>12.4} {:>10.2} {:>7.1}%",
                s.name,
                s.self_ms,
                s.total_ms,
                s.calls_per_op,
                100.0 * ratio(s.self_ms, p50.median)
            );
        }
        println!(
            "{:<28} {:>12.4} {:>36.1}%",
            "sum of stages",
            coverage * p50.median,
            100.0 * coverage
        );
        let mut live = Tracer::new(origin);
        for t in tracers {
            live.absorb(t);
        }
        println!("\n# client view of the traced ops (live spans)");
        for s in trace::stage_table(&live.spans) {
            println!(
                "{:<28} {:>12.4} {:>12.4} {:>10.2}",
                s.name, s.self_ms, s.total_ms, s.calls_per_op
            );
        }

        // Reconciliation: the stages must add up to the op, and
        // recording spans must not slow it.
        let gated = wl != Workload::Mixed;
        if gated && !(0.85..=1.10).contains(&coverage) {
            eprintln!("trace.coverage {coverage:.3} outside 0.85–1.10");
            reconciled = false;
        }
        if overhead > 1.15 {
            eprintln!("trace.overhead_ratio {overhead:.3} above 1.15");
            reconciled = false;
        }

        let file = plan.out_dir.join(format!("{}.trace.json", wl.name()));
        let mut all = replayed.tracer;
        all.absorb(live);
        std::fs::write(&file, trace::to_json(wl.name(), plan.seed, &all.spans))
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        println!(
            "\n# {} spans written to {}",
            all.spans.len(),
            file.display()
        );
    }

    // ---- crash image from synced bytes, recovery, durable checks ----
    let mut shadow = Shadow::new();
    for c in &mut clients {
        for (table, rows) in std::mem::take(&mut c.shadow) {
            shadow.entry(table).or_default().extend(rows);
        }
    }
    drop(clients);
    let wal_suffix_ops = dep.wal_suffix_ops();
    let (central, vfs) = dep.shut_down();
    let live_state = central.with_central(|c| c.encode_state());
    let live_holds_shadow = central.with_central(|c| holds_shadow(c, &shadow));
    drop(central);

    let mut recover_s = Vec::new();
    let mut recovered_ok = true;
    for i in 0..plan.recoveries {
        let dir = deploy::fresh_dir(&run_dir, &format!("image-{i}"))?;
        vfs.write_crash_image(&dir)
            .map_err(|e| format!("crash image: {e}"))?;
        let (recovered, s) = deploy::recover(&dir, &keys)?;
        recover_s.push(s);
        // Every acked commit is in the shadow; the recovered state
        // must hold all of it and equal the live server's bytes.
        recovered_ok &= holds_shadow(&recovered, &shadow) && recovered.encode_state() == live_state;
    }
    if plan.traced {
        let replay_rate =
            replay::wal_replay_rate(&vfs, &keys, &run_dir, wal_suffix_ops, plan.recoveries)?;
        layers.insert("edge.durability.replay_ops_per_s", replay_rate);
        // Bytes of one checkpoint image per stored row; the images of
        // the whole run (set-up wrote the first) are sized.
        let rows_stored = plan.rows as f64 * wl.tables().len() as f64;
        let written = vfs.counts();
        let image = ratio(written.checkpoint_bytes as f64, written.checkpoints as f64);
        layers.insert(
            "storage.checkpoint.bytes_per_row",
            ratio(image, rows_stored),
        );
    }
    drop(vfs);
    std::fs::remove_dir_all(&run_dir).map_err(|e| format!("remove {}: {e}", run_dir.display()))?;

    // ---- results ----------------------------------------------------
    let p95 = reduce(&rounds, |r| percentile(&r.plain_ms, 0.95));
    let p99 = reduce(&rounds, |r| percentile(&r.plain_ms, 0.99));
    let rate = reduce(&rounds, |r| r.ops() / r.wall_s);
    let cpu = reduce(&rounds, |r| r.cpu_ns as f64 / 1e6 / r.ops());
    let wire = reduce(&rounds, |r| r.counters.wire_bytes as f64 / r.rows());
    let heap_mb = alloc::peak_bytes() as f64 / (1024.0 * 1024.0);
    let e2e: BTreeMap<&str, (f64, String)> = [
        (
            "setup_s",
            median(&setup_s),
            format!("median of {}: {setup_s:.3?}", setup_s.len()),
        ),
        (
            "op_p50_ms",
            p50.median,
            format!("across rounds q1 {:.4} q3 {:.4}", p50.q1, p50.q3),
        ),
        (
            "op_p95_ms",
            p95.median,
            format!("across rounds q1 {:.4} q3 {:.4}", p95.q1, p95.q3),
        ),
        (
            "ops_per_s",
            rate.median,
            format!("across rounds q1 {:.2} q3 {:.2}", rate.q1, rate.q3),
        ),
        (
            "cpu_ms_per_op",
            cpu.median,
            format!("across rounds q1 {:.4} q3 {:.4}", cpu.q1, cpu.q3),
        ),
        (
            "wire_bytes_per_row",
            wire.median,
            format!("across rounds q1 {:.2} q3 {:.2}", wire.q1, wire.q3),
        ),
        (
            "recover_s",
            median(&recover_s),
            format!("median of {}: {recover_s:.4?}", recover_s.len()),
        ),
        (
            "heap_peak_mb",
            heap_mb,
            "peak live heap bytes, whole run".to_string(),
        ),
    ]
    .into_iter()
    .map(|(k, v, n)| (k, (v, n)))
    .collect();
    layers.insert("client.op_p99_ms", p99.median);
    layers.insert("proc.peak_rss_mb", env::peak_rss_mb());

    println!("\n# rounds");
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "round", "p50 ms", "p95 ms", "ops/s", "cpu ms/op", "B/row"
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "{i:>5} {:>10.4} {:>10.4} {:>10.2} {:>10.4} {:>12.3}",
            percentile(&r.plain_ms, 0.50),
            percentile(&r.plain_ms, 0.95),
            r.ops() / r.wall_s,
            r.cpu_ns as f64 / 1e6 / r.ops(),
            r.counters.wire_bytes as f64 / r.rows()
        );
    }
    println!(
        "\n# end-to-end (median across {} measured rounds of {} ops)",
        rounds.len(),
        plan.ops_per_round
    );
    for m in &END_TO_END {
        let (v, note) = &e2e[m.name];
        print_metric(m.name, *v, m.unit, note);
    }
    print_metric(
        "client.op_p99_ms",
        p99.median,
        "ms",
        "not an end-to-end metric: too few samples beyond it",
    );
    print_metric("proc.peak_rss_mb", env::peak_rss_mb(), "MiB", "");
    if plan.traced {
        println!("\n# per layer");
        for m in &PER_LAYER {
            let note = if m.higher_is_better {
                "higher is better"
            } else {
                ""
            };
            print_metric(
                m.name,
                layers.get(m.name).copied().unwrap_or(0.0),
                m.unit,
                note,
            );
        }
    }

    let attempted = tally.attempted;
    let failed = tally.failed;
    let checks = [
        (
            "every op verified and matched the shadow table",
            failed == 0,
        ),
        ("tampered reply rejected", tamper_rejected),
        ("honest reply accepted after the tamper check", honest_again),
        ("live central holds every acked commit", live_holds_shadow),
        (
            "recovered from synced bytes: every acked commit, state = live encode_state()",
            recovered_ok,
        ),
        (
            "trace reconciles (coverage 0.85–1.10, overhead ≤ 1.15)",
            reconciled,
        ),
    ];
    println!("\n# checks");
    // The last one is a traced run's.
    for (what, ok) in &checks[..checks.len() - usize::from(!plan.traced)] {
        println!("{} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let correct = checks.iter().all(|c| c.1);

    println!(
        "{{\"environment\":{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\
         \"wal_filesystem\":{},\"clients\":{clients_n},\"flush_policy\":{},\"seed\":{},\
         \"rounds\":{},\"ops_per_round\":{},\"rows\":{},\"load\":\"closed loop\"}}}}",
        json::quote(&env::cpu_model()),
        json::quote(&env::rustc_version()),
        json::quote(&env::git_commit()),
        json::quote(&env::filesystem_of(&plan.out_dir)),
        json::quote(&format!(
            "fsync per commit, checkpoint every {} ops",
            deploy::durability().checkpoint_every
        )),
        plan.seed,
        plan.rounds,
        plan.ops_per_round,
        plan.rows,
    );
    let metrics: Vec<String> = if plan.traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
            .map(|(n, v, u)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(n),
                    json::number(v),
                    json::quote(u)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(m.name),
                    json::number(e2e[m.name].0),
                    json::quote(m.unit)
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(correct)
}
