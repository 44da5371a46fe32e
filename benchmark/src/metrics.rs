//! The metric tables: every name the benchmark prints, with its unit,
//! its better direction and — end to end — its regression bound.
//! `BENCHMARK.json` declares the same tables; the smoke test holds the
//! two together.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Bound of every metric that is a time, or a rate or share of one.
/// On the shared 2-vCPU box ten runs of one commit spread 3–8 % (first
/// to third quartile) while the host is quiet and 12–25 % when a
/// neighbour is busy for minutes; a bound has to clear three times the
/// quiet spread. See README, "Bounds, and what the box allows".
const TIME_BOUND: f64 = 0.25;

/// What a user of the deployment sees. Every workload reports all.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, TIME_BOUND),
    e2e("op_p50_ms", "ms", false, TIME_BOUND),
    e2e("op_p95_ms", "ms", false, TIME_BOUND),
    e2e("ops_per_s", "1/s", true, TIME_BOUND),
    e2e("cpu_ms_per_op", "ms", false, TIME_BOUND),
    // Counts made by the program: they repeat to within 0.1 %.
    e2e("wire_bytes_per_row", "B/row", false, 0.02),
    e2e("recover_s", "s", false, TIME_BOUND),
    e2e("heap_peak_mb", "MiB", false, 0.05),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A count made by the program: with one client it must repeat
    /// exactly for the same seed.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

const fn higher(p: PerLayer) -> PerLayer {
    PerLayer {
        higher_is_better: true,
        ..p
    }
}

/// One layer each, measured from outside in a traced run.
pub const PER_LAYER: [PerLayer; 49] = [
    time("query.plan_us_per_op", "us"),
    higher(count("edge.cache.hit_ratio", "ratio")),
    count("edge.cache.invalidated_per_commit", "count"),
    count("edge.cache.evicted_per_op", "count"),
    time("edge.serve_hit_us", "us"),
    time("edge.serve_miss_us", "us"),
    count("edge.locks.conflict_ratio", "ratio"),
    count("edge.locks.acquired_per_op", "count"),
    time("core.vo.exec_us_per_op", "us"),
    count("core.vo.digests_per_row", "count"),
    count("core.vo.ops_per_row", "count"),
    count("core.vo.dict_entries_per_op", "count"),
    time("core.wire.encode_us_per_op", "us"),
    time("core.wire.decode_us_per_op", "us"),
    count("core.wire.vo_bytes_per_row", "B/row"),
    time("core.frame.codec_us_per_op", "us"),
    time("core.verify.us_per_op", "us"),
    count("core.verify.sigs_per_op", "count"),
    count("core.verify.hash_ops_per_row", "count"),
    count("core.verify.combine_ops_per_row", "count"),
    count("core.verify.lift_ops_per_op", "count"),
    count("core.verify.peak_stack_depth", "count"),
    time("crypto.sign_us", "us"),
    count("crypto.sign_calls_per_commit", "count"),
    time("crypto.verify_us", "us"),
    time("crypto.lift_us", "us"),
    time("mathx.pow_mod_us", "us"),
    time("edge.net.rtt_us", "us"),
    count("edge.net.bytes_per_op", "B"),
    count("edge.net.frames_per_op", "count"),
    count("edge.net.server_errors", "count"),
    time("edge.central.commit_ms", "ms"),
    time("edge.central.commit_scaling", "ratio"),
    count("edge.central.lock_conflicts", "count"),
    time("storage.vfs.sync_ms_per_commit", "ms"),
    count("storage.vfs.syncs_per_commit", "count"),
    count("storage.wal.bytes_per_row", "B/row"),
    count("storage.checkpoint.count", "count"),
    time("storage.checkpoint.ms", "ms"),
    count("storage.checkpoint.bytes_per_row", "B/row"),
    higher(time("edge.durability.replay_ops_per_s", "1/s")),
    time("edge.apply.ms_per_commit", "ms"),
    count("edge.apply.bytes_per_commit", "B"),
    time("alloc.count_per_op", "count"),
    time("alloc.bytes_per_op", "B"),
    higher(time("trace.coverage", "ratio")),
    time("trace.overhead_ratio", "ratio"),
    time("client.op_p99_ms", "ms"),
    time("proc.peak_rss_mb", "MiB"),
];
