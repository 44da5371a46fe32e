//! The repo's benchmark: one workload per invocation against the real
//! deployment — durable central on disk, edge behind TCP loopback,
//! RSA-1024 signatures, every reply verified — printing every metric
//! by name with its unit, checking outputs, and ending with one JSON
//! line. See `README.md` beside this crate.
//!
//! ```text
//! vbx-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! vbx-benchmark selfcheck [--seeds <n>]
//! ```

mod alloc;
mod decor;
mod deploy;
mod env;
mod json;
mod metrics;
mod replay;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workloads;

use run::Plan;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where runs keep their files: `out/` beside this crate's manifest,
/// inside the checkout whatever the working directory is.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage: vbx-benchmark --workload <range_cold|point_hot|txn_commit|mixed> \
--seed <n> [--seconds <s>] [--trace 0|1] [--rounds <n>] [--ops <n>] [--rows <n>] \
[--setups <n>] [--recoveries <n>]\n       vbx-benchmark selfcheck [--seeds <n>]";

fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    value
        .as_deref()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number\n{USAGE}"))
}

fn parse_plan(args: impl Iterator<Item = String>) -> Result<Plan, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = run::RUN_SECONDS;
    let mut rounds = None;
    let mut plan = Plan {
        workload: Workload::RangeCold,
        seed: 0,
        traced: false,
        rows: workloads::DEFAULT_ROWS,
        rounds: run::ROUNDS,
        ops_per_round: 0,
        setups: run::SETUPS,
        recoveries: run::RECOVERIES,
        out_dir: out_dir(),
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next();
        match flag.as_str() {
            "--workload" => {
                workload = value.as_deref().and_then(Workload::parse);
                if workload.is_none() {
                    return Err(format!("unknown workload {value:?}\n{USAGE}"));
                }
            }
            "--seed" => seed = Some(number(&flag, value)?),
            "--seconds" => seconds = number(&flag, value)?,
            "--trace" => plan.traced = number::<u8>(&flag, value)? != 0,
            "--rounds" => rounds = Some(number(&flag, value)?),
            "--ops" => plan.ops_per_round = number(&flag, value)?,
            "--rows" => plan.rows = number(&flag, value)?,
            "--setups" => plan.setups = number(&flag, value)?,
            "--recoveries" => plan.recoveries = number(&flag, value)?,
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    plan.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    plan.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    // Rounds have a fixed op count, so `--seconds` buys rounds: the
    // declared run length buys the declared number of them.
    plan.rounds = rounds.unwrap_or_else(|| {
        let scaled = run::ROUNDS as u64 * seconds + run::RUN_SECONDS / 2;
        (scaled / run::RUN_SECONDS).max(1) as usize
    });
    if plan.ops_per_round == 0 {
        plan.ops_per_round = plan.workload.ops_per_round();
    }
    if plan.rows < 400 || plan.setups == 0 || plan.recoveries == 0 || plan.rounds == 0 {
        return Err(format!(
            "--rows must be at least 400; --setups, --recoveries and --rounds at least 1\n{USAGE}"
        ));
    }
    Ok(plan)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let outcome = if args.peek().map(String::as_str) == Some("selfcheck") {
        selfcheck::run(args.skip(1))
    } else {
        parse_plan(args).and_then(|plan| run::run(&plan))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vbx-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
