//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <archive_stream|paper_year|service_whatif> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! replays through timing adaptors and reports per-layer shares, after
//! checking each traced replay bitwise against an untraced one. Readable
//! lines go first; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! 0 only when every check passed. The self-test
//! (`cargo test --release --manifest-path perfbench/Cargo.toml`) checks
//! traced against untraced replays and the metric names against
//! `BENCHMARK.json`.
//!
//! Workloads (single-threaded; inputs pinned in `inputs.rs`, the seed
//! orders the replay cells and sets the what-if probe's work):
//! - `archive_stream`: a 100k-job, 12-day theta-shaped archive written as
//!   SWF and streamed through `Simulator::run_source` under all six
//!   mechanisms. Many minute-scale jobs, O(active) memory, SWF parsing on
//!   the hot path, CUP planning almost never firing.
//! - `paper_year`: the paper's one-year Theta workload (37,298 jobs),
//!   materialized and replayed with `Simulator::run_trace`, six mechanisms
//!   × two trace seeds. Hour-scale jobs, so checkpoints, CUP plans, SPAA
//!   shrinks and reservation timeouts all fire.
//! - `service_whatif`: one caller in a closed loop on a CUP&SPAA
//!   `SchedulerService`, applying a 1,430-job SWF log entry by entry, with
//!   a six-mechanism what-if every fifth entry. The only workload that
//!   uses the service API and the snapshot/restore codec.

mod host;
mod inputs;
mod report;
mod traced;
mod workloads;

use report::{END_TO_END, PER_LAYER};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    let spec = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "checks: {} made, {} failed",
        outcome.attempted, outcome.failed
    );
    let (correct, line) = outcome.json(spec);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
