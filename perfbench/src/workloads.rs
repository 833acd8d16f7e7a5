//! The three workloads, each runnable untraced (end-to-end metrics) or
//! traced (per-layer metrics).
//!
//! A run sets up its input several times, then repeats one fixed unit of
//! work — a *pass* — for the requested seconds, setting up again between
//! passes. The host's speed is sampled between replays (see
//! [`crate::host`]): `jobs_per_s` is the median over passes of each pass's
//! throughput scaled by the samples taken during it, and `setup_s` the
//! median set-up time scaled by the run's samples. Latencies are unscaled
//! percentiles over every sample.
//! Simulated metrics come from the first pass, and every later pass must
//! reproduce its fingerprints exactly. Correctness checks run after the
//! timed passes.
//!
//! The traces themselves are pinned (see [`crate::inputs`]): between
//! generator seeds, jobs/s moved by up to 1.8× and mean turnaround by up
//! to 3.6× in a five-seed probe, which would drown any regression bound.
//! The benchmark seed instead orders the replay cells of a batch pass and
//! sets the work of the service's what-if probe.

use crate::host::{splitmix, HostSpeed, NOMINAL_S};
use crate::inputs::{
    archive_trace, paper_year_trace, service_import, sim_config, ARCHIVE_SEED, PAPER_YEAR_SEEDS,
    SERVICE_SWF,
};
use crate::report::{fingerprint, median, timing_line, Outcome, PER_LAYER};
use crate::traced::{self, ns_since, HookClock, Layer, Replay, Spans};
use hws_core::{Mechanism, SchedulerService, SimConfig, Simulator};
use hws_sim::{SimDuration, SimTime};
use hws_workload::job::JobSpecBuilder;
use hws_workload::{
    import_swf, import_swf_reader, to_swf_writer, JobSpec, MaterializedSource, SubmissionLog,
    SubmitOp, SwfExportConfig, SwfImportConfig, SwfStreamSource, Trace,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up runs at least [`SETUP_MIN_REPS`] times and for [`SETUP_MIN_SECS`]
/// before the first pass, then again for [`SETUP_PASS_SECS`] before every
/// later pass, so that its samples span the whole run rather than one
/// moment of a host whose speed drifts. At most [`SETUP_MAX_REPS`]
/// repetitions at a time.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 0.5;
const SETUP_PASS_SECS: f64 = 0.05;
const SETUP_MAX_REPS: usize = 200;
/// The service fires a six-mechanism what-if after every this many log entries.
const WHAT_IF_EVERY: usize = 5;
/// Repeated `query` calls per timed batch in the traced service run.
const QUERY_BATCH: u32 = 16;
/// Host-speed samples per service pass, evenly spread over the log.
const HOST_SAMPLES_PER_PASS: usize = 10;
/// Probe ids sit far above any log id.
const PROBE_ID_BASE: u64 = 1 << 40;
/// The mechanism the live service runs.
const SERVICE_MECHANISM: Mechanism = Mechanism::CUP_SPAA;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ArchiveStream,
    PaperYear,
    ServiceWhatIf,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "archive_stream" => Some(Workload::ArchiveStream),
            "paper_year" => Some(Workload::PaperYear),
            "service_whatif" => Some(Workload::ServiceWhatIf),
            _ => None,
        }
    }
}

/// Run `workload` on `seed` for about `seconds` of passes.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    match (workload, trace) {
        (Workload::ServiceWhatIf, false) => service(seed, budget, &mut out),
        (Workload::ServiceWhatIf, true) => service_traced(seed, budget, &mut out),
        (batch, false) => batch_run(batch, seed, budget, &mut out),
        (batch, true) => batch_traced(batch, seed, budget, &mut out),
    }
    out
}

/// Run `f` at least `min_reps` times and for `min_secs` (see
/// [`SETUP_MAX_REPS`]), adding each duration (s) to `secs`; the last
/// product.
fn timed_setup<T>(
    secs: &mut Vec<f64>,
    min_reps: usize,
    min_secs: f64,
    mut f: impl FnMut() -> T,
) -> T {
    let (mut reps, mut spent, mut last) = (0, 0.0, None);
    while reps < min_reps || (spent < min_secs && reps < SETUP_MAX_REPS) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        let s = t.elapsed().as_secs_f64();
        secs.push(s);
        spent += s;
        reps += 1;
    }
    last.expect("at least one set-up")
}

/// Run passes until the next one would end past `budget` (at least one),
/// calling `between` before every pass but the first.
fn for_budget(budget: Duration, mut between: impl FnMut(), mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        if done > 0 {
            between();
        }
        pass();
        done += 1;
        let spent = start.elapsed();
        if spent + spent / done as u32 > budget {
            break;
        }
    }
}

/// Run `f` and report the resident-set watermark it reached (MiB), or
/// `None` where procfs cannot. The watermark restarts from the memory the
/// set-up product holds: what earlier set-ups freed is first handed back
/// to the OS, so that `f` cannot reuse it unseen. A run measures its
/// first pass only.
fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, Option<f64>) {
    release_freed_memory();
    let reset = reset_peak_rss();
    let base = proc_status_mb("VmRSS:");
    let r = f();
    let peak = proc_status_mb("VmHWM:").filter(|_| reset);
    if let (Some(base), Some(peak)) = (base, peak) {
        println!("  peak RSS {peak:.1} MiB over the first pass, from {base:.1} MiB at its start");
    }
    (r, peak)
}

/// A `/proc/self/status` size field, in MiB.
fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hand the heap's free pages back to the OS (glibc only; elsewhere a
/// no-op).
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers; it only returns free heap
        // memory to the OS and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restart the peak-RSS watermark at the current RSS.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

// ---------------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------------

/// A batch workload's set-up product: what each pass replays.
enum BatchInput {
    /// `archive_stream`: the archive, written as embedded SWF.
    Archive(PathBuf),
    /// `paper_year`: materialized traces, one per seed.
    Traces(Vec<Trace>),
}

impl BatchInput {
    fn set_up(workload: Workload) -> BatchInput {
        match workload {
            Workload::ArchiveStream => {
                let path = write_archive();
                // Opening the source reads the headers; it belongs to set-up.
                SwfStreamSource::open(&path).expect("archive just written opens");
                BatchInput::Archive(path)
            }
            Workload::PaperYear => BatchInput::Traces(
                PAPER_YEAR_SEEDS
                    .iter()
                    .map(|&s| paper_year_trace().generate(s))
                    .collect(),
            ),
            Workload::ServiceWhatIf => unreachable!("the service is not a batch workload"),
        }
    }

    /// Every `(mechanism, input index)` cell of one pass.
    fn cells(&self) -> Vec<(Mechanism, usize)> {
        let inputs = match self {
            BatchInput::Archive(_) => 1,
            BatchInput::Traces(t) => t.len(),
        };
        Mechanism::ALL_SIX
            .into_iter()
            .flat_map(|m| (0..inputs).map(move |i| (m, i)))
            .collect()
    }

    /// Untraced replay of one cell, with the wall time of the replay call.
    fn replay(&self, m: Mechanism, i: usize) -> (Replay, f64) {
        let cfg = sim_config(m);
        match self {
            BatchInput::Archive(path) => {
                let source = open(path);
                let start = Instant::now();
                let r = Simulator::run_source(&cfg, source).into();
                (r, start.elapsed().as_secs_f64())
            }
            BatchInput::Traces(t) => {
                let start = Instant::now();
                let r = Simulator::run_trace(&cfg, &t[i]).into();
                (r, start.elapsed().as_secs_f64())
            }
        }
    }

    fn replay_traced(&self, m: Mechanism, i: usize) -> (Replay, Spans) {
        let cfg = sim_config(m);
        match self {
            BatchInput::Archive(path) => traced::replay(&cfg, open(path), true),
            BatchInput::Traces(t) => traced::replay_trace(&cfg, &t[i]),
        }
    }
}

fn open(path: &Path) -> SwfStreamSource<std::io::BufReader<std::fs::File>> {
    SwfStreamSource::open(path).unwrap_or_else(|e| panic!("open {}: {e}", path.display()))
}

/// Generate the archive and write it fresh, as embedded SWF, into the
/// benchmark's scratch directory.
fn write_archive() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".scratch");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join("archive.swf");
    let trace = archive_trace().generate(ARCHIVE_SEED);
    let file =
        std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    let mut writer = std::io::BufWriter::new(file);
    to_swf_writer(&trace, &SwfExportConfig::default(), &mut writer)
        .and_then(|()| std::io::Write::flush(&mut writer))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// A replay must account for every job it admitted, with rates in range.
fn check_sane(out: &mut Outcome, r: &Replay, label: &str) {
    let m = &r.metrics;
    out.check(
        (m.completed_jobs + m.killed_jobs) as u64 == r.admitted_jobs
            && r.admitted_jobs > 0
            && (0.0..=1.0).contains(&m.instant_start_rate)
            && m.utilization > 0.0
            && m.utilization <= 1.0,
        &format!("{label}: job accounting or rates out of range"),
    );
}

/// Push every end-to-end metric: the measured ones, the success rate of
/// the checks so far, and the means of the simulated ones over `replays`.
fn push_end_to_end(
    out: &mut Outcome,
    jobs_per_s: f64,
    setup_s: f64,
    peak_rss_mb: Option<f64>,
    replays: &[&Replay],
) {
    out.metrics.push(("jobs_per_s", jobs_per_s));
    out.metrics.push(("setup_s", setup_s));
    if let Some(p) = peak_rss_mb {
        out.metrics.push(("peak_rss_mb", p));
    }
    let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.push(("success_rate", success));
    let n = replays.len() as f64;
    let mean = |f: fn(&Replay) -> f64| replays.iter().map(|r| f(r)).sum::<f64>() / n;
    out.metrics.extend([
        (
            "od_instant_start_rate",
            mean(|r| r.metrics.instant_start_rate),
        ),
        (
            "rigid_turnaround_h",
            mean(|r| r.metrics.rigid.avg_turnaround_h),
        ),
        (
            "malleable_turnaround_h",
            mean(|r| r.metrics.malleable.avg_turnaround_h),
        ),
        ("utilization", mean(|r| r.metrics.utilization)),
    ]);
}

fn print_fingerprints(cells: &[(Mechanism, usize)], replays: &[Replay]) {
    println!("behaviour fingerprints (observations, not checks):");
    for ((m, i), r) in cells.iter().zip(replays) {
        println!(
            "  {:<9} input {i}  {:016x}  {} jobs, {} events",
            m.name(),
            fingerprint(&r.metrics),
            r.admitted_jobs,
            r.engine.delivered
        );
    }
    let fp = |m| {
        cells
            .iter()
            .zip(replays)
            .filter(|((cm, _), _)| *cm == m)
            .map(|(_, r)| fingerprint(&r.metrics))
            .collect::<Vec<_>>()
    };
    for (a, b) in [
        (Mechanism::CUA_PAA, Mechanism::CUP_PAA),
        (Mechanism::CUA_SPAA, Mechanism::CUP_SPAA),
    ] {
        if fp(a) == fp(b) {
            println!(
                "  observation: {} and {} behave identically on this input",
                a.name(),
                b.name()
            );
        }
    }
}

/// A permutation of `0..n` drawn from `seed` (Fisher-Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    order
}

/// Replay every cell once, in `order`; results in cell order and the
/// summed replay time.
fn batch_pass<R>(
    cells: &[(Mechanism, usize)],
    order: &[usize],
    mut f: impl FnMut(Mechanism, usize) -> (R, f64),
) -> (Vec<R>, f64) {
    let mut results: Vec<Option<R>> = cells.iter().map(|_| None).collect();
    let mut secs = 0.0;
    for &k in order {
        let (m, i) = cells[k];
        let (r, s) = f(m, i);
        results[k] = Some(r);
        secs += s;
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect();
    (results, secs)
}

fn batch_run(workload: Workload, seed: u64, budget: Duration, out: &mut Outcome) {
    let mut setup = Vec::new();
    let set_up = || BatchInput::set_up(workload);
    let input = timed_setup(&mut setup, SETUP_MIN_REPS, SETUP_MIN_SECS, set_up);
    let cells = input.cells();
    let order = shuffled(cells.len(), seed);
    let mut peak = None;
    let mut run_host = HostSpeed::default();
    let mut pass_secs = Vec::new();
    let mut first: Vec<Replay> = Vec::new();
    let mut later: Vec<Vec<Replay>> = Vec::new();
    for_budget(
        budget,
        || drop(timed_setup(&mut setup, 1, SETUP_PASS_SECS, set_up)),
        || {
            let mut host = HostSpeed::default();
            let mut pass = || {
                batch_pass(&cells, &order, |m, i| {
                    let replay = input.replay(m, i);
                    host.sample();
                    replay
                })
            };
            let (pass, secs) = if first.is_empty() {
                let (pass, rss) = with_peak_rss(pass);
                peak = rss;
                pass
            } else {
                pass()
            };
            pass_secs.push((secs, host.scale(secs)));
            run_host.extend(&host);
            if first.is_empty() {
                first = pass;
            } else {
                later.push(pass);
            }
        },
    );

    // Correctness, outside the timed passes.
    for (k, pass) in later.iter().enumerate() {
        for ((m, i), (a, b)) in cells.iter().zip(first.iter().zip(pass)) {
            out.check(
                a.same_behaviour(b),
                &format!("pass {} {} input {i}: not deterministic", k + 1, m.name()),
            );
        }
    }
    for ((m, i), r) in cells.iter().zip(&first) {
        check_sane(out, r, &format!("{} input {i}", m.name()));
    }
    let m = Mechanism::CUP_SPAA;
    let at = cells
        .iter()
        .position(|&c| c == (m, 0))
        .expect("cell present");
    let reference: Replay = match &input {
        BatchInput::Archive(path) => {
            let file = std::fs::File::open(path).expect("archive readable");
            let trace =
                import_swf_reader(std::io::BufReader::new(file), &SwfImportConfig::default())
                    .expect("archive imports");
            Simulator::run_trace(&sim_config(m), &trace).into()
        }
        BatchInput::Traces(t) => {
            Simulator::run_source(&sim_config(m), MaterializedSource::new(&t[0])).into()
        }
    };
    let same = match &input {
        BatchInput::Archive(_) => "streamed replay equals the materialized import",
        BatchInput::Traces(_) => "streaming fold equals the retaining fold",
    };
    out.check(
        reference.same_behaviour(&first[at]),
        &format!("{}: {same}", m.name()),
    );

    print_fingerprints(&cells, &first);
    let jobs: u64 = first.iter().map(|r| r.admitted_jobs).sum();
    let rate = print_rate("replay rate", jobs, &pass_secs, &run_host);
    let setup_s = run_host.scale(median(&setup));
    print_setup(&setup, setup_s);

    push_end_to_end(out, rate, setup_s, peak, &first.iter().collect::<Vec<_>>());
}

/// The median over passes of `jobs` ÷ each pass's `(unscaled, scaled)`
/// time, printed with the unscaled rates and the host samples `host`.
fn print_rate(label: &str, jobs: u64, pass_secs: &[(f64, f64)], host: &HostSpeed) -> f64 {
    let scaled: Vec<f64> = pass_secs.iter().map(|p| p.1).collect();
    let rate = jobs as f64 / median(&scaled);
    let unscaled: Vec<f64> = pass_secs.iter().map(|p| jobs as f64 / p.0).collect();
    println!(
        "  {label:<28} n={:<6} {rate:.0} jobs/s on the nominal host; unscaled per pass {unscaled:.0?}",
        pass_secs.len()
    );
    println!(
        "  {:<28} n={:<6} {:.4} ms a kernel run (nominal {:.4} ms)",
        "host reference",
        host.samples(),
        host.kernel_s() * 1e3,
        NOMINAL_S * 1e3
    );
    rate
}

fn batch_traced(workload: Workload, seed: u64, budget: Duration, out: &mut Outcome) {
    let mut setup = Vec::new();
    let input = timed_setup(&mut setup, SETUP_MIN_REPS, SETUP_MIN_SECS, || {
        BatchInput::set_up(workload)
    });
    let cells = input.cells();
    let order = shuffled(cells.len(), seed);
    let mut host = HostSpeed::default();
    // Traced over untraced time of each pass, and the traced time in all.
    let mut ratios = Vec::new();
    let mut traced_secs = 0.0;
    let mut spans = Spans::default();
    let mut counts: Option<(Vec<Replay>, u64, u64)> = None;
    let mut matched = 0u64;
    for_budget(
        budget,
        || {},
        || {
            let (plain, plain_secs) = batch_pass(&cells, &order, |m, i| {
                let replay = input.replay(m, i);
                host.sample();
                replay
            });

            let mut pass_spans = Spans::default();
            let (traced, secs) = batch_pass(&cells, &order, |m, i| {
                let start = Instant::now();
                let (r, s) = input.replay_traced(m, i);
                let secs = start.elapsed().as_secs_f64();
                pass_spans.merge(&s);
                (r, secs)
            });
            ratios.push(secs / plain_secs);
            traced_secs += secs;
            for ((m, i), (a, b)) in cells.iter().zip(plain.iter().zip(&traced)) {
                let same = a.same_behaviour(b);
                matched += u64::from(same);
                out.check(
                    same,
                    &format!("{} input {i}: traced replay diverged", m.name()),
                );
            }
            if counts.is_none() {
                counts = Some((
                    traced,
                    pass_spans.calls(Layer::Pass),
                    pass_spans.admit_hook_calls,
                ));
            }
            spans.merge(&pass_spans);
        },
    );
    let (replays, passes, admit_calls) = counts.expect("at least one pass");
    let overhead = 100.0 * (median(&ratios) - 1.0);
    print_fingerprints(&cells, &replays);
    let setup_s = host.scale(median(&setup));
    report_layers(out, &spans, traced_secs * 1e9, setup_s, overhead, matched);
    let sum = |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    out.metrics.extend([
        ("sim.events_delivered", sum(|r| r.engine.delivered)),
        ("sim.events_scheduled", sum(|r| r.engine.scheduled)),
        ("sim.events_cancelled", sum(|r| r.engine.cancelled)),
        ("core.passes", passes as f64),
        ("core.hooks.admit_calls", admit_calls as f64),
        (
            "core.peak_resident_jobs",
            replays
                .iter()
                .map(|r| r.peak_resident_jobs)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("service.snapshot_bytes", 0.0),
    ]);
}

fn print_setup(setup: &[f64], scaled: f64) {
    println!(
        "{}; median {scaled:.6} s on the nominal host",
        timing_line("set-up", "s", setup)
    );
}

/// Print the per-layer table and push every layer share, with the set-up
/// time, the untimed remainder, the tracing overhead and the cells whose
/// traced replay matched.
fn report_layers(
    out: &mut Outcome,
    spans: &Spans,
    wall_ns: f64,
    setup_s: f64,
    overhead_pct: f64,
    matched: u64,
) {
    println!(
        "per-layer self time over {:.3} s traced (shares of traced wall time):",
        wall_ns / 1e9
    );
    for layer in Layer::ALL {
        let ns = spans.ns(layer) as f64;
        let calls = spans.calls(layer);
        let share = 100.0 * ns / wall_ns;
        if calls > 0 {
            println!(
                "  {:<32} {share:>6.2} %  {calls:>10} calls  {:>9.1} ns/call",
                layer.name(),
                ns / calls as f64
            );
        }
        out.metrics.push((layer.name(), share));
    }
    let unattributed = 100.0 * (1.0 - spans.total_ns() as f64 / wall_ns);
    println!("  {:<32} {unattributed:>6.2} %", "trace.unattributed");
    println!("  tracing overhead {overhead_pct:.1} % of untraced wall time; {matched} cells matched bitwise");
    out.metrics.extend([
        ("workload.setup", setup_s),
        ("trace.unattributed", unattributed),
        ("trace.overhead", overhead_pct),
        ("trace.cells_matched", matched as f64),
    ]);
}

// ---------------------------------------------------------------------------
// The service workload
// ---------------------------------------------------------------------------

/// The service workload's set-up product.
struct ServiceInput {
    trace: Trace,
    log: SubmissionLog,
    /// Work of the what-if probe, drawn from the benchmark seed.
    probe_work: SimDuration,
}

fn service_set_up(seed: u64) -> ServiceInput {
    let trace = import_swf(SERVICE_SWF, &service_import()).expect("bundled SWF imports");
    let log = SubmissionLog::from_trace(&trace);
    // A session is part of what a user sets up before the first submit.
    black_box(SchedulerService::new(
        sim_config(SERVICE_MECHANISM),
        log.system_size(),
    ));
    ServiceInput {
        trace,
        log,
        probe_work: SimDuration::from_secs(1_800 + splitmix(seed, 0) % 3_600),
    }
}

/// A 64-node rigid job of `work` submitted now.
fn probe(svc: &SchedulerService, n: usize, work: SimDuration) -> JobSpec {
    JobSpecBuilder::rigid(PROBE_ID_BASE + n as u64)
        .submit_at(svc.now())
        .size(64)
        .work(work)
        .estimate(work + work)
        .build()
}

type Forecast = std::collections::BTreeMap<Mechanism, SimTime>;

/// One closed-loop pass's results.
struct ServicePass {
    replay: Replay,
    forecasts: Vec<Forecast>,
    /// Wall time of the pass, less the calls made only to measure: host
    /// samples, and in a traced pass the separately timed parts of each
    /// what-if and the repeats of each query.
    secs: f64,
    /// Host samples taken during the pass.
    host: HostSpeed,
    /// Log submissions applied.
    submits: u64,
}

/// Timers of one pass: untraced samples or traced spans.
enum Timers<'a> {
    Plain {
        op_us: &'a mut Vec<f64>,
        what_if_ms: &'a mut Vec<f64>,
    },
    Traced {
        spans: &'a mut Spans,
        /// The hooks' clock, so that hook time nested in a service call is
        /// left to the hooks' own layers.
        clock: &'a HookClock,
        snapshot_bytes: &'a mut u64,
        /// Whole what-if calls; their drain is this less the snapshot and
        /// restore spans, taken over all probes because one probe's
        /// separately timed parts can exceed its what-if.
        what_if_ns: &'a mut u64,
    },
}

/// Apply the log to a fresh session: each entry is `step_before` + its op
/// + `query`, and every [`WHAT_IF_EVERY`]th entry also fires a what-if.
fn service_pass(
    input: &ServiceInput,
    cfg: &SimConfig,
    out: &mut Outcome,
    mut timers: Timers,
) -> ServicePass {
    let mut svc = SchedulerService::new(cfg.clone(), input.log.system_size());
    let mut forecasts = Vec::new();
    let mut submits = 0;
    let mut host = HostSpeed::default();
    let mut measuring_ns = 0;
    let start = Instant::now();
    let entries = input.log.entries();
    let sample_every = entries.len().div_ceil(HOST_SAMPLES_PER_PASS);
    for (i, entry) in entries.iter().enumerate() {
        let op = entry.op.clone();
        match &mut timers {
            Timers::Plain { op_us, .. } => {
                let t = Instant::now();
                svc.step_before(entry.at);
                let ok = apply(&mut svc, op);
                op_us.push(t.elapsed().as_secs_f64() * 1e6);
                out.check(ok, "log submission accepted");
            }
            Timers::Traced { spans, clock, .. } => {
                clock.self_time(spans, Layer::StepBefore, || svc.step_before(entry.at));
                let id = match &op {
                    SubmitOp::Submit(spec) => Some(spec.id),
                    SubmitOp::Cancel(_) => None,
                };
                let ok = clock.self_time(spans, Layer::Submit, || apply_op(&mut svc, op));
                if let Some(id) = id {
                    let t = Instant::now();
                    for _ in 0..QUERY_BATCH {
                        black_box(svc.query(black_box(id)));
                    }
                    spans.add(Layer::Query, ns_since(t) / u64::from(QUERY_BATCH));
                    measuring_ns +=
                        ns_since(t) * u64::from(QUERY_BATCH - 1) / u64::from(QUERY_BATCH);
                }
                out.check(ok, "log submission accepted");
            }
        }
        if matches!(entry.op, SubmitOp::Submit(_)) {
            submits += 1;
        }
        if i % WHAT_IF_EVERY == WHAT_IF_EVERY - 1 {
            let spec = probe(&svc, i, input.probe_work);
            let forecast = match &mut timers {
                Timers::Plain { what_if_ms, .. } => {
                    let t = Instant::now();
                    let f = svc.what_if(&spec);
                    what_if_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    f
                }
                Timers::Traced {
                    spans,
                    snapshot_bytes,
                    what_if_ns,
                    ..
                } => {
                    // Time the what-if's parts as separate calls, then the
                    // what-if itself; its drain is the remainder.
                    let cal = Instant::now();
                    let t = Instant::now();
                    let image = svc.snapshot();
                    let snap_ns = ns_since(t);
                    **snapshot_bytes = (**snapshot_bytes).max(image.len() as u64);
                    let mut restore_ns = 0;
                    for m in Mechanism::ALL_SIX {
                        let fork_cfg = sim_config(m);
                        let t = Instant::now();
                        let fork: Result<SchedulerService, _> =
                            SchedulerService::restore(&image, &fork_cfg, ());
                        restore_ns += ns_since(t);
                        out.check(fork.is_ok(), "snapshot restores");
                    }
                    measuring_ns += ns_since(cal);
                    let t = Instant::now();
                    let f = svc.what_if(&spec);
                    **what_if_ns += ns_since(t);
                    spans.add(Layer::Snapshot, snap_ns);
                    spans.add_calls(Layer::Restore, restore_ns, Mechanism::ALL_SIX.len() as u64);
                    f
                }
            };
            let ok = forecast.as_ref().is_ok_and(|f| {
                f.len() == Mechanism::ALL_SIX.len() && f.values().all(|&s| s >= spec.submit)
            });
            out.check(
                ok,
                "what-if forecasts a causal start under all six mechanisms",
            );
            forecasts.push(forecast.unwrap_or_default());
        }
        if (i + 1) % sample_every == 0 {
            let t = Instant::now();
            host.sample();
            measuring_ns += ns_since(t);
        }
    }
    let replay: Replay = svc.into_outcome().into();
    ServicePass {
        replay,
        forecasts,
        secs: start.elapsed().as_secs_f64() - measuring_ns as f64 / 1e9,
        host,
        submits,
    }
}

/// Apply one log op; `false` when a submission was refused.
fn apply(svc: &mut SchedulerService, op: SubmitOp) -> bool {
    let id = match &op {
        SubmitOp::Submit(spec) => Some(spec.id),
        SubmitOp::Cancel(_) => None,
    };
    let ok = apply_op(svc, op);
    if let Some(id) = id {
        black_box(svc.query(id));
    }
    ok
}

fn apply_op(svc: &mut SchedulerService, op: SubmitOp) -> bool {
    match op {
        SubmitOp::Submit(spec) => svc.submit(spec).is_ok(),
        SubmitOp::Cancel(id) => {
            black_box(svc.cancel(id));
            true
        }
    }
}

/// Live must equal batch, and every pass must repeat the first.
fn check_service(out: &mut Outcome, input: &ServiceInput, passes: &[ServicePass]) {
    let batch: Replay = Simulator::run_trace(&sim_config(SERVICE_MECHANISM), &input.trace).into();
    let first = &passes[0];
    out.check(
        fingerprint(&first.replay.metrics) == fingerprint(&batch.metrics)
            && first.replay.admitted_jobs == batch.admitted_jobs,
        "live service differs from the batch replay of its log",
    );
    check_sane(out, &first.replay, SERVICE_MECHANISM.name());
    for (k, p) in passes.iter().enumerate().skip(1) {
        out.check(
            p.replay.same_behaviour(&first.replay) && p.forecasts == first.forecasts,
            &format!("pass {k}: service not deterministic"),
        );
    }
    println!(
        "behaviour fingerprint (observation): {:<9} {:016x}  {} jobs, {} what-ifs",
        SERVICE_MECHANISM.name(),
        fingerprint(&first.replay.metrics),
        first.replay.admitted_jobs,
        first.forecasts.len()
    );
}

fn service(seed: u64, budget: Duration, out: &mut Outcome) {
    let mut setup = Vec::new();
    let set_up = || service_set_up(seed);
    let input = timed_setup(&mut setup, SETUP_MIN_REPS, SETUP_MIN_SECS, set_up);
    let cfg = sim_config(SERVICE_MECHANISM);
    let mut peak = None;
    let mut op_us = Vec::new();
    let mut what_if_ms = Vec::new();
    let mut passes = Vec::new();
    for_budget(
        budget,
        || drop(timed_setup(&mut setup, 1, SETUP_PASS_SECS, set_up)),
        || {
            let timers = Timers::Plain {
                op_us: &mut op_us,
                what_if_ms: &mut what_if_ms,
            };
            let pass = || service_pass(&input, &cfg, out, timers);
            if passes.is_empty() {
                let (pass, rss) = with_peak_rss(pass);
                peak = rss;
                passes.push(pass);
            } else {
                passes.push(pass());
            }
        },
    );
    check_service(out, &input, &passes);

    println!("{}", timing_line("op (step_before+op+query)", "us", &op_us));
    println!(
        "{}",
        timing_line("what_if (six mechanisms)", "ms", &what_if_ms)
    );
    let mut run_host = HostSpeed::default();
    let pass_secs: Vec<(f64, f64)> = passes
        .iter()
        .map(|p| {
            run_host.extend(&p.host);
            (p.secs, p.host.scale(p.secs))
        })
        .collect();
    let rate = print_rate("closed-loop rate", passes[0].submits, &pass_secs, &run_host);
    let setup_s = run_host.scale(median(&setup));
    print_setup(&setup, setup_s);

    push_end_to_end(out, rate, setup_s, peak, &[&passes[0].replay]);
}

fn service_traced(seed: u64, budget: Duration, out: &mut Outcome) {
    let mut setup = Vec::new();
    let input = timed_setup(&mut setup, SETUP_MIN_REPS, SETUP_MIN_SECS, || {
        service_set_up(seed)
    });
    let cfg = sim_config(SERVICE_MECHANISM);
    let clock = std::sync::Arc::new(HookClock::default());
    let timed_cfg = traced::timed_config(&cfg, &clock);
    let mut spans = Spans::default();
    let mut snapshot_bytes = 0;
    let mut what_if_ns = 0;
    let mut host = HostSpeed::default();
    // Traced over untraced time of each pass, and the traced time in all.
    let mut ratios = Vec::new();
    let mut traced_secs = 0.0;
    let mut plain_passes: Vec<ServicePass> = Vec::new();
    let mut matched = 0;
    let mut first_traced: Option<Replay> = None;
    for_budget(
        budget,
        || {},
        || {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let timers = Timers::Plain {
                op_us: &mut a,
                what_if_ms: &mut b,
            };
            let plain = service_pass(&input, &cfg, out, timers);
            let timers = Timers::Traced {
                spans: &mut spans,
                clock: &clock,
                snapshot_bytes: &mut snapshot_bytes,
                what_if_ns: &mut what_if_ns,
            };
            let traced = service_pass(&input, &timed_cfg, out, timers);
            ratios.push(traced.secs / plain.secs);
            traced_secs += traced.secs;
            host.extend(&plain.host);
            let same =
                traced.replay.same_behaviour(&plain.replay) && traced.forecasts == plain.forecasts;
            matched += u64::from(same);
            out.check(same, "traced service diverged");
            first_traced.get_or_insert(traced.replay);
            plain_passes.push(plain);
        },
    );
    clock.drain_into(&mut spans);
    let parts = spans.ns(Layer::Snapshot) + spans.ns(Layer::Restore);
    spans.add_calls(
        Layer::WhatIfDrain,
        what_if_ns.saturating_sub(parts),
        spans.calls(Layer::Snapshot),
    );
    check_service(out, &input, &plain_passes);
    let overhead = 100.0 * (median(&ratios) - 1.0);
    let setup_s = host.scale(median(&setup));
    report_layers(out, &spans, traced_secs * 1e9, setup_s, overhead, matched);
    let r = first_traced.expect("at least one pass");
    let passes = ratios.len() as u64;
    out.metrics.extend([
        ("sim.events_delivered", r.engine.delivered as f64),
        ("sim.events_scheduled", r.engine.scheduled as f64),
        ("sim.events_cancelled", r.engine.cancelled as f64),
        // The service owns its engine, so its dispatch, pass and queue
        // time are out of reach from outside (in-program tracing will add
        // them); the hooks, set through the config, are timed.
        ("core.passes", 0.0),
        (
            "core.hooks.admit_calls",
            (spans.admit_hook_calls / passes) as f64,
        ),
        ("core.peak_resident_jobs", r.peak_resident_jobs as f64),
        ("service.snapshot_bytes", snapshot_bytes as f64),
    ]);
    debug_assert_eq!(out.metrics.len(), PER_LAYER.len());
}
