//! The MISCELA-V end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore|live|tune --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives one seeded closed-loop workload through the public API as a
//! client would (request text in, response text out), checks the outputs
//! against independent oracles outside the timed region, prints a report
//! and, as the last line, one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run is split into an untraced and a traced half and the metrics are the
//! per-layer ones. `--workload all` runs the three workloads in turn, each
//! with its own report and result line. See `perfbench/README.md`.

mod explore;
mod fixture;
mod layers;
mod live;
mod rng;
mod stats;
mod trace;
mod tune;
mod wire;
mod yardstick;

use stats::Samples;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Span;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["explore", "live", "tune"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be explore, live, tune or all (got {:?})",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Attempted / succeeded / failed-by-status counts per operation type.
#[derive(Debug, Default, Clone)]
pub struct OpCounts {
    map: BTreeMap<&'static str, (u64, u64, BTreeMap<String, u64>)>,
}

impl OpCounts {
    /// Counts one successful operation.
    pub fn ok(&mut self, op: &'static str) {
        let e = self.map.entry(op).or_default();
        e.0 += 1;
        e.1 += 1;
    }

    /// Counts one failed operation with the status (or reason) it got.
    pub fn fail(&mut self, op: &'static str, status: impl ToString) {
        let e = self.map.entry(op).or_default();
        e.0 += 1;
        *e.2.entry(status.to_string()).or_default() += 1;
    }

    /// `(attempted, failed)` for one operation type.
    pub fn totals(&self, op: &str) -> (u64, u64) {
        self.map.get(op).map_or((0, 0), |e| (e.0, e.0 - e.1))
    }

    fn merge(&mut self, other: &OpCounts) {
        for (op, (a, s, f)) in &other.map {
            let e = self.map.entry(op).or_default();
            e.0 += a;
            e.1 += s;
            for (status, n) in f {
                *e.2.entry(status.clone()).or_default() += n;
            }
        }
    }
}

/// Closed-loop time between two yardstick timings of a segment.
const YARDSTICK_EVERY_S: f64 = 0.02;

/// One stretch of a run (a round, or a fixed number of cycles): the
/// end-to-end metrics are computed per segment and reported as the median
/// over segments, so a burst of outside load on a shared host moves a few
/// segments rather than the result.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    /// Closed-loop seconds.
    pub measured_s: f64,
    /// Completed operations.
    pub completed: u64,
    /// Operation latencies, in microseconds (failed = infinite).
    pub op_us: Vec<f64>,
    /// Yardstick times taken between the segment's operations, in seconds.
    pub yardstick_s: Vec<f64>,
    /// Closed-loop seconds since the last yardstick time.
    since_yardstick_s: f64,
}

impl Segment {
    /// Records one operation, and times the yardstick once every
    /// [`YARDSTICK_EVERY_S`] of closed-loop time, so that its times come
    /// from the same stretch of the run as the operations'.
    fn push(&mut self, seconds: f64, ok: bool) {
        self.since_yardstick_s += seconds;
        if self.yardstick_s.is_empty() || self.since_yardstick_s >= YARDSTICK_EVERY_S {
            self.yardstick_s.push(yardstick::time_once());
            self.since_yardstick_s = 0.0;
        }
        self.measured_s += seconds;
        self.completed += ok as u64;
        self.op_us
            .push(if ok { seconds * 1e6 } else { f64::INFINITY });
    }
}

/// What one untraced or traced pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness problems found by the oracles (empty = correct).
    pub problems: Vec<String>,
    /// Observations worth reporting that are not correctness failures.
    pub notes: Vec<String>,
    /// Operation accounting.
    pub ops: OpCounts,
    /// Set-up times, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency samples per class, in microseconds.
    pub lat: Samples,
    /// The closed-loop operations, by segment: the only record of them.
    pub segments: Vec<Segment>,
    /// Leading segments that warm caches and allocators up and are not
    /// reported (unless nothing else was measured).
    pub warmup_segments: usize,
    /// Workload-measured layer counters (stats deltas, sizes).
    pub counters: BTreeMap<&'static str, f64>,
    /// Recorded spans (traced passes only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Folds a later round into this outcome. Counters add up.
    pub fn absorb(&mut self, other: Outcome) {
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
        self.ops.merge(&other.ops);
        self.setup_s.extend(other.setup_s);
        self.lat.merge(other.lat);
        self.segments.extend(other.segments);
        self.warmup_segments = self.warmup_segments.max(other.warmup_segments);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        self.spans.extend(other.spans);
    }

    /// Takes over a tracer's spans and counters.
    pub fn absorb_tracer(&mut self, t: trace::Tracer) {
        for (k, v) in t.counters {
            self.count(k, v);
        }
        self.spans.extend(t.spans);
    }

    /// Records one closed-loop operation of the current segment.
    pub fn op_done(&mut self, seconds: f64, ok: bool) {
        if self.segments.is_empty() {
            self.segments.push(Segment::default());
        }
        self.segments
            .last_mut()
            .expect("just ensured")
            .push(seconds, ok);
    }

    /// Wall seconds spent in the closed loop (set-up and checks excluded).
    pub fn measured_s(&self) -> f64 {
        self.segments.iter().map(|s| s.measured_s).sum()
    }

    /// Every closed-loop operation latency, in microseconds (failed =
    /// infinite).
    pub fn op_us(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.op_us.iter().copied())
            .collect()
    }

    /// Adds `v` to a counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_default() += v;
    }

    /// Records a correctness problem.
    pub fn problem(&mut self, msg: impl Into<String>) {
        if self.problems.len() < 20 {
            self.problems.push(msg.into());
        }
    }
}

/// The closed-loop operation each workload counts.
pub fn primary_op(workload: &str) -> &'static str {
    match workload {
        "explore" => "interaction",
        "live" => "cycle",
        _ => "sweep",
    }
}

fn run_pass(args: &Args, traced: bool, seconds: f64, work: &std::path::Path) -> Outcome {
    match args.workload.as_str() {
        "explore" => explore::run(args.seed, seconds, traced),
        "live" => live::run(args.seed, seconds, traced, work),
        _ => tune::run(args.seed, seconds, traced),
    }
}

/// Fingerprint of the first operations `workload` sends for `seed`.
fn op_stream_hash(workload: &str, seed: u64) -> u64 {
    let ops = match workload {
        "explore" => explore::op_stream(seed, 48),
        "live" => live::op_stream(seed, 48),
        _ => tune::op_stream(seed, 48),
    };
    rng::stream_hash(ops.iter().map(String::as_str))
}

/// The host's `(steal, total)` CPU ticks from `/proc/stat`: steal is time
/// the hypervisor gave this machine's CPUs to other guests. `None` where
/// the file is absent.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Restricts the process, and every thread it starts later, to the
/// highest-numbered CPU it may use, and returns that CPU. The miner fans
/// each request out to `available_parallelism` threads and waits for the
/// slowest; on a shared virtual machine a busy or stolen vCPU then
/// stretches every fanned-out operation. Pinned, the miner sees one worker
/// and each operation runs on one core from start to end. `None` when the
/// affinity cannot be read or set (the process then runs unpinned).
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes that
    // outlives the call; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes that
    // outlives the call; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Host and build facts recorded with every result: the CPUs the process
/// was given (before pinning) and the one it was pinned to.
fn host(parallelism: usize, pinned: Option<usize>) -> Vec<(&'static str, String)> {
    vec![
        ("host.available_parallelism", parallelism.to_string()),
        (
            "host.pinned_cpu",
            pinned.map_or("none".to_string(), |c| c.to_string()),
        ),
        (
            "host.build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "host.target",
            format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
        ),
    ]
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // A failed sample is an infinite latency; JSON has no infinity.
        format!("{}", f64::MAX)
    }
}

fn main() -> ExitCode {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for workload in workloads {
        let args = Args {
            workload: workload.to_string(),
            ..args.clone()
        };
        match run_workload(&args, host(parallelism, pinned)) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload, prints its report and result line, and returns
/// whether every correctness check passed.
fn run_workload(args: &Args, mut facts: Vec<(&'static str, String)>) -> Result<bool, String> {
    let out_dir = PathBuf::from(".perfbench_out");
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&out_dir)
        .and(std::fs::create_dir_all(&work))
        .map_err(|e| format!("cannot create output directories: {e}"))?;

    let ticks_before = cpu_ticks();
    let (result, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = run_pass(args, false, half, &work.join("plain"));
        let traced = run_pass(args, true, half, &work.join("traced"));
        (plain, Some(traced))
    } else {
        (run_pass(args, false, args.seconds, &work), None)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let steal_pct = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".to_string(),
    };

    let op = primary_op(&args.workload);
    let mut problems = result.problems.clone();
    let (mut attempted, mut failed) = result.ops.totals(op);
    if let Some(t) = &traced {
        problems.extend(t.problems.iter().cloned());
        let (a, f) = t.ops.totals(op);
        attempted += a;
        failed += f;
    }
    let correct = problems.is_empty() && attempted > 0;

    let (metrics, report_only) = match &traced {
        None => (layers::end_to_end(&result), Vec::new()),
        Some(t) => layers::per_layer(&args.workload, &result, t),
    };

    // The human-readable report, then the machine-readable record.
    facts.push(("host.steal_pct", steal_pct));
    facts.push((
        "op_stream_hash",
        format!("{:016x}", op_stream_hash(&args.workload, args.seed)),
    ));
    let report = layers::report(
        args,
        &facts,
        &result,
        traced.as_ref(),
        &metrics,
        &report_only,
        &problems,
    );
    print!("{report}");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let _ = std::fs::write(out_dir.join(format!("{tag}.txt")), &report);
    if let Some(t) = &traced {
        let _ = trace::write_jsonl(&out_dir.join(format!("{tag}.spans.jsonl")), &t.spans);
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed yields the same operation stream, byte for byte; a
    /// different seed yields a different one.
    #[test]
    fn op_streams_are_a_function_of_the_seed() {
        type Stream = fn(u64, usize) -> Vec<String>;
        let workloads: [(&str, Stream); 3] = [
            ("explore", explore::op_stream),
            ("live", live::op_stream),
            ("tune", tune::op_stream),
        ];
        for (name, stream) in workloads {
            let hash = |seed| rng::stream_hash(stream(seed, 48).iter().map(String::as_str));
            assert_eq!(hash(7), hash(7), "{name}: same seed, different stream");
            assert_ne!(hash(7), hash(8), "{name}: different seeds, same stream");
        }
    }
}
