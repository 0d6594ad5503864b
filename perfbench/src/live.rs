//! `live`: a streaming dashboard over a durable dataset.
//!
//! The china6-bench stand-in (55 sensors × 336 timestamps) is uploaded to
//! a durable service, put behind a retention window equal to its length,
//! and pre-filled with as much history again through 4-timestamp append
//! sessions. Set-up is recovery: a fresh copy of that directory is opened
//! and the service answers its first request. Then two threads run a
//! closed loop: a feeder sends one 4-timestamp append session (begin,
//! chunk with `session` + `seq`, finish) and waits until a dashboard
//! thread — parked in a `watch` long-poll — has re-mined the new revision
//! with `segmentation: true`, decoded the caps and rendered them.

use crate::fixture::{append_csv, apply_append, Upload};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::wire::{StatsProbe, Wire};
use crate::Outcome;
use miscela_cache::codec::{capset_from_json, capset_to_json};
use miscela_core::Miner;
use miscela_model::{AppendRow, Dataset, RetentionPolicy};
use miscela_server::router::params_from_json;
use miscela_server::{Method, MiscelaService, DEFAULT_TENANT};
use miscela_store::Json;
use miscela_viz::Dashboard;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DATASET: &str = "china6";
/// Timestamps per append session.
const BATCH: usize = 4;
/// Recoveries timed per run (the median is `setup_s`).
const RECOVERIES: usize = 9;
/// Cycles per segment.
const SEGMENT_CYCLES: u64 = 100;
/// How long one dashboard long-poll parks before it re-checks for the end.
const WATCH_MS: u64 = 250;
/// The dashboard's mining request.
pub const MINE_BODY: &str = r#"{"epsilon":1.0,"eta_km":250,"mu":2,"psi":40,"segmentation":true}"#;

/// The append documents of one run: each continues the dataset's feed
/// from `source`'s waveform, its values jittered by the seed.
pub struct Feed {
    source: Dataset,
    rng: Rng,
}

impl Feed {
    /// A feed replaying `source`'s waveform.
    pub fn new(source: Dataset, seed: u64) -> Self {
        Feed {
            source,
            rng: Rng::new(seed, 2),
        }
    }

    /// The next append document after `content`'s last timestamp.
    pub fn next_csv(&mut self, content: &Dataset) -> String {
        let rows: Vec<AppendRow> =
            miscela_bench::periodic_append_rows(&self.source, content, BATCH)
                .into_iter()
                .map(|mut r| {
                    let jitter = 1.0 + 0.04 * (self.rng.unit() - 0.5);
                    r.value = r.value.map(|v| v * jitter);
                    r
                })
                .collect();
        append_csv(&rows)
    }
}

/// The first `n` append documents the workload sends for `seed`.
pub fn op_stream(seed: u64, n: usize) -> Vec<String> {
    let base = miscela_bench::china6(false);
    let mut content = Upload::new(DATASET, &base).content;
    content.set_retention(RetentionPolicy::keep_last(base.timestamp_count()));
    let mut feed = Feed::new(base, seed);
    (0..n)
        .map(|_| {
            let csv = feed.next_csv(&content);
            apply_append(&mut content, &csv).expect("generated batches apply");
            csv
        })
        .collect()
}

fn ok_or(reply: crate::wire::Reply, what: &str) -> Result<String, String> {
    if reply.ok() {
        Ok(reply.text)
    } else {
        Err(format!("{what}: {} {}", reply.status, reply.text))
    }
}

/// The status code in an `ok_or` error message (`"<what>: <status> <body>"`).
fn status_of(error: &str) -> String {
    error
        .split(": ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or("error")
        .to_string()
}

fn num(text: &str, field: &str) -> Option<f64> {
    Json::parse(text).ok()?.get(field)?.as_f64()
}

/// One append session through `wire`. Returns the finish response.
fn append(wire: &Wire, t: &mut Tracer, csv: &str) -> Result<String, String> {
    let begin = ok_or(wire.append_begin(t, DATASET), "append begin")?;
    let session = num(&begin, "session").ok_or("begin without a session")? as i64;
    let chunk = Json::from_pairs([
        ("index", Json::from(0usize)),
        ("total", Json::from(1usize)),
        ("content", Json::from(csv)),
        ("session", Json::from(session)),
        ("seq", Json::from(1i64)),
    ])
    .to_string_compact();
    ok_or(wire.append_chunk(t, DATASET, &chunk), "append chunk")?;
    ok_or(wire.append_finish(t, DATASET), "append finish")
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Builds the pre-filled durable directory. Returns the client's copy of
/// the content it holds.
fn prefill(dir: &Path, base: &Dataset, feed: &mut Feed) -> Result<Dataset, String> {
    let upload = Upload::new(DATASET, base);
    let service = MiscelaService::with_durability(dir).map_err(|e| e.to_string())?;
    let wire = Wire::new(Arc::new(service));
    upload.send(&wire)?;
    let window = base.timestamp_count();
    ok_or(
        wire.call(
            Method::Post,
            &format!("/datasets/{DATASET}/retention"),
            &[],
            &format!(r#"{{"max_timestamps":{window}}}"#),
        ),
        "retention",
    )?;
    let mut content = upload.content;
    content.set_retention(RetentionPolicy::keep_last(window));
    let mut t = Tracer::new(false, Instant::now());
    for _ in 0..window / BATCH {
        let csv = feed.next_csv(&content);
        append(&wire, &mut t, &csv)?;
        apply_append(&mut content, &csv)?;
    }
    Ok(content)
}

/// Opens a copy of `pristine` and waits for the first answered request.
fn recover(pristine: &Path, dir: &Path) -> Result<(Wire, Duration, u64), String> {
    let _ = std::fs::remove_dir_all(dir);
    copy_dir(pristine, dir).map_err(|e| format!("copying the durable directory: {e}"))?;
    let started = Instant::now();
    let service = MiscelaService::with_durability(dir).map_err(|e| e.to_string())?;
    let wire = Wire::new(Arc::new(service));
    ok_or(
        wire.call(Method::Get, &format!("/datasets/{DATASET}"), &[], "{}"),
        "first request after recovery",
    )?;
    let elapsed = started.elapsed();
    let replayed = wire
        .service()
        .durability_stats_in(DEFAULT_TENANT, DATASET)
        .map_err(|e| e.to_string())?
        .replayed_records;
    Ok((wire, elapsed, replayed))
}

/// What the feeder tells the dashboard about one acknowledged append.
struct Appended {
    cycle: u64,
    content: Dataset,
    begun: Instant,
    acked: Instant,
}

/// What the dashboard reports back once the revision is on screen.
struct Shown {
    revision: u64,
    fresh: Duration,
    cycle: Duration,
    mine: Duration,
    render: Duration,
    wakeup_us: f64,
    failure: Option<String>,
}

/// Runs the workload for `seconds` of closed-loop time in `work`.
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    let mut o = Outcome {
        warmup_segments: 1,
        ..Outcome::default()
    };
    if let Err(e) = run_in(seed, seconds, traced, work, &mut o) {
        o.problem(e);
    }
    o
}

fn run_in(
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    o: &mut Outcome,
) -> Result<(), String> {
    let base = miscela_bench::china6(false);
    let mut feed = Feed::new(base.clone(), seed);
    let pristine = work.join("pristine");
    let mut mirror = prefill(&pristine, &base, &mut feed)?;

    let mut wire = None;
    for k in 0..RECOVERIES {
        let (w, elapsed, replayed) = recover(&pristine, &work.join(format!("copy{k}")))?;
        o.setup_s.push(elapsed.as_secs_f64());
        o.counters.insert("replayed_records", replayed as f64);
        wire = Some(w);
    }
    let wire = wire.expect("at least one recovery");
    let dir = work.join(format!("copy{}", RECOVERIES - 1));

    let before = StatsProbe::take(&wire);
    let epoch = Instant::now();
    let (to_dash, from_feeder) = mpsc::channel::<Appended>();
    let (to_feeder, from_dash) = mpsc::channel::<Shown>();
    let stop = AtomicBool::new(false);
    let start_revision = wire
        .service()
        .dataset_revision_in(DEFAULT_TENANT, DATASET)
        .map_err(|e| e.to_string())?;

    let dash_tracer = std::thread::scope(|scope| -> Result<Tracer, String> {
        let dash_wire = wire.clone();
        let stop = &stop;
        let dashboard = scope.spawn(move || {
            dashboard(
                dash_wire,
                from_feeder,
                to_feeder,
                stop,
                start_revision,
                traced,
                epoch,
            )
        });
        let mut t = Tracer::new(traced, epoch);
        let mut cycle = 0u64;
        while o.measured_s() < seconds {
            cycle += 1;
            if cycle % SEGMENT_CYCLES == 1 {
                o.segments.push(Default::default());
            }
            let csv = feed.next_csv(&mirror);
            let mut next = mirror.clone();
            apply_append(&mut next, &csv)?;
            let durable_before = traced
                .then(|| {
                    wire.service()
                        .durability_stats_in(DEFAULT_TENANT, DATASET)
                        .ok()
                })
                .flatten();
            let begun = Instant::now();
            let op = t.begin_op(cycle, "op.append");
            let finished = append(&wire, &mut t, &csv);
            t.end(op);
            let acked = Instant::now();
            let finish = match finished {
                Ok(text) => text,
                Err(e) => {
                    o.op_done(begun.elapsed().as_secs_f64(), false);
                    o.ops.fail("append", status_of(&e));
                    o.ops.fail("cycle", "append failed");
                    o.lat.push_failed("append");
                    continue;
                }
            };
            o.ops.ok("append");
            o.lat.push("append", (acked - begun).as_secs_f64() * 1e6);
            mirror = next;
            let revision = num(&finish, "revision").unwrap_or(0.0) as u64;
            if let (Some(b), Ok(a)) = (
                durable_before,
                wire.service().durability_stats_in(DEFAULT_TENANT, DATASET),
            ) {
                o.count(
                    "compactions",
                    a.compactions.saturating_sub(b.compactions) as f64,
                );
                // A compaction truncates the log: only count appends whose
                // bytes landed in the same log generation.
                if a.snapshot_generation == b.snapshot_generation {
                    o.count("wal_bytes", a.wal_bytes.saturating_sub(b.wal_bytes) as f64);
                    o.count("wal_syncs", a.wal_syncs.saturating_sub(b.wal_syncs) as f64);
                    o.count("wal_rows", num(&finish, "measurements").unwrap_or(0.0));
                    o.count("wal_appends", 1.0);
                }
            }
            let note = Appended {
                cycle,
                content: mirror.clone(),
                begun,
                acked,
            };
            if to_dash.send(note).is_err() {
                return Err("the dashboard thread ended early".into());
            }
            let shown = from_dash
                .recv()
                .map_err(|_| "the dashboard thread ended early")?;
            o.op_done(shown.cycle.as_secs_f64(), shown.failure.is_none());
            if shown.revision != revision {
                o.problem(format!(
                    "watch returned revision {} but the feeder produced {revision}",
                    shown.revision
                ));
            }
            match shown.failure {
                Some(status) => {
                    o.ops.fail("refresh", &status);
                    o.ops.fail("cycle", status);
                    o.lat.push_failed("fresh");
                }
                None => {
                    o.ops.ok("refresh");
                    o.ops.ok("cycle");
                    let us = |d: Duration| d.as_secs_f64() * 1e6;
                    o.lat.push("fresh", us(shown.fresh));
                    o.lat.push("mine_miss", us(shown.mine));
                    o.lat.push("render", us(shown.render));
                    o.lat.push("watch_wakeup", shown.wakeup_us);
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        drop(to_dash);
        let dash = dashboard
            .join()
            .map_err(|_| "the dashboard thread panicked")?;
        o.absorb_tracer(t);
        Ok(dash)
    })?;
    o.absorb_tracer(dash_tracer);
    StatsProbe::take(&wire).delta_into(&before, o);
    o.count("rounds", 1.0);
    o.count(
        "results_stored",
        wire.service().cache_stats().entries as f64,
    );
    drop(wire);

    // Oracle: a service recovered from the durable directory mines the
    // harness's mirror byte for byte.
    let recovered = MiscelaService::with_durability(&dir).map_err(|e| e.to_string())?;
    let params = params_from_json(&Json::parse(MINE_BODY).expect("valid body"))
        .map_err(|e| e.message().to_string())?;
    let served = recovered
        .mine_in(DEFAULT_TENANT, DATASET, &params)
        .map_err(|e| format!("mining the recovered service: {}", e.message()))?;
    let expected = Miner::new(params)
        .and_then(|m| m.mine(&mirror))
        .map_err(|e| e.to_string())?;
    let (a, b) = (
        capset_to_json(&served.result.caps).to_string_compact(),
        capset_to_json(&expected.caps).to_string_compact(),
    );
    if a != b {
        o.problem("the recovered service mines differently from the mirror");
    }
    let held = recovered
        .dataset_in(DEFAULT_TENANT, DATASET)
        .map_err(|e| e.to_string())?;
    if held.timestamp_count() != mirror.timestamp_count()
        || held.grid().start() != mirror.grid().start()
    {
        o.problem(format!(
            "the recovered window ({} timestamps from {}) differs from the mirror's ({} from {})",
            held.timestamp_count(),
            held.grid().start().format(),
            mirror.timestamp_count(),
            mirror.grid().start().format()
        ));
    }
    // Not a content check: the snapshot does not carry the trim counter,
    // so a recovered dataset restarts `trimmed_total` from zero.
    if held.trimmed() != mirror.trimmed() {
        o.notes.push(format!(
            "recovered trimmed_total is {} where the live service reported {}",
            held.trimmed(),
            mirror.trimmed()
        ));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn dashboard(
    wire: Wire,
    appended: mpsc::Receiver<Appended>,
    shown: mpsc::Sender<Shown>,
    stop: &AtomicBool,
    mut revision: u64,
    traced: bool,
    epoch: Instant,
) -> Tracer {
    let mut t = Tracer::new(traced, epoch);
    loop {
        let mark = t.spans.len();
        let op = t.begin_op(0, "op.refresh");
        let watch = wire.watch(&mut t, DATASET, revision, WATCH_MS);
        let woke = Instant::now();
        let changed = watch.ok()
            && Json::parse(&watch.text)
                .ok()
                .and_then(|d| d.get("changed").and_then(|c| c.as_bool()))
                .unwrap_or(false);
        if !changed {
            // A long-poll that expired with nothing new is not an operation.
            t.end(op);
            t.spans.truncate(mark);
            if stop.load(Ordering::SeqCst) {
                return t;
            }
            continue;
        }
        revision = num(&watch.text, "revision").unwrap_or(0.0) as u64;
        let mine_started = Instant::now();
        let reply = wire.mine(&mut t, DATASET, MINE_BODY);
        let fresh_at = Instant::now();
        let Ok(note) = appended.recv() else {
            t.end(op);
            return t;
        };
        let decode_started = Instant::now();
        let mut failure = (!reply.ok()).then(|| reply.status.to_string());
        let s = t.begin("store.json_parse");
        let doc = Json::parse(&reply.text);
        t.end(s);
        let s = t.begin("cache.capset_decode");
        let caps = doc
            .ok()
            .and_then(|d| d.get("caps").and_then(capset_from_json));
        t.end(s);
        let s = t.begin("viz.render");
        let svg = caps.as_ref().map_or(String::new(), |c| {
            Dashboard::new(&note.content, c)
                .render_top()
                .map_or(String::new(), |d| d.render())
        });
        t.end_bytes(s, svg.len());
        t.end(op);
        let done = Instant::now();
        if failure.is_none() && caps.is_none() {
            failure = Some("undecodable".into());
        }
        for s in &mut t.spans[mark..] {
            s.op = note.cycle;
        }
        let wakeup_us = if woke >= note.acked {
            (woke - note.acked).as_secs_f64() * 1e6
        } else {
            -((note.acked - woke).as_secs_f64() * 1e6)
        };
        let report = Shown {
            revision,
            fresh: fresh_at - note.begun,
            cycle: done - note.begun,
            mine: fresh_at - mine_started,
            render: done - decode_started,
            wakeup_us,
            failure,
        };
        if shown.send(report).is_err() {
            return t;
        }
    }
}
