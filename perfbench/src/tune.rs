//! `tune`: one client sending 48-point ψ/η/μ sweeps to a larger China6
//! stand-in (285 sensors × 570 timestamps).
//!
//! Every sweep uses a fresh ε, so all of its points miss the result cache
//! and are written back to it: the result collection grows by 48 per
//! sweep, and the probes that answer the cache-key filter visit every
//! stored result of the dataset. Rounds of a fixed number of sweeps run on
//! a fresh service, so the growth is the same in every round and every
//! run. Rounds are short (16 sweeps, 768 stored results at the end), so
//! the scans of a grown collection do not dominate the sweep time.

use crate::fixture::Upload;
use crate::rng::{stratified, Rng};
use crate::trace::Tracer;
use crate::wire::StatsProbe;
use crate::Outcome;
use miscela_cache::codec::capset_from_json;
use miscela_core::{CapSet, Miner};
use miscela_datagen::{ChinaGenerator, ChinaProfile};
use miscela_model::Dataset;
use miscela_server::router::params_from_json;
use miscela_store::Json;
use miscela_viz::Dashboard;
use std::time::Instant;

const DATASET: &str = "china6";
/// Sweeps per round (one fresh service each).
pub const SWEEPS_PER_ROUND: usize = 16;
/// One point of every this many sweeps is checked against a solo mine.
const CHECK_EVERY: usize = 8;
/// Set-ups timed per run at least.
const MIN_SETUPS: usize = 7;
const PSI: [usize; 4] = [120, 135, 150, 165];
const ETA_KM: [f64; 4] = [150.0, 250.0, 350.0, 450.0];
const MU: [usize; 3] = [2, 3, 4];

/// The larger China6 stand-in.
pub fn dataset() -> Dataset {
    ChinaGenerator::small(ChinaProfile::China6)
        .with_scale(0.03)
        .generate()
}

/// The ε of each sweep of one round: all distinct, spread over the range.
fn round_epsilons(rng: &mut Rng) -> Vec<f64> {
    stratified(rng, 0.8, 1.2, SWEEPS_PER_ROUND)
}

/// One sweep's request body: the 48-point grid at `epsilon`.
pub fn sweep_body(epsilon: f64) -> String {
    let mut points = Vec::with_capacity(48);
    for psi in PSI {
        for eta in ETA_KM {
            for mu in MU {
                points.push(format!(
                    r#"{{"epsilon":{epsilon:.4},"eta_km":{eta},"mu":{mu},"psi":{psi},"segmentation":false}}"#
                ));
            }
        }
    }
    format!(r#"{{"points":[{}]}}"#, points.join(","))
}

/// The first `n` request bodies the workload sends for `seed`.
pub fn op_stream(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::new();
    while out.len() < n {
        out.extend(round_epsilons(&mut rng).into_iter().map(sweep_body));
    }
    out.truncate(n);
    out
}

/// Runs rounds until `seconds` of closed-loop time have been measured.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let upload = Upload::new(DATASET, &dataset());
    let mut rng = Rng::new(seed, 3);
    let mut check_rng = Rng::new(seed, 4);
    let epoch = Instant::now();
    let mut total = Outcome::default();
    let mut op_id = 0u64;
    while total.measured_s() < seconds {
        let mut o = Outcome::default();
        let (wire, setup) = match upload.set_up() {
            Ok(x) => x,
            Err(e) => {
                total.problem(e);
                break;
            }
        };
        o.setup_s.push(setup.as_secs_f64());
        let before = StatsProbe::take(&wire);
        let mut t = Tracer::new(traced, epoch);
        let mut checks: Vec<(String, usize, CapSet)> = Vec::new();
        for (i, epsilon) in round_epsilons(&mut rng).into_iter().enumerate() {
            let body = sweep_body(epsilon);
            op_id += 1;
            let started = Instant::now();
            let op = t.begin_op(op_id, "op.sweep");
            let reply = wire.sweep(&mut t, DATASET, &body);
            let answered = started.elapsed();
            let results = if reply.ok() {
                view(&mut t, &upload.content, &reply.text)
            } else {
                None
            };
            t.end(op);
            o.op_done(started.elapsed().as_secs_f64(), results.is_some());
            let Some(mut results) = results else {
                let status = if reply.ok() {
                    "undecodable".to_string()
                } else {
                    reply.status.to_string()
                };
                o.ops.fail("sweep", status);
                o.lat.push_failed("sweep");
                continue;
            };
            o.ops.ok("sweep");
            o.lat.push("sweep", answered.as_secs_f64() * 1e6);
            if i % CHECK_EVERY == 0 {
                let point = check_rng.below(results.len());
                checks.push((body, point, results.swap_remove(point)));
            }
        }
        StatsProbe::take(&wire).delta_into(&before, &mut o);
        o.count("rounds", 1.0);
        o.count(
            "results_stored",
            wire.service().cache_stats().entries as f64,
        );
        o.absorb_tracer(t);
        drop(wire);
        // Oracle: sampled grid points equal solo mines of the same content.
        for (body, point, served) in checks {
            if let Err(e) = check_point(&upload.content, &body, point, &served) {
                o.problem(e);
            }
        }
        total.absorb(o);
        if !total.problems.is_empty() {
            break;
        }
    }
    // Set-up is timed several times per run even when few rounds fit.
    while total.setup_s.len() < MIN_SETUPS && total.problems.is_empty() {
        match upload.set_up() {
            Ok((_, setup)) => total.setup_s.push(setup.as_secs_f64()),
            Err(e) => total.problem(e),
        }
    }
    total
}

/// The client's view of a sweep: decode every point's caps and render
/// the top CAP of the point that found the most. Returns the decoded caps
/// in point order.
fn view(t: &mut Tracer, content: &Dataset, text: &str) -> Option<Vec<CapSet>> {
    let s = t.begin("store.json_parse");
    let doc = Json::parse(text).ok();
    t.end(s);
    let s = t.begin("cache.capset_decode");
    let results: Option<Vec<CapSet>> = doc
        .as_ref()
        .and_then(|d| d.get("results"))
        .and_then(|r| r.as_array())
        .and_then(|r| {
            r.iter()
                .map(|p| p.get("caps").and_then(capset_from_json))
                .collect()
        });
    t.end(s);
    let results = results?;
    let best = results.iter().max_by_key(|caps| caps.len())?;
    let s = t.begin("viz.render");
    let svg = Dashboard::new(content, best)
        .render_top()
        .map_or(String::new(), |d| d.render());
    t.end_bytes(s, svg.len());
    Some(results)
}

fn check_point(content: &Dataset, body: &str, point: usize, served: &CapSet) -> Result<(), String> {
    let params = Json::parse(body)
        .ok()
        .and_then(|b| {
            b.get("points")
                .and_then(|p| p.as_array())
                .and_then(|p| p.get(point))
                .and_then(|p| params_from_json(p).ok())
        })
        .ok_or("invalid sweep point")?;
    let solo = Miner::new(params)
        .and_then(|m| m.mine(content))
        .map_err(|e| e.to_string())?;
    if solo.caps != *served {
        return Err(format!(
            "sweep point {point} differs from a solo mine: {body}"
        ));
    }
    Ok(())
}
