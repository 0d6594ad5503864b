//! `explore`: one analyst mining the Santander stand-in interactively.
//!
//! The analyst works in sessions of twelve interactions: pick a new ε (a
//! cold mine), tweak ψ/η/μ four times (re-mines over a warm extraction
//! cache), and flip back to earlier views of the session seven times
//! (result-cache hits). Every response is decoded and its top CAP's
//! Fig. 3 dashboard rendered. Rounds of sessions run on a fresh service,
//! so the result collection — whose probes cost grows with its size —
//! holds the same amount of work in every round.

use crate::fixture::Upload;
use crate::rng::{stratified, Rng};
use crate::trace::Tracer;
use crate::wire::{StatsProbe, Wire};
use crate::Outcome;
use miscela_cache::codec::capset_from_json;
use miscela_core::{CapSet, Miner};
use miscela_server::router::params_from_json;
use miscela_store::Json;
use miscela_viz::Dashboard;
use std::collections::HashMap;
use std::time::Instant;

const DATASET: &str = "santander";
const SESSIONS_PER_ROUND: usize = 10;
/// Interaction kinds of one session after its opening cold mine.
const TWEAKS: usize = 4;
const FLIPS: usize = 7;
const PSI: [usize; 4] = [16, 20, 24, 28];
const ETA_KM: [f64; 4] = [0.4, 0.5, 0.6, 0.7];
const MU: [usize; 2] = [2, 3];

fn body(epsilon: f64, psi: usize, eta_km: f64, mu: usize) -> String {
    format!(
        r#"{{"epsilon":{epsilon:.4},"eta_km":{eta_km},"mu":{mu},"psi":{psi},"segmentation":false}}"#
    )
}

/// The ε of each session of one round.
fn round_epsilons(rng: &mut Rng) -> Vec<f64> {
    stratified(rng, 0.30, 0.55, SESSIONS_PER_ROUND)
}

/// One session's request bodies, in order.
pub fn session(rng: &mut Rng, epsilon: f64) -> Vec<String> {
    let mut views = vec![body(epsilon, 20, 0.5, 3)];
    let mut script = views.clone();
    let mut kinds: Vec<bool> = std::iter::repeat_n(true, TWEAKS)
        .chain(std::iter::repeat_n(false, FLIPS))
        .collect();
    rng.shuffle(&mut kinds);
    for tweak in kinds {
        if tweak {
            // A parameter set this session has not seen: a guaranteed miss.
            let fresh = loop {
                let b = body(
                    epsilon,
                    PSI[rng.below(PSI.len())],
                    ETA_KM[rng.below(ETA_KM.len())],
                    MU[rng.below(MU.len())],
                );
                if !views.contains(&b) {
                    break b;
                }
            };
            views.push(fresh.clone());
            script.push(fresh);
        } else {
            // Back to an earlier view than the one on screen.
            let current = script.last().expect("sessions open with a mine");
            let earlier: Vec<&String> = views.iter().filter(|v| *v != current).collect();
            let pick = if earlier.is_empty() {
                current.clone()
            } else {
                earlier[rng.below(earlier.len())].clone()
            };
            script.push(pick);
        }
    }
    script
}

/// The first `n` request bodies the workload sends for `seed`.
pub fn op_stream(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    while out.len() < n {
        for epsilon in round_epsilons(&mut rng) {
            out.extend(session(&mut rng, epsilon));
        }
    }
    out.truncate(n);
    out
}

/// Runs rounds until `seconds` of closed-loop time have been measured.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let upload = Upload::new(DATASET, &miscela_bench::santander_bench());
    let mut rng = Rng::new(seed, 1);
    let epoch = Instant::now();
    let mut total = Outcome {
        warmup_segments: 1,
        ..Outcome::default()
    };
    let mut op_id = 0u64;
    while total.measured_s() < seconds {
        total.absorb(round(&upload, &mut rng, traced, epoch, &mut op_id));
        if !total.problems.is_empty() {
            break;
        }
    }
    total
}

fn round(upload: &Upload, rng: &mut Rng, traced: bool, epoch: Instant, op_id: &mut u64) -> Outcome {
    let mut o = Outcome::default();
    let (wire, setup) = match upload.set_up() {
        Ok(x) => x,
        Err(e) => {
            o.problem(e);
            return o;
        }
    };
    o.setup_s.push(setup.as_secs_f64());
    let before = StatsProbe::take(&wire);
    let mut t = Tracer::new(traced, epoch);
    let mut seen: HashMap<String, CapSet> = HashMap::new();
    for epsilon in round_epsilons(rng) {
        for body in session(rng, epsilon) {
            *op_id += 1;
            let (caps, hit) = interaction(&wire, &mut t, &upload.content, &body, *op_id, &mut o);
            if let Some(caps) = caps {
                match seen.get(&body) {
                    Some(first) if *first != caps => {
                        o.problem(format!("a repeated view changed its caps: {body}"))
                    }
                    Some(_) => {}
                    None => {
                        if hit {
                            o.problem(format!("first request of a view was a cache hit: {body}"));
                        }
                        seen.insert(body, caps);
                    }
                }
            }
        }
    }
    StatsProbe::take(&wire).delta_into(&before, &mut o);
    o.count("rounds", 1.0);
    o.count(
        "results_stored",
        wire.service().cache_stats().entries as f64,
    );
    o.absorb_tracer(t);
    // Oracle: every distinct view equals a cold mine of the same content.
    for (body, caps) in &seen {
        let params = Json::parse(body)
            .ok()
            .and_then(|b| params_from_json(&b).ok())
            .expect("the benchmark's own bodies are valid");
        match Miner::new(params).and_then(|m| m.mine(&upload.content)) {
            Ok(expected) if expected.caps == *caps => {}
            Ok(_) => o.problem(format!("served caps differ from a cold mine: {body}")),
            Err(e) => o.problem(format!("cold mine failed: {e}")),
        }
    }
    o
}

/// One interaction: mine request, decode, render. Returns the decoded
/// caps and whether the server answered from its result cache.
fn interaction(
    wire: &Wire,
    t: &mut Tracer,
    content: &miscela_model::Dataset,
    body: &str,
    op_id: u64,
    o: &mut Outcome,
) -> (Option<CapSet>, bool) {
    let started = Instant::now();
    let op = t.begin_op(op_id, "op.interaction");
    let reply = wire.mine(t, DATASET, body);
    let answered = started.elapsed();
    if !reply.ok() {
        t.end(op);
        o.op_done(started.elapsed().as_secs_f64(), false);
        o.ops.fail("interaction", reply.status);
        return (None, false);
    }
    let s = t.begin("store.json_parse");
    let doc = Json::parse(&reply.text);
    t.end(s);
    let s = t.begin("cache.capset_decode");
    let decoded = doc
        .as_ref()
        .ok()
        .and_then(|d| d.get("caps").and_then(capset_from_json));
    t.end(s);
    let s = t.begin("viz.render");
    let svg = decoded.as_ref().map_or(String::new(), |caps| {
        Dashboard::new(content, caps)
            .render_top()
            .map_or(String::new(), |d| d.render())
    });
    t.end_bytes(s, svg.len());
    t.end(op);
    let done = started.elapsed();
    let Some(caps) = decoded else {
        o.op_done(done.as_secs_f64(), false);
        o.ops.fail("interaction", "undecodable");
        return (None, false);
    };
    o.op_done(done.as_secs_f64(), true);
    let hit = doc
        .ok()
        .and_then(|d| d.get("cache_hit").and_then(|h| h.as_bool()))
        .unwrap_or(false);
    o.ops.ok("interaction");
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    o.lat
        .push(if hit { "mine_hit" } else { "mine_miss" }, us(answered));
    o.lat.push("render", us(done - answered));
    (Some(caps), hit)
}
