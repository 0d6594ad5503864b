//! The client's view of the service: request text in, response text out.
//!
//! Untraced, every call goes through [`Router::handle`] exactly as a
//! deployed front end would: parse the body text, route, serialize the
//! response. Traced, the same request is answered by the public calls the
//! router's handler makes — `Json::parse`, `params_from_json`, the
//! `MiscelaService::*_in` method, `capset_to_json`,
//! `Json::to_string_compact` — each wrapped in a span. The traced path
//! builds the same response document as the router.

use crate::trace::Tracer;
use miscela_cache::codec::capset_to_json;
use miscela_core::{CancelToken, MiningParams};
use miscela_csv::chunk::Chunk;
use miscela_server::router::params_from_json;
use miscela_server::{
    ApiError, ApiRequest, ApiResponse, Method, MiscelaService, Router, StatusCode, SweepServed,
    DEFAULT_TENANT,
};
use miscela_store::Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP-style status.
    pub status: StatusCode,
    /// Serialized response body.
    pub text: String,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        self.status.is_success()
    }

    fn from_result(result: Result<Json, ApiError>, t: &mut Tracer) -> Reply {
        match result {
            Ok(doc) => {
                let s = t.begin("store.json_encode");
                let text = doc.to_string_compact();
                t.end_bytes(s, text.len());
                Reply {
                    status: StatusCode::Ok,
                    text,
                }
            }
            Err(e) => {
                let resp = ApiResponse::from_error(&e);
                Reply {
                    status: resp.status,
                    text: resp.body.to_string_compact(),
                }
            }
        }
    }
}

/// A connection to one service.
#[derive(Clone)]
pub struct Wire {
    router: Arc<Router>,
}

fn parse_body(text: &str, t: &mut Tracer) -> Result<Json, ApiError> {
    let s = t.begin("store.json_parse");
    let body = Json::parse(text).map_err(|e| ApiError::BadRequest(format!("bad body: {e}")));
    t.end(s);
    body
}

fn body_u64(body: &Json, field: &str) -> Result<u64, ApiError> {
    body.get(field)
        .and_then(|v| v.as_i64())
        .filter(|n| *n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| ApiError::BadRequest(format!("missing integer field {field:?}")))
}

impl Wire {
    /// A connection to `service`, through a fresh router.
    pub fn new(service: Arc<MiscelaService>) -> Self {
        Wire {
            router: Arc::new(Router::new(service)),
        }
    }

    /// The service behind the router.
    pub fn service(&self) -> &Arc<MiscelaService> {
        self.router.service()
    }

    /// Sends one request through the router.
    pub fn call(&self, method: Method, path: &str, query: &[(&str, String)], body: &str) -> Reply {
        let body = match Json::parse(body) {
            Ok(b) => b,
            Err(e) => {
                return Reply {
                    status: StatusCode::BadRequest,
                    text: format!("{{\"error\":\"bad body: {e}\"}}"),
                }
            }
        };
        let mut request = ApiRequest::post(path, body);
        request.method = method;
        for (k, v) in query {
            request = request.with_query(*k, v.clone());
        }
        let response = self.router.handle(&request);
        Reply {
            status: response.status,
            text: response.body.to_string_compact(),
        }
    }

    /// `POST /datasets/{name}/mine`.
    pub fn mine(&self, t: &mut Tracer, name: &str, body: &str) -> Reply {
        if !t.enabled() {
            return self.call(Method::Post, &format!("/datasets/{name}/mine"), &[], body);
        }
        let result = (|| {
            let body = parse_body(body, t)?;
            let s = t.begin("server.params_from_json");
            let params = params_from_json(&body);
            t.end(s);
            let params = params?;
            let s = t.begin("server.service");
            let outcome = self.service().mine_cancellable_in(
                DEFAULT_TENANT,
                name,
                &params,
                None,
                &CancelToken::never(),
            );
            t.end(s);
            let outcome = outcome?;
            t.count("responses", 1.0);
            t.count("caps", outcome.result.caps.len() as f64);
            if !outcome.cache_hit {
                t.children(s, &core_phases(&outcome.result.report));
                t.count("mined", 1.0);
                t.count(
                    "largest_component",
                    outcome.result.report.largest_component as f64,
                );
            }
            let s = t.begin("cache.capset_encode");
            let caps = capset_to_json(&outcome.result.caps);
            t.end(s);
            Ok(Json::from_pairs([
                ("dataset", Json::from(name)),
                ("revision", Json::from(outcome.revision as i64)),
                ("cache_hit", Json::from(outcome.cache_hit)),
                (
                    "extraction_cache_hits",
                    Json::from(outcome.result.report.extraction_cache_hits),
                ),
                (
                    "extraction_prefix_hits",
                    Json::from(outcome.result.report.extraction_prefix_hits),
                ),
                ("cap_count", Json::from(outcome.result.caps.len())),
                ("elapsed_seconds", Json::from(outcome.elapsed.as_secs_f64())),
                ("caps", caps),
            ]))
        })();
        Reply::from_result(result, t)
    }

    /// `POST /datasets/{name}/mine/sweep`.
    pub fn sweep(&self, t: &mut Tracer, name: &str, body: &str) -> Reply {
        if !t.enabled() {
            return self.call(
                Method::Post,
                &format!("/datasets/{name}/mine/sweep"),
                &[],
                body,
            );
        }
        let result = (|| {
            let body = parse_body(body, t)?;
            let raw = body
                .get("points")
                .and_then(|p| p.as_array())
                .ok_or_else(|| {
                    ApiError::BadRequest(
                        "body must carry a `points` array of parameter objects".into(),
                    )
                })?;
            let s = t.begin("server.params_from_json");
            let points = raw
                .iter()
                .map(params_from_json)
                .collect::<Result<Vec<MiningParams>, ApiError>>();
            t.end(s);
            let points = points?;
            let s = t.begin("server.service");
            let served = self.service().mine_sweep_in(
                DEFAULT_TENANT,
                name,
                &points,
                None,
                &CancelToken::never(),
                None,
            );
            t.end(s);
            let outcome = match served? {
                SweepServed::Fresh(outcome) => outcome,
                SweepServed::Replayed(_) => {
                    return Err(ApiError::Internal("unkeyed sweep was replayed".into()))
                }
            };
            t.count("responses", 1.0);
            t.count("sweeps", 1.0);
            t.count("sweep_graphs_built", outcome.stats.graphs_built as f64);
            t.count("sweep_search_groups", outcome.stats.search_groups as f64);
            let caps: usize = outcome.results.iter().map(|r| r.caps.len()).sum();
            t.count("caps", caps as f64);
            if let Some(first) = outcome.results.first() {
                if outcome.cache_hits.iter().any(|h| !h) {
                    t.children(s, &core_phases(&first.report));
                    t.count("mined", 1.0);
                    t.count("largest_component", first.report.largest_component as f64);
                }
            }
            let s = t.begin("cache.capset_encode");
            let results: Vec<Json> = outcome
                .results
                .iter()
                .zip(&outcome.cache_hits)
                .map(|(result, &hit)| {
                    Json::from_pairs([
                        ("cache_hit", Json::from(hit)),
                        ("cap_count", Json::from(result.caps.len())),
                        ("delayed_count", Json::from(result.delayed.len())),
                        ("caps", capset_to_json(&result.caps)),
                    ])
                })
                .collect();
            t.end(s);
            let doc = Json::from_pairs([
                ("dataset", Json::from(name)),
                ("revision", Json::from(outcome.revision as i64)),
                ("requested_points", Json::from(points.len())),
                ("unique_points", Json::from(outcome.stats.unique_points)),
                (
                    "extraction_classes",
                    Json::from(outcome.stats.extraction_classes),
                ),
                ("graphs_built", Json::from(outcome.stats.graphs_built)),
                ("search_groups", Json::from(outcome.stats.search_groups)),
                ("elapsed_seconds", Json::from(outcome.elapsed.as_secs_f64())),
                ("replayed", Json::from(false)),
                ("results", Json::Array(results)),
            ]);
            // The router serializes the body once more for the replay
            // store, even when the request carries no idempotency key.
            let s = t.begin("store.json_encode");
            let replay_body = doc.to_string_compact();
            t.end_bytes(s, replay_body.len());
            self.service()
                .remember_sweep_in(DEFAULT_TENANT, name, None, replay_body);
            Ok(doc)
        })();
        Reply::from_result(result, t)
    }

    /// `POST /datasets/{name}/append/begin`.
    pub fn append_begin(&self, t: &mut Tracer, name: &str) -> Reply {
        let path = format!("/datasets/{name}/append/begin");
        if !t.enabled() {
            return self.call(Method::Post, &path, &[], "{}");
        }
        let result = (|| {
            parse_body("{}", t)?;
            let s = t.begin("server.append_begin");
            let outcome = self
                .service()
                .begin_append_keyed_in(DEFAULT_TENANT, name, None);
            t.end(s);
            let outcome = outcome?;
            Ok(Json::from_pairs([
                ("append", Json::from(name)),
                ("session", Json::from(outcome.session as i64)),
                ("replayed", Json::from(outcome.replayed)),
            ]))
        })();
        let mut reply = Reply::from_result(result, t);
        if reply.ok() {
            reply.status = StatusCode::Created;
        }
        reply
    }

    /// `POST /datasets/{name}/append/chunk` with `session` + `seq`.
    pub fn append_chunk(&self, t: &mut Tracer, name: &str, body: &str) -> Reply {
        if !t.enabled() {
            return self.call(
                Method::Post,
                &format!("/datasets/{name}/append/chunk"),
                &[],
                body,
            );
        }
        let result = (|| {
            let body = parse_body(body, t)?;
            let chunk = Chunk {
                index: body_u64(&body, "index")? as usize,
                total: body_u64(&body, "total")? as usize,
                content: body
                    .get("content")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| ApiError::BadRequest("missing string field content".into()))?
                    .to_string(),
            };
            let session = body_u64(&body, "session")?;
            let seq = body_u64(&body, "seq")?;
            let s = t.begin("server.append_chunk");
            let ack =
                self.service()
                    .append_chunk_seq_in(DEFAULT_TENANT, name, session, seq, &chunk);
            t.end(s);
            let ack = ack?;
            Ok(Json::from_pairs([
                ("accepted", Json::from(ack.accepted)),
                ("missing_chunks", Json::from(ack.missing)),
                ("acked_seq", Json::from(ack.acked_seq as i64)),
                ("replayed", Json::from(ack.replayed)),
            ]))
        })();
        Reply::from_result(result, t)
    }

    /// `POST /datasets/{name}/append/finish`.
    pub fn append_finish(&self, t: &mut Tracer, name: &str) -> Reply {
        let path = format!("/datasets/{name}/append/finish");
        if !t.enabled() {
            return self.call(Method::Post, &path, &[], "{}");
        }
        let result = (|| {
            parse_body("{}", t)?;
            let s = t.begin("server.append_finish");
            let finished = self
                .service()
                .finish_append_keyed_in(DEFAULT_TENANT, name, None);
            t.end(s);
            let (summary, elapsed, replayed) = finished?;
            Ok(Json::from_pairs([
                ("name", Json::from(summary.name)),
                ("new_timestamps", Json::from(summary.new_timestamps)),
                ("measurements", Json::from(summary.measurements)),
                ("trimmed_timestamps", Json::from(summary.trimmed_timestamps)),
                ("timestamps", Json::from(summary.timestamps)),
                ("revision", Json::from(summary.revision as i64)),
                ("append_seconds", Json::from(elapsed.as_secs_f64())),
                ("replayed", Json::from(replayed)),
            ]))
        })();
        Reply::from_result(result, t)
    }

    /// `GET /datasets/{name}/watch?since_revision=..&deadline_ms=..`.
    pub fn watch(&self, t: &mut Tracer, name: &str, since: u64, deadline_ms: u64) -> Reply {
        if !t.enabled() {
            return self.call(
                Method::Get,
                &format!("/datasets/{name}/watch"),
                &[
                    ("since_revision", since.to_string()),
                    ("deadline_ms", deadline_ms.to_string()),
                ],
                "{}",
            );
        }
        let result = (|| {
            parse_body("{}", t)?;
            let deadline = Instant::now() + Duration::from_millis(deadline_ms);
            let s = t.begin("server.watch");
            let out = self
                .service()
                .watch_in(DEFAULT_TENANT, name, since, deadline);
            t.end(s);
            let out = out?;
            Ok(Json::from_pairs([
                ("dataset", Json::from(name)),
                ("revision", Json::from(out.revision as i64)),
                ("changed", Json::from(out.changed)),
                ("timestamps", Json::from(out.timestamps)),
                ("trimmed_total", Json::from(out.trimmed_total)),
                ("deadline_expired", Json::from(out.deadline_expired)),
            ]))
        })();
        Reply::from_result(result, t)
    }
}

/// Service-wide cache and admission counters at one instant; the
/// difference of two probes is what the operations between them did.
pub struct StatsProbe {
    cache: miscela_cache::CacheStats,
    extraction: miscela_cache::ExtractionCacheStats,
    admission: miscela_server::AdmissionStats,
}

impl StatsProbe {
    /// Reads the counters.
    pub fn take(wire: &Wire) -> Self {
        let service = wire.service();
        StatsProbe {
            cache: service.cache_stats(),
            extraction: service.extraction_cache_stats(),
            admission: service.admission_stats(),
        }
    }

    /// Adds the counts since `before` to `o`'s counters.
    pub fn delta_into(&self, before: &StatsProbe, o: &mut crate::Outcome) {
        let d = |now: usize, then: usize| now.saturating_sub(then) as f64;
        o.count("result_hits", d(self.cache.hits, before.cache.hits));
        o.count("result_misses", d(self.cache.misses, before.cache.misses));
        let (x, bx) = (&self.extraction, &before.extraction);
        o.count("extraction_hits", d(x.hits, bx.hits));
        o.count("extraction_misses", d(x.misses, bx.misses));
        o.count("extraction_prefix_hits", d(x.prefix_hits, bx.prefix_hits));
        o.count("extraction_evicted", d(x.evicted, bx.evicted));
        let (a, ba) = (&self.admission, &before.admission);
        o.count(
            "admission_admitted",
            a.admitted.saturating_sub(ba.admitted) as f64,
        );
        o.count("admission_shed", a.shed.saturating_sub(ba.shed) as f64);
    }
}

/// The miner's own phase timings as child spans of the service call.
fn core_phases(report: &miscela_core::MiningReport) -> [(&'static str, Duration); 3] {
    [
        ("core.extraction", report.extraction_time),
        ("core.spatial", report.spatial_time),
        ("core.search", report.search_time),
    ]
}
