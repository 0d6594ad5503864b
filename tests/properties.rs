//! Property-based tests over the core data structures and invariants.

use miscela_v::miscela_core::evolving::extract_evolving;
use miscela_v::miscela_core::{Bitset, MiningParams};
use miscela_v::miscela_csv::data_csv;
use miscela_v::miscela_model::{GeoPoint, TimeSeries, Timestamp};
use miscela_v::miscela_store::Json;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timestamp format/parse round-trips for any representable time.
    #[test]
    fn timestamp_roundtrip(secs in -2_000_000_000i64..4_000_000_000i64) {
        let t = Timestamp::from_epoch_seconds(secs);
        let parsed = Timestamp::parse(&t.format()).unwrap();
        prop_assert_eq!(parsed, t);
    }

    /// Calendar fields stay in range for any timestamp.
    #[test]
    fn calendar_fields_in_range(secs in -2_000_000_000i64..4_000_000_000i64) {
        let t = Timestamp::from_epoch_seconds(secs);
        let (_, m, d) = t.ymd();
        let (h, mi, s) = t.hms();
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert!(h < 24 && mi < 60 && s < 60);
        prop_assert!(t.weekday() < 7);
    }

    /// Haversine distance is symmetric, non-negative and satisfies the
    /// identity of indiscernibles (approximately).
    #[test]
    fn haversine_properties(
        lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
    ) {
        let a = GeoPoint::new_unchecked(lat1, lon1);
        let b = GeoPoint::new_unchecked(lat2, lon2);
        let d1 = a.distance_km(&b);
        let d2 = b.distance_km(&a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(a.distance_km(&a) < 1e-9);
        prop_assert!(d1 <= 20_100.0); // half the Earth's circumference plus slack
    }

    /// Bitset intersection count never exceeds either operand's count and
    /// and/or are consistent.
    #[test]
    fn bitset_invariants(
        idx_a in proptest::collection::vec(0usize..500, 0..80),
        idx_b in proptest::collection::vec(0usize..500, 0..80),
    ) {
        let a = Bitset::from_indices(500, &idx_a);
        let b = Bitset::from_indices(500, &idx_b);
        let and = a.and(&b);
        let or = a.or(&b);
        prop_assert_eq!(and.count(), a.and_count(&b));
        prop_assert!(and.count() <= a.count().min(b.count()));
        prop_assert!(or.count() >= a.count().max(b.count()));
        prop_assert_eq!(and.count() + or.count(), a.count() + b.count());
        // Round trip through indices.
        prop_assert_eq!(Bitset::from_indices(500, &a.indices()), a);
    }

    /// Evolving-event counts are monotone non-increasing in epsilon, and no
    /// timestamp is both up- and down-evolving for positive epsilon.
    #[test]
    fn evolving_monotone_in_epsilon(
        values in proptest::collection::vec(-50.0f64..50.0, 2..200),
        eps1 in 0.01f64..5.0,
        eps2 in 0.01f64..5.0,
    ) {
        let series = TimeSeries::from_values(values);
        let (lo, hi) = if eps1 <= eps2 { (eps1, eps2) } else { (eps2, eps1) };
        let e_lo = extract_evolving(&series, lo);
        let e_hi = extract_evolving(&series, hi);
        prop_assert!(e_hi.total() <= e_lo.total());
        prop_assert_eq!(e_lo.up().and_count(e_lo.down()), 0);
    }

    /// JSON serialization round-trips for arbitrary nested values built from
    /// a small recursive generator.
    #[test]
    fn json_roundtrip(value in json_strategy()) {
        let text = value.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        prop_assert_eq!(parsed, value.clone());
        let pretty = value.to_string_pretty();
        prop_assert_eq!(Json::parse(&pretty).unwrap(), value);
    }

    /// data.csv rows round-trip through format/parse.
    #[test]
    fn data_csv_roundtrip(
        id in "[A-Za-z0-9_-]{1,12}",
        attr in "[A-Za-z][A-Za-z0-9 .]{0,15}",
        secs in 0i64..4_000_000_000i64,
        value in proptest::option::of(-1.0e6f64..1.0e6),
    ) {
        let row = data_csv::DataRow {
            id: miscela_v::miscela_model::SensorId::new(id),
            attribute: attr.trim().to_string(),
            time: Timestamp::from_epoch_seconds(secs),
            value,
        };
        let line = data_csv::format_row(&row);
        let parsed = data_csv::parse_document(&line).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(&parsed[0].id, &row.id);
        prop_assert_eq!(&parsed[0].attribute, &row.attribute);
        prop_assert_eq!(parsed[0].time, row.time);
        match (parsed[0].value, row.value) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() <= (b.abs() * 1e-6).max(1e-6)),
            (None, None) => {}
            other => prop_assert!(false, "value mismatch: {:?}", other),
        }
    }

    /// Parameter signatures are injective over the fields users actually
    /// change interactively (psi, mu, epsilon, eta).
    #[test]
    fn params_signature_distinguishes(
        psi1 in 1usize..100, psi2 in 1usize..100,
        mu1 in 2usize..6, mu2 in 2usize..6,
    ) {
        let p1 = MiningParams::new().with_psi(psi1).with_mu(mu1);
        let p2 = MiningParams::new().with_psi(psi2).with_mu(mu2);
        prop_assert_eq!(
            p1.signature() == p2.signature(),
            psi1 == psi2 && mu1 == mu2
        );
    }

    /// Every byte-level truncation of a WAL's last record recovers exactly
    /// the longest committed prefix: the torn frame is detected at its
    /// offset (never replayed, never blamed on an earlier record), a cut at
    /// the frame boundary is a clean log, and the untruncated file scans in
    /// full.
    #[test]
    fn torn_wal_tail_recovers_the_longest_committed_prefix(
        payloads in proptest::collection::vec(json_strategy(), 1..5),
    ) {
        use miscela_v::miscela_store::wal::{frame_record, scan};
        let frames: Vec<String> = payloads.iter().map(frame_record).collect();
        let full: String = frames.concat();
        let bytes = full.as_bytes();
        let last_start = full.len() - frames.last().unwrap().len();
        let dir = std::env::temp_dir()
            .join(format!("miscela-props-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        for cut in last_start..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let scanned = scan(&path).unwrap();
            let committed = if cut == bytes.len() {
                payloads.len()
            } else {
                payloads.len() - 1
            };
            prop_assert_eq!(scanned.records.len(), committed, "cut at byte {}", cut);
            for (got, want) in scanned.records.iter().zip(payloads.iter()) {
                prop_assert_eq!(got, want, "cut at byte {}", cut);
            }
            prop_assert_eq!(
                scanned.valid_bytes as usize,
                if cut == bytes.len() { cut } else { last_start },
                "cut at byte {}",
                cut
            );
            match scanned.torn {
                None => prop_assert!(
                    cut == last_start || cut == bytes.len(),
                    "cut at byte {} should have torn the last frame",
                    cut
                ),
                Some(torn) => {
                    prop_assert_eq!(torn.offset as usize, last_start, "cut at byte {}", cut);
                    prop_assert_eq!(torn.bytes as usize, cut - last_start, "cut at byte {}", cut);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Time-series interpolation fills every gap (when at least one value is
    /// present) and never alters present values.
    #[test]
    fn interpolation_properties(
        values in proptest::collection::vec(proptest::option::of(-100.0f64..100.0), 1..100),
    ) {
        let series = TimeSeries::from_options(&values);
        let filled = series.interpolate_missing();
        prop_assert_eq!(filled.len(), series.len());
        if series.present_count() > 0 {
            prop_assert_eq!(filled.missing_count(), 0);
        }
        for (i, v) in series.present() {
            prop_assert!((filled.get(i).unwrap() - v).abs() < 1e-12);
        }
    }
}

/// Strategy producing small nested JSON values.
fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1.0e9f64..1.0e9).prop_map(|n| Json::Number((n * 1e3).round() / 1e3)),
        "[a-zA-Z0-9 _.,:\\-]{0,20}".prop_map(Json::String),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            proptest::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Json::Object),
        ]
    })
}

// ---------------------------------------------------------------------------
// chaos-transport convergence
// ---------------------------------------------------------------------------

/// A small register → append → mine fixture shared by every chaos schedule
/// (generated once: the property varies the chaos, not the data), plus the
/// clean twin's final state to converge to.
struct ChaosFixture {
    location_csv: String,
    attribute_csv: String,
    prefix_csv: String,
    tail_csv: String,
    twin_caps: String,
    twin_snapshot: String,
    twin_revision: u64,
}

fn chaos_fixture() -> &'static ChaosFixture {
    use miscela_v::miscela_csv::DatasetWriter;
    use miscela_v::miscela_datagen::SantanderGenerator;
    static FIXTURE: std::sync::OnceLock<ChaosFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let full = SantanderGenerator::small().with_scale(0.01).generate();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 24).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let fx = ChaosFixture {
            location_csv: writer.location_csv(&prefix),
            attribute_csv: writer.attribute_csv(&prefix),
            prefix_csv: writer.data_csv(&prefix),
            tail_csv: writer.data_csv(&tail),
            twin_caps: String::new(),
            twin_snapshot: String::new(),
            twin_revision: 0,
        };
        let (caps, snapshot, revision) =
            chaos_workflow(&fx, None, 0).expect("the clean twin must converge");
        ChaosFixture {
            twin_caps: caps,
            twin_snapshot: snapshot,
            twin_revision: revision,
            ..fx
        }
    })
}

/// Runs register → append → mine through a resilient client — over perfect
/// transport when `config` is `None`, through seeded chaos otherwise —
/// and returns (mined caps JSON, final snapshot encoding, final revision).
/// Also asserts the client's per-request backoff budget held.
fn chaos_workflow(
    fx: &ChaosFixture,
    config: Option<miscela_v::miscela_server::client::ChaosConfig>,
    seed: u64,
) -> Result<(String, String, u64), String> {
    use miscela_v::miscela_server::client::{
        ChaosTransport, ResilientClient, RetryPolicy, RouterTransport,
    };
    use miscela_v::miscela_server::durability::snapshot_data;
    use miscela_v::miscela_server::{Call, MiscelaService, Router};
    use std::sync::Arc;

    let service = Arc::new(MiscelaService::new());
    let router = Arc::new(Router::new(Arc::clone(&service)));
    let inner = RouterTransport::new(router);
    let mine_body = Json::from_pairs([
        ("epsilon", Json::from(0.4)),
        ("eta_km", Json::from(0.5)),
        ("mu", Json::from(3i64)),
        ("psi", Json::from(20usize)),
        ("segmentation", Json::from(false)),
    ]);
    let run = |caps: Result<Json, _>, budget_held: bool| -> Result<(String, String, u64), String> {
        let caps = caps.map_err(|e| format!("mine failed: {e}"))?;
        if !budget_held {
            return Err("per-request backoff exceeded the budget".to_string());
        }
        let ds = service
            .dataset(&Call::default(), "prop")
            .map_err(|e| format!("dataset lost: {e:?}"))?;
        let revision = service.dataset_revision(&Call::default(), "prop").unwrap();
        Ok((
            caps.get("caps").unwrap().to_string_compact(),
            snapshot_data(&ds, revision, 0, &[]).to_string(),
            revision,
        ))
    };
    match config {
        None => {
            let mut client = ResilientClient::new(inner, "twin");
            client
                .register(
                    "prop",
                    &fx.location_csv,
                    &fx.attribute_csv,
                    &fx.prefix_csv,
                    500,
                )
                .map_err(|e| format!("twin register failed: {e}"))?;
            client
                .append("prop", &fx.tail_csv, 100)
                .map_err(|e| format!("twin append failed: {e}"))?;
            let caps = client.mine("prop", mine_body);
            run(caps, true)
        }
        Some(config) => {
            let chaos = ChaosTransport::new(inner, config, seed);
            let mut client = ResilientClient::new(chaos, format!("prop-{seed}"));
            client
                .register(
                    "prop",
                    &fx.location_csv,
                    &fx.attribute_csv,
                    &fx.prefix_csv,
                    500,
                )
                .map_err(|e| format!("register failed: {e}"))?;
            client
                .append("prop", &fx.tail_csv, 100)
                .map_err(|e| format!("append failed: {e}"))?;
            let caps = client.mine("prop", mine_body);
            client.transport_mut().drain();
            let budget_held =
                client.stats().max_request_slept_ms <= RetryPolicy::default().budget_ms;
            run(caps, budget_held)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded schedule of request drops, response drops, duplicated
    /// and delayed deliveries converges to the clean twin's exact CapSet,
    /// snapshot bytes and revision — and the client never backs off past
    /// its per-request budget.
    #[test]
    fn chaos_schedules_converge_to_the_clean_twin(
        seed in 0u64..1_000_000,
        drop_request in 0.0f64..0.3,
        drop_response in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        delay in 0.0f64..0.2,
    ) {
        use miscela_v::miscela_server::client::ChaosConfig;
        let fx = chaos_fixture();
        let config = ChaosConfig {
            drop_request,
            delay_request: delay,
            duplicate_request: duplicate,
            drop_response,
            max_delayed: 4,
        };
        let (caps, snapshot, revision) = chaos_workflow(fx, Some(config), seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        prop_assert_eq!(&caps, &fx.twin_caps, "CapSet diverged under chaos");
        prop_assert_eq!(&snapshot, &fx.twin_snapshot, "snapshot bytes diverged under chaos");
        prop_assert_eq!(revision, fx.twin_revision, "revision diverged under chaos");
    }
}
