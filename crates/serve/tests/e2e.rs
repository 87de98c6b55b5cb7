//! End-to-end test: a real TCP server, a real HTTP client, and the
//! bit-identity guarantee — the served prediction for a suite workload
//! equals the offline `perfvec::predict` path to the last bit.

use perfvec::foundation::{ArchSpec, Foundation};
use perfvec::{predict_total_tenths, program_representation, MarchTable};
use perfvec_serve::json::Json;
use perfvec_serve::protocol::{f64_from_bits_hex, march_config_to_json};
use perfvec_serve::registry::{LoadedModel, ModelRegistry};
use perfvec_serve::server::named_workload_features;
use perfvec_serve::{start, EngineConfig, ServerConfig};
use perfvec_sim::sample::{training_population, DEFAULT_MARCH_SEED};
use std::net::TcpStream;

fn tiny_registry() -> ModelRegistry {
    let spec = ArchSpec::default_lstm(16);
    let foundation = Foundation::new(spec, 4, 0.1, 42);
    let k = training_population(DEFAULT_MARCH_SEED).len();
    let table = MarchTable::new(k, 16, 7);
    ModelRegistry::new(vec![LoadedModel::from_parts(
        "default",
        foundation,
        spec,
        table,
        DEFAULT_MARCH_SEED,
    )])
    .unwrap()
}

/// One HTTP round trip through the shared client.
fn http(stream: &mut TcpStream, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
    perfvec_serve::client::roundtrip(stream, method, path, body.unwrap_or("")).unwrap()
}

#[test]
fn served_predictions_are_bit_identical_to_offline_predict() {
    let registry = tiny_registry();
    let handle = start(
        registry,
        ServerConfig {
            port: 0,
            engine: EngineConfig {
                batch: 8,
                queue_depth: 64,
                workers: 2,
                cache_entries: 16,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = TcpStream::connect(handle.addr).unwrap();

    // Health + models over the same keep-alive connection.
    let (status, health) = http(&mut conn, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let (status, models) = http(&mut conn, "GET", "/v1/models", None);
    assert_eq!(status, 200);
    let m0 = &models.get("models").unwrap().as_arr().unwrap()[0];
    assert_eq!(m0.get("name").unwrap().as_str(), Some("default"));
    assert_eq!(
        m0.get("march_configs_resolvable").unwrap().as_bool(),
        Some(true)
    );

    // One prediction per addressing mode, checked bit-for-bit against
    // the offline path.
    let program = "999.specrand-like";
    let trace_len = 600u64;
    let feats = named_workload_features(program, trace_len).unwrap();
    let offline_model = tiny_registry();
    let model = offline_model.get(None).unwrap();
    let rep = program_representation(&model.foundation, &feats);

    for (march_row, body) in [
        (
            3usize,
            format!(r#"{{"program":"{program}","trace_len":{trace_len},"march_index":3}}"#),
        ),
        (5usize, {
            let cfg = &training_population(DEFAULT_MARCH_SEED)[5];
            format!(
                r#"{{"program":"{program}","trace_len":{trace_len},"march":{}}}"#,
                march_config_to_json(cfg)
            )
        }),
    ] {
        let (status, resp) = http(&mut conn, "POST", "/v1/predict", Some(&body));
        assert_eq!(status, 200, "{resp}");
        let offline = predict_total_tenths(
            &rep,
            model.table.rep(march_row),
            model.foundation.target_scale,
        );
        let served_bits =
            f64_from_bits_hex(resp.get("predicted_bits").unwrap().as_str().unwrap()).unwrap();
        assert_eq!(
            served_bits.to_bits(),
            offline.to_bits(),
            "served {served_bits} vs offline {offline}"
        );
        // The JSON number itself must also round-trip to the same bits.
        let served_num = resp
            .get("predicted_total_tenths_ns")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(served_num.to_bits(), offline.to_bits());
        assert_eq!(
            resp.get("march_index").unwrap().as_u64(),
            Some(march_row as u64)
        );
        assert_eq!(
            resp.get("instructions").unwrap().as_u64(),
            Some(feats.rows as u64)
        );
    }

    // Same query again: cache hit, same bits.
    let body = format!(r#"{{"program":"{program}","trace_len":{trace_len},"march_index":3}}"#);
    let (_, resp) = http(&mut conn, "POST", "/v1/predict", Some(&body));
    assert_eq!(resp.get("cache_hit").unwrap().as_bool(), Some(true));

    // Stats reflect the traffic.
    let (_, stats) = http(&mut conn, "GET", "/v1/stats", None);
    assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 3);
    assert!(stats.get("cache_hits").unwrap().as_u64().unwrap() >= 1);

    handle.shutdown();
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let handle = start(
        tiny_registry(),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = TcpStream::connect(handle.addr).unwrap();

    // Drive a little traffic so the histograms are non-trivial.
    let body = r#"{"program":"999.specrand-like","trace_len":300,"march_index":1}"#;
    for _ in 0..3 {
        let (status, resp) = http(&mut conn, "POST", "/v1/predict", Some(body));
        assert_eq!(status, 200, "{resp}");
    }
    let (status, _) = http(&mut conn, "GET", "/healthz", None);
    assert_eq!(status, 200);

    // Scrape raw (the body is Prometheus text, not JSON) and validate
    // the full line grammar plus histogram semantics.
    let (status, text) =
        perfvec_serve::client::roundtrip_raw(&mut conn, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    perfvec_obs::prom::validate(&text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));

    // Required metric families: request latency, queue depth, shed
    // count, batch-size distribution, per-model engine counters.
    for family in [
        "# TYPE perfvec_http_requests_total counter",
        "# TYPE perfvec_http_request_duration_us histogram",
        "# TYPE perfvec_queue_depth gauge",
        "# TYPE perfvec_shed_total counter",
        "# TYPE perfvec_batch_size histogram",
        "# TYPE perfvec_engine_requests_total counter",
        "# TYPE perfvec_engine_predict_duration_us histogram",
        "# TYPE perfvec_engine_panics_total counter",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
    assert!(
        text.contains("perfvec_engine_requests_total{model=\"default\"} 3"),
        "per-model counter wrong in:\n{text}"
    );
    assert!(text
        .contains("perfvec_http_request_duration_us_bucket{route=\"/v1/predict\",le=\"+Inf\"} 3"));

    // /v1/stats keeps its original fields and gains uptime + per-model.
    let (status, stats) = http(&mut conn, "GET", "/v1/stats", None);
    assert_eq!(status, 200);
    assert_eq!(stats.get("requests").unwrap().as_u64(), Some(3));
    assert!(stats.get("uptime_secs").unwrap().as_f64().unwrap() >= 0.0);
    assert_eq!(stats.get("shed").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("failed_batches").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("queue_depth").unwrap().as_u64(), Some(0));
    let per_model = stats.get("per_model").unwrap();
    assert_eq!(per_model.get("default").unwrap().as_u64(), Some(3));

    handle.shutdown();
}

#[test]
fn error_paths_return_clean_json_statuses() {
    let handle = start(
        tiny_registry(),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = TcpStream::connect(handle.addr).unwrap();

    for (method, path, body, want) in [
        ("GET", "/nope", None, 404u16),
        ("GET", "/v1/predict", None, 405),
        ("POST", "/v1/predict", Some("not json"), 400),
        ("POST", "/v1/predict", Some(r#"{"program":"x"}"#), 400),
        (
            "POST",
            "/v1/predict",
            Some(r#"{"program":"no-such-workload","march_index":0}"#),
            404,
        ),
        (
            "POST",
            "/v1/predict",
            Some(r#"{"program":"999.specrand-like","trace_len":100,"march_index":9999}"#),
            404,
        ),
        (
            "POST",
            "/v1/predict",
            Some(r#"{"model":"missing","program":"xz","march_index":0}"#),
            404,
        ),
    ] {
        let (status, resp) = http(&mut conn, method, path, body);
        assert_eq!(status, want, "{method} {path} {body:?} -> {resp}");
        assert!(resp.get("error").is_some(), "{method} {path}");
    }

    // An unknown march *configuration* is a 404 with a helpful message.
    let unknown = &perfvec_sim::sample::unseen_population(9)[0];
    let body = format!(
        r#"{{"program":"999.specrand-like","trace_len":100,"march":{}}}"#,
        march_config_to_json(unknown)
    );
    let (status, resp) = http(&mut conn, "POST", "/v1/predict", Some(&body));
    assert_eq!(status, 404);
    assert!(resp
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("population"));

    handle.shutdown();
}

#[test]
fn inline_features_round_trip_through_the_wire() {
    let handle = start(
        tiny_registry(),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = TcpStream::connect(handle.addr).unwrap();

    // Two instruction rows of inline features.
    let mut rows = Vec::new();
    for i in 0..2 {
        let row: Vec<String> = (0..perfvec_trace::NUM_FEATURES)
            .map(|j| format!("{}", if j % 5 == i { 0.75 } else { 0.0 }))
            .collect();
        rows.push(format!("[{}]", row.join(",")));
    }
    let body = format!(r#"{{"features":[{}],"march_index":0}}"#, rows.join(","));
    let (status, resp) = http(&mut conn, "POST", "/v1/predict", Some(&body));
    assert_eq!(status, 200, "{resp}");

    // Offline comparison on the identical matrix.
    let mut feats = perfvec_trace::features::Matrix::zeros(2, perfvec_trace::NUM_FEATURES);
    for i in 0..2 {
        for j in 0..perfvec_trace::NUM_FEATURES {
            feats.row_mut(i)[j] = if j % 5 == i { 0.75 } else { 0.0 };
        }
    }
    let offline_model = tiny_registry();
    let model = offline_model.get(None).unwrap();
    let rep = program_representation(&model.foundation, &feats);
    let offline = predict_total_tenths(&rep, model.table.rep(0), model.foundation.target_scale);
    let served = f64_from_bits_hex(resp.get("predicted_bits").unwrap().as_str().unwrap()).unwrap();
    assert_eq!(served.to_bits(), offline.to_bits());

    handle.shutdown();
}

#[test]
fn overflowing_inputs_and_predictions_get_error_statuses() {
    // Row 0 of the table is finite but matches the signs of the
    // program's representation, so the dot product overflows.
    let spec = ArchSpec::default_lstm(16);
    let foundation = Foundation::new(spec, 4, 0.1, 42);
    let n = 20;
    let mut feats = perfvec_trace::features::Matrix::zeros(n, perfvec_trace::NUM_FEATURES);
    feats.data.fill(0.5);
    let rep = program_representation(&foundation, &feats);
    assert!(rep.iter().map(|v| v.abs()).sum::<f32>() > 1.0, "{rep:?}");
    let k = training_population(DEFAULT_MARCH_SEED).len();
    let mut rows = vec![0.25f32; k * 16];
    for (m, r) in rows.iter_mut().zip(&rep) {
        *m = f32::MAX.copysign(*r);
    }
    let registry = ModelRegistry::new(vec![LoadedModel::from_parts(
        "default",
        foundation,
        spec,
        MarchTable::from_rows(k, 16, rows),
        DEFAULT_MARCH_SEED,
    )])
    .unwrap();
    let handle = start(
        registry,
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = TcpStream::connect(handle.addr).unwrap();
    let request = |first: &str, march_index: usize| {
        let row = |i: usize| {
            let cols: Vec<&str> = (0..perfvec_trace::NUM_FEATURES)
                .map(|j| if i + j == 0 { first } else { "0.5" })
                .collect();
            format!("[{}]", cols.join(","))
        };
        let rows: Vec<String> = (0..n).map(row).collect();
        format!(
            r#"{{"features":[{}],"march_index":{march_index}}}"#,
            rows.join(",")
        )
    };
    for (body, want) in [
        // A finite f64 beyond the f32 range is a bad input.
        (request("1e300", 1), 400u16),
        // A finite input whose prediction overflows is no answer.
        (request("0.5", 0), 422),
        (request("0.5", 1), 200),
    ] {
        let (status, resp) = http(&mut conn, "POST", "/v1/predict", Some(&body));
        assert_eq!(status, want, "{resp}");
        if want == 200 {
            let p = resp.get("predicted_total_tenths_ns").unwrap().as_f64();
            assert!(p.is_some_and(f64::is_finite), "{resp}");
        } else {
            assert!(
                resp.get("error")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains("not finite"),
                "{resp}"
            );
        }
    }
    handle.shutdown();
}
