//! The prediction wire protocol: JSON request parsing, response
//! assembly, and a full `MicroArchConfig` JSON codec so clients can ask
//! about a machine by configuration rather than by table row.
//!
//! Request shape (`POST /v1/predict`):
//!
//! ```json
//! {
//!   "model": "default",              // optional when one model is served
//!   "program": "525.x264-like",      // suite workload by name, OR
//!   "features": [[...51 floats...]], // inline feature rows (Table I)
//!   "trace_len": 20000,              // with "program": instructions to trace
//!   "march_index": 3,                // table row, OR
//!   "march": { ...MicroArchConfig... },
//!   "no_cache": false                // bypass the representation cache
//! }
//! ```
//!
//! The response carries the prediction both as a JSON number (Rust's
//! shortest-roundtrip formatting: parses back bit-exactly) and as an
//! explicit IEEE-754 bit pattern in hex, so clients can verify
//! bit-identity with the offline `perfvec::predict` path without
//! trusting any decimal formatting.

use crate::json::{obj, Json};
use perfvec_sim::config::{
    BranchConfig, CacheConfig, CoreKind, FuConfig, FuPool, MemConfig, MemKind, MicroArchConfig,
    PredictorKind,
};
use perfvec_trace::features::Matrix;
use perfvec_trace::fingerprint::Fingerprint;
use perfvec_trace::NUM_FEATURES;

/// Where the program's features come from.
pub enum ProgramSource {
    /// A Table II suite workload, traced server-side.
    Named {
        /// Workload name (exact or unique-substring).
        name: String,
        /// Instructions to trace.
        trace_len: u64,
    },
    /// Feature rows sent inline.
    Inline(Matrix),
}

/// How the request addresses a microarchitecture.
pub enum MarchSelector {
    /// Row of the model's march table.
    Index(usize),
    /// Full configuration, resolved via its fingerprint.
    Config(Box<MicroArchConfig>),
}

/// A parsed `/v1/predict` request.
pub struct PredictRequest {
    /// Target model, if named.
    pub model: Option<String>,
    /// Program features source.
    pub source: ProgramSource,
    /// Microarchitecture selector.
    pub march: MarchSelector,
    /// Bypass the representation cache (read and write).
    pub no_cache: bool,
}

/// Parse the body of `POST /v1/predict`.
pub fn parse_predict_request(body: &Json) -> Result<PredictRequest, String> {
    let model = match body.get("model") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or("field \"model\" must be a string")?
                .to_string(),
        ),
    };
    let source = match (body.get("program"), body.get("features")) {
        (Some(p), None) => {
            let name = p
                .as_str()
                .ok_or("field \"program\" must be a string")?
                .to_string();
            let trace_len = match body.get("trace_len") {
                None => 20_000,
                Some(v) => v
                    .as_u64()
                    .ok_or("field \"trace_len\" must be a non-negative integer")?,
            };
            if trace_len == 0 || trace_len > 10_000_000 {
                return Err("\"trace_len\" must be between 1 and 10000000".into());
            }
            ProgramSource::Named { name, trace_len }
        }
        (None, Some(f)) => ProgramSource::Inline(features_from_json(f)?),
        _ => return Err("exactly one of \"program\" or \"features\" is required".into()),
    };
    let march = match (body.get("march_index"), body.get("march")) {
        (Some(i), None) => MarchSelector::Index(
            i.as_u64()
                .ok_or("field \"march_index\" must be a non-negative integer")?
                as usize,
        ),
        (None, Some(m)) => MarchSelector::Config(Box::new(march_config_from_json(m)?)),
        _ => return Err("exactly one of \"march_index\" or \"march\" is required".into()),
    };
    let no_cache = match body.get("no_cache") {
        None => false,
        Some(v) => v.as_bool().ok_or("field \"no_cache\" must be a boolean")?,
    };
    Ok(PredictRequest {
        model,
        source,
        march,
        no_cache,
    })
}

fn features_from_json(v: &Json) -> Result<Matrix, String> {
    let rows = v.as_arr().ok_or("\"features\" must be an array of rows")?;
    let mut m = Matrix::zeros(rows.len(), NUM_FEATURES);
    for (i, row) in rows.iter().enumerate() {
        let cols = row.as_arr().ok_or("feature rows must be arrays")?;
        if cols.len() != NUM_FEATURES {
            return Err(format!(
                "feature row {i} has {} entries; expected {NUM_FEATURES}",
                cols.len()
            ));
        }
        for (j, c) in cols.iter().enumerate() {
            // Checked after the cast: a finite f64 beyond the f32 range
            // (`1e300`) would otherwise enter the model as infinity.
            let x = c.as_f64().ok_or("feature entries must be numbers")? as f32;
            if !x.is_finite() {
                return Err(format!("feature row {i} entry {j} is not finite"));
            }
            m.row_mut(i)[j] = x;
        }
    }
    Ok(m)
}

/// Stable fingerprint of a feature matrix under a model name — the
/// representation-cache key (same [`Fingerprint`] machinery as the
/// dataset cache: content bits only, never formatting).
pub fn features_fingerprint(model: &str, features: &Matrix) -> u64 {
    let mut h = Fingerprint::new();
    h.push_str("serve-rep");
    h.push_u32(1);
    h.push_str(model);
    h.push_u64(features.rows as u64);
    h.push_u64(features.cols as u64);
    for &v in &features.data {
        h.push_f32(v);
    }
    h.finish()
}

// ---- MicroArchConfig <-> JSON ----------------------------------------

fn get_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("march field \"{key}\" must be a number"))
}

fn get_uint<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    let raw = v
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("march field \"{key}\" must be a non-negative integer"))?;
    T::try_from(raw).map_err(|_| format!("march field \"{key}\" out of range"))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("march field \"{key}\" must be a boolean"))
}

fn get_str<'j>(v: &'j Json, key: &str) -> Result<&'j str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("march field \"{key}\" must be a string"))
}

fn cache_from_json(v: &Json, key: &str) -> Result<CacheConfig, String> {
    let c = v
        .get(key)
        .ok_or_else(|| format!("march field \"{key}\" missing"))?;
    Ok(CacheConfig {
        size_bytes: get_uint(c, "size_bytes")?,
        assoc: get_uint(c, "assoc")?,
        line_bytes: get_uint(c, "line_bytes")?,
        latency: get_uint(c, "latency")?,
    })
}

fn pool_from_json(v: &Json, key: &str) -> Result<FuPool, String> {
    let p = v
        .get(key)
        .ok_or_else(|| format!("march fu pool \"{key}\" missing"))?;
    Ok(FuPool {
        count: get_uint(p, "count")?,
        latency: get_uint(p, "latency")?,
        pipelined: get_bool(p, "pipelined")?,
    })
}

/// Parse a full `MicroArchConfig` from its JSON object form (the shape
/// emitted by [`march_config_to_json`]).
pub fn march_config_from_json(v: &Json) -> Result<MicroArchConfig, String> {
    let core = match get_str(v, "core")? {
        "in_order" => CoreKind::InOrder,
        "out_of_order" => CoreKind::OutOfOrder,
        other => return Err(format!("unknown core kind {other:?}")),
    };
    let branch_v = v.get("branch").ok_or("march field \"branch\" missing")?;
    let branch = BranchConfig {
        kind: match get_str(branch_v, "kind")? {
            "static_not_taken" => PredictorKind::StaticNotTaken,
            "static_btfn" => PredictorKind::StaticBtfn,
            "bimodal" => PredictorKind::Bimodal,
            "gshare" => PredictorKind::GShare,
            "tournament" => PredictorKind::Tournament,
            other => return Err(format!("unknown branch predictor {other:?}")),
        },
        table_bits: get_uint(branch_v, "table_bits")?,
        history_bits: get_uint(branch_v, "history_bits")?,
        btb_entries: get_uint(branch_v, "btb_entries")?,
    };
    let fus_v = v.get("fus").ok_or("march field \"fus\" missing")?;
    let fus = FuConfig {
        int_alu: pool_from_json(fus_v, "int_alu")?,
        int_mul: pool_from_json(fus_v, "int_mul")?,
        int_div: pool_from_json(fus_v, "int_div")?,
        fp_alu: pool_from_json(fus_v, "fp_alu")?,
        fp_mul: pool_from_json(fus_v, "fp_mul")?,
        fp_div: pool_from_json(fus_v, "fp_div")?,
        simd: pool_from_json(fus_v, "simd")?,
        mem_port: pool_from_json(fus_v, "mem_port")?,
    };
    let mem_v = v.get("mem").ok_or("march field \"mem\" missing")?;
    let mem = MemConfig {
        kind: match get_str(mem_v, "kind")? {
            "ddr4" => MemKind::Ddr4,
            "lpddr5" => MemKind::Lpddr5,
            "gddr5" => MemKind::Gddr5,
            "hbm" => MemKind::Hbm,
            other => return Err(format!("unknown memory kind {other:?}")),
        },
        latency_ns: get_f64(mem_v, "latency_ns")?,
        bandwidth_gbps: get_f64(mem_v, "bandwidth_gbps")?,
    };
    Ok(MicroArchConfig {
        name: v
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("request")
            .to_string(),
        core,
        freq_ghz: get_f64(v, "freq_ghz")?,
        fetch_width: get_uint(v, "fetch_width")?,
        front_depth: get_uint(v, "front_depth")?,
        issue_width: get_uint(v, "issue_width")?,
        retire_width: get_uint(v, "retire_width")?,
        rob_size: get_uint(v, "rob_size")?,
        lq_size: get_uint(v, "lq_size")?,
        sq_size: get_uint(v, "sq_size")?,
        fus,
        branch,
        l1i: cache_from_json(v, "l1i")?,
        l1d: cache_from_json(v, "l1d")?,
        l2: cache_from_json(v, "l2")?,
        l2_exclusive: get_bool(v, "l2_exclusive")?,
        mem,
    })
}

fn cache_to_json(c: &CacheConfig) -> Json {
    obj(vec![
        ("size_bytes", Json::Num(c.size_bytes as f64)),
        ("assoc", Json::Num(f64::from(c.assoc))),
        ("line_bytes", Json::Num(f64::from(c.line_bytes))),
        ("latency", Json::Num(f64::from(c.latency))),
    ])
}

fn pool_to_json(p: &FuPool) -> Json {
    obj(vec![
        ("count", Json::Num(f64::from(p.count))),
        ("latency", Json::Num(f64::from(p.latency))),
        ("pipelined", Json::Bool(p.pipelined)),
    ])
}

/// Emit a `MicroArchConfig` in the object form
/// [`march_config_from_json`] accepts.
pub fn march_config_to_json(c: &MicroArchConfig) -> Json {
    obj(vec![
        ("name", Json::Str(c.name.clone())),
        (
            "core",
            Json::Str(
                match c.core {
                    CoreKind::InOrder => "in_order",
                    CoreKind::OutOfOrder => "out_of_order",
                }
                .into(),
            ),
        ),
        ("freq_ghz", Json::Num(c.freq_ghz)),
        ("fetch_width", Json::Num(f64::from(c.fetch_width))),
        ("front_depth", Json::Num(f64::from(c.front_depth))),
        ("issue_width", Json::Num(f64::from(c.issue_width))),
        ("retire_width", Json::Num(f64::from(c.retire_width))),
        ("rob_size", Json::Num(f64::from(c.rob_size))),
        ("lq_size", Json::Num(f64::from(c.lq_size))),
        ("sq_size", Json::Num(f64::from(c.sq_size))),
        (
            "fus",
            obj(vec![
                ("int_alu", pool_to_json(&c.fus.int_alu)),
                ("int_mul", pool_to_json(&c.fus.int_mul)),
                ("int_div", pool_to_json(&c.fus.int_div)),
                ("fp_alu", pool_to_json(&c.fus.fp_alu)),
                ("fp_mul", pool_to_json(&c.fus.fp_mul)),
                ("fp_div", pool_to_json(&c.fus.fp_div)),
                ("simd", pool_to_json(&c.fus.simd)),
                ("mem_port", pool_to_json(&c.fus.mem_port)),
            ]),
        ),
        (
            "branch",
            obj(vec![
                (
                    "kind",
                    Json::Str(
                        match c.branch.kind {
                            PredictorKind::StaticNotTaken => "static_not_taken",
                            PredictorKind::StaticBtfn => "static_btfn",
                            PredictorKind::Bimodal => "bimodal",
                            PredictorKind::GShare => "gshare",
                            PredictorKind::Tournament => "tournament",
                        }
                        .into(),
                    ),
                ),
                ("table_bits", Json::Num(f64::from(c.branch.table_bits))),
                ("history_bits", Json::Num(f64::from(c.branch.history_bits))),
                ("btb_entries", Json::Num(f64::from(c.branch.btb_entries))),
            ]),
        ),
        ("l1i", cache_to_json(&c.l1i)),
        ("l1d", cache_to_json(&c.l1d)),
        ("l2", cache_to_json(&c.l2)),
        ("l2_exclusive", Json::Bool(c.l2_exclusive)),
        (
            "mem",
            obj(vec![
                (
                    "kind",
                    Json::Str(
                        match c.mem.kind {
                            MemKind::Ddr4 => "ddr4",
                            MemKind::Lpddr5 => "lpddr5",
                            MemKind::Gddr5 => "gddr5",
                            MemKind::Hbm => "hbm",
                        }
                        .into(),
                    ),
                ),
                ("latency_ns", Json::Num(c.mem.latency_ns)),
                ("bandwidth_gbps", Json::Num(c.mem.bandwidth_gbps)),
            ]),
        ),
    ])
}

/// Render an f64 as its IEEE-754 bit pattern in hex (`0x...`), the
/// formatting-proof way to assert served == offline bit-identity.
pub fn f64_bits_hex(v: f64) -> String {
    format!("{:#018x}", v.to_bits())
}

/// Parse the output of [`f64_bits_hex`].
pub fn f64_from_bits_hex(s: &str) -> Option<f64> {
    let hex = s.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_sim::sample::predefined_configs;

    #[test]
    fn march_config_round_trips_through_json_with_identical_fingerprint() {
        for c in predefined_configs() {
            let j = march_config_to_json(&c);
            let text = j.to_string();
            let back = march_config_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.fingerprint(), c.fingerprint(), "{}", c.name);
            assert_eq!(back, c, "{}", c.name);
        }
    }

    #[test]
    fn predict_request_parses_both_addressing_modes() {
        let by_index =
            Json::parse(r#"{"model":"default","program":"x264","trace_len":500,"march_index":3}"#)
                .unwrap();
        let r = parse_predict_request(&by_index).unwrap();
        assert!(matches!(r.march, MarchSelector::Index(3)));
        assert!(
            matches!(r.source, ProgramSource::Named { ref name, trace_len: 500 } if name == "x264")
        );
        assert!(!r.no_cache);

        let config_json = march_config_to_json(&predefined_configs()[0]).to_string();
        let by_config = Json::parse(&format!(
            r#"{{"program":"xz","march":{config_json},"no_cache":true}}"#
        ))
        .unwrap();
        let r2 = parse_predict_request(&by_config).unwrap();
        assert!(matches!(r2.march, MarchSelector::Config(_)));
        assert!(r2.no_cache);
    }

    #[test]
    fn predict_request_accepts_inline_features() {
        let row: Vec<String> = (0..NUM_FEATURES)
            .map(|i| format!("{}", i as f64 * 0.5))
            .collect();
        let body = format!(r#"{{"features":[[{}]],"march_index":0}}"#, row.join(","));
        let r = parse_predict_request(&Json::parse(&body).unwrap()).unwrap();
        match r.source {
            ProgramSource::Inline(m) => {
                assert_eq!((m.rows, m.cols), (1, NUM_FEATURES));
                assert_eq!(m.row(0)[2], 1.0);
            }
            _ => panic!("expected inline features"),
        }
    }

    #[test]
    fn inline_features_beyond_f32_range_are_rejected() {
        for (big, entry) in [
            ("1e300", 3usize),
            ("-3.5e38", 0),
            ("1e400", NUM_FEATURES - 1),
        ] {
            let row: Vec<&str> = (0..NUM_FEATURES)
                .map(|j| if j == entry { big } else { "0.5" })
                .collect();
            let body = format!(r#"{{"features":[[{}]],"march_index":0}}"#, row.join(","));
            let err = match parse_predict_request(&Json::parse(&body).unwrap()) {
                Err(e) => e,
                Ok(_) => panic!("{big} should be rejected"),
            };
            assert_eq!(
                err,
                format!("feature row 0 entry {entry} is not finite"),
                "{big}"
            );
        }
        // The largest finite f32 still passes.
        let row: Vec<String> = (0..NUM_FEATURES)
            .map(|_| format!("{:e}", f32::MAX as f64))
            .collect();
        let body = format!(r#"{{"features":[[{}]],"march_index":0}}"#, row.join(","));
        assert!(parse_predict_request(&Json::parse(&body).unwrap()).is_ok());
    }

    #[test]
    fn predict_request_rejects_ambiguous_or_missing_fields() {
        for bad in [
            r#"{}"#,
            r#"{"program":"a","features":[],"march_index":0}"#,
            r#"{"program":"a"}"#,
            r#"{"program":"a","march_index":0,"march":{}}"#,
            r#"{"program":"a","trace_len":0,"march_index":0}"#,
            r#"{"features":[[1,2]],"march_index":0}"#,
        ] {
            assert!(
                parse_predict_request(&Json::parse(bad).unwrap()).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn features_fingerprint_sees_content_and_model_name() {
        let mut a = Matrix::zeros(3, NUM_FEATURES);
        a.row_mut(1)[5] = 0.25;
        let mut b = Matrix::zeros(3, NUM_FEATURES);
        b.row_mut(1)[5] = 0.25;
        assert_eq!(features_fingerprint("m", &a), features_fingerprint("m", &b));
        assert_ne!(
            features_fingerprint("m", &a),
            features_fingerprint("other", &a)
        );
        b.row_mut(1)[5] = 0.250001;
        assert_ne!(features_fingerprint("m", &a), features_fingerprint("m", &b));
    }

    #[test]
    fn bits_hex_round_trips() {
        for v in [0.0, -1.5, 1.0 / 3.0, 6.02e23] {
            assert_eq!(f64_from_bits_hex(&f64_bits_hex(v)), Some(v));
        }
        assert_eq!(f64_from_bits_hex("nope"), None);
    }
}
