//! Prometheus text exposition format (version 0.0.4) helpers: the
//! content type constant and a line-grammar validator used by tests
//! and the `/metrics` e2e check.

/// Content-Type for the text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn is_sample_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Parse the `{...}` label block; returns the label pairs.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| format!("malformed label block: {s}"))?;
    let mut out = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label missing '=': {rest}"))?;
        let name = &rest[..eq];
        if !is_label_name(name) {
            return Err(format!("bad label name: {name}"));
        }
        let after = &rest[eq + 1..];
        let mut chars = after.char_indices();
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label value must be quoted: {after}")),
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                match c {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("bad escape \\{other}")),
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {after}"))?;
        out.push((name.to_string(), value));
        rest = &after[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
            if rest.is_empty() {
                return Err("trailing comma in label block".to_string());
            }
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest}"));
        }
    }
    Ok(out)
}

/// Validate a full exposition document against the text-format line
/// grammar, plus histogram semantics: every `histogram`-typed family
/// must expose a `+Inf` bucket per series, bucket counts must be
/// cumulative (non-decreasing in `le` order), and `_count` must equal
/// the `+Inf` bucket. Returns `Err(reason)` on the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    struct HistSeries {
        family: String,
        labels: Vec<(String, String)>, // labels minus `le`
        last_le: f64,
        last_cum: f64,
        saw_inf: bool,
    }
    struct CountSample {
        family: String,
        labels: Vec<(String, String)>,
        value: f64,
    }
    let mut typed: Vec<(String, String)> = Vec::new(); // (name, type)
    let mut hist: Vec<HistSeries> = Vec::new();
    let mut counts: Vec<CountSample> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw;
        let ctx = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(spec) = rest.strip_prefix("TYPE ") {
                let mut it = spec.split_whitespace();
                let name = it.next().ok_or_else(|| ctx("TYPE missing name".into()))?;
                let kind = it.next().ok_or_else(|| ctx("TYPE missing kind".into()))?;
                if !is_metric_name(name) {
                    return Err(ctx(format!("bad TYPE metric name: {name}")));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(ctx(format!("unknown metric type: {kind}")));
                }
                typed.push((name.to_string(), kind.to_string()));
            } else if let Some(spec) = rest.strip_prefix("HELP ") {
                let name = spec.split_whitespace().next().unwrap_or("");
                if !is_metric_name(name) {
                    return Err(ctx(format!("bad HELP metric name: {name}")));
                }
            }
            // Other comments are legal and ignored.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .ok_or_else(|| ctx(format!("sample missing value: {line}")))?;
        let name = &line[..name_end];
        if !is_metric_name(name) {
            return Err(ctx(format!("bad sample metric name: {name}")));
        }
        let rest = &line[name_end..];
        let (labels, rest) = if rest.starts_with('{') {
            let close = rest
                .find('}')
                .ok_or_else(|| ctx("unclosed label block".into()))?;
            (
                parse_labels(&rest[..=close]).map_err(&ctx)?,
                &rest[close + 1..],
            )
        } else {
            (Vec::new(), rest)
        };
        let mut fields = rest.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| ctx(format!("sample missing value: {line}")))?;
        if !is_sample_value(value) {
            return Err(ctx(format!("bad sample value: {value}")));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(ctx(format!("bad timestamp: {ts}")));
            }
        }
        if fields.next().is_some() {
            return Err(ctx(format!("trailing fields on sample: {line}")));
        }

        // Histogram bookkeeping for families declared `histogram`.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_count"))
            .or_else(|| name.strip_suffix("_sum"))
            .unwrap_or(name);
        let is_hist_family = typed.iter().any(|(n, k)| n == base && k == "histogram");
        if is_hist_family {
            let val: f64 = if value == "+Inf" {
                f64::INFINITY
            } else {
                value.parse().unwrap_or(f64::NAN)
            };
            if name.ends_with("_bucket") {
                let le_raw = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| ctx(format!("{name} sample missing le label")))?;
                let le = if le_raw == "+Inf" {
                    f64::INFINITY
                } else {
                    le_raw
                        .parse::<f64>()
                        .map_err(|_| ctx(format!("bad le: {le_raw}")))?
                };
                let key: Vec<(String, String)> =
                    labels.iter().filter(|(k, _)| k != "le").cloned().collect();
                match hist
                    .iter_mut()
                    .find(|s| s.family == base && s.labels == key)
                {
                    Some(entry) => {
                        if le <= entry.last_le {
                            return Err(ctx(format!("{base} buckets not in increasing le order")));
                        }
                        if val < entry.last_cum {
                            return Err(ctx(format!("{base} bucket counts not cumulative")));
                        }
                        entry.last_le = le;
                        entry.last_cum = val;
                        entry.saw_inf |= le.is_infinite();
                    }
                    None => {
                        hist.push(HistSeries {
                            family: base.to_string(),
                            labels: key,
                            last_le: le,
                            last_cum: val,
                            saw_inf: le.is_infinite(),
                        });
                    }
                }
            } else if name.ends_with("_count") {
                counts.push(CountSample {
                    family: base.to_string(),
                    labels: labels.clone(),
                    value: val,
                });
            }
        }
    }

    for s in &hist {
        let name = &s.family;
        if !s.saw_inf {
            return Err(format!("histogram {name} series missing +Inf bucket"));
        }
        if let Some(c) = counts
            .iter()
            .find(|c| c.family == *name && c.labels == s.labels)
        {
            if c.value != s.last_cum {
                return Err(format!(
                    "histogram {name} _count {} != +Inf bucket {}",
                    c.value, s.last_cum
                ));
            }
        } else {
            return Err(format!("histogram {name} series missing _count"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_document() {
        let doc = "\
# HELP reqs_total total requests\n\
# TYPE reqs_total counter\n\
reqs_total{route=\"/v1/predict\",model=\"m\\\"x\"} 12\n\
# TYPE depth gauge\n\
depth 3\n\
# TYPE lat_us histogram\n\
lat_us_bucket{le=\"1\"} 2\n\
lat_us_bucket{le=\"8\"} 5\n\
lat_us_bucket{le=\"+Inf\"} 5\n\
lat_us_sum 23\n\
lat_us_count 5\n";
        validate(doc).expect("valid document");
    }

    #[test]
    fn rejects_bad_value() {
        assert!(validate("# TYPE x counter\nx twelve\n").is_err());
    }

    #[test]
    fn rejects_bad_name() {
        assert!(validate("9x 1\n").is_err());
    }

    #[test]
    fn rejects_unquoted_label() {
        assert!(validate("# TYPE x counter\nx{a=b} 1\n").is_err());
    }

    #[test]
    fn rejects_histogram_without_inf() {
        let doc = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        let err = validate(doc).unwrap_err();
        assert!(err.contains("+Inf"), "unexpected error: {err}");
    }

    #[test]
    fn rejects_non_cumulative_histogram() {
        let doc = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        let err = validate(doc).unwrap_err();
        assert!(err.contains("cumulative"), "unexpected error: {err}");
    }

    #[test]
    fn rejects_count_mismatch() {
        let doc = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        let err = validate(doc).unwrap_err();
        assert!(err.contains("_count"), "unexpected error: {err}");
    }
}
