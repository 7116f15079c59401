//! The `/predict` wire format: request parsing (via the `serde_json`
//! value tree) and a hand-rolled response writer.
//!
//! The writer matters: rendering is the only per-text cost besides
//! inference itself, and the bit-identity guarantee rides on it. Floats
//! are written with Rust's `Display`, which produces the shortest string
//! that round-trips — so a client (or test) parsing the JSON recovers the
//! exact `f64`/`f32` bits the model produced.

use edge_core::{PredictError, PredictResponse};

/// A parsed `POST /predict` body.
#[derive(Debug)]
pub struct PredictBody {
    /// The texts to locate (one for the single-tweet shape).
    pub texts: Vec<String>,
    /// `{"text": ...}` (reply with a bare object) vs `{"texts": [...]}`
    /// (reply with `{"results": [...]}`).
    pub single: bool,
    /// Per-request override of the server's zero-entity policy.
    pub fallback_prior: Option<bool>,
}

/// Parses either `{"text": "..."}"` or `{"texts": ["...", ...]}`, each
/// with an optional `"fallback_prior": bool`. The texts are moved out of
/// the parsed tree, not copied.
pub fn parse_predict_body(body: &[u8]) -> Result<PredictBody, String> {
    use serde_json::Value;
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let value: Value = serde_json::from_str(text).map_err(|e| format!("invalid json: {e}"))?;
    let mut entries = match value {
        Value::Object(entries) => entries,
        _ => Vec::new(),
    };
    // The first entry with the key wins, as with `Value::get`.
    let mut take = |key: &str| {
        entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| std::mem::replace(v, Value::Null))
    };
    let fallback_prior = match take("fallback_prior") {
        None | Some(Value::Null) => None,
        Some(Value::Bool(b)) => Some(b),
        Some(_) => return Err("fallback_prior must be a boolean".to_string()),
    };
    if let Some(single) = take("text") {
        let Value::Str(s) = single else { return Err("\"text\" must be a string".to_string()) };
        return Ok(PredictBody { texts: vec![s], single: true, fallback_prior });
    }
    if let Some(batch) = take("texts") {
        let Value::Array(items) = batch else {
            return Err("\"texts\" must be an array".to_string());
        };
        let texts = items
            .into_iter()
            .map(|item| match item {
                Value::Str(s) => Ok(s),
                _ => Err("\"texts\" items must be strings".to_string()),
            })
            .collect::<Result<Vec<String>, String>>()?;
        if texts.is_empty() {
            return Err("\"texts\" must not be empty".to_string());
        }
        return Ok(PredictBody { texts, single: false, fallback_prior });
    }
    Err("body needs a \"text\" string or a \"texts\" array".to_string())
}

fn push_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if (c as u32) < 0x20 => {
                out.extend_from_slice(format!("\\u{:04x}", c as u32).as_bytes())
            }
            c => {
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
        }
    }
    out.push(b'"');
}

fn push_f64(out: &mut Vec<u8>, x: f64) {
    use std::io::Write;
    if x.is_finite() {
        write!(out, "{x}").expect("write to Vec");
    } else {
        out.extend_from_slice(b"null");
    }
}

fn push_f32(out: &mut Vec<u8>, x: f32) {
    use std::io::Write;
    if x.is_finite() {
        write!(out, "{x}").expect("write to Vec");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Renders one successful prediction as a JSON object:
/// `{"point":{"lat":..,"lon":..},"mixture":[{"weight":..,"mu":{..},
/// "sigma_lat":..,"sigma_lon":..,"rho":..},..],"attention":[["name",w],..],
/// "from_fallback":bool}`.
pub fn render_response(resp: &PredictResponse) -> Vec<u8> {
    render_response_inner(resp, false)
}

/// [`render_response`] for brownout `PriorOnly` answers: identical wire
/// shape plus a trailing `"degraded":true`, so clients can tell a
/// quality-reduced answer from a full one. The normal path never emits
/// the key at all — bit-identity with direct `Predictor` calls rides on
/// that.
pub fn render_response_degraded(resp: &PredictResponse) -> Vec<u8> {
    render_response_inner(resp, true)
}

fn render_response_inner(resp: &PredictResponse, degraded: bool) -> Vec<u8> {
    let p = &resp.prediction;
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(b"{\"point\":{\"lat\":");
    push_f64(&mut out, p.point.lat);
    out.extend_from_slice(b",\"lon\":");
    push_f64(&mut out, p.point.lon);
    out.extend_from_slice(b"},\"mixture\":[");
    for (i, (weight, g)) in p.mixture.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"weight\":");
        push_f64(&mut out, weight);
        out.extend_from_slice(b",\"mu\":{\"lat\":");
        push_f64(&mut out, g.mu.lat);
        out.extend_from_slice(b",\"lon\":");
        push_f64(&mut out, g.mu.lon);
        out.extend_from_slice(b"},\"sigma_lat\":");
        push_f64(&mut out, g.sigma_lat);
        out.extend_from_slice(b",\"sigma_lon\":");
        push_f64(&mut out, g.sigma_lon);
        out.extend_from_slice(b",\"rho\":");
        push_f64(&mut out, g.rho);
        out.push(b'}');
    }
    out.extend_from_slice(b"],\"attention\":[");
    for (i, (name, w)) in p.attention.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        push_escaped(&mut out, name);
        out.push(b',');
        push_f32(&mut out, *w);
        out.push(b']');
    }
    out.extend_from_slice(b"],\"from_fallback\":");
    out.extend_from_slice(if resp.from_fallback { b"true" } else { b"false" });
    if degraded {
        out.extend_from_slice(b",\"degraded\":true");
    }
    out.push(b'}');
    out
}

/// The typed `DeadlineExceeded` fragment (HTTP 504): what a queued text
/// evicted past its budget — or a whole expired request — answers with.
pub fn render_deadline_error() -> Vec<u8> {
    simple_object(&[
        ("error", "deadline_exceeded"),
        ("detail", "request deadline budget exhausted"),
    ])
}

/// Renders a typed prediction error as `{"error": "...", "detail": "..."}`.
pub fn render_error(err: &PredictError) -> Vec<u8> {
    let code = match err {
        PredictError::NoEntities => "no_entities",
        PredictError::EntityOutOfRange { .. } => "entity_out_of_range",
        PredictError::UnsupportedInput(_) => "unsupported_input",
    };
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"{\"error\":");
    push_escaped(&mut out, code);
    out.extend_from_slice(b",\"detail\":");
    push_escaped(&mut out, &err.to_string());
    out.push(b'}');
    out
}

/// A small ad-hoc JSON object (status payloads, error envelopes).
pub fn simple_object(fields: &[(&str, &str)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(b'{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_escaped(&mut out, k);
        out.push(b':');
        push_escaped(&mut out, v);
    }
    out.push(b'}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_core::Prediction;
    use edge_geo::{BivariateGaussian, GaussianMixture, Point};

    fn response() -> PredictResponse {
        let g = BivariateGaussian::new(Point::new(40.75, -73.99), 0.01, 0.02, 0.3);
        let mixture = GaussianMixture::new(vec![(1.0, g)]);
        PredictResponse {
            prediction: Prediction {
                point: mixture.mode(),
                mixture,
                attention: vec![("Central \"Park\"".to_string(), 0.75f32)],
            },
            from_fallback: false,
        }
    }

    #[test]
    fn rendered_floats_round_trip_bit_exactly() {
        let resp = response();
        let bytes = render_response(&resp);
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let lat = match v.get("point").unwrap().get("lat").unwrap() {
            serde_json::Value::Num(n) => n.as_f64(),
            other => panic!("lat not a number: {other:?}"),
        };
        assert_eq!(lat.to_bits(), resp.prediction.point.lat.to_bits());
        let att = v.get("attention").unwrap().as_array().unwrap();
        let w = match &att[0].as_array().unwrap()[1] {
            serde_json::Value::Num(n) => n.as_f64() as f32,
            other => panic!("weight not a number: {other:?}"),
        };
        assert_eq!(w.to_bits(), 0.75f32.to_bits());
        assert_eq!(att[0].as_array().unwrap()[0].as_str().unwrap(), "Central \"Park\"");
    }

    #[test]
    fn parses_single_and_batch_bodies() {
        let single = parse_predict_body(br#"{"text": "hello", "fallback_prior": true}"#).unwrap();
        assert!(single.single);
        assert_eq!(single.texts, ["hello"]);
        assert_eq!(single.fallback_prior, Some(true));
        let batch = parse_predict_body(br#"{"texts": ["a", "b"]}"#).unwrap();
        assert!(!batch.single);
        assert_eq!(batch.texts.len(), 2);
        assert_eq!(batch.fallback_prior, None);
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        assert!(parse_predict_body(b"not json").is_err());
        assert!(parse_predict_body(br#"{"texts": []}"#).is_err());
        assert!(parse_predict_body(br#"{"texts": [1]}"#).is_err());
        assert!(parse_predict_body(br#"{"nope": true}"#).is_err());
        assert!(parse_predict_body(br#"{"text": "x", "fallback_prior": "yes"}"#).is_err());
    }

    #[test]
    fn error_rendering_is_valid_json() {
        let bytes = render_error(&PredictError::NoEntities);
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str().unwrap(), "no_entities");
        let bytes = render_deadline_error();
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str().unwrap(), "deadline_exceeded");
    }

    #[test]
    fn degraded_rendering_adds_only_the_marker() {
        let resp = response();
        let full = render_response(&resp);
        let degraded = render_response_degraded(&resp);
        assert!(!String::from_utf8(full.clone()).unwrap().contains("degraded"));
        let text = String::from_utf8(degraded.clone()).unwrap();
        assert!(text.ends_with(",\"degraded\":true}"), "{text}");
        // Identical prefix: the marker is strictly additive.
        assert_eq!(&degraded[..full.len() - 1], &full[..full.len() - 1]);
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("degraded"), Some(&serde_json::Value::Bool(true)));
    }
}
