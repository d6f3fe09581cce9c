//! The correctness gate: known answers from `expected.json`, served
//! payloads against references that hold no cache state, and the
//! server's conservation law.

use crate::load::Conn;
use gp_checker::analyze::Severity;
use gp_checker::CheckConfig;
use gp_core::json::Json;
use gp_service::lint::LintRequest;
use gp_service::{encode_response, Request, Response, ServiceStats};

const EXPECTED: &str = include_str!("../expected.json");

/// The payload a correct server returns for `req`, computed without any
/// cache: `lint` runs the cacheless `gp_checker::analyze_program`, every
/// other kind its direct handler.
fn reference_payload(req: &Request) -> Result<String, String> {
    match req {
        Request::Lint(l) => lint_reference(l),
        other => other.handle().map(|j| j.render()),
    }
}

/// The `lint` payload rendered from a cold analysis, in the service's
/// field order.
fn lint_reference(req: &LintRequest) -> Result<String, String> {
    let program =
        gp_checker::parse::parse(&req.name, &req.program).map_err(|e| format!("parse: {e}"))?;
    let diags = gp_checker::analyze_program(&program, &CheckConfig::default())
        .map_err(|e| format!("check: {e}"))?;
    let rows: Vec<Json> = diags
        .iter()
        .map(|d| {
            let severity = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Suggestion => "suggestion",
            };
            Json::obj()
                .field("severity", severity)
                .field("code", d.code.as_str())
                .field("subject", d.subject.as_str())
                .field("message", d.message.as_str())
        })
        .collect();
    Ok(Json::obj()
        .field("program", req.name.as_str())
        .field("count", rows.len())
        .field("diagnostics", rows)
        .render())
}

/// The full response frame a correct server sends for `req` under `id`.
pub fn reference_frame(id: u64, req: &Request) -> Result<String, String> {
    let payload = reference_payload(req)?;
    Ok(encode_response(id, &Response::Ok { payload }))
}

/// A served response kept for checking after the timed window.
pub struct Sample {
    pub id: u64,
    pub request: Request,
    pub frame: String,
}

/// Check every sample; returns `(checked, first mismatch)`.
pub fn verify_samples(samples: &[Sample]) -> (usize, Option<String>) {
    let mut first = None;
    for s in samples {
        let verdict = match reference_frame(s.id, &s.request) {
            Ok(want) if want == s.frame => continue,
            Ok(want) => format!(
                "{} request {}: served {} bytes, reference {} bytes differ",
                s.request.kind(),
                s.id,
                s.frame.len(),
                want.len()
            ),
            Err(e) => format!(
                "{} request {}: reference failed: {e}",
                s.request.kind(),
                s.id
            ),
        };
        first.get_or_insert(verdict);
    }
    (samples.len(), first)
}

fn follow<'a>(j: &'a Json, path: &[Json], out: &mut Vec<&'a Json>) {
    match path.split_first() {
        None => out.push(j),
        Some((Json::Str(step), rest)) if step == "*" => {
            for item in j.as_arr().unwrap_or(&[]) {
                follow(item, rest, out);
            }
        }
        Some((Json::Str(step), rest)) => {
            if let Some(next) = j.get(step) {
                follow(next, rest, out);
            }
        }
        Some(_) => {}
    }
}

/// Send each hand-written case over TCP and check its facts.
pub fn known_answers(conn: &mut Conn) -> Result<usize, String> {
    let doc = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let cases = doc
        .get("cases")
        .and_then(Json::as_arr)
        .ok_or("expected.json: no cases")?;
    for case in cases {
        let name = case.get("name").and_then(Json::as_str).unwrap_or("?");
        let frame = case.get("frame").ok_or("case without frame")?.render();
        let resp = conn
            .roundtrip(frame.as_bytes())
            .map_err(|e| format!("{name}: transport: {e}"))?;
        let resp = Json::parse(std::str::from_utf8(resp).map_err(|e| e.to_string())?)
            .map_err(|e| format!("{name}: bad response: {e}"))?;
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("{name}: status is not ok: {}", resp.render()));
        }
        let payload = resp.get("resp").ok_or("ok without resp")?;
        let expect = case.get("expect").ok_or("case without expect")?;
        let path = expect.get("path").and_then(Json::as_arr).unwrap_or(&[]);
        let want = expect.get("equals").ok_or("case without equals")?;
        let mut found = Vec::new();
        follow(payload, path, &mut found);
        let hit = found.iter().any(|v| v.render() == want.render());
        if !hit {
            return Err(format!(
                "{name}: wanted {} in {}",
                want.render(),
                payload.render()
            ));
        }
        if let Some(text) = expect.get("message_contains").and_then(Json::as_str) {
            let said = payload.render().contains(text);
            if !said {
                return Err(format!("{name}: no message containing {text:?}"));
            }
        }
    }
    Ok(cases.len())
}

/// `accepted == completed + shed` once nothing is in flight.
pub fn conservation(stats: &ServiceStats) -> Result<(), String> {
    if stats.accepted == stats.completed + stats.shed {
        Ok(())
    } else {
        Err(format!(
            "conservation broken: accepted {} != completed {} + shed {}",
            stats.accepted, stats.completed, stats.shed
        ))
    }
}
