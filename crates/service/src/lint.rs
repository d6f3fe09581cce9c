//! The `Lint` request: STLlint as a service (`gp-checker` backing).
//!
//! A client ships a program in the checker's line-oriented source format
//! (`gp_checker::parse`); the handler parses it and runs the abstract
//! interpreter, returning every diagnostic with its severity, stable
//! category code, subject, and message. A source-level parse error is a
//! *handler* error (the request was well-formed JSON but not a checkable
//! program), reported through the error status; so is an analysis limit
//! (context-depth or fixpoint cap).
//!
//! Analysis runs through the interprocedural engine against the
//! process-wide [`gp_checker::SummaryCache`], so function summaries are
//! keyed by *content hash* and survive across requests: two requests
//! sharing a helper function — or re-submitting an edited program —
//! re-analyze only what changed. This is a semantic layer above the
//! service's byte-level response cache: that one only hits on identical
//! request bodies, this one hits per function body inside *different*
//! requests. The analysis runs on the shard worker that popped the
//! request; it fans out to no other thread.

use crate::request::RequestKind;
use gp_checker::analyze::Severity;
use gp_checker::CheckConfig;
use gp_core::json::Json;

/// Lint a program against library semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct LintRequest {
    /// Program name, echoed in diagnostics (defaults to `"request"`).
    pub name: String,
    /// Program source in the checker's text format.
    pub program: String,
}

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Suggestion => "suggestion",
    }
}

impl RequestKind for LintRequest {
    const NAME: &'static str = "lint";
    const CODE: u64 = 1;

    fn from_json(j: &Json) -> Result<Self, String> {
        let program = j
            .get("program")
            .and_then(Json::as_str)
            .ok_or("lint: missing string field 'program'")?
            .to_string();
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("request")
            .to_string();
        Ok(LintRequest { name, program })
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name.as_str())
            .field("program", self.program.as_str())
    }

    /// Parse and analyze; the response payload lists every diagnostic.
    fn handle(&self) -> Result<Json, String> {
        let program = gp_checker::parse::parse(&self.name, &self.program)
            .map_err(|e| format!("parse: {e}"))?;
        let diags = gp_checker::analyze_program_cached(&program, &CheckConfig::default())
            .map_err(|e| format!("check: {e}"))?;
        // Rows take each diagnostic's strings by move; their keys are
        // borrowed literals.
        let rows: Vec<Json> = diags
            .into_iter()
            .map(|d| {
                Json::obj()
                    .field("severity", severity_str(d.severity))
                    .field("code", d.code.as_str())
                    .field("subject", d.subject)
                    .field("message", d.message)
            })
            .collect();
        Ok(Json::obj()
            .field("program", self.name.as_str())
            .field("count", rows.len())
            .field("diagnostics", rows))
    }

    #[cfg(test)]
    fn sample(salt: usize) -> Self {
        LintRequest {
            name: format!("p{salt}"),
            program: "container xs vector\niter it = begin xs\nderef it\n".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 4 erase-loop bug in checker source form.
    pub(crate) const FIG4: &str = "\
container students list
container failures list
iter it = begin students
while it != end {
    deref it
    if {
        deref it
        push_back failures
        erase students it
    } else {
        advance it
    }
}
";

    #[test]
    fn fig4_yields_the_singular_dereference_diagnostic() {
        let req = LintRequest {
            name: "fig4".into(),
            program: FIG4.into(),
        };
        let payload = req.handle().unwrap();
        let diags = payload.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert!(!diags.is_empty());
        assert!(
            diags.iter().any(|d| {
                d.get("message")
                    .and_then(Json::as_str)
                    .is_some_and(|m| m.contains("singular iterator"))
            }),
            "expected the paper's diagnostic in {payload:?}"
        );
    }

    #[test]
    fn source_parse_errors_surface_as_handler_errors() {
        let req = LintRequest {
            name: "bad".into(),
            program: "container x vectorr\n".into(),
        };
        let err = req.handle().unwrap_err();
        assert!(err.starts_with("parse:"), "got {err}");
    }

    /// Two different requests sharing a helper function: the second
    /// request's summaries come from the process-wide cache, and both
    /// responses are byte-identical to the cacheless oracle.
    #[test]
    fn summary_cache_hits_across_requests_without_changing_answers() {
        const HELPER: &str = "\
fn grow(C) {
    push_back C
}
";
        let prog_a = format!(
            "{HELPER}container V vector\npush_back V\niter I = begin V\ninvoke grow(V)\nderef I\n"
        );
        let prog_b = format!("{HELPER}container W vector\ninvoke grow(W)\nderef Z\n");
        let hits = gp_telemetry::counter("checker.summary.hit");
        let before = hits.get();
        let pay_a = LintRequest {
            name: "a".into(),
            program: prog_a.clone(),
        }
        .handle()
        .unwrap();
        let pay_b = LintRequest {
            name: "b".into(),
            program: prog_b.clone(),
        }
        .handle()
        .unwrap();
        assert!(
            hits.get() > before,
            "second request should hit the shared `grow` summary"
        );
        // Oracle: same analysis with no cache at all.
        for (name, src, pay) in [("a", &prog_a, &pay_a), ("b", &prog_b, &pay_b)] {
            let p = gp_checker::parse::parse(name, src).unwrap();
            let oracle =
                gp_checker::analyze_program(&p, &gp_checker::CheckConfig::default()).unwrap();
            let got = pay.get("diagnostics").and_then(Json::as_arr).unwrap();
            assert_eq!(got.len(), oracle.len(), "{name}: {pay:?}");
            for (row, d) in got.iter().zip(&oracle) {
                assert_eq!(
                    row.get("subject").and_then(Json::as_str),
                    Some(d.subject.as_str())
                );
                assert_eq!(
                    row.get("message").and_then(Json::as_str),
                    Some(d.message.as_str())
                );
            }
        }
    }

    /// Mutual recursion terminates (widening) and lints cleanly end to
    /// end — the service must never hang on a recursive program.
    #[test]
    fn recursive_programs_lint_through_the_service() {
        let req = LintRequest {
            name: "deep".into(),
            program: "\
fn f(C) {
    invoke g(C)
}
fn g(C) {
    invoke f(C)
}
container V vector
invoke f(V)
"
            .into(),
        };
        let payload = req.handle().unwrap();
        assert_eq!(payload.get("count").and_then(Json::as_f64), Some(0.0));
    }
}
