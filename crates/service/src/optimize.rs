//! The `optimize` request: the concept superoptimizer as a service
//! (`gp-rewrite`'s equality-saturation mode backing).
//!
//! Where `simplify` runs the directed engine — the fast path, one
//! normal form — `optimize` saturates an e-graph under the same
//! concept-gated rules *plus* the exploration equalities (commutativity,
//! associativity) and extracts the cheapest equivalent under a named
//! cost model. The server escalates to the e-graph only for this kind;
//! `simplify` never pays for class machinery.
//!
//! Wire shape (kebab-case, canonical field order):
//!
//! ```json
//! {"expr": {...}, "env": "standard", "cost-model": "annotation",
//!  "max-nodes": 20000, "max-iters": 16}
//! ```
//!
//! `cost-model` picks between the taxonomy's asymptotic annotations
//! (`"annotation"`, evaluated at the nominal size) and the E9-style
//! measured operation counts (`"measured"`). The budgets are optional
//! and clamped by validation; hitting one is reported as the non-error
//! `budget-hit` flag in the response stats, mirroring
//! `gp_rewrite::egraph::OptimizeStats`.

use crate::request::{RequestKind, WireNames};
use crate::simplify::{expr_from_json, expr_to_json, EnvSpec};
use gp_core::json::Json;
use gp_rewrite::egraph::{ComplexityCost, CostModel, EGraphConfig, MeasuredCost};
use gp_rewrite::{Expr, Simplifier};
use std::sync::OnceLock;

/// Ceiling on the requestable node/class budget: keeps one `optimize`
/// request's memory bounded however generous the client feels.
pub const MAX_NODE_BUDGET: u64 = 1_000_000;

/// Ceiling on the requestable iteration budget.
pub const MAX_ITER_BUDGET: u64 = 64;

/// Which cost model extraction minimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostSpec {
    /// Taxonomy complexity annotations evaluated at the nominal size.
    Annotation,
    /// E9-style measured operation counts.
    Measured,
}

pub(crate) const COST_MODELS: WireNames<CostSpec> = WireNames::new(
    "cost model",
    &[
        (CostSpec::Annotation, "annotation"),
        (CostSpec::Measured, "measured"),
    ],
);

impl CostSpec {
    /// The model, built from the taxonomy's surfaced tables once per
    /// process and shared by every request.
    pub fn build(self) -> &'static (dyn CostModel + Send + Sync) {
        static ANNOTATION: OnceLock<ComplexityCost> = OnceLock::new();
        static MEASURED: OnceLock<MeasuredCost> = OnceLock::new();
        match self {
            CostSpec::Annotation => ANNOTATION.get_or_init(|| {
                let catalog = gp_taxonomy::op_cost_catalog();
                ComplexityCost::from_annotations(
                    catalog.iter().map(|a| (a.key, &a.cost)),
                    gp_taxonomy::costs::NOMINAL_SIZE,
                )
            }),
            CostSpec::Measured => MEASURED
                .get_or_init(|| MeasuredCost::from_counts(gp_taxonomy::measured_op_counts())),
        }
    }
}

/// Optimize `expr` under a concept environment and cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizeRequest {
    /// The expression to superoptimize.
    pub expr: Expr,
    /// The concept environment the rules consult.
    pub env: EnvSpec,
    /// The cost model extraction minimizes.
    pub cost: CostSpec,
    /// Node/class budget override (validated against [`MAX_NODE_BUDGET`]).
    pub max_nodes: Option<u64>,
    /// Iteration budget override (validated against [`MAX_ITER_BUDGET`]).
    pub max_iters: Option<u64>,
}

impl RequestKind for OptimizeRequest {
    const NAME: &'static str = "optimize";
    const CODE: u64 = 7;

    /// Decode and validate. Missing `env` defaults to standard, missing
    /// `cost-model` to `"annotation"`; budgets must be positive integers
    /// within the service ceilings.
    fn from_json(j: &Json) -> Result<Self, String> {
        let expr = expr_from_json(j.get("expr").ok_or("optimize: missing 'expr'")?)?;
        let env = match j.get("env") {
            None => EnvSpec::Standard,
            Some(e) => EnvSpec::from_json(e)?,
        };
        let cost = match j.get("cost-model") {
            None => CostSpec::Annotation,
            Some(c) => COST_MODELS.parse(
                c.as_str()
                    .ok_or("optimize: 'cost-model' must be a string")?,
            )?,
        };
        let max_nodes = budget_field(j, "max-nodes", MAX_NODE_BUDGET)?;
        let max_iters = budget_field(j, "max-iters", MAX_ITER_BUDGET)?;
        Ok(OptimizeRequest {
            expr,
            env,
            cost,
            max_nodes,
            max_iters,
        })
    }

    /// Unset budgets are omitted, not rendered as null.
    fn to_json(&self) -> Json {
        let j = Json::obj()
            .field("expr", expr_to_json(&self.expr))
            .field("env", self.env.to_json())
            .field("cost-model", COST_MODELS.name(self.cost));
        let j = match self.max_nodes {
            Some(n) => j.field("max-nodes", n),
            None => j,
        };
        match self.max_iters {
            Some(n) => j.field("max-iters", n),
            None => j,
        }
    }

    /// Superoptimizer rule set (standard plus exploration equalities)
    /// over the requested environment, bounded saturation, cost-based
    /// extraction. The standard environment's engine and both cost models
    /// are built once per process; a custom environment builds its engine
    /// per request.
    fn handle(&self) -> Result<Json, String> {
        let (out, stats) =
            self.env
                .with_engine(Simplifier::superopt_ref(), Simplifier::superopt, |s| {
                    s.session()
                        .optimize(&self.expr, &self.config(), self.cost.build())
                });
        let mut apps = Json::obj();
        for (&rule, &count) in &stats.applications {
            apps = apps.field(rule, count);
        }
        Ok(Json::obj()
            .field("expr", expr_to_json(&out))
            .field("display", out.to_string())
            .field(
                "stats",
                Json::obj()
                    .field("classes", stats.classes)
                    .field("nodes", stats.nodes)
                    .field("unions", stats.unions)
                    .field("iters", stats.iters)
                    .field("saturated", stats.saturated)
                    .field("budget-hit", stats.budget_hit)
                    .field("cost-before", stats.cost_before)
                    .field("cost-after", stats.cost_after)
                    .field("extracted-size", stats.extracted_size)
                    .field("applications", apps),
            ))
    }

    #[cfg(test)]
    fn sample(salt: usize) -> Self {
        OptimizeRequest {
            expr: Expr::bin(
                gp_rewrite::BinOp::Add,
                Expr::var(format!("x{salt}"), gp_rewrite::Type::Int),
                Expr::int(0),
            ),
            env: EnvSpec::Standard,
            cost: CostSpec::Annotation,
            max_nodes: Some(4096),
            max_iters: Some(8),
        }
    }
}

impl OptimizeRequest {
    /// The saturation budgets this request asks for.
    pub fn config(&self) -> EGraphConfig {
        let defaults = EGraphConfig::default();
        EGraphConfig {
            max_nodes: self.max_nodes.map_or(defaults.max_nodes, |n| n as usize),
            max_classes: self.max_nodes.map_or(defaults.max_classes, |n| n as usize),
            max_iters: self.max_iters.map_or(defaults.max_iters, |n| n as usize),
        }
    }
}

/// Parse one optional budget field: a positive integer `<= ceiling`.
fn budget_field(j: &Json, name: &str, ceiling: u64) -> Result<Option<u64>, String> {
    let Some(v) = j.get(name) else {
        return Ok(None);
    };
    let f = v
        .as_f64()
        .ok_or_else(|| format!("optimize: '{name}' must be a number"))?;
    if f.fract() != 0.0 || f < 1.0 || f > ceiling as f64 {
        return Err(format!(
            "optimize: '{name}' must be an integer in 1..={ceiling}"
        ));
    }
    Ok(Some(f as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_rewrite::{BinOp, Type, UnOp};

    fn cancellation() -> Expr {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, x, y.clone()),
            Expr::un(UnOp::Neg, y),
        )
    }

    fn sample() -> OptimizeRequest {
        OptimizeRequest {
            expr: cancellation(),
            env: EnvSpec::Standard,
            cost: CostSpec::Measured,
            max_nodes: Some(5000),
            max_iters: None,
        }
    }

    #[test]
    fn json_round_trips_canonically() {
        let req = sample();
        let j = req.to_json();
        let back = OptimizeRequest::from_json(&j).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.to_json().render(), j.render());
        // Kebab-case on the wire, and unset budgets stay off it.
        let rendered = j.render();
        assert!(rendered.contains("\"cost-model\":\"measured\""));
        assert!(rendered.contains("\"max-nodes\":5000"));
        assert!(!rendered.contains("max-iters"));
    }

    #[test]
    fn defaults_fill_missing_optional_fields() {
        let j = Json::parse(r#"{"expr":{"var":["x","int"]}}"#).unwrap();
        let req = OptimizeRequest::from_json(&j).unwrap();
        assert_eq!(req.env, EnvSpec::Standard);
        assert_eq!(req.cost, CostSpec::Annotation);
        assert_eq!(req.config().max_iters, EGraphConfig::default().max_iters);
    }

    #[test]
    fn validation_rejects_malformed_requests() {
        for bad in [
            r#"{}"#,
            r#"{"expr":{"var":["x","int"]},"cost-model":"frobnicate"}"#,
            r#"{"expr":{"var":["x","int"]},"cost-model":7}"#,
            r#"{"expr":{"var":["x","int"]},"max-nodes":0}"#,
            r#"{"expr":{"var":["x","int"]},"max-nodes":2.5}"#,
            r#"{"expr":{"var":["x","int"]},"max-nodes":10000000}"#,
            r#"{"expr":{"var":["x","int"]},"max-iters":-3}"#,
            r#"{"expr":{"var":["x","int"]},"max-iters":"lots"}"#,
            r#"{"expr":{"var":["x","wibble"]}}"#,
        ] {
            let j = Json::parse(bad).unwrap();
            assert!(
                OptimizeRequest::from_json(&j).is_err(),
                "accepted malformed optimize request {bad}"
            );
        }
    }

    #[test]
    fn handler_finds_the_cancellation_the_directed_engine_cannot() {
        let payload = sample().handle().unwrap().render();
        assert!(payload.contains("\"display\":\"x\""), "payload: {payload}");
        assert!(payload.contains("\"budget-hit\":false"));
        assert!(payload.contains("\"saturated\":true"));
    }

    #[test]
    fn both_cost_models_are_buildable_and_rank_div_over_inverse() {
        let mut store = gp_rewrite::TermStore::new();
        let f = store.var("f", Type::BigFloat);
        let one = store.lit(&gp_rewrite::Value::BigFloat(1.0));
        let div = store.binary(BinOp::Div, one, f);
        let call = store.call("Inverse", Type::BigFloat, &[f]);
        for spec in [CostSpec::Annotation, CostSpec::Measured] {
            let model = spec.build();
            assert!(
                model.node_cost(&store, div) > model.node_cost(&store, call),
                "{:?} must make the LiDIA rewrite a cost win",
                spec
            );
        }
    }
}
