//! The `Simplify` request: Simplicissimus as a service (`gp-rewrite`
//! backing).
//!
//! The expression travels as a JSON AST (`{"bin":["+",l,r]}` …) and the
//! concept environment as either the string `"standard"` or an explicit
//! declaration list. A standard-environment request runs on the
//! process-wide [`Simplifier::standard_ref`] engine, whose rule set and
//! dispatch index are built once per process; a custom environment builds
//! its own engine per request. Like every cached kind, a simplify request
//! routes across shards by the hash of its canonical form.
//!
//! Wire caveat: numeric literals ride in JSON numbers (f64), so `Int`/
//! `UInt` literals are exact only up to 2^53 — plenty for rewrite
//! workloads, and the same bound every JSON consumer of the bench
//! artifacts already lives with.

use crate::request::{RequestKind, WireNames};
use gp_core::json::Json;
use gp_core::numeric::Rational;
use gp_rewrite::env::AlgConcept;
use gp_rewrite::{BinOp, ConceptEnv, Expr, Simplifier, Type, UnOp, Value};

/// Simplify `expr` under a concept environment.
#[derive(Clone, Debug, PartialEq)]
pub struct SimplifyRequest {
    /// The expression to rewrite.
    pub expr: Expr,
    /// The concept environment the rules consult.
    pub env: EnvSpec,
}

/// A serializable concept environment.
#[derive(Clone, Debug, PartialEq)]
pub enum EnvSpec {
    /// The Fig. 5 standard environment (shared `&'static`, never rebuilt).
    Standard,
    /// An explicit declaration list over an empty environment.
    Custom(Vec<EnvDecl>),
}

/// One `(type, op)` declaration of a custom environment.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvDecl {
    /// The modeling type.
    pub ty: Type,
    /// The operation.
    pub op: BinOp,
    /// Declared concepts (Monoid/Group imply the weaker ones).
    pub concepts: Vec<AlgConcept>,
    /// Identity element, if declared.
    pub identity: Option<Value>,
    /// Annihilator element, if declared.
    pub annihilator: Option<Value>,
    /// Inverse-building unary operator, if declared.
    pub inverse: Option<UnOp>,
}

// --- name tables -------------------------------------------------------

pub(crate) const TYPES: WireNames<Type> = WireNames::new(
    "type",
    &[
        (Type::Int, "int"),
        (Type::UInt, "uint"),
        (Type::Float, "float"),
        (Type::Bool, "bool"),
        (Type::Str, "str"),
        (Type::Rational, "rational"),
        (Type::Matrix, "matrix"),
        (Type::BigFloat, "bigfloat"),
    ],
);

/// Binary operators by their [`BinOp::symbol`].
pub(crate) const BINOPS: WireNames<BinOp> = WireNames::new(
    "binary operator",
    &[
        (BinOp::Add, "+"),
        (BinOp::Sub, "-"),
        (BinOp::Mul, "*"),
        (BinOp::Div, "/"),
        (BinOp::And, "&&"),
        (BinOp::Or, "||"),
        (BinOp::BitAnd, "&"),
        (BinOp::Concat, "++"),
    ],
);

pub(crate) const UNOPS: WireNames<UnOp> = WireNames::new(
    "unary operator",
    &[
        (UnOp::Neg, "neg"),
        (UnOp::Recip, "recip"),
        (UnOp::Not, "not"),
    ],
);

pub(crate) const CONCEPTS: WireNames<AlgConcept> = WireNames::new(
    "concept",
    &[
        (AlgConcept::Semigroup, "semigroup"),
        (AlgConcept::Monoid, "monoid"),
        (AlgConcept::Group, "group"),
        (AlgConcept::Commutative, "commutative"),
        (AlgConcept::Idempotent, "idempotent"),
    ],
);

// --- value / expression codec ------------------------------------------

/// Encode a literal value.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(x) => Json::obj().field("int", *x),
        Value::UInt(x) => Json::obj().field("uint", *x),
        Value::Float(x) => Json::obj().field("float", *x),
        Value::Bool(b) => Json::obj().field("bool", *b),
        Value::Str(s) => Json::obj().field("str", s.as_str()),
        Value::Rational(r) => Json::obj().field(
            "rational",
            Json::Arr(vec![
                Json::Num(r.numerator() as f64),
                Json::Num(r.denominator() as f64),
            ]),
        ),
        Value::BigFloat(x) => Json::obj().field("bigfloat", *x),
    }
}

/// Decode a literal value.
pub fn value_from_json(j: &Json) -> Result<Value, String> {
    let num = |key: &str| j.get(key).and_then(Json::as_f64);
    if let Some(x) = num("int") {
        return Ok(Value::Int(x as i64));
    }
    if let Some(x) = num("uint") {
        return Ok(Value::UInt(x as u64));
    }
    if let Some(x) = num("float") {
        return Ok(Value::Float(x));
    }
    if let Some(b) = j.get("bool").and_then(Json::as_bool) {
        return Ok(Value::Bool(b));
    }
    if let Some(s) = j.get("str").and_then(Json::as_str) {
        return Ok(Value::Str(s.to_string()));
    }
    if let Some(x) = num("bigfloat") {
        return Ok(Value::BigFloat(x));
    }
    if let Some(parts) = j.get("rational").and_then(Json::as_arr) {
        if let [Json::Num(n), Json::Num(d)] = parts {
            if *d == 0.0 {
                return Err("rational with zero denominator".into());
            }
            return Ok(Value::Rational(Rational::new(*n as i64, *d as i64)));
        }
        return Err("rational expects [num, den]".into());
    }
    Err(format!("unrecognized value {:?}", j.render()))
}

/// Encode an expression as a JSON AST.
pub fn expr_to_json(e: &Expr) -> Json {
    match e {
        Expr::Lit(v) => Json::obj().field("lit", value_to_json(v)),
        Expr::Var(name, ty) => Json::obj().field(
            "var",
            Json::Arr(vec![Json::Str(name.clone()), Json::from(TYPES.name(*ty))]),
        ),
        Expr::Unary(op, x) => Json::obj().field(
            "un",
            Json::Arr(vec![Json::from(UNOPS.name(*op)), expr_to_json(x)]),
        ),
        Expr::Binary(op, l, r) => Json::obj().field(
            "bin",
            Json::Arr(vec![
                Json::from(BINOPS.name(*op)),
                expr_to_json(l),
                expr_to_json(r),
            ]),
        ),
        Expr::Call(name, ty, args) => Json::obj().field(
            "call",
            Json::Arr(vec![
                Json::Str(name.clone()),
                Json::from(TYPES.name(*ty)),
                Json::Arr(args.iter().map(expr_to_json).collect()),
            ]),
        ),
    }
}

/// Decode a JSON AST back into an expression.
pub fn expr_from_json(j: &Json) -> Result<Expr, String> {
    if let Some(v) = j.get("lit") {
        return Ok(Expr::Lit(value_from_json(v)?));
    }
    if let Some(parts) = j.get("var").and_then(Json::as_arr) {
        if let [Json::Str(name), Json::Str(ty)] = parts {
            return Ok(Expr::Var(name.clone(), TYPES.parse(ty)?));
        }
        return Err("var expects [name, type]".into());
    }
    if let Some(parts) = j.get("un").and_then(Json::as_arr) {
        if let [Json::Str(op), x] = parts {
            return Ok(Expr::Unary(UNOPS.parse(op)?, Box::new(expr_from_json(x)?)));
        }
        return Err("un expects [op, expr]".into());
    }
    if let Some(parts) = j.get("bin").and_then(Json::as_arr) {
        if let [Json::Str(op), l, r] = parts {
            return Ok(Expr::Binary(
                BINOPS.parse(op)?,
                Box::new(expr_from_json(l)?),
                Box::new(expr_from_json(r)?),
            ));
        }
        return Err("bin expects [op, lhs, rhs]".into());
    }
    if let Some(parts) = j.get("call").and_then(Json::as_arr) {
        if let [Json::Str(name), Json::Str(ty), Json::Arr(args)] = parts {
            let args = args
                .iter()
                .map(expr_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Expr::Call(name.clone(), TYPES.parse(ty)?, args));
        }
        return Err("call expects [name, type, [args]]".into());
    }
    Err(format!("unrecognized expression {:?}", j.render()))
}

// --- environment codec --------------------------------------------------

impl EnvDecl {
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("ty", TYPES.name(self.ty))
            .field("op", BINOPS.name(self.op))
            .field(
                "concepts",
                Json::Arr(
                    self.concepts
                        .iter()
                        .map(|c| Json::from(CONCEPTS.name(*c)))
                        .collect(),
                ),
            );
        if let Some(v) = &self.identity {
            j = j.field("identity", value_to_json(v));
        }
        if let Some(v) = &self.annihilator {
            j = j.field("annihilator", value_to_json(v));
        }
        if let Some(u) = self.inverse {
            j = j.field("inverse", UNOPS.name(u));
        }
        j
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let ty = TYPES.parse(
            j.get("ty")
                .and_then(Json::as_str)
                .ok_or("declaration missing 'ty'")?,
        )?;
        let op = BINOPS.parse(
            j.get("op")
                .and_then(Json::as_str)
                .ok_or("declaration missing 'op'")?,
        )?;
        let concepts = j
            .get("concepts")
            .and_then(Json::as_arr)
            .ok_or("declaration missing 'concepts' array")?
            .iter()
            .map(|c| CONCEPTS.parse(c.as_str().ok_or("concept must be a string")?))
            .collect::<Result<Vec<_>, String>>()?;
        let identity = j.get("identity").map(value_from_json).transpose()?;
        let annihilator = j.get("annihilator").map(value_from_json).transpose()?;
        let inverse = j
            .get("inverse")
            .map(|u| UNOPS.parse(u.as_str().ok_or("inverse must be a string")?))
            .transpose()?;
        Ok(EnvDecl {
            ty,
            op,
            concepts,
            identity,
            annihilator,
            inverse,
        })
    }
}

impl EnvSpec {
    /// Canonical JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            EnvSpec::Standard => Json::from("standard"),
            EnvSpec::Custom(decls) => Json::obj().field(
                "declare",
                Json::Arr(decls.iter().map(EnvDecl::to_json).collect()),
            ),
        }
    }

    /// Decode; the string `"standard"` or `{"declare": [...]}`.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        if let Some("standard") = j.as_str() {
            return Ok(EnvSpec::Standard);
        }
        if let Some(decls) = j.get("declare").and_then(Json::as_arr) {
            return Ok(EnvSpec::Custom(
                decls
                    .iter()
                    .map(EnvDecl::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            ));
        }
        Err("env must be \"standard\" or {\"declare\": [...]}".into())
    }

    /// Materialize the concept environment this spec describes.
    pub fn build(&self) -> ConceptEnv {
        match self {
            // One clone of the process-wide cached build; see
            // `ConceptEnv::standard_ref`.
            EnvSpec::Standard => ConceptEnv::standard(),
            EnvSpec::Custom(decls) => {
                let mut env = ConceptEnv::empty();
                for d in decls {
                    for c in &d.concepts {
                        env.declare(d.ty, d.op, *c);
                    }
                    if let Some(v) = &d.identity {
                        env.set_identity(d.ty, d.op, v.clone());
                    }
                    if let Some(v) = &d.annihilator {
                        env.set_annihilator(d.ty, d.op, v.clone());
                    }
                    if let Some(u) = d.inverse {
                        env.set_inverse_op(d.ty, d.op, u);
                    }
                }
                env
            }
        }
    }

    /// Run `f` on the engine for this environment: `shared` (an engine
    /// built once per process) for the standard environment, or an engine
    /// `build` makes over a custom one.
    pub(crate) fn with_engine<R>(
        &self,
        shared: &'static Simplifier,
        build: fn(ConceptEnv) -> Simplifier,
        f: impl FnOnce(&Simplifier) -> R,
    ) -> R {
        match self {
            EnvSpec::Standard => f(shared),
            EnvSpec::Custom(_) => f(&build(self.build())),
        }
    }
}

impl RequestKind for SimplifyRequest {
    const NAME: &'static str = "simplify";
    const CODE: u64 = 2;

    /// A missing `env` defaults to the standard environment.
    fn from_json(j: &Json) -> Result<Self, String> {
        let expr = expr_from_json(j.get("expr").ok_or("simplify: missing 'expr'")?)?;
        let env = match j.get("env") {
            None => EnvSpec::Standard,
            Some(e) => EnvSpec::from_json(e)?,
        };
        Ok(SimplifyRequest { expr, env })
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field("expr", expr_to_json(&self.expr))
            .field("env", self.env.to_json())
    }

    fn handle(&self) -> Result<Json, String> {
        let (out, stats) =
            self.env
                .with_engine(Simplifier::standard_ref(), Simplifier::with_env, |s| {
                    s.simplify(&self.expr)
                });
        Ok(render_result(&out, &stats))
    }

    #[cfg(test)]
    fn sample(salt: usize) -> Self {
        SimplifyRequest {
            expr: Expr::bin(
                BinOp::Mul,
                Expr::var(format!("x{salt}"), Type::Int),
                Expr::int(1),
            ),
            env: EnvSpec::Standard,
        }
    }
}

fn render_result(out: &Expr, stats: &gp_rewrite::SimplifyStats) -> Json {
    let mut apps = Json::obj();
    for (&rule, &count) in &stats.applications {
        apps = apps.field(rule, count);
    }
    Json::obj()
        .field("expr", expr_to_json(out))
        .field("display", out.to_string())
        .field(
            "stats",
            Json::obj()
                .field("iterations", stats.iterations)
                .field("size_before", stats.size_before)
                .field("size_after", stats.size_after)
                .field("total", stats.total())
                .field("applications", apps),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_times_one_plus_y_minus_y() -> Expr {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, x, Expr::int(1)),
            Expr::bin(BinOp::Add, y.clone(), Expr::un(UnOp::Neg, y)),
        )
    }

    #[test]
    fn expressions_round_trip_through_the_codec() {
        let exprs = [
            x_times_one_plus_y_minus_y(),
            Expr::Lit(Value::Rational(Rational::new(2, 3))),
            Expr::Call(
                "Inverse".into(),
                Type::BigFloat,
                vec![Expr::var("f", Type::BigFloat)],
            ),
            Expr::bin(BinOp::Concat, Expr::string("a\"b\n"), Expr::string("")),
            Expr::un(UnOp::Not, Expr::boolean(false)),
            Expr::bin(BinOp::BitAnd, Expr::uint(0xF0), Expr::var("m", Type::UInt)),
        ];
        for e in exprs {
            let j = expr_to_json(&e);
            let back = expr_from_json(&Json::parse(&j.render()).unwrap()).unwrap();
            assert_eq!(back, e, "codec round-trip for {e}");
        }
    }

    #[test]
    fn standard_env_simplifies_to_x() {
        let req = SimplifyRequest {
            expr: x_times_one_plus_y_minus_y(),
            env: EnvSpec::Standard,
        };
        let payload = req.handle().unwrap();
        assert_eq!(payload.get("display").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn custom_env_declaration_enables_rules_for_free() {
        // Declaring a Monoid for (BigFloat, +) makes right-identity fire
        // with no rule changes — Fig. 5's "for free" advantage, over the
        // wire.
        let env = EnvSpec::Custom(vec![EnvDecl {
            ty: Type::BigFloat,
            op: BinOp::Add,
            concepts: vec![AlgConcept::Monoid],
            identity: Some(Value::BigFloat(0.0)),
            annihilator: None,
            inverse: None,
        }]);
        let req = SimplifyRequest {
            expr: Expr::bin(
                BinOp::Add,
                Expr::var("m", Type::BigFloat),
                Expr::bigfloat(0.0),
            ),
            env: env.clone(),
        };
        let decoded =
            SimplifyRequest::from_json(&Json::parse(&req.to_json().render()).unwrap()).unwrap();
        assert_eq!(decoded, req);
        let payload = req.handle().unwrap();
        assert_eq!(payload.get("display").and_then(Json::as_str), Some("m"));
    }
}
