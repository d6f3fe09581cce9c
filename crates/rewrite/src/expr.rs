//! The typed expression AST Simplicissimus rewrites, with an evaluator used
//! to verify that rewriting preserves semantics.

use gp_core::numeric::Rational;
use std::collections::BTreeMap;
use std::fmt;

/// Expression types. Deliberately first-order and nominal: the rewrite
/// rules dispatch on `(Type, BinOp)` pairs through the concept environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// Unsigned integer (bitwise instances).
    UInt,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// String.
    Str,
    /// Exact rational.
    Rational,
    /// Square matrix (symbolic; evaluation is not supported for all rules).
    Matrix,
    /// Arbitrary-precision float (the LiDIA `bigfloat` stand-in).
    BigFloat,
}

/// Runtime values for the evaluator.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Unsigned value.
    UInt(u64),
    /// Float value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// String value.
    Str(String),
    /// Rational value.
    Rational(Rational),
    /// Arbitrary-precision float stand-in (evaluated as f64).
    BigFloat(f64),
}

impl Value {
    /// The type of this value.
    pub fn ty(&self) -> Type {
        match self {
            Value::Int(_) => Type::Int,
            Value::UInt(_) => Type::UInt,
            Value::Float(_) => Type::Float,
            Value::Bool(_) => Type::Bool,
            Value::Str(_) => Type::Str,
            Value::Rational(_) => Type::Rational,
            Value::BigFloat(_) => Type::BigFloat,
        }
    }

    /// Approximate equality (exact for discrete types, epsilon for floats) —
    /// used when checking that simplification preserved the value.
    pub fn approx_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) | (Value::BigFloat(a), Value::BigFloat(b)) => {
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
            }
            _ => self == other,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::UInt(v) => write!(f, "{v:#x}"),
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Rational(v) => write!(f, "{v}"),
            Value::BigFloat(v) => write!(f, "big({v:?})"),
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition / group operation written additively.
    Add,
    /// Subtraction (sugar for `a + (-b)` on group types).
    Sub,
    /// Multiplication / matrix product.
    Mul,
    /// Division (sugar for `a * recip(b)` on field types).
    Div,
    /// Logical and.
    And,
    /// Logical or.
    Or,
    /// Bitwise and.
    BitAnd,
    /// String/sequence concatenation.
    Concat,
}

impl BinOp {
    /// Operator spelling for display.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::Concat => "++",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Additive inverse.
    Neg,
    /// Multiplicative inverse.
    Recip,
    /// Logical not.
    Not,
}

/// Expressions. Variables carry their type (the AST arrives type-checked,
/// as it would from a compiler front end).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Typed variable.
    Var(String, Type),
    /// Unary application.
    Unary(UnOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Named function call (library functions such as `Inverse`).
    Call(String, Type, Vec<Expr>),
}

impl Expr {
    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }
    /// Unsigned literal.
    pub fn uint(v: u64) -> Expr {
        Expr::Lit(Value::UInt(v))
    }
    /// Float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Lit(Value::Float(v))
    }
    /// Boolean literal.
    pub fn boolean(v: bool) -> Expr {
        Expr::Lit(Value::Bool(v))
    }
    /// String literal.
    pub fn string(v: impl Into<String>) -> Expr {
        Expr::Lit(Value::Str(v.into()))
    }
    /// Big-float literal.
    pub fn bigfloat(v: f64) -> Expr {
        Expr::Lit(Value::BigFloat(v))
    }
    /// Typed variable.
    pub fn var(name: impl Into<String>, ty: Type) -> Expr {
        Expr::Var(name.into(), ty)
    }
    /// Binary application.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }
    /// Unary application.
    pub fn un(op: UnOp, e: Expr) -> Expr {
        Expr::Unary(op, Box::new(e))
    }

    /// Static type of the expression (operands of a binary op share its
    /// type in this first-order language).
    pub fn ty(&self) -> Type {
        match self {
            Expr::Lit(v) => v.ty(),
            Expr::Var(_, t) => *t,
            Expr::Unary(UnOp::Not, _) => Type::Bool,
            Expr::Unary(_, e) => e.ty(),
            Expr::Binary(_, l, _) => l.ty(),
            Expr::Call(_, t, _) => *t,
        }
    }

    /// Number of AST nodes — the simplifier's cost metric.
    pub fn size(&self) -> usize {
        match self {
            Expr::Lit(_) | Expr::Var(..) => 1,
            Expr::Unary(_, e) => 1 + e.size(),
            Expr::Binary(_, l, r) => 1 + l.size() + r.size(),
            Expr::Call(_, _, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
        }
    }

    /// Evaluate under variable bindings. Returns `None` for ill-typed
    /// expressions or unbound variables.
    pub fn eval(&self, env: &BTreeMap<String, Value>) -> Option<Value> {
        match self {
            Expr::Lit(v) => Some(v.clone()),
            Expr::Var(name, _) => env.get(name).cloned(),
            Expr::Unary(op, e) => eval_un(*op, &e.eval(env)?),
            Expr::Binary(op, l, r) => {
                let (l, r) = (l.eval(env)?, r.eval(env)?);
                eval_bin(*op, &l, &r)
            }
            Expr::Call(name, _, args) => {
                // Library calls known to the evaluator.
                if name == "Inverse" && args.len() == 1 {
                    match args[0].eval(env)? {
                        Value::BigFloat(x) => Some(Value::BigFloat(1.0 / x)),
                        Value::Float(x) => Some(Value::Float(1.0 / x)),
                        _ => None,
                    }
                } else {
                    None
                }
            }
        }
    }
}

/// Apply a unary operator to a value; `None` when ill-typed (or the
/// reciprocal of a zero rational).
pub(crate) fn eval_un(op: UnOp, v: &Value) -> Option<Value> {
    match (op, v) {
        (UnOp::Neg, Value::Int(x)) => Some(Value::Int(-x)),
        (UnOp::Neg, Value::Float(x)) => Some(Value::Float(-x)),
        (UnOp::Neg, Value::BigFloat(x)) => Some(Value::BigFloat(-x)),
        (UnOp::Neg, Value::Rational(x)) => Some(Value::Rational(-*x)),
        (UnOp::Recip, Value::Float(x)) => Some(Value::Float(1.0 / x)),
        (UnOp::Recip, Value::BigFloat(x)) => Some(Value::BigFloat(1.0 / x)),
        (UnOp::Recip, Value::Rational(x)) => {
            if x.is_zero() {
                None
            } else {
                Some(Value::Rational(gp_core::algebra::Recip::recip(x)))
            }
        }
        (UnOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
        _ => None,
    }
}

/// Apply a binary operator to two values; `None` when ill-typed.
pub(crate) fn eval_bin(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    use BinOp::*;
    use Value::*;
    Some(match (op, l, r) {
        (Add, Int(a), Int(b)) => Int(a.wrapping_add(*b)),
        (Sub, Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
        (Mul, Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
        (Add, Float(a), Float(b)) => Float(a + b),
        (Sub, Float(a), Float(b)) => Float(a - b),
        (Mul, Float(a), Float(b)) => Float(a * b),
        (Div, Float(a), Float(b)) => Float(a / b),
        (Add, BigFloat(a), BigFloat(b)) => BigFloat(a + b),
        (Sub, BigFloat(a), BigFloat(b)) => BigFloat(a - b),
        (Mul, BigFloat(a), BigFloat(b)) => BigFloat(a * b),
        (Div, BigFloat(a), BigFloat(b)) => BigFloat(a / b),
        (Add, Rational(a), Rational(b)) => Rational(*a + *b),
        (Sub, Rational(a), Rational(b)) => Rational(*a - *b),
        (Mul, Rational(a), Rational(b)) => Rational(*a * *b),
        (And, Bool(a), Bool(b)) => Bool(*a && *b),
        (Or, Bool(a), Bool(b)) => Bool(*a || *b),
        (BitAnd, UInt(a), UInt(b)) => UInt(a & b),
        (Concat, Str(a), Str(b)) => Str([a.as_str(), b].concat()),
        _ => return None,
    })
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Var(name, _) => write!(f, "{name}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnOp::Recip, e) => write!(f, "(1/{e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(!{e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Call(name, _, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn eval_arithmetic() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(3)),
            Expr::int(1),
        );
        assert_eq!(e.eval(&env(&[("x", Value::Int(5))])), Some(Value::Int(16)));
        assert_eq!(e.ty(), Type::Int);
        assert_eq!(e.size(), 5);
    }

    #[test]
    fn eval_mixed_domains() {
        let e = Expr::bin(BinOp::Concat, Expr::string("ab"), Expr::string("cd"));
        assert_eq!(e.eval(&BTreeMap::new()), Some(Value::Str("abcd".into())));
        let e = Expr::bin(BinOp::BitAnd, Expr::uint(0xF0), Expr::uint(0xFF));
        assert_eq!(e.eval(&BTreeMap::new()), Some(Value::UInt(0xF0)));
        let e = Expr::bin(
            BinOp::Mul,
            Expr::Lit(Value::Rational(Rational::new(2, 3))),
            Expr::Lit(Value::Rational(Rational::new(3, 2))),
        );
        assert_eq!(
            e.eval(&BTreeMap::new()),
            Some(Value::Rational(Rational::from_int(1)))
        );
    }

    #[test]
    fn ill_typed_evaluates_to_none() {
        let e = Expr::bin(BinOp::Add, Expr::int(1), Expr::boolean(true));
        assert_eq!(e.eval(&BTreeMap::new()), None);
        let e = Expr::un(UnOp::Recip, Expr::int(3));
        assert_eq!(e.eval(&BTreeMap::new()), None);
    }

    #[test]
    fn unbound_variable_is_none() {
        let e = Expr::var("missing", Type::Int);
        assert_eq!(e.eval(&BTreeMap::new()), None);
    }

    #[test]
    fn display_round_trip_shapes() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("x", Type::Int),
            Expr::un(UnOp::Neg, Expr::var("x", Type::Int)),
        );
        assert_eq!(e.to_string(), "(x + (-x))");
        let e = Expr::Call(
            "Inverse".into(),
            Type::BigFloat,
            vec![Expr::var("f", Type::BigFloat)],
        );
        assert_eq!(e.to_string(), "Inverse(f)");
    }

    #[test]
    fn approx_eq_handles_floats() {
        assert!(Value::Float(0.1 + 0.2).approx_eq(&Value::Float(0.3)));
        assert!(!Value::Float(1.0).approx_eq(&Value::Float(1.1)));
        assert!(Value::Int(3).approx_eq(&Value::Int(3)));
    }

    #[test]
    fn zero_recip_of_rational_is_none() {
        let e = Expr::un(
            UnOp::Recip,
            Expr::Lit(Value::Rational(Rational::from_int(0))),
        );
        assert_eq!(e.eval(&BTreeMap::new()), None);
    }
}
