//! Terms, propositions, substitution, and symbol renaming.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// First-order terms.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable (bindable by quantifiers).
    Var(String),
    /// A constant symbol (e.g. the monoid identity `e`).
    Const(String),
    /// Function application, e.g. `op(a, b)`.
    App(String, Vec<Term>),
}

impl Term {
    /// Variable shorthand.
    pub fn var(n: &str) -> Term {
        Term::Var(n.to_string())
    }

    /// Constant shorthand.
    pub fn cst(n: &str) -> Term {
        Term::Const(n.to_string())
    }

    /// Application shorthand.
    pub fn app(f: &str, args: Vec<Term>) -> Term {
        Term::App(f.to_string(), args)
    }

    /// Substitute `var := t`.
    pub fn subst(&self, var: &str, t: &Term) -> Term {
        match self {
            Term::Var(v) if v == var => t.clone(),
            Term::Var(_) | Term::Const(_) => self.clone(),
            Term::App(f, args) => {
                Term::App(f.clone(), args.iter().map(|a| a.subst(var, t)).collect())
            }
        }
    }

    /// Collect free variables.
    pub fn free_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::Const(_) => {}
            Term::App(_, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
        }
    }

    /// True if the constant symbol occurs anywhere in the term.
    pub fn contains_const(&self, name: &str) -> bool {
        match self {
            Term::Const(c) => c == name,
            Term::Var(_) => false,
            Term::App(_, args) => args.iter().any(|a| a.contains_const(name)),
        }
    }

    /// Rename function and constant symbols (the operator-mapping engine of
    /// generic proofs).
    pub fn rename(&self, map: &SymbolMap) -> Term {
        self.rename_with(&mut |s| map.apply(s))
    }

    /// Rename every function and constant symbol through `f`, in
    /// left-to-right order; variables pass through untouched.
    pub(crate) fn rename_with<F: FnMut(&str) -> String>(&self, f: &mut F) -> Term {
        match self {
            Term::Var(v) => Term::Var(v.clone()),
            Term::Const(c) => Term::Const(f(c)),
            Term::App(name, args) => {
                let name = f(name);
                Term::App(name, args.iter().map(|a| a.rename_with(f)).collect())
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::App(name, args) => {
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

/// The name of the reserved absurdity atom [`Prop::falsum`].
pub(crate) const FALSUM: &str = "false";

/// First-order propositions.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Prop {
    /// Relation application (`lt(a, b)`); zero-ary atoms are propositional
    /// constants, including the absurdity atom [`Prop::falsum`].
    Atom(String, Vec<Term>),
    /// Term equality.
    Eq(Term, Term),
    /// Negation.
    Not(Box<Prop>),
    /// Conjunction.
    And(Box<Prop>, Box<Prop>),
    /// Disjunction.
    Or(Box<Prop>, Box<Prop>),
    /// Implication.
    Implies(Box<Prop>, Box<Prop>),
    /// Bi-implication.
    Iff(Box<Prop>, Box<Prop>),
    /// Universal quantification over one variable.
    Forall(String, Box<Prop>),
    /// Existential quantification over one variable.
    Exists(String, Box<Prop>),
}

/// Substitution failed because the substituted term would be captured by an
/// inner quantifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureError {
    /// The variable being substituted for.
    pub var: String,
    /// The capturing binder.
    pub binder: String,
}

impl Prop {
    /// Relation-application shorthand.
    pub fn atom(name: &str, args: Vec<Term>) -> Prop {
        Prop::Atom(name.to_string(), args)
    }

    /// The absurdity proposition `⊥`.
    pub fn falsum() -> Prop {
        Prop::Atom(FALSUM.to_string(), Vec::new())
    }

    /// Negation shorthand (a constructor, like `and`/`or`/`implies` — not
    /// the `std::ops::Not` trait, which takes `self`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Prop) -> Prop {
        Prop::Not(Box::new(p))
    }

    /// Conjunction shorthand.
    pub fn and(l: Prop, r: Prop) -> Prop {
        Prop::And(Box::new(l), Box::new(r))
    }

    /// Disjunction shorthand.
    pub fn or(l: Prop, r: Prop) -> Prop {
        Prop::Or(Box::new(l), Box::new(r))
    }

    /// Implication shorthand.
    pub fn implies(l: Prop, r: Prop) -> Prop {
        Prop::Implies(Box::new(l), Box::new(r))
    }

    /// Bi-implication shorthand.
    pub fn iff(l: Prop, r: Prop) -> Prop {
        Prop::Iff(Box::new(l), Box::new(r))
    }

    /// Nested universal quantification over several variables.
    pub fn forall(vars: &[&str], body: Prop) -> Prop {
        vars.iter()
            .rev()
            .fold(body, |acc, v| Prop::Forall(v.to_string(), Box::new(acc)))
    }

    /// Existential shorthand.
    pub fn exists(var: &str, body: Prop) -> Prop {
        Prop::Exists(var.to_string(), Box::new(body))
    }

    /// Capture-avoiding substitution `var := t` (errors instead of
    /// renaming on capture — in-tree proofs simply pick fresh names).
    pub fn subst(&self, var: &str, t: &Term) -> Result<Prop, CaptureError> {
        let mut t_vars = BTreeSet::new();
        t.free_vars(&mut t_vars);
        self.subst_inner(var, t, &t_vars)
    }

    fn subst_inner(
        &self,
        var: &str,
        t: &Term,
        t_vars: &BTreeSet<String>,
    ) -> Result<Prop, CaptureError> {
        Ok(match self {
            Prop::Atom(r, args) => {
                Prop::Atom(r.clone(), args.iter().map(|a| a.subst(var, t)).collect())
            }
            Prop::Eq(l, r) => Prop::Eq(l.subst(var, t), r.subst(var, t)),
            Prop::Not(p) => Prop::Not(Box::new(p.subst_inner(var, t, t_vars)?)),
            Prop::And(l, r) => Prop::And(
                Box::new(l.subst_inner(var, t, t_vars)?),
                Box::new(r.subst_inner(var, t, t_vars)?),
            ),
            Prop::Or(l, r) => Prop::Or(
                Box::new(l.subst_inner(var, t, t_vars)?),
                Box::new(r.subst_inner(var, t, t_vars)?),
            ),
            Prop::Implies(l, r) => Prop::Implies(
                Box::new(l.subst_inner(var, t, t_vars)?),
                Box::new(r.subst_inner(var, t, t_vars)?),
            ),
            Prop::Iff(l, r) => Prop::Iff(
                Box::new(l.subst_inner(var, t, t_vars)?),
                Box::new(r.subst_inner(var, t, t_vars)?),
            ),
            Prop::Forall(v, body) | Prop::Exists(v, body) => {
                let rebuild = |b: Box<Prop>| match self {
                    Prop::Forall(..) => Prop::Forall(v.clone(), b),
                    _ => Prop::Exists(v.clone(), b),
                };
                if v == var {
                    // Shadowed: substitution stops here.
                    return Ok(self.clone());
                }
                if t_vars.contains(v) {
                    // The substituted term mentions the binder's variable.
                    let mut free = BTreeSet::new();
                    self.free_vars(&mut free);
                    if free.contains(var) {
                        return Err(CaptureError {
                            var: var.to_string(),
                            binder: v.clone(),
                        });
                    }
                    return Ok(self.clone());
                }
                rebuild(Box::new(body.subst_inner(var, t, t_vars)?))
            }
        })
    }

    /// Collect free variables.
    pub fn free_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Prop::Atom(_, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
            Prop::Eq(l, r) => {
                l.free_vars(out);
                r.free_vars(out);
            }
            Prop::Not(p) => p.free_vars(out),
            Prop::And(l, r) | Prop::Or(l, r) | Prop::Implies(l, r) | Prop::Iff(l, r) => {
                l.free_vars(out);
                r.free_vars(out);
            }
            Prop::Forall(v, body) | Prop::Exists(v, body) => {
                let mut inner = BTreeSet::new();
                body.free_vars(&mut inner);
                inner.remove(v);
                out.extend(inner);
            }
        }
    }

    /// True if the variable occurs free.
    pub fn has_free(&self, var: &str) -> bool {
        let mut vars = BTreeSet::new();
        self.free_vars(&mut vars);
        vars.contains(var)
    }

    /// True if the constant symbol occurs anywhere.
    pub fn contains_const(&self, name: &str) -> bool {
        match self {
            Prop::Atom(_, args) => args.iter().any(|a| a.contains_const(name)),
            Prop::Eq(l, r) => l.contains_const(name) || r.contains_const(name),
            Prop::Not(p) => p.contains_const(name),
            Prop::And(l, r) | Prop::Or(l, r) | Prop::Implies(l, r) | Prop::Iff(l, r) => {
                l.contains_const(name) || r.contains_const(name)
            }
            Prop::Forall(_, body) | Prop::Exists(_, body) => body.contains_const(name),
        }
    }

    /// Rename relation, function, and constant symbols.
    pub fn rename(&self, map: &SymbolMap) -> Prop {
        self.rename_with(&mut |s| map.apply(s))
    }

    /// Rename every relation, function and constant symbol through `f`;
    /// variables and binders pass through untouched.
    pub(crate) fn rename_with<F: FnMut(&str) -> String>(&self, f: &mut F) -> Prop {
        match self {
            Prop::Atom(r, args) => {
                let r = f(r);
                Prop::Atom(r, args.iter().map(|a| a.rename_with(f)).collect())
            }
            Prop::Eq(l, r) => Prop::Eq(l.rename_with(f), r.rename_with(f)),
            Prop::Not(p) => Prop::Not(Box::new(p.rename_with(f))),
            Prop::And(l, r) => Prop::And(Box::new(l.rename_with(f)), Box::new(r.rename_with(f))),
            Prop::Or(l, r) => Prop::Or(Box::new(l.rename_with(f)), Box::new(r.rename_with(f))),
            Prop::Implies(l, r) => {
                Prop::Implies(Box::new(l.rename_with(f)), Box::new(r.rename_with(f)))
            }
            Prop::Iff(l, r) => Prop::Iff(Box::new(l.rename_with(f)), Box::new(r.rename_with(f))),
            Prop::Forall(v, body) => Prop::Forall(v.clone(), Box::new(body.rename_with(f))),
            Prop::Exists(v, body) => Prop::Exists(v.clone(), Box::new(body.rename_with(f))),
        }
    }
}

impl fmt::Display for Prop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prop::Atom(r, args) if args.is_empty() => write!(f, "{r}"),
            Prop::Atom(r, args) => {
                write!(f, "{r}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Prop::Eq(l, r) => write!(f, "{l} = {r}"),
            Prop::Not(p) => write!(f, "¬{p}"),
            Prop::And(l, r) => write!(f, "({l} ∧ {r})"),
            Prop::Or(l, r) => write!(f, "({l} ∨ {r})"),
            Prop::Implies(l, r) => write!(f, "({l} → {r})"),
            Prop::Iff(l, r) => write!(f, "({l} ↔ {r})"),
            Prop::Forall(v, body) => write!(f, "∀{v}. {body}"),
            Prop::Exists(v, body) => write!(f, "∃{v}. {body}"),
        }
    }
}

/// An operator mapping: the generic-proof instantiation device. Symbols not
/// in the map pass through unchanged.
#[derive(Clone, Debug, Default)]
pub struct SymbolMap {
    map: BTreeMap<String, String>,
}

impl SymbolMap {
    /// Build from pairs `(abstract, concrete)`.
    pub fn new<S: Into<String>, T: Into<String>>(pairs: impl IntoIterator<Item = (S, T)>) -> Self {
        SymbolMap {
            map: pairs
                .into_iter()
                .map(|(a, b)| (a.into(), b.into()))
                .collect(),
        }
    }

    /// Apply to one symbol.
    pub fn apply(&self, sym: &str) -> String {
        self.get(sym).unwrap_or(sym).to_string()
    }

    /// The image of `sym`, if the map names it.
    pub fn get(&self, sym: &str) -> Option<&str> {
        self.map.get(sym).map(String::as_str)
    }

    /// The `(abstract, concrete)` pairs, in abstract-symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.map.iter().map(|(a, b)| (a.as_str(), b.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt(a: Term, b: Term) -> Prop {
        Prop::atom("lt", vec![a, b])
    }

    #[test]
    fn display_reads_like_logic() {
        let p = Prop::forall(
            &["a", "b"],
            Prop::implies(
                lt(Term::var("a"), Term::var("b")),
                Prop::not(lt(Term::var("b"), Term::var("a"))),
            ),
        );
        assert_eq!(p.to_string(), "∀a. ∀b. (lt(a, b) → ¬lt(b, a))");
    }

    #[test]
    fn substitution_replaces_free_occurrences_only() {
        let p = Prop::and(
            lt(Term::var("a"), Term::var("b")),
            Prop::Forall(
                "a".to_string(),
                Box::new(lt(Term::var("a"), Term::var("b"))),
            ),
        );
        let q = p.subst("a", &Term::cst("zero")).unwrap();
        assert_eq!(
            q.to_string(),
            "(lt(zero, b) ∧ ∀a. lt(a, b))" // bound `a` untouched
        );
    }

    #[test]
    fn capture_is_detected() {
        // Substituting b := a into ∀a. lt(a, b) would capture.
        let p = Prop::Forall(
            "a".to_string(),
            Box::new(lt(Term::var("a"), Term::var("b"))),
        );
        let err = p.subst("b", &Term::var("a")).unwrap_err();
        assert_eq!(err.binder, "a");
    }

    #[test]
    fn free_vars_respect_binders() {
        let p = Prop::forall(&["a"], lt(Term::var("a"), Term::var("b")));
        let mut fv = BTreeSet::new();
        p.free_vars(&mut fv);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec!["b"]);
        assert!(p.has_free("b"));
        assert!(!p.has_free("a"));
    }

    #[test]
    fn renaming_maps_all_symbol_kinds() {
        let p = Prop::Eq(
            Term::app("op", vec![Term::var("x"), Term::cst("e")]),
            Term::var("x"),
        );
        let map = SymbolMap::new([("op", "add"), ("e", "zero")]);
        assert_eq!(p.rename(&map).to_string(), "add(x, zero) = x");
        // Relation symbols too.
        let q = Prop::atom("lt", vec![Term::var("x"), Term::var("y")]);
        let map = SymbolMap::new([("lt", "int_lt")]);
        assert_eq!(q.rename(&map).to_string(), "int_lt(x, y)");
    }

    #[test]
    fn const_occurrence_check() {
        let p = Prop::Eq(
            Term::app("op", vec![Term::cst("c0"), Term::var("x")]),
            Term::var("x"),
        );
        assert!(p.contains_const("c0"));
        assert!(!p.contains_const("c1"));
    }

    #[test]
    fn nested_forall_builder_orders_binders() {
        let p = Prop::forall(&["a", "b", "c"], Prop::falsum());
        assert_eq!(p.to_string(), "∀a. ∀b. ∀c. false");
    }
}
