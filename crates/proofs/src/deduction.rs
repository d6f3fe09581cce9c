//! Deductions and their execution.
//!
//! "The proof language analog of *expression* is called a *deduction*. Like
//! expressions, deductions are *executed*. Proper deductions … produce
//! theorems and add them to the assumption base; improper deductions result
//! in an error condition." (§3.3)
//!
//! [`eval`] is the proof **checker**: it never searches, it only verifies
//! that each inference step is a correct use of a primitive method against
//! the current assumption base.

use crate::base::AssumptionBase;
use crate::logic::{CaptureError, Prop, Term};
use std::fmt;

/// Why a deduction is improper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// `claim` of a proposition not in the assumption base.
    NotInBase(String),
    /// An inference rule was applied to premises of the wrong shape.
    RuleMismatch {
        /// The rule.
        rule: &'static str,
        /// What went wrong.
        detail: String,
    },
    /// Universal generalization over a variable free in the assumption
    /// base (eigenvariable violation).
    EigenvariableViolation {
        /// The offending variable or witness constant.
        name: String,
    },
    /// Substitution would capture a variable.
    Capture(String),
    /// An empty `Seq`.
    EmptySequence,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::NotInBase(p) => {
                write!(f, "claimed proposition is not in the assumption base: {p}")
            }
            ProofError::RuleMismatch { rule, detail } => {
                write!(f, "improper use of `{rule}`: {detail}")
            }
            ProofError::EigenvariableViolation { name } => write!(
                f,
                "eigenvariable violation: `{name}` occurs in the assumption base"
            ),
            ProofError::Capture(v) => write!(f, "substitution would capture `{v}`"),
            ProofError::EmptySequence => write!(f, "empty deduction sequence"),
        }
    }
}

impl std::error::Error for ProofError {}

impl From<CaptureError> for ProofError {
    fn from(e: CaptureError) -> Self {
        ProofError::Capture(e.var)
    }
}

/// Deductions: the primitive methods of the proof language. Each variant is
/// a checked inference rule.
#[derive(Clone, Debug, PartialEq)]
pub enum Ded {
    /// Reiterate a proposition already in the assumption base.
    Claim(Prop),
    /// Hypothetical reasoning: evaluate `body` with `hypothesis` assumed;
    /// yields `hypothesis → body-result` (conditional proof).
    Assume {
        /// The hypothesis.
        hypothesis: Prop,
        /// The sub-deduction under the hypothesis.
        body: Box<Ded>,
    },
    /// Modus ponens: from `p → q` and `p`, yield `q`.
    Mp {
        /// Proof of the implication.
        imp: Box<Ded>,
        /// Proof of the antecedent.
        ant: Box<Ded>,
    },
    /// Modus tollens: from `p → q` and `¬q`, yield `¬p`.
    Mt {
        /// Proof of the implication.
        imp: Box<Ded>,
        /// Proof of the negated consequent.
        neg: Box<Ded>,
    },
    /// Conjunction introduction.
    AndIntro(Box<Ded>, Box<Ded>),
    /// Left conjunct.
    AndElimL(Box<Ded>),
    /// Right conjunct.
    AndElimR(Box<Ded>),
    /// Disjunction introduction (proved left, stated right).
    OrIntroL(Box<Ded>, Prop),
    /// Disjunction introduction (stated left, proved right).
    OrIntroR(Prop, Box<Ded>),
    /// Case analysis: from `p ∨ q`, `p → r`, and `q → r`, yield `r`.
    Cases {
        /// Proof of the disjunction.
        disj: Box<Ded>,
        /// Proof of `p → r`.
        left: Box<Ded>,
        /// Proof of `q → r`.
        right: Box<Ded>,
    },
    /// Bi-implication introduction from the two directions.
    IffIntro {
        /// Proof of `p → q`.
        forward: Box<Ded>,
        /// Proof of `q → p`.
        backward: Box<Ded>,
    },
    /// From `p ↔ q`, yield `p → q`.
    IffElimF(Box<Ded>),
    /// From `p ↔ q`, yield `q → p`.
    IffElimB(Box<Ded>),
    /// From `p` and `¬p`, yield `⊥`.
    Absurd {
        /// Proof of `p`.
        pos: Box<Ded>,
        /// Proof of `¬p`.
        neg: Box<Ded>,
    },
    /// Proof by contradiction: if `body` derives `⊥` under `hypothesis`,
    /// yield `¬hypothesis`.
    ByContradiction {
        /// The refuted hypothesis.
        hypothesis: Prop,
        /// Derivation of absurdity under it.
        body: Box<Ded>,
    },
    /// From `¬¬p`, yield `p` (classical logic).
    DoubleNegElim(Box<Ded>),
    /// Universal generalization over `var` (eigenvariable condition: `var`
    /// must not occur free in the assumption base).
    Generalize {
        /// The generalized variable.
        var: String,
        /// Body proving the matrix with `var` arbitrary.
        body: Box<Ded>,
    },
    /// Universal instantiation with one term.
    Instantiate {
        /// Proof of `∀x. P`.
        forall: Box<Ded>,
        /// The instance term.
        term: Term,
    },
    /// Existential introduction: from a proof of `template[var := witness]`
    /// yield `∃var. template`.
    ExIntro {
        /// The witness term.
        witness: Term,
        /// The bound variable.
        var: String,
        /// The existential matrix.
        template: Prop,
        /// Proof of the instantiated matrix.
        proof: Box<Ded>,
    },
    /// Existential elimination: from `∃x. P`, assume `P[x := fresh]` for a
    /// fresh constant and derive `q` (which must not mention `fresh`).
    ExElim {
        /// Proof of the existential.
        existential: Box<Ded>,
        /// The fresh witness constant name.
        fresh: String,
        /// Derivation of the goal under the witness assumption.
        body: Box<Ded>,
    },
    /// Reflexivity of equality: `t = t`.
    Refl(Term),
    /// Symmetry of equality.
    Sym(Box<Ded>),
    /// Transitivity of equality.
    Trans(Box<Ded>, Box<Ded>),
    /// Leibniz substitution: from `a = b` and a proof of
    /// `template[var := a]`, yield `template[var := b]`.
    Subst {
        /// Proof of the equation `a = b`.
        eq: Box<Ded>,
        /// Proof of the template at `a`.
        proof: Box<Ded>,
        /// The template's hole variable.
        var: String,
        /// The template proposition.
        template: Prop,
    },
    /// Sequential composition (`dbegin`): each result joins the assumption
    /// base for the rest; the value is the last result.
    Seq(Vec<Ded>),
}

impl Ded {
    /// `Box`ed constructor sugar used by the theory modules.
    pub fn claim(p: Prop) -> Ded {
        Ded::Claim(p)
    }

    /// Modus-ponens sugar.
    pub fn mp(imp: Ded, ant: Ded) -> Ded {
        Ded::Mp {
            imp: Box::new(imp),
            ant: Box::new(ant),
        }
    }

    /// Assume sugar.
    pub fn assume(hypothesis: Prop, body: Ded) -> Ded {
        Ded::Assume {
            hypothesis,
            body: Box::new(body),
        }
    }

    /// Instantiate a universal with several terms in sequence.
    pub fn instantiate_all(forall: Ded, terms: Vec<Term>) -> Ded {
        terms.into_iter().fold(forall, |acc, t| Ded::Instantiate {
            forall: Box::new(acc),
            term: t,
        })
    }

    /// Generalize over several variables (innermost-last order).
    pub fn generalize_all(vars: &[&str], body: Ded) -> Ded {
        vars.iter().rev().fold(body, |acc, v| Ded::Generalize {
            var: v.to_string(),
            body: Box::new(acc),
        })
    }

    /// Congruence sugar: from `a = b`, yield
    /// `context[hole := a] = context[hole := b]` (derived via `Refl` +
    /// `Subst`, showing methods compose like the paper promises).
    pub fn cong(eq: Ded, hole: &str, context: Term, lhs: Term) -> Ded {
        let left_fixed = context.subst(hole, &lhs);
        Ded::Subst {
            eq: Box::new(eq),
            proof: Box::new(Ded::Refl(left_fixed.clone())),
            var: hole.to_string(),
            template: Prop::Eq(left_fixed, context),
        }
    }

    /// Rename every symbol in the deduction (the generic-proof
    /// instantiation device: rename axioms and proof together, re-check).
    pub fn rename(&self, map: &crate::logic::SymbolMap) -> Ded {
        self.rename_with(&mut |s| map.apply(s))
    }

    /// Rename every relation, function and constant symbol through `f`,
    /// each `ExElim` witness name included; variables pass through
    /// untouched.
    pub(crate) fn rename_with<F: FnMut(&str) -> String>(&self, f: &mut F) -> Ded {
        match self {
            Ded::Claim(p) => Ded::Claim(p.rename_with(f)),
            Ded::Assume { hypothesis, body } => Ded::Assume {
                hypothesis: hypothesis.rename_with(f),
                body: Box::new(body.rename_with(f)),
            },
            Ded::Mp { imp, ant } => Ded::Mp {
                imp: Box::new(imp.rename_with(f)),
                ant: Box::new(ant.rename_with(f)),
            },
            Ded::Mt { imp, neg } => Ded::Mt {
                imp: Box::new(imp.rename_with(f)),
                neg: Box::new(neg.rename_with(f)),
            },
            Ded::AndIntro(l, r) => {
                Ded::AndIntro(Box::new(l.rename_with(f)), Box::new(r.rename_with(f)))
            }
            Ded::AndElimL(d) => Ded::AndElimL(Box::new(d.rename_with(f))),
            Ded::AndElimR(d) => Ded::AndElimR(Box::new(d.rename_with(f))),
            Ded::OrIntroL(d, p) => Ded::OrIntroL(Box::new(d.rename_with(f)), p.rename_with(f)),
            Ded::OrIntroR(p, d) => Ded::OrIntroR(p.rename_with(f), Box::new(d.rename_with(f))),
            Ded::Cases { disj, left, right } => Ded::Cases {
                disj: Box::new(disj.rename_with(f)),
                left: Box::new(left.rename_with(f)),
                right: Box::new(right.rename_with(f)),
            },
            Ded::IffIntro { forward, backward } => Ded::IffIntro {
                forward: Box::new(forward.rename_with(f)),
                backward: Box::new(backward.rename_with(f)),
            },
            Ded::IffElimF(d) => Ded::IffElimF(Box::new(d.rename_with(f))),
            Ded::IffElimB(d) => Ded::IffElimB(Box::new(d.rename_with(f))),
            Ded::Absurd { pos, neg } => Ded::Absurd {
                pos: Box::new(pos.rename_with(f)),
                neg: Box::new(neg.rename_with(f)),
            },
            Ded::ByContradiction { hypothesis, body } => Ded::ByContradiction {
                hypothesis: hypothesis.rename_with(f),
                body: Box::new(body.rename_with(f)),
            },
            Ded::DoubleNegElim(d) => Ded::DoubleNegElim(Box::new(d.rename_with(f))),
            Ded::Generalize { var, body } => Ded::Generalize {
                var: var.clone(),
                body: Box::new(body.rename_with(f)),
            },
            Ded::Instantiate { forall, term } => Ded::Instantiate {
                forall: Box::new(forall.rename_with(f)),
                term: term.rename_with(f),
            },
            Ded::ExIntro {
                witness,
                var,
                template,
                proof,
            } => Ded::ExIntro {
                witness: witness.rename_with(f),
                var: var.clone(),
                template: template.rename_with(f),
                proof: Box::new(proof.rename_with(f)),
            },
            Ded::ExElim {
                existential,
                fresh,
                body,
            } => Ded::ExElim {
                existential: Box::new(existential.rename_with(f)),
                fresh: f(fresh),
                body: Box::new(body.rename_with(f)),
            },
            Ded::Refl(t) => Ded::Refl(t.rename_with(f)),
            Ded::Sym(d) => Ded::Sym(Box::new(d.rename_with(f))),
            Ded::Trans(a, b) => Ded::Trans(Box::new(a.rename_with(f)), Box::new(b.rename_with(f))),
            Ded::Subst {
                eq,
                proof,
                var,
                template,
            } => Ded::Subst {
                eq: Box::new(eq.rename_with(f)),
                proof: Box::new(proof.rename_with(f)),
                var: var.clone(),
                template: template.rename_with(f),
            },
            Ded::Seq(ds) => Ded::Seq(ds.iter().map(|d| d.rename_with(f)).collect()),
        }
    }
}

fn mismatch(rule: &'static str, detail: String) -> ProofError {
    ProofError::RuleMismatch { rule, detail }
}

/// Execute (check) a deduction against an assumption base, yielding the
/// proved theorem or the error that makes the deduction improper.
pub fn eval(d: &Ded, ab: &AssumptionBase) -> Result<Prop, ProofError> {
    match d {
        Ded::Claim(p) => {
            if ab.holds(p) {
                Ok(p.clone())
            } else {
                Err(ProofError::NotInBase(p.to_string()))
            }
        }
        Ded::Assume { hypothesis, body } => {
            let inner = ab.with(hypothesis.clone());
            let r = eval(body, &inner)?;
            Ok(Prop::implies(hypothesis.clone(), r))
        }
        Ded::Mp { imp, ant } => {
            let imp = eval(imp, ab)?;
            let ant = eval(ant, ab)?;
            match imp {
                Prop::Implies(p, q) if *p == ant => Ok(*q),
                other => Err(mismatch(
                    "modus-ponens",
                    format!("expected an implication whose antecedent is `{ant}`, got `{other}`"),
                )),
            }
        }
        Ded::Mt { imp, neg } => {
            let imp = eval(imp, ab)?;
            let neg = eval(neg, ab)?;
            match (imp, neg) {
                (Prop::Implies(p, q), Prop::Not(nq)) if *q == *nq => Ok(Prop::not(*p)),
                (i, n) => Err(mismatch(
                    "modus-tollens",
                    format!("premises do not match: `{i}` and `{n}`"),
                )),
            }
        }
        Ded::AndIntro(l, r) => Ok(Prop::and(eval(l, ab)?, eval(r, ab)?)),
        Ded::AndElimL(d) => match eval(d, ab)? {
            Prop::And(l, _) => Ok(*l),
            other => Err(mismatch(
                "and-elim-left",
                format!("not a conjunction: `{other}`"),
            )),
        },
        Ded::AndElimR(d) => match eval(d, ab)? {
            Prop::And(_, r) => Ok(*r),
            other => Err(mismatch(
                "and-elim-right",
                format!("not a conjunction: `{other}`"),
            )),
        },
        Ded::OrIntroL(d, right) => Ok(Prop::or(eval(d, ab)?, right.clone())),
        Ded::OrIntroR(left, d) => Ok(Prop::or(left.clone(), eval(d, ab)?)),
        Ded::Cases { disj, left, right } => {
            let disj = eval(disj, ab)?;
            let left = eval(left, ab)?;
            let right = eval(right, ab)?;
            match (disj, left, right) {
                (Prop::Or(p, q), Prop::Implies(lp, lr), Prop::Implies(rp, rr))
                    if *p == *lp && *q == *rp && lr == rr =>
                {
                    Ok(*lr)
                }
                (d_, l_, r_) => Err(mismatch(
                    "cases",
                    format!("case split does not cover `{d_}`: `{l_}`, `{r_}`"),
                )),
            }
        }
        Ded::IffIntro { forward, backward } => {
            let fw = eval(forward, ab)?;
            let bw = eval(backward, ab)?;
            match (fw, bw) {
                (Prop::Implies(p, q), Prop::Implies(q2, p2)) if p == p2 && q == q2 => {
                    Ok(Prop::Iff(p, q))
                }
                (f_, b_) => Err(mismatch(
                    "iff-intro",
                    format!("directions do not match: `{f_}` and `{b_}`"),
                )),
            }
        }
        Ded::IffElimF(d) => match eval(d, ab)? {
            Prop::Iff(p, q) => Ok(Prop::Implies(p, q)),
            other => Err(mismatch(
                "iff-elim",
                format!("not a bi-implication: `{other}`"),
            )),
        },
        Ded::IffElimB(d) => match eval(d, ab)? {
            Prop::Iff(p, q) => Ok(Prop::Implies(q, p)),
            other => Err(mismatch(
                "iff-elim",
                format!("not a bi-implication: `{other}`"),
            )),
        },
        Ded::Absurd { pos, neg } => {
            let p = eval(pos, ab)?;
            let n = eval(neg, ab)?;
            match n {
                Prop::Not(np) if *np == p => Ok(Prop::falsum()),
                other => Err(mismatch(
                    "absurd",
                    format!("`{other}` is not the negation of `{p}`"),
                )),
            }
        }
        Ded::ByContradiction { hypothesis, body } => {
            let inner = ab.with(hypothesis.clone());
            let r = eval(body, &inner)?;
            if r == Prop::falsum() {
                Ok(Prop::not(hypothesis.clone()))
            } else {
                Err(mismatch(
                    "by-contradiction",
                    format!("body derived `{r}`, not absurdity"),
                ))
            }
        }
        Ded::DoubleNegElim(d) => match eval(d, ab)? {
            Prop::Not(inner) => match *inner {
                Prop::Not(p) => Ok(*p),
                other => Err(mismatch(
                    "double-negation",
                    format!("`¬{other}` is not doubly negated"),
                )),
            },
            other => Err(mismatch(
                "double-negation",
                format!("not a negation: `{other}`"),
            )),
        },
        Ded::Generalize { var, body } => {
            // Eigenvariable condition: `var` arbitrary means it is free in
            // no standing assumption.
            for a in ab.iter() {
                if a.has_free(var) {
                    return Err(ProofError::EigenvariableViolation { name: var.clone() });
                }
            }
            let r = eval(body, ab)?;
            Ok(Prop::Forall(var.clone(), Box::new(r)))
        }
        Ded::Instantiate { forall, term } => match eval(forall, ab)? {
            Prop::Forall(v, body) => Ok(body.subst(&v, term)?),
            other => Err(mismatch(
                "instantiate",
                format!("not a universal: `{other}`"),
            )),
        },
        Ded::ExIntro {
            witness,
            var,
            template,
            proof,
        } => {
            let got = eval(proof, ab)?;
            let want = template.subst(var, witness)?;
            if got == want {
                Ok(Prop::Exists(var.clone(), Box::new(template.clone())))
            } else {
                Err(mismatch(
                    "exists-intro",
                    format!("proved `{got}` but the witness instance is `{want}`"),
                ))
            }
        }
        Ded::ExElim {
            existential,
            fresh,
            body,
        } => {
            let ex = eval(existential, ab)?;
            let Prop::Exists(v, matrix) = ex else {
                return Err(mismatch(
                    "exists-elim",
                    format!("not an existential: `{ex}`"),
                ));
            };
            // Freshness: the witness constant must be genuinely new.
            for a in ab.iter() {
                if a.contains_const(fresh) {
                    return Err(ProofError::EigenvariableViolation {
                        name: fresh.clone(),
                    });
                }
            }
            let witness_assumption = matrix.subst(&v, &Term::cst(fresh))?;
            let inner = ab.with(witness_assumption);
            let q = eval(body, &inner)?;
            if q.contains_const(fresh) {
                return Err(ProofError::EigenvariableViolation {
                    name: fresh.clone(),
                });
            }
            Ok(q)
        }
        Ded::Refl(t) => Ok(Prop::Eq(t.clone(), t.clone())),
        Ded::Sym(d) => match eval(d, ab)? {
            Prop::Eq(a, b) => Ok(Prop::Eq(b, a)),
            other => Err(mismatch("symmetry", format!("not an equation: `{other}`"))),
        },
        Ded::Trans(a, b) => {
            let ea = eval(a, ab)?;
            let eb = eval(b, ab)?;
            match (ea, eb) {
                (Prop::Eq(x, y1), Prop::Eq(y2, z)) if y1 == y2 => Ok(Prop::Eq(x, z)),
                (p, q) => Err(mismatch(
                    "transitivity",
                    format!("middle terms differ: `{p}` vs `{q}`"),
                )),
            }
        }
        Ded::Subst {
            eq,
            proof,
            var,
            template,
        } => {
            let eq = eval(eq, ab)?;
            let Prop::Eq(a, b) = eq else {
                return Err(mismatch("subst", format!("not an equation: `{eq}`")));
            };
            let got = eval(proof, ab)?;
            let want = template.subst(var, &a)?;
            if got != want {
                return Err(mismatch(
                    "subst",
                    format!("proved `{got}` but the template at the LHS is `{want}`"),
                ));
            }
            Ok(template.subst(var, &b)?)
        }
        Ded::Seq(ds) => {
            if ds.is_empty() {
                return Err(ProofError::EmptySequence);
            }
            let mut local = ab.clone();
            let mut last = None;
            for d in ds {
                let r = eval(d, &local)?;
                local.assert(r.clone());
                last = Some(r);
            }
            Ok(last.expect("non-empty"))
        }
    }
}

/// Check a deduction and assert its theorem into the base (the session
/// workflow: proper deductions extend the assumption base).
pub fn check_and_assert(d: &Ded, ab: &mut AssumptionBase) -> Result<Prop, ProofError> {
    let p = eval(d, ab)?;
    ab.assert(p.clone());
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::SymbolMap;

    fn p() -> Prop {
        Prop::atom("p", vec![])
    }
    fn q() -> Prop {
        Prop::atom("q", vec![])
    }

    #[test]
    fn claim_requires_membership() {
        let ab = AssumptionBase::from_axioms([p()]);
        assert_eq!(eval(&Ded::Claim(p()), &ab), Ok(p()));
        assert!(matches!(
            eval(&Ded::Claim(q()), &ab),
            Err(ProofError::NotInBase(_))
        ));
    }

    #[test]
    fn modus_ponens_checks_shapes() {
        let ab = AssumptionBase::from_axioms([Prop::implies(p(), q()), p()]);
        let d = Ded::mp(Ded::Claim(Prop::implies(p(), q())), Ded::Claim(p()));
        assert_eq!(eval(&d, &ab), Ok(q()));
        // Wrong antecedent.
        let ab2 = AssumptionBase::from_axioms([Prop::implies(p(), q()), q()]);
        let d = Ded::mp(Ded::Claim(Prop::implies(p(), q())), Ded::Claim(q()));
        assert!(matches!(
            eval(&d, &ab2),
            Err(ProofError::RuleMismatch {
                rule: "modus-ponens",
                ..
            })
        ));
    }

    #[test]
    fn conditional_proof_discharges_hypothesis() {
        // ⊢ p → p, from nothing.
        let d = Ded::assume(p(), Ded::Claim(p()));
        let ab = AssumptionBase::new();
        assert_eq!(eval(&d, &ab), Ok(Prop::implies(p(), p())));
        // The hypothesis does not leak into the outer base.
        assert!(!ab.holds(&p()));
    }

    #[test]
    fn hypothetical_syllogism_composes() {
        // From p→q and q→r derive p→r.
        let r = Prop::atom("r", vec![]);
        let ab =
            AssumptionBase::from_axioms([Prop::implies(p(), q()), Prop::implies(q(), r.clone())]);
        let d = Ded::assume(
            p(),
            Ded::mp(
                Ded::Claim(Prop::implies(q(), r.clone())),
                Ded::mp(Ded::Claim(Prop::implies(p(), q())), Ded::Claim(p())),
            ),
        );
        assert_eq!(eval(&d, &ab), Ok(Prop::implies(p(), r)));
    }

    #[test]
    fn case_analysis() {
        let r = Prop::atom("r", vec![]);
        let ab = AssumptionBase::from_axioms([
            Prop::or(p(), q()),
            Prop::implies(p(), r.clone()),
            Prop::implies(q(), r.clone()),
        ]);
        let d = Ded::Cases {
            disj: Box::new(Ded::Claim(Prop::or(p(), q()))),
            left: Box::new(Ded::Claim(Prop::implies(p(), r.clone()))),
            right: Box::new(Ded::Claim(Prop::implies(q(), r.clone()))),
        };
        assert_eq!(eval(&d, &ab), Ok(r));
    }

    #[test]
    fn by_contradiction_yields_negation() {
        // From p, refute ¬p: assume ¬p, derive ⊥, conclude ¬¬p; then elim.
        let ab = AssumptionBase::from_axioms([p()]);
        let d = Ded::DoubleNegElim(Box::new(Ded::ByContradiction {
            hypothesis: Prop::not(p()),
            body: Box::new(Ded::Absurd {
                pos: Box::new(Ded::Claim(p())),
                neg: Box::new(Ded::Claim(Prop::not(p()))),
            }),
        }));
        assert_eq!(eval(&d, &ab), Ok(p()));
    }

    #[test]
    fn generalization_enforces_eigenvariable_condition() {
        let pa = Prop::atom("P", vec![Term::var("a")]);
        // With P(a) assumed, generalizing over `a` is unsound — rejected.
        let ab = AssumptionBase::from_axioms([pa.clone()]);
        let d = Ded::Generalize {
            var: "a".to_string(),
            body: Box::new(Ded::Claim(pa.clone())),
        };
        assert!(matches!(
            eval(&d, &ab),
            Err(ProofError::EigenvariableViolation { .. })
        ));
        // From ∀x. P(x), instantiate at `a` then re-generalize: fine, since
        // `a` is not free in the base.
        let all = Prop::Forall(
            "x".to_string(),
            Box::new(Prop::atom("P", vec![Term::var("x")])),
        );
        let ab = AssumptionBase::from_axioms([all.clone()]);
        let d = Ded::Generalize {
            var: "a".to_string(),
            body: Box::new(Ded::Instantiate {
                forall: Box::new(Ded::Claim(all)),
                term: Term::var("a"),
            }),
        };
        let r = eval(&d, &ab).unwrap();
        assert_eq!(r.to_string(), "∀a. P(a)");
    }

    #[test]
    fn equality_rules_chain() {
        let (a, b, c) = (Term::cst("a"), Term::cst("b"), Term::cst("c"));
        let ab = AssumptionBase::from_axioms([
            Prop::Eq(a.clone(), b.clone()),
            Prop::Eq(b.clone(), c.clone()),
        ]);
        let d = Ded::Trans(
            Box::new(Ded::Claim(Prop::Eq(a.clone(), b.clone()))),
            Box::new(Ded::Claim(Prop::Eq(b.clone(), c.clone()))),
        );
        assert_eq!(eval(&d, &ab), Ok(Prop::Eq(a.clone(), c.clone())));
        let d = Ded::Sym(Box::new(Ded::Claim(Prop::Eq(a.clone(), b.clone()))));
        assert_eq!(eval(&d, &ab), Ok(Prop::Eq(b, a)));
    }

    #[test]
    fn congruence_via_subst() {
        // From a = b conclude op(a, c) = op(b, c).
        let (a, b, c) = (Term::cst("a"), Term::cst("b"), Term::cst("c"));
        let ab = AssumptionBase::from_axioms([Prop::Eq(a.clone(), b.clone())]);
        let ctx = Term::app("op", vec![Term::var("hole"), c.clone()]);
        let d = Ded::cong(
            Ded::Claim(Prop::Eq(a.clone(), b.clone())),
            "hole",
            ctx,
            a.clone(),
        );
        let r = eval(&d, &ab).unwrap();
        assert_eq!(r.to_string(), "op(a, c) = op(b, c)");
    }

    #[test]
    fn existential_intro_and_elim() {
        let px = Prop::atom("P", vec![Term::var("x")]);
        let pa = Prop::atom("P", vec![Term::cst("a")]);
        let ab = AssumptionBase::from_axioms([
            pa.clone(),
            Prop::forall(&["x"], Prop::implies(px.clone(), q())),
        ]);
        // ∃x. P(x) from P(a).
        let ex = Ded::ExIntro {
            witness: Term::cst("a"),
            var: "x".to_string(),
            template: px.clone(),
            proof: Box::new(Ded::Claim(pa)),
        };
        let exp = eval(&ex, &ab).unwrap();
        assert_eq!(exp.to_string(), "∃x. P(x)");
        // Eliminate with a fresh witness `w`: P(w) → q by the axiom.
        let d = Ded::ExElim {
            existential: Box::new(ex),
            fresh: "w".to_string(),
            body: Box::new(Ded::mp(
                Ded::Instantiate {
                    forall: Box::new(Ded::Claim(Prop::forall(
                        &["x"],
                        Prop::implies(px.clone(), q()),
                    ))),
                    term: Term::cst("w"),
                },
                Ded::Claim(Prop::atom("P", vec![Term::cst("w")])),
            )),
        };
        assert_eq!(eval(&d, &ab), Ok(q()));
    }

    #[test]
    fn existential_elim_rejects_leaky_witness() {
        let px = Prop::atom("P", vec![Term::var("x")]);
        let pa = Prop::atom("P", vec![Term::cst("a")]);
        let ab = AssumptionBase::from_axioms([pa.clone()]);
        let ex = Ded::ExIntro {
            witness: Term::cst("a"),
            var: "x".to_string(),
            template: px.clone(),
            proof: Box::new(Ded::Claim(pa)),
        };
        // Body "concludes" P(w): mentions the fresh constant — rejected.
        let d = Ded::ExElim {
            existential: Box::new(ex),
            fresh: "w".to_string(),
            body: Box::new(Ded::Claim(Prop::atom("P", vec![Term::cst("w")]))),
        };
        assert!(matches!(
            eval(&d, &ab),
            Err(ProofError::EigenvariableViolation { .. })
        ));
    }

    #[test]
    fn seq_threads_intermediate_theorems() {
        let r = Prop::atom("r", vec![]);
        let ab = AssumptionBase::from_axioms([
            p(),
            Prop::implies(p(), q()),
            Prop::implies(q(), r.clone()),
        ]);
        let d = Ded::Seq(vec![
            Ded::mp(Ded::Claim(Prop::implies(p(), q())), Ded::Claim(p())),
            // q is now available to claim:
            Ded::mp(Ded::Claim(Prop::implies(q(), r.clone())), Ded::Claim(q())),
        ]);
        assert_eq!(eval(&d, &ab), Ok(r));
        assert!(matches!(
            eval(&Ded::Seq(vec![]), &ab),
            Err(ProofError::EmptySequence)
        ));
    }

    #[test]
    fn renamed_deduction_checks_against_renamed_axioms() {
        // Generic: from P → Q and P derive Q; rename P↦Rain, Q↦Wet.
        let ab_gen = AssumptionBase::from_axioms([Prop::implies(p(), q()), p()]);
        let d = Ded::mp(Ded::Claim(Prop::implies(p(), q())), Ded::Claim(p()));
        assert!(eval(&d, &ab_gen).is_ok());
        let map = SymbolMap::new([("p", "rain"), ("q", "wet")]);
        let ab_conc = AssumptionBase::from_axioms([
            Prop::implies(Prop::atom("rain", vec![]), Prop::atom("wet", vec![])),
            Prop::atom("rain", vec![]),
        ]);
        let d2 = d.rename(&map);
        assert_eq!(eval(&d2, &ab_conc), Ok(Prop::atom("wet", vec![])));
        // And the un-renamed proof fails against the concrete base.
        assert!(eval(&d, &ab_conc).is_err());
    }

    #[test]
    fn check_and_assert_grows_the_base() {
        let mut ab = AssumptionBase::from_axioms([p(), Prop::implies(p(), q())]);
        let d = Ded::mp(Ded::Claim(Prop::implies(p(), q())), Ded::Claim(p()));
        let t = check_and_assert(&d, &mut ab).unwrap();
        assert_eq!(t, q());
        assert!(ab.holds(&q()));
    }
}
