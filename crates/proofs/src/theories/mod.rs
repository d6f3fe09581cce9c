//! Generic theories: axioms packaged with machine-checked proofs that can
//! be instantiated per model.
//!
//! This realizes the paper's organization strategy: "we package up sets of
//! axioms into functions, pass them around … and we simulate
//! type-parameterization simply by parameterizing functions and methods by
//! functions that carry operator mappings." A [`Theory`] is checked once
//! over abstract symbols — "one can express a proof once and subsequently
//! instantiate it many times", amortizing the proof effort over all
//! instances. Two ways to instantiate it:
//!
//! * [`CheckedTheory::rename_statements`] renames only the *statements* of
//!   a theory checked once. It applies to a map that is a bijection on the
//!   theory's symbols and fixes the reserved `false` atom; no deduction
//!   runs again (the soundness argument is on [`CheckedTheory`]).
//! * [`Theory::instantiate`] renames axioms *and proofs*, and the result
//!   re-checks like any other theory. This covers every other map: a
//!   colliding map may make a proof improper.

pub mod group;
pub mod monoid;
pub mod order;
pub mod ring;

use crate::base::AssumptionBase;
use crate::deduction::{eval, Ded, ProofError};
use crate::logic::{Prop, SymbolMap, FALSUM};
use std::collections::BTreeSet;

/// A named theorem: a statement and the deduction that proves it.
#[derive(Clone, Debug)]
pub struct NamedTheorem {
    /// Theorem name.
    pub name: String,
    /// The statement the proof must yield.
    pub statement: Prop,
    /// The checked proof.
    pub proof: Ded,
}

/// A theory: axioms plus proved theorems.
#[derive(Clone, Debug)]
pub struct Theory {
    /// Theory name.
    pub name: String,
    /// Asserted axioms.
    pub axioms: Vec<Prop>,
    /// Theorems proved from them (earlier theorems usable by later proofs).
    pub theorems: Vec<NamedTheorem>,
}

/// A theorem's proof yielded a different proposition than its statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TheoryError {
    /// Which theorem failed.
    pub theorem: String,
    /// The underlying failure.
    pub error: TheoryErrorKind,
}

/// The ways a theory check fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryErrorKind {
    /// The deduction itself was improper.
    Proof(ProofError),
    /// The deduction proved something other than the stated theorem.
    WrongStatement {
        /// What it actually proved.
        proved: String,
        /// What was claimed.
        stated: String,
    },
}

impl Theory {
    /// Check every theorem in order (each proved theorem joins the base for
    /// the next). Returns the proved propositions.
    pub fn check(&self) -> Result<Vec<Prop>, TheoryError> {
        let mut ab = AssumptionBase::from_axioms(self.axioms.iter().cloned());
        let mut proved = Vec::new();
        for t in &self.theorems {
            let p = eval(&t.proof, &ab).map_err(|e| TheoryError {
                theorem: t.name.clone(),
                error: TheoryErrorKind::Proof(e),
            })?;
            if p != t.statement {
                return Err(TheoryError {
                    theorem: t.name.clone(),
                    error: TheoryErrorKind::WrongStatement {
                        proved: p.to_string(),
                        stated: t.statement.to_string(),
                    },
                });
            }
            ab.assert(p.clone());
            proved.push(p);
        }
        Ok(proved)
    }

    /// Instantiate the theory onto concrete symbols: axioms, statements, and
    /// proofs are all renamed. The result is checked like any other theory —
    /// the language processor "must only do proof checking, not proof
    /// search".
    pub fn instantiate(&self, instance_name: &str, map: &SymbolMap) -> Theory {
        Theory {
            name: format!("{}[{instance_name}]", self.name),
            axioms: self.axioms.iter().map(|a| a.rename(map)).collect(),
            theorems: self
                .theorems
                .iter()
                .map(|t| NamedTheorem {
                    name: format!("{}@{instance_name}", t.name),
                    statement: t.statement.rename(map),
                    proof: t.proof.rename(map),
                })
                .collect(),
        }
    }

    /// Total number of deduction nodes across all proofs (proof-size
    /// metric for the E8 amortization table).
    pub fn proof_size(&self) -> usize {
        fn size(d: &Ded) -> usize {
            match d {
                Ded::Claim(_) | Ded::Refl(_) => 1,
                Ded::Assume { body, .. }
                | Ded::ByContradiction { body, .. }
                | Ded::Generalize { body, .. } => 1 + size(body),
                Ded::Mp { imp, ant } => 1 + size(imp) + size(ant),
                Ded::Mt { imp, neg } => 1 + size(imp) + size(neg),
                Ded::AndIntro(a, b) | Ded::Trans(a, b) => 1 + size(a) + size(b),
                Ded::AndElimL(d)
                | Ded::AndElimR(d)
                | Ded::IffElimF(d)
                | Ded::IffElimB(d)
                | Ded::DoubleNegElim(d)
                | Ded::Sym(d) => 1 + size(d),
                Ded::OrIntroL(d, _) | Ded::OrIntroR(_, d) => 1 + size(d),
                Ded::Cases { disj, left, right } => 1 + size(disj) + size(left) + size(right),
                Ded::IffIntro { forward, backward } => 1 + size(forward) + size(backward),
                Ded::Absurd { pos, neg } => 1 + size(pos) + size(neg),
                Ded::Instantiate { forall, .. } => 1 + size(forall),
                Ded::ExIntro { proof, .. } => 1 + size(proof),
                Ded::ExElim {
                    existential, body, ..
                } => 1 + size(existential) + size(body),
                Ded::Subst { eq, proof, .. } => 1 + size(eq) + size(proof),
                Ded::Seq(ds) => 1 + ds.iter().map(size).sum::<usize>(),
            }
        }
        self.theorems.iter().map(|t| size(&t.proof)).sum()
    }
}

/// A theory whose proofs were checked once, with what instantiating it by
/// renaming needs: the proved propositions, the proof size and the
/// theory's symbol set.
///
/// **Why renaming the statements is sound.** The symbol set holds every
/// relation, function and constant name in the axioms, the statements and
/// the proofs, each `ExElim` witness included. Checking a theory inspects
/// symbols only by comparing them for equality, and the only symbol it
/// introduces is `false` ([`Prop::falsum`]). Renaming never touches
/// variables. So a map that is injective on the symbol set, whose image
/// avoids the symbols it leaves unmapped, and that neither maps nor
/// produces `false`, renames each rule application into a rule application
/// one for one: equal propositions stay equal, distinct ones stay
/// distinct, and an ∃-elimination witness stays fresh. The renamed theory
/// therefore checks, and proves exactly the renamed statements.
#[derive(Clone, Debug)]
pub struct CheckedTheory {
    theory: Theory,
    proved: Vec<Prop>,
    proof_size: usize,
    symbols: BTreeSet<String>,
}

impl CheckedTheory {
    /// Check `theory` and collect its symbols; fails as [`Theory::check`]
    /// does.
    pub fn new(theory: Theory) -> Result<CheckedTheory, TheoryError> {
        let proved = theory.check()?;
        // An identity renaming that records each symbol it visits; the
        // renamed copies are dropped (this runs once per theory).
        let mut symbols = BTreeSet::new();
        let mut collect = |s: &str| {
            symbols.insert(s.to_string());
            s.to_string()
        };
        for a in &theory.axioms {
            a.rename_with(&mut collect);
        }
        for t in &theory.theorems {
            t.statement.rename_with(&mut collect);
            t.proof.rename_with(&mut collect);
        }
        Ok(CheckedTheory {
            proof_size: theory.proof_size(),
            theory,
            proved,
            symbols,
        })
    }

    /// The checked theory.
    pub fn theory(&self) -> &Theory {
        &self.theory
    }

    /// [`Theory::proof_size`], computed once.
    pub fn proof_size(&self) -> usize {
        self.proof_size
    }

    /// Every relation, function and constant name the theory mentions.
    pub fn symbols(&self) -> &BTreeSet<String> {
        &self.symbols
    }

    /// The proved propositions renamed by `map` — what
    /// `instantiate(_, map).check()` would prove — or `None` when `map` is
    /// not eligible for renaming without a re-check: it maps two theory
    /// symbols to one name, maps one onto a theory symbol it leaves
    /// unmapped, or names `false` as a key or a value.
    pub fn rename_statements(&self, map: &SymbolMap) -> Option<Vec<Prop>> {
        let mut images = BTreeSet::new();
        for (from, to) in map.iter() {
            if from == FALSUM || to == FALSUM {
                return None;
            }
            if !self.symbols.contains(from) {
                continue;
            }
            let hits_unmapped = self.symbols.contains(to) && map.get(to).is_none();
            if hits_unmapped || !images.insert(to) {
                return None;
            }
        }
        Some(self.proved.iter().map(|p| p.rename(map)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Term;

    #[test]
    fn theory_check_rejects_wrong_statement() {
        let t = Theory {
            name: "bogus".into(),
            axioms: vec![Prop::atom("p", vec![])],
            theorems: vec![NamedTheorem {
                name: "lie".into(),
                statement: Prop::atom("q", vec![]),
                proof: Ded::Claim(Prop::atom("p", vec![])),
            }],
        };
        let err = t.check().unwrap_err();
        assert!(matches!(err.error, TheoryErrorKind::WrongStatement { .. }));
    }

    #[test]
    fn later_theorems_may_use_earlier_ones() {
        let p = Prop::atom("p", vec![]);
        let q = Prop::atom("q", vec![]);
        let t = Theory {
            name: "chain".into(),
            axioms: vec![p.clone(), Prop::implies(p.clone(), q.clone())],
            theorems: vec![
                NamedTheorem {
                    name: "q".into(),
                    statement: q.clone(),
                    proof: Ded::mp(
                        Ded::Claim(Prop::implies(p.clone(), q.clone())),
                        Ded::Claim(p.clone()),
                    ),
                },
                NamedTheorem {
                    name: "p-and-q".into(),
                    statement: Prop::and(p.clone(), q.clone()),
                    // q is claimable only because the previous theorem was
                    // asserted into the base.
                    proof: Ded::AndIntro(
                        Box::new(Ded::Claim(p.clone())),
                        Box::new(Ded::Claim(q.clone())),
                    ),
                },
            ],
        };
        assert_eq!(t.check().unwrap().len(), 2);
        assert!(t.proof_size() >= 5);
    }

    /// `∃x. p(x)`, `∀x. (p(x) → q)` and `r(c)` prove `q` through the
    /// ∃-elimination witness `w`.
    fn witness_theory() -> Theory {
        let p = |t: Term| Prop::atom("p", vec![t]);
        let q = Prop::atom("q", vec![]);
        let ex = Prop::exists("x", p(Term::var("x")));
        let all = Prop::forall(&["x"], Prop::implies(p(Term::var("x")), q.clone()));
        Theory {
            name: "witness".into(),
            axioms: vec![
                ex.clone(),
                all.clone(),
                Prop::atom("r", vec![Term::cst("c")]),
            ],
            theorems: vec![NamedTheorem {
                name: "q".into(),
                statement: q,
                proof: Ded::ExElim {
                    existential: Box::new(Ded::Claim(ex)),
                    fresh: "w".into(),
                    body: Box::new(Ded::mp(
                        Ded::Instantiate {
                            forall: Box::new(Ded::Claim(all)),
                            term: Term::cst("w"),
                        },
                        Ded::Claim(p(Term::cst("w"))),
                    )),
                },
            }],
        }
    }

    /// Every map of up to two pairs over the theory's symbols, `false`
    /// and two outside names: wherever renaming answers, it proves what
    /// the full re-check proves.
    #[test]
    fn renamed_statements_match_a_full_recheck() {
        let checked = CheckedTheory::new(witness_theory()).unwrap();
        let symbols: Vec<&str> = checked.symbols().iter().map(String::as_str).collect();
        assert_eq!(symbols, ["c", "p", "q", "r", "w"]);
        let names = ["c", "p", "q", "r", "w", "false", "s", "v"];
        let pairs: Vec<(&str, &str)> = names
            .iter()
            .flat_map(|&a| names.iter().map(move |&b| (a, b)))
            .collect();
        let (mut renamed, mut improper) = (0, 0);
        for (i, &first) in pairs.iter().enumerate() {
            for &second in &pairs[i..] {
                let map = SymbolMap::new([first, second]);
                let full = checked.theory().instantiate("i", &map).check();
                improper += usize::from(full.is_err());
                if let Some(props) = checked.rename_statements(&map) {
                    assert_eq!(Ok(props), full, "{map:?}");
                    renamed += 1;
                }
            }
        }
        assert!(
            renamed > 0 && improper > 0,
            "{renamed} renamed, {improper} improper"
        );
    }

    #[test]
    fn ineligible_maps_are_refused() {
        let checked = CheckedTheory::new(witness_theory()).unwrap();
        // Onto the witness: `r(w)` joins the axioms, so `w` is no longer
        // fresh and the renamed proof is improper.
        let onto_witness = SymbolMap::new([("c", "w")]);
        assert_eq!(checked.rename_statements(&onto_witness), None);
        assert!(checked
            .theory()
            .instantiate("i", &onto_witness)
            .check()
            .is_err());
        for map in [
            SymbolMap::new([("p", "r"), ("q", "r")]),
            SymbolMap::new([("p", "r")]),
            SymbolMap::new([("q", "false")]),
            SymbolMap::new([("false", "q")]),
        ] {
            assert_eq!(checked.rename_statements(&map), None, "{map:?}");
        }
    }

    #[test]
    fn instantiation_renames_axioms_and_proofs_consistently() {
        let t = Theory {
            name: "tiny".into(),
            axioms: vec![Prop::Eq(Term::cst("e"), Term::cst("e"))],
            theorems: vec![NamedTheorem {
                name: "sym".into(),
                statement: Prop::Eq(Term::cst("e"), Term::cst("e")),
                proof: Ded::Sym(Box::new(Ded::Claim(Prop::Eq(
                    Term::cst("e"),
                    Term::cst("e"),
                )))),
            }],
        };
        let inst = t.instantiate("ints", &SymbolMap::new([("e", "zero")]));
        assert!(inst.check().is_ok());
        assert!(inst.axioms[0].to_string().contains("zero"));
        assert_eq!(inst.name, "tiny[ints]");
    }
}
