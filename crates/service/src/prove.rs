//! The `Prove` request: theory instantiation as a service (`gp-proofs`
//! backing).
//!
//! A client names a packaged theory, an instance name, and a symbol map
//! (abstract symbol → model symbol); the handler renames the axioms *and*
//! proofs onto the model and re-checks every theorem. A failed proof is a
//! **verdict**, not a transport error: the payload carries `ok: false`
//! plus which theorem broke and why, so a client probing a bogus model
//! still gets a cacheable, well-formed answer.

use crate::request::RequestKind;
use gp_core::json::Json;
use gp_proofs::logic::SymbolMap;
use gp_proofs::theories::{group, monoid, order, ring, Theory};

/// Check a named theory, optionally instantiated onto a model.
#[derive(Clone, Debug, PartialEq)]
pub struct ProveRequest {
    /// Theory name (see [`lookup_theory`] for the registry).
    pub theory: String,
    /// Instance name used when renaming (empty = check the base theory).
    pub instance: String,
    /// Symbol map, abstract → concrete, sorted by key for canonical form.
    pub model: Vec<(String, String)>,
}

/// Resolve a theory name to its packaged theory.
pub fn lookup_theory(name: &str) -> Result<Theory, String> {
    Ok(match name {
        "monoid" => monoid::theory(),
        "monoid-identity-uniqueness" => monoid::identity_uniqueness_theory(),
        "group" => group::theory(),
        "ring" => ring::theory(),
        "order" | "strict-weak-order" => order::theory(),
        other => {
            return Err(format!(
                "unknown theory {other:?} (known: monoid, monoid-identity-uniqueness, \
                 group, ring, order)"
            ))
        }
    })
}

impl RequestKind for ProveRequest {
    const NAME: &'static str = "prove";
    const CODE: u64 = 3;

    /// The model renders sorted, so its order never splits a cache key.
    fn to_json(&self) -> Json {
        let mut model = self.model.clone();
        model.sort();
        let mut m = Json::obj();
        for (from, to) in &model {
            m = m.field(from.clone(), to.as_str());
        }
        Json::obj()
            .field("theory", self.theory.as_str())
            .field("instance", self.instance.as_str())
            .field("model", m)
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let theory = j
            .get("theory")
            .and_then(Json::as_str)
            .ok_or("prove: missing string field 'theory'")?
            .to_string();
        let instance = j
            .get("instance")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let mut model = Vec::new();
        if let Some(Json::Obj(fields)) = j.get("model") {
            for (from, to) in fields {
                let to = to
                    .as_str()
                    .ok_or_else(|| format!("prove: model entry {from:?} must map to a string"))?;
                model.push((from.to_string(), to.to_string()));
            }
        }
        model.sort();
        Ok(ProveRequest {
            theory,
            instance,
            model,
        })
    }

    /// Look up, optionally instantiate, and check. The payload reports
    /// the verdict plus the proved theorems (success) or the failing
    /// theorem and its error (failure).
    fn handle(&self) -> Result<Json, String> {
        let base = lookup_theory(&self.theory)?;
        let theory = if self.instance.is_empty() && self.model.is_empty() {
            base
        } else {
            let map = SymbolMap::new(self.model.iter().map(|(a, b)| (a.clone(), b.clone())));
            base.instantiate(&self.instance, &map)
        };
        let payload = Json::obj()
            .field("theory", theory.name.as_str())
            .field("axioms", theory.axioms.len())
            .field("proof_size", theory.proof_size());
        Ok(match theory.check() {
            Ok(props) => payload.field("ok", true).field(
                "theorems",
                Json::Arr(
                    theory
                        .theorems
                        .iter()
                        .zip(&props)
                        .map(|(t, p)| {
                            Json::obj()
                                .field("name", t.name.as_str())
                                .field("statement", p.to_string())
                        })
                        .collect(),
                ),
            ),
            Err(e) => payload
                .field("ok", false)
                .field("failed_theorem", e.theorem.as_str())
                .field("error", format!("{:?}", e.error)),
        })
    }

    #[cfg(test)]
    fn sample(salt: usize) -> Self {
        ProveRequest {
            theory: "monoid".into(),
            instance: format!("i{salt}"),
            model: vec![("op".into(), format!("op{salt}"))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_theories_check_clean() {
        for name in [
            "monoid",
            "monoid-identity-uniqueness",
            "group",
            "ring",
            "order",
        ] {
            let payload = ProveRequest {
                theory: name.into(),
                instance: String::new(),
                model: Vec::new(),
            }
            .handle()
            .unwrap();
            assert_eq!(
                payload.get("ok").and_then(Json::as_bool),
                Some(true),
                "theory {name} should verify"
            );
        }
    }

    #[test]
    fn instantiated_monoid_reports_renamed_theorems() {
        let req = ProveRequest {
            theory: "monoid".into(),
            instance: "int-add".into(),
            model: vec![
                ("op".into(), "add".into()),
                ("e".into(), "zero".into()),
                ("M".into(), "Int".into()),
            ],
        };
        let payload = req.handle().unwrap();
        assert_eq!(payload.get("ok").and_then(Json::as_bool), Some(true));
        let theorems = payload.get("theorems").and_then(Json::as_arr).unwrap();
        assert!(!theorems.is_empty());
        let all = payload.render();
        assert!(all.contains("add"), "instantiated symbols in {all}");
    }

    #[test]
    fn unknown_theory_is_a_handler_error() {
        let err = ProveRequest {
            theory: "field".into(),
            instance: String::new(),
            model: Vec::new(),
        }
        .handle()
        .unwrap_err();
        assert!(err.contains("unknown theory"), "got {err}");
    }

    #[test]
    fn request_json_is_canonical_under_model_reordering() {
        let a = ProveRequest {
            theory: "monoid".into(),
            instance: "i".into(),
            model: vec![("op".into(), "add".into()), ("e".into(), "zero".into())],
        };
        let b = ProveRequest {
            theory: "monoid".into(),
            instance: "i".into(),
            model: vec![("e".into(), "zero".into()), ("op".into(), "add".into())],
        };
        assert_eq!(a.to_json().render(), b.to_json().render());
        let back = ProveRequest::from_json(&Json::parse(&a.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), a.to_json().render());
    }
}
