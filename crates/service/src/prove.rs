//! The `Prove` request: theory instantiation as a service (`gp-proofs`
//! backing).
//!
//! A client names a packaged theory, an instance name, and a symbol map
//! (abstract symbol → model symbol). Each packaged theory is built and
//! checked once per process; a map that renames the theory's symbols
//! bijectively and leaves `false` alone is answered by renaming the
//! checked statements ([`CheckedTheory::rename_statements`] carries the
//! soundness argument). Any other map renames the axioms *and* proofs
//! onto the model and re-checks every theorem. Which path served shows
//! in the `proofs.prove.renamed` and `proofs.prove.rechecked` counters;
//! the payload bytes are the same either way. A failed proof is a
//! **verdict**, not a transport error: the payload carries `ok: false`
//! plus which theorem broke and why, so a client probing a bogus model
//! still gets a cacheable, well-formed answer.

use crate::request::RequestKind;
use gp_core::json::Json;
use gp_proofs::logic::SymbolMap;
use gp_proofs::theories::{group, monoid, order, ring, CheckedTheory, Theory};
use gp_telemetry::Counter;
use std::sync::OnceLock;

/// Check a named theory, optionally instantiated onto a model.
#[derive(Clone, Debug, PartialEq)]
pub struct ProveRequest {
    /// Theory name: `monoid`, `monoid-identity-uniqueness`, `group`,
    /// `ring` or `order` (alias `strict-weak-order`).
    pub theory: String,
    /// Instance name used when renaming (empty = check the base theory).
    pub instance: String,
    /// Symbol map, abstract → concrete, sorted by key for canonical form.
    pub model: Vec<(String, String)>,
}

/// Builds one packaged theory.
type Build = fn() -> Theory;

/// The packaged theories by request name, in table order.
const PACKAGED: [(&str, Build); 5] = [
    ("monoid", monoid::theory),
    (
        "monoid-identity-uniqueness",
        monoid::identity_uniqueness_theory,
    ),
    ("group", group::theory),
    ("ring", ring::theory),
    ("order", order::theory),
];

/// Resolve a theory name (`strict-weak-order` is an alias of `order`) to
/// its packaged theory, built and checked on the process's first request.
fn checked_theory(name: &str) -> Result<&'static CheckedTheory, String> {
    static CHECKED: OnceLock<Vec<Result<CheckedTheory, String>>> = OnceLock::new();
    let key = if name == "strict-weak-order" {
        "order"
    } else {
        name
    };
    let slot = PACKAGED
        .iter()
        .position(|(n, _)| *n == key)
        .ok_or_else(|| {
            format!(
                "unknown theory {name:?} (known: monoid, monoid-identity-uniqueness, \
                 group, ring, order)"
            )
        })?;
    let table = CHECKED.get_or_init(|| {
        PACKAGED
            .iter()
            .map(|(n, build)| {
                CheckedTheory::new(build())
                    .map_err(|e| format!("packaged theory {n} fails its own check: {e:?}"))
            })
            .collect()
    });
    table[slot].as_ref().map_err(String::clone)
}

/// Pre-resolved telemetry handles: which path served a `prove`.
struct ProveMetrics {
    renamed: &'static Counter,
    rechecked: &'static Counter,
}

fn prove_metrics() -> &'static ProveMetrics {
    static METRICS: OnceLock<ProveMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ProveMetrics {
        renamed: gp_telemetry::counter("proofs.prove.renamed"),
        rechecked: gp_telemetry::counter("proofs.prove.rechecked"),
    })
}

impl RequestKind for ProveRequest {
    const NAME: &'static str = "prove";
    const CODE: u64 = 3;

    /// The model renders sorted, so its order never splits a cache key.
    fn to_json(&self) -> Json {
        let mut model: Vec<(&str, &str)> = self
            .model
            .iter()
            .map(|(from, to)| (from.as_str(), to.as_str()))
            .collect();
        model.sort_unstable();
        let mut m = Json::obj();
        for (from, to) in model {
            m = m.field(from.to_string(), to);
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

    /// Look up and instantiate: rename the checked statements, or re-check
    /// the renamed proofs when the map is not eligible for that. The
    /// payload reports the verdict plus the proved theorems (success) or
    /// the failing theorem and its error (failure).
    fn handle(&self) -> Result<Json, String> {
        let checked = checked_theory(&self.theory)?;
        let base = checked.theory();
        // An empty instance and model name the base theory itself.
        let instance =
            (!self.instance.is_empty() || !self.model.is_empty()).then_some(self.instance.as_str());
        let map = SymbolMap::new(self.model.iter().map(|(a, b)| (a.as_str(), b.as_str())));
        let verdict = match checked.rename_statements(&map) {
            Some(props) => {
                prove_metrics().renamed.incr();
                Ok(props)
            }
            None => {
                prove_metrics().rechecked.incr();
                base.instantiate(&self.instance, &map).check()
            }
        };
        let theory_name = match instance {
            Some(i) => format!("{}[{i}]", base.name),
            None => base.name.clone(),
        };
        let payload = Json::obj()
            .field("theory", theory_name)
            .field("axioms", base.axioms.len())
            .field("proof_size", checked.proof_size());
        Ok(match verdict {
            Ok(props) => payload.field("ok", true).field(
                "theorems",
                Json::Arr(
                    base.theorems
                        .iter()
                        .zip(&props)
                        .map(|(t, p)| {
                            let name = match instance {
                                Some(i) => format!("{}@{i}", t.name),
                                None => t.name.clone(),
                            };
                            Json::obj()
                                .field("name", name)
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
    fn counters_show_which_path_served() {
        let prove = |model: &[(&str, &str)]| {
            ProveRequest {
                theory: "monoid".into(),
                instance: "i".into(),
                model: model
                    .iter()
                    .map(|(a, b)| (a.to_string(), b.to_string()))
                    .collect(),
            }
            .handle()
            .unwrap()
            .render()
        };
        let metrics = prove_metrics();
        let monoid = checked_theory("monoid").unwrap();

        // `op ↦ e` collides with the unmapped constant `e`: re-checked,
        // and the verdict still reads as the full re-check renders it.
        let colliding = [("op", "e")];
        assert!(monoid
            .rename_statements(&SymbolMap::new(colliding))
            .is_none());
        let before = metrics.rechecked.get();
        assert_eq!(
            prove(&colliding),
            "{\"theory\":\"Monoid[i]\",\"axioms\":3,\"proof_size\":6,\"ok\":true,\
             \"theorems\":[{\"name\":\"double-right-identity@i\",\
             \"statement\":\"∀x. e(e(x, e), e) = x\"}]}"
        );
        assert!(metrics.rechecked.get() > before);

        let eligible = [("e", "zero"), ("op", "add")];
        assert!(monoid
            .rename_statements(&SymbolMap::new(eligible))
            .is_some());
        let before = metrics.renamed.get();
        assert!(prove(&eligible).contains("∀x. add(add(x, zero), zero) = x"));
        assert!(metrics.renamed.get() > before);
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
