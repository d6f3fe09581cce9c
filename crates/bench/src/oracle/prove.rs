//! The always-re-check `prove` handler: the reference for the served
//! handler, which answers an eligible map by renaming statements checked
//! once per process.
//!
//! Every call rebuilds the named theory, renames its axioms *and* proofs
//! onto the model, and re-runs the whole deduction. The equivalence
//! proptest (`tests/prove_equivalence.rs`) pins `ProveRequest::handle`'s
//! payload bytes to this one, and E8b (`exp_proofs`) times the two.

use gp_core::json::Json;
use gp_proofs::logic::SymbolMap;
use gp_proofs::theories::{group, monoid, order, ring, Theory};
use gp_service::prove::ProveRequest;

fn lookup_theory(name: &str) -> Result<Theory, String> {
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

/// Look up, optionally instantiate, and check `req` from scratch; the
/// payload (or handler error) `ProveRequest::handle` must reproduce.
pub fn prove_recheck(req: &ProveRequest) -> Result<Json, String> {
    let base = lookup_theory(&req.theory)?;
    let theory = if req.instance.is_empty() && req.model.is_empty() {
        base
    } else {
        let map = SymbolMap::new(req.model.iter().map(|(a, b)| (a.clone(), b.clone())));
        base.instantiate(&req.instance, &map)
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
