//! The `Select` request: algorithm selection as a service (`gp-taxonomy`
//! backing).
//!
//! A client states deployment requirements along the taxonomy's
//! dimensions (all kebab-case strings on the wire); the handler filters
//! the published catalog for applicability and returns the best choice by
//! asymptotic message complexity, plus every applicable alternative so
//! the client can second-guess the tie-break.

use crate::request::{RequestKind, WireNames};
use gp_core::json::Json;
use gp_taxonomy::records::applicable;
use gp_taxonomy::{
    catalog, select_best, Fault, Problem, ProcessMgmt, Requirement, Sharing, Timing, Topology,
};

/// Select the best distributed algorithm for a deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectRequest {
    /// The deployment requirements.
    pub requirement: Requirement,
}

// --- dimension name tables (kebab-case) ---------------------------------

pub(crate) const PROBLEMS: WireNames<Problem> = WireNames::new(
    "problem",
    &[
        (Problem::LeaderElection, "leader-election"),
        (Problem::Broadcast, "broadcast"),
        (Problem::SpanningTree, "spanning-tree"),
        (Problem::Consensus, "consensus"),
        (Problem::MutualExclusion, "mutual-exclusion"),
        (Problem::FailureDetection, "failure-detection"),
    ],
);

pub(crate) const TOPOLOGIES: WireNames<Topology> = WireNames::new(
    "topology",
    &[
        (Topology::Arbitrary, "arbitrary"),
        (Topology::Ring, "ring"),
        (Topology::UniRing, "uni-ring"),
        (Topology::BiRing, "bi-ring"),
        (Topology::Complete, "complete"),
        (Topology::Tree, "tree"),
        (Topology::Star, "star"),
        (Topology::Grid, "grid"),
    ],
);

pub(crate) const TIMINGS: WireNames<Timing> = WireNames::new(
    "timing",
    &[
        (Timing::Asynchronous, "asynchronous"),
        (Timing::PartiallySynchronous, "partially-synchronous"),
        (Timing::Synchronous, "synchronous"),
    ],
);

pub(crate) const FAULTS: WireNames<Fault> = WireNames::new(
    "fault class",
    &[
        (Fault::None, "none"),
        (Fault::Crash, "crash"),
        (Fault::Omission, "omission"),
        (Fault::Byzantine, "byzantine"),
    ],
);

pub(crate) const SHARINGS: WireNames<Sharing> = WireNames::new(
    "sharing",
    &[
        (Sharing::MessagePassing, "message-passing"),
        (Sharing::SharedMemory, "shared-memory"),
    ],
);

pub(crate) const PROCESS_MGMTS: WireNames<ProcessMgmt> = WireNames::new(
    "process management",
    &[
        (ProcessMgmt::Static, "static"),
        (ProcessMgmt::Dynamic, "dynamic"),
    ],
);

impl SelectRequest {
    /// Decode from the `req` object of a request envelope; the same as
    /// [`RequestKind::from_json`], callable without the trait in scope.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        <Self as RequestKind>::from_json(j)
    }
}

impl RequestKind for SelectRequest {
    const NAME: &'static str = "select";
    const CODE: u64 = 4;

    /// `problem`, `topology`, and `timing` are required; the remaining
    /// dimensions default as in [`Requirement::basic`].
    fn from_json(j: &Json) -> Result<Self, String> {
        let required = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("select: missing string field '{key}'"))
        };
        let mut req = Requirement::basic(
            PROBLEMS.parse(required("problem")?)?,
            TOPOLOGIES.parse(required("topology")?)?,
            TIMINGS.parse(required("timing")?)?,
        );
        if let Some(s) = j.get("fault").and_then(Json::as_str) {
            req.fault_needed = FAULTS.parse(s)?;
        }
        if let Some(s) = j.get("sharing").and_then(Json::as_str) {
            req.sharing = SHARINGS.parse(s)?;
        }
        if let Some(s) = j.get("process-mgmt").and_then(Json::as_str) {
            req.process_mgmt = PROCESS_MGMTS.parse(s)?;
        }
        Ok(SelectRequest { requirement: req })
    }

    fn to_json(&self) -> Json {
        let r = &self.requirement;
        Json::obj()
            .field("problem", PROBLEMS.name(r.problem))
            .field("topology", TOPOLOGIES.name(r.topology))
            .field("timing", TIMINGS.name(r.network_timing))
            .field("fault", FAULTS.name(r.fault_needed))
            .field("sharing", SHARINGS.name(r.sharing))
            .field("process-mgmt", PROCESS_MGMTS.name(r.process_mgmt))
    }

    /// Filter the catalog and pick the best applicable algorithm.
    fn handle(&self) -> Result<Json, String> {
        let algorithms = catalog();
        let applicable_names: Vec<Json> = algorithms
            .iter()
            .filter(|a| applicable(a, &self.requirement))
            .map(|a| Json::from(a.name))
            .collect();
        let selected = match select_best(&algorithms, &self.requirement) {
            Some(alg) => algorithm_json(alg),
            None => Json::Null,
        };
        Ok(Json::obj()
            .field("selected", selected)
            .field("applicable", applicable_names))
    }

    #[cfg(test)]
    fn sample(_salt: usize) -> Self {
        SelectRequest {
            requirement: Requirement::basic(
                Problem::Broadcast,
                Topology::Tree,
                Timing::Asynchronous,
            ),
        }
    }
}

fn algorithm_json(alg: &gp_taxonomy::DistAlgorithm) -> Json {
    Json::obj()
        .field("name", alg.name)
        .field("impl", alg.impl_id)
        .field("messages", alg.messages.to_string())
        .field("time", alg.time.to_string())
        .field("local_computation", alg.local_computation.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_election_selects_an_algorithm() {
        let req = SelectRequest {
            requirement: Requirement::basic(
                Problem::LeaderElection,
                Topology::BiRing,
                Timing::Asynchronous,
            ),
        };
        let payload = req.handle().unwrap();
        let selected = payload.get("selected").unwrap();
        assert_ne!(
            selected,
            &Json::Null,
            "catalog has ring election: {payload:?}"
        );
        assert!(selected.get("name").and_then(Json::as_str).is_some());
        assert!(selected.get("messages").and_then(Json::as_str).is_some());
    }

    #[test]
    fn impossible_requirements_yield_null_not_error() {
        // Byzantine fault tolerance is outside the catalog.
        let mut requirement = Requirement::basic(
            Problem::LeaderElection,
            Topology::Ring,
            Timing::Asynchronous,
        );
        requirement.fault_needed = Fault::Byzantine;
        let payload = SelectRequest { requirement }.handle().unwrap();
        assert_eq!(payload.get("selected"), Some(&Json::Null));
        assert_eq!(
            payload
                .get("applicable")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn missing_dimensions_default_as_in_requirement_basic() {
        let j = Json::parse(
            r#"{"problem":"spanning-tree","topology":"arbitrary","timing":"asynchronous"}"#,
        )
        .unwrap();
        let basic = Requirement::basic(
            Problem::SpanningTree,
            Topology::Arbitrary,
            Timing::Asynchronous,
        );
        assert_eq!(SelectRequest::from_json(&j).unwrap().requirement, basic);
    }
}
