//! The seed intraprocedural checker: the flat-program oracle for
//! `gp_checker::analyze`.
//!
//! This is STLlint's original flow-sensitive abstract interpreter over
//! concrete abstract states, frozen in behavior. The library analyzes
//! every program, flat or not, with the interprocedural engine
//! (`gp_checker::interp`, where a flat program is the implicit `main`
//! instance); the equivalence tests pin that engine to this one on flat
//! programs, diagnostic for diagnostic.

use gp_checker::analyze::{
    Diagnostic, DiagnosticCode, Reporter, Severity, MSG_PAST_END, MSG_SINGULAR, MSG_SORTED_LINEAR,
};
use gp_checker::ir::{AlgorithmName, Cond, ContainerKind, Name, PosExpr, Program, Stmt};
use gp_checker::state::{AtEnd, Sortedness, Validity};
use std::collections::BTreeMap;

/// Run the seed analyzer over a flat program. An `invoke` is always an
/// unknown function here (the seed had no function definitions).
pub fn analyze_flat(program: &Program) -> Vec<Diagnostic> {
    let mut rep = Reporter::default();
    exec_block(&mut rep, &program.stmts, &mut AbsState::default());
    rep.into_diags()
}

/// Abstract container state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ContainerInfo {
    kind: ContainerKind,
    sorted: Sortedness,
    /// `begin()` of a maybe-empty container is maybe-at-end.
    maybe_empty: bool,
}

/// Abstract iterator state. Invalidation is **direct**: the invalidating
/// operation marks every affected iterator [`Validity::Singular`] at the
/// point it happens, so joins never conflate "reacquired after the
/// mutation" with "stale".
#[derive(Clone, Debug, PartialEq, Eq)]
struct IterInfo {
    container: Name,
    validity: Validity,
    at_end: AtEnd,
}

impl IterInfo {
    fn new(container: &str, at_end: AtEnd) -> IterInfo {
        IterInfo {
            container: Name::from(container),
            validity: Validity::Valid,
            at_end,
        }
    }

    /// Join two states of the same iterator name. Pointing at different
    /// containers on different paths loses track of the handle.
    fn join(&self, other: &IterInfo) -> IterInfo {
        let mut validity = self.validity.join(other.validity);
        if self.container != other.container {
            validity = validity.join(Validity::MaybeSingular);
        }
        IterInfo {
            container: self.container.clone(),
            validity,
            at_end: self.at_end.join(other.at_end),
        }
    }

    /// Declared on one path only: usable only maybe.
    fn one_sided(&self) -> IterInfo {
        IterInfo {
            validity: self.validity.join(Validity::MaybeSingular),
            ..self.clone()
        }
    }
}

/// The full abstract state at a program point.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AbsState {
    containers: BTreeMap<Name, ContainerInfo>,
    iters: BTreeMap<Name, IterInfo>,
}

impl AbsState {
    /// Join two states (after a branch, or loop back-edge).
    fn join(&self, other: &AbsState) -> AbsState {
        let mut out = other.clone();
        for (name, a) in &self.containers {
            let merged = match other.containers.get(name) {
                Some(b) => ContainerInfo {
                    kind: a.kind,
                    sorted: a.sorted.join(b.sorted),
                    maybe_empty: a.maybe_empty || b.maybe_empty,
                },
                None => a.clone(),
            };
            out.containers.insert(name.clone(), merged);
        }
        for (name, b) in &other.iters {
            if !self.iters.contains_key(name) {
                out.iters.insert(name.clone(), b.one_sided());
            }
        }
        for (name, a) in &self.iters {
            let merged = match other.iters.get(name) {
                Some(b) => a.join(b),
                None => a.one_sided(),
            };
            out.iters.insert(name.clone(), merged);
        }
        out
    }

    /// Every iterator into `container` becomes singular (the per-kind
    /// policies decide when this is called).
    fn invalidate(&mut self, container: &str) {
        for it in self.iters.values_mut() {
            if *it.container == *container {
                it.validity = Validity::Singular;
            }
        }
    }
}

fn unknown(rep: &mut Reporter, what: &str, name: &str) {
    rep.report(
        Severity::Error,
        DiagnosticCode::UnknownName,
        name,
        format!("use of undeclared {what} `{name}`"),
    );
}

fn invalidates_all(kind: Option<ContainerKind>) -> bool {
    matches!(kind, Some(ContainerKind::Vector | ContainerKind::Deque))
}

/// Check a dereference (`deref`) or advance of iterator `name`.
fn check_iter_use(rep: &mut Reporter, state: &AbsState, name: &str, deref: bool) {
    let Some(it) = state.iters.get(name) else {
        return unknown(rep, "iterator", name);
    };
    let (singular, past_end) = if deref {
        (DiagnosticCode::DerefSingular, DiagnosticCode::DerefPastEnd)
    } else {
        (
            DiagnosticCode::AdvanceSingular,
            DiagnosticCode::AdvancePastEnd,
        )
    };
    let singular_msg = |maybe: &str| {
        if deref {
            MSG_SINGULAR.to_string()
        } else {
            format!("attempt to advance a {maybe}singular iterator (`{name}`)")
        }
    };
    match it.validity {
        Validity::Singular => return rep.report(Severity::Error, singular, name, singular_msg("")),
        Validity::MaybeSingular => {
            rep.report(Severity::Warning, singular, name, singular_msg("possibly "))
        }
        Validity::Valid => {}
    }
    match it.at_end {
        AtEnd::Yes => rep.report(
            Severity::Error,
            past_end,
            name,
            if deref {
                MSG_PAST_END.to_string()
            } else {
                format!("attempt to advance past the end (`{name}`)")
            },
        ),
        AtEnd::Maybe if deref => {
            rep.report(Severity::Warning, past_end, name, MSG_PAST_END.to_string())
        }
        _ => {}
    }
}

fn exec_block(rep: &mut Reporter, stmts: &[Stmt], state: &mut AbsState) {
    for s in stmts {
        exec(rep, s, state);
    }
}

fn exec(rep: &mut Reporter, stmt: &Stmt, state: &mut AbsState) {
    match stmt {
        Stmt::DeclContainer { name, kind } => {
            let info = ContainerInfo {
                kind: *kind,
                sorted: Sortedness::Unknown,
                maybe_empty: true,
            };
            state.containers.insert(name.clone(), info);
        }
        Stmt::DeclIter {
            name,
            container,
            pos,
        } => {
            let Some(c) = state.containers.get(container) else {
                return unknown(rep, "container", container);
            };
            let at_end = match pos {
                PosExpr::Begin if c.maybe_empty => AtEnd::Maybe,
                PosExpr::Begin => AtEnd::No,
                PosExpr::End => AtEnd::Yes,
                PosExpr::SearchResult => AtEnd::Maybe,
            };
            state
                .iters
                .insert(name.clone(), IterInfo::new(container, at_end));
        }
        Stmt::Advance { iter } => {
            check_iter_use(rep, state, iter, false);
            if let Some(it) = state.iters.get_mut(iter) {
                if it.at_end != AtEnd::Yes {
                    it.at_end = AtEnd::Maybe;
                }
            }
        }
        Stmt::Deref { iter } => check_iter_use(rep, state, iter, true),
        Stmt::Erase {
            container,
            iter,
            capture,
        } => {
            check_iter_use(rep, state, iter, true); // erase dereferences
            match state.containers.get(container).map(|c| c.kind) {
                Some(ContainerKind::Vector | ContainerKind::Deque) => state.invalidate(container),
                Some(ContainerKind::List) => {
                    // Only the erased position dies.
                    if let Some(it) = state.iters.get_mut(iter) {
                        it.validity = Validity::Singular;
                    }
                }
                None => return unknown(rep, "container", container),
            }
            if let Some(cap) = capture {
                state
                    .iters
                    .insert(cap.clone(), IterInfo::new(container, AtEnd::Maybe));
            }
            // Erasing preserves sortedness; the container may now be empty.
            if let Some(c) = state.containers.get_mut(container) {
                c.maybe_empty = true;
            }
        }
        Stmt::Insert { container, iter } => {
            check_iter_use(rep, state, iter, false);
            if invalidates_all(state.containers.get(container).map(|c| c.kind)) {
                state.invalidate(container);
            }
            if let Some(c) = state.containers.get_mut(container) {
                c.sorted = Sortedness::Unknown;
                c.maybe_empty = false;
            }
        }
        Stmt::PushBack { container } => {
            if invalidates_all(state.containers.get(container).map(|c| c.kind)) {
                state.invalidate(container);
            }
            match state.containers.get_mut(container) {
                Some(c) => {
                    c.sorted = Sortedness::Unsorted;
                    c.maybe_empty = false;
                }
                None => unknown(rep, "container", container),
            }
        }
        Stmt::Clear { container } => {
            if !state.containers.contains_key(container) {
                return unknown(rep, "container", container);
            }
            state.invalidate(container);
            let c = state.containers.get_mut(container).expect("checked");
            // An empty sequence is vacuously sorted.
            c.sorted = Sortedness::Sorted;
            c.maybe_empty = true;
        }
        Stmt::Assign { dst, src } => match state.iters.get(src).cloned() {
            Some(info) => {
                state.iters.insert(dst.clone(), info);
            }
            None => unknown(rep, "iterator", src),
        },
        Stmt::Call {
            algorithm,
            container,
            capture,
        } => exec_algorithm(rep, *algorithm, container, capture.as_deref(), state),
        Stmt::While { cond, body } => exec_while(rep, cond, body, state),
        Stmt::If {
            then_branch,
            else_branch,
        } => {
            let mut s_then = state.clone();
            let mut s_else = state.clone();
            exec_block(rep, then_branch, &mut s_then);
            exec_block(rep, else_branch, &mut s_else);
            *state = s_then.join(&s_else);
        }
        // No function definitions are in scope, so any invoke targets an
        // unknown function — matching what the interprocedural resolver
        // reports.
        Stmt::Invoke { function, .. } => rep.report(
            Severity::Error,
            DiagnosticCode::BadInvoke,
            &**function,
            format!("invoke of unknown function `{function}`"),
        ),
    }
}

/// Entry/exit handlers per algorithm (§3.1: "entry handlers check
/// preconditions and exit handlers check/enforce postconditions").
fn exec_algorithm(
    rep: &mut Reporter,
    alg: AlgorithmName,
    container: &str,
    capture: Option<&str>,
    state: &mut AbsState,
) {
    let Some(c) = state.containers.get(container).cloned() else {
        return unknown(rep, "container", container);
    };
    match alg {
        AlgorithmName::Sort => {
            // Exit handler: sortedness installed.
            if let Some(cm) = state.containers.get_mut(container) {
                cm.sorted = Sortedness::Sorted;
            }
        }
        // §3.2: suggest the asymptotically better algorithm.
        AlgorithmName::Find if c.sorted == Sortedness::Sorted => rep.report(
            Severity::Suggestion,
            DiagnosticCode::SortedLinearSearch,
            format!("find({container})"),
            MSG_SORTED_LINEAR.to_string(),
        ),
        AlgorithmName::LowerBound | AlgorithmName::BinarySearch => {
            // Entry handler: sortedness required.
            let (severity, verdict) = match c.sorted {
                Sortedness::Sorted => (None, ""),
                Sortedness::Unsorted => (Some(Severity::Error), "it is not"),
                Sortedness::Unknown => (Some(Severity::Warning), "it may not be"),
            };
            if let Some(severity) = severity {
                rep.report(
                    severity,
                    DiagnosticCode::RequiresSorted,
                    format!("{}({container})", alg.as_str()),
                    format!(
                        "algorithm `{}` requires the sequence to be sorted, but {verdict}",
                        alg.as_str()
                    ),
                );
            }
        }
        AlgorithmName::Unique => {
            if c.sorted != Sortedness::Sorted {
                rep.report(
                    Severity::Warning,
                    DiagnosticCode::RequiresSorted,
                    format!("unique({container})"),
                    "algorithm `unique` removes only adjacent duplicates; on an unsorted \
                     sequence this is unlikely to be the intended full deduplication"
                        .to_string(),
                );
            }
            if invalidates_all(Some(c.kind)) {
                state.invalidate(container);
            }
        }
        AlgorithmName::Find | AlgorithmName::MaxElement => {}
    }
    if let Some(cap) = capture {
        state
            .iters
            .insert(Name::from(cap), IterInfo::new(container, AtEnd::Maybe));
    }
}

fn exec_while(rep: &mut Reporter, cond: &Cond, body: &[Stmt], state: &mut AbsState) {
    const MAX_PASSES: usize = 6;
    let iter = match cond {
        Cond::IterNotEnd { iter } => Some(iter),
        Cond::Unknown => None,
    };
    let mut loop_state = state.clone();
    for _ in 0..MAX_PASSES {
        let mut body_state = loop_state.clone();
        // Condition refinement on loop entry: `iter != end` means the
        // iterator is dereferenceable inside the body.
        if let Some(it) = iter.and_then(|i| body_state.iters.get_mut(i)) {
            if it.at_end != AtEnd::Yes {
                it.at_end = AtEnd::No;
            }
        }
        exec_block(rep, body, &mut body_state);
        let next = loop_state.join(&body_state);
        if next == loop_state {
            break;
        }
        loop_state = next;
    }
    // Exit refinement: the condition is false.
    if let Some(it) = iter.and_then(|i| loop_state.iters.get_mut(i)) {
        it.at_end = AtEnd::Yes;
    }
    *state = loop_state;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_join_detects_container_divergence() {
        let a = IterInfo::new("c", AtEnd::No);
        let b = IterInfo::new("d", AtEnd::No); // points elsewhere on the other path
        assert_eq!(a.join(&b).validity, Validity::MaybeSingular);
    }

    #[test]
    fn state_join_handles_one_sided_declarations() {
        let mut a = AbsState::default();
        a.iters.insert("it".into(), IterInfo::new("c", AtEnd::No));
        let b = AbsState::default();
        assert_eq!(a.join(&b).iters["it"].validity, Validity::MaybeSingular);
        assert_eq!(b.join(&a).iters["it"].validity, Validity::MaybeSingular);
    }

    #[test]
    fn container_join_ors_maybe_empty() {
        let mk = |maybe_empty| ContainerInfo {
            kind: ContainerKind::Vector,
            sorted: Sortedness::Unknown,
            maybe_empty,
        };
        let mut a = AbsState::default();
        a.containers.insert("c".into(), mk(false));
        let mut b = AbsState::default();
        b.containers.insert("c".into(), mk(true));
        assert!(a.join(&b).containers["c"].maybe_empty);
    }
}
