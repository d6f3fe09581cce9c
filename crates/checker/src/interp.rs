//! The checker's one analysis engine: symbolic per-instance abstract
//! interpretation, SCC fixpoints with widening, the parallel bottom-up
//! driver, and the public entry points. A program without functions is
//! analyzed as its implicit `main` instance.
//!
//! Each `(function, context)` instance is analyzed once by a
//! flow-sensitive abstract interpreter over the [`crate::state`]
//! lattices: facts that depend on the caller flow through [`Sym`]
//! values, checks that land on symbolic facts are deferred into the
//! instance's [`Summary`], and everything concrete is recorded
//! immediately. Summaries are a *pure function* of the body,
//! the context, and the callee summaries — which is what makes the SCC
//! schedule parallelizable with bit-identical output, and the
//! [`SummaryCache`] reusable across requests.

use crate::analyze::{Diagnostic, DiagnosticCode, Reporter, Severity};
use crate::callgraph::{
    self, external_container, InstanceGraph, Resolution, Schedule, MAX_LOOP_PASSES,
};
use crate::ir::{
    first_duplicate, AlgorithmName, Cond, ContainerKind, Functions, Name, PosExpr, Program, Stmt,
};
use crate::state::{AtEnd, Sortedness, Validity};
use crate::summary::{
    content_check, content_hash_stmts, global_cache, iter_check_events, keyed, sort_check_events,
    CallCtx, ContainerEffect, Event, IterEffect, ParamBinding, ParamEffect, Summary, SummaryCache,
    SummaryKey,
};
use crate::sym::{at_end_after_advance, at_end_of_begin, kind_invalidates_all, Lat3, Sym};
use gp_core::hash::{Fnv, FnvMap};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// Configuration for the interprocedural analysis.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Maximum call-graph depth at which new calling contexts may be
    /// created; exceeding it is [`CheckError::ContextDepth`].
    pub max_context_depth: usize,
    /// Maximum fixpoint passes over one SCC; exceeding it is
    /// [`CheckError::FixpointDiverged`].
    pub max_fixpoint_passes: usize,
    /// Apply the widening join after [`WIDEN_DELAY`] passes (disable
    /// only to demonstrate the divergence guard).
    pub widen: bool,
    /// Analyze same-height SCC batches on the gp-parallel global pool.
    pub parallel: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_context_depth: 1 << 20,
            max_fixpoint_passes: 64,
            widen: true,
            parallel: false,
        }
    }
}

impl CheckConfig {
    fn validate(&self) -> Result<(), CheckError> {
        if self.max_context_depth == 0 {
            return Err(CheckError::Config(
                "max_context_depth must be at least 1".into(),
            ));
        }
        if self.max_fixpoint_passes == 0 {
            return Err(CheckError::Config(
                "max_fixpoint_passes must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Passes before the widening join kicks in (raw replacement first — it
/// converges faster when the transfer is already monotone).
pub const WIDEN_DELAY: usize = 3;

/// Why the interprocedural analysis gave up (never a panic or a hang).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// Invalid configuration or program structure.
    Config(String),
    /// Context discovery exceeded `max_context_depth`.
    ContextDepth {
        /// The configured limit.
        limit: usize,
    },
    /// An SCC fixpoint did not converge within `max_fixpoint_passes`.
    FixpointDiverged {
        /// A function in the diverging SCC.
        function: String,
        /// The configured pass limit.
        passes: usize,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Config(m) => write!(f, "invalid checker configuration: {m}"),
            CheckError::ContextDepth { limit } => write!(
                f,
                "max_context_depth ({limit}) exceeded while expanding calling contexts"
            ),
            CheckError::FixpointDiverged { function, passes } => write!(
                f,
                "summary fixpoint for `{function}` did not converge within {passes} passes \
                 (is widening disabled?)"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// Pre-resolved telemetry handles (statement execution is the hot path).
struct IpMetrics {
    /// Engine runs (one per analyzed program).
    runs: &'static gp_telemetry::Counter,
    /// IR statements abstractly executed (loop passes revisit statements).
    stmts: &'static gp_telemetry::Counter,
    /// Fixpoint passes over `while` bodies.
    loop_passes: &'static gp_telemetry::Counter,
    /// Abstract states materialized (clones for branches and loop bodies).
    states: &'static gp_telemetry::Counter,
    fn_analyzed: &'static gp_telemetry::Counter,
    scc_count: &'static gp_telemetry::Counter,
    par_batches: &'static gp_telemetry::Counter,
    widened: &'static gp_telemetry::Counter,
}

fn ip_metrics() -> &'static IpMetrics {
    static METRICS: std::sync::OnceLock<IpMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| IpMetrics {
        runs: gp_telemetry::counter("checker.runs"),
        stmts: gp_telemetry::counter("checker.stmts"),
        loop_passes: gp_telemetry::counter("checker.loop_passes"),
        states: gp_telemetry::counter("checker.states"),
        fn_analyzed: gp_telemetry::counter("checker.fn.analyzed"),
        scc_count: gp_telemetry::counter("checker.scc.count"),
        par_batches: gp_telemetry::counter("checker.scc.par_batches"),
        widened: gp_telemetry::counter("checker.widen.applied"),
    })
}

/// Prefix a body-relative subject with the callee path segment, capping
/// the path at 4 segments (`f::…::x::y`) so deep symbolic chains cannot
/// grow subjects — and summary sizes — linearly in call depth.
pub(crate) fn prefix_subject(fname: &str, subject: &str) -> String {
    let (mut segs, mut prev, mut last) = (0, "", "");
    for seg in subject.split("::") {
        (segs, prev, last) = (segs + 1, last, seg);
    }
    // `::…::` is 7 bytes: one allocation covers either shape.
    let mut out = String::with_capacity(fname.len() + subject.len() + 7);
    out.push_str(fname);
    if segs >= 4 {
        out.push_str("::…::");
        out.push_str(prev);
        out.push_str("::");
        out.push_str(last);
    } else {
        out.push_str("::");
        out.push_str(subject);
    }
    out
}

/// Abstract container state (sortedness and emptiness may be symbolic).
#[derive(Clone, Debug, PartialEq, Eq)]
struct SymContainer {
    kind: ContainerKind,
    sorted: Sym<Sortedness>,
    maybe_empty: Sym<bool>,
}

/// Abstract iterator state, plus `pos_of`: the iterator
/// *parameter* whose entry position this value still denotes (erasing
/// that position must escape to the caller's copy).
#[derive(Clone, Debug, PartialEq, Eq)]
struct SymIter {
    container: Name,
    validity: Sym<Validity>,
    at_end: Sym<AtEnd>,
    pos_of: Option<u8>,
}

impl SymIter {
    fn join(&self, other: &SymIter) -> SymIter {
        let mut validity = self.validity.join(other.validity);
        if self.container != other.container {
            validity = validity.join(Sym::Const(Validity::MaybeSingular));
        }
        SymIter {
            container: self.container.clone(),
            validity,
            at_end: self.at_end.join(other.at_end),
            pos_of: if self.pos_of == other.pos_of {
                self.pos_of
            } else {
                None
            },
        }
    }
}

/// The abstract state at a program point: containers and iterators in
/// scope, plus the running per-parameter effect accumulators
/// (path-sensitive, so they live in the joined state, not on the
/// analyzer).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct SymState {
    containers: BTreeMap<Name, SymContainer>,
    iters: BTreeMap<Name, SymIter>,
    /// Per-parameter: did this path invalidate the container argument?
    inval: Vec<Lat3>,
    /// Per-parameter: did this path erase the iterator argument's position?
    pos_erased: Vec<Lat3>,
}

impl SymState {
    /// Join two states (after a branch, or a loop back-edge). An iterator
    /// declared on one path only, or aimed at different containers on the
    /// two paths, degrades to maybe-singular; the effect accumulators join
    /// pointwise.
    fn join(&self, other: &SymState) -> SymState {
        let mut out = SymState {
            inval: self
                .inval
                .iter()
                .zip(&other.inval)
                .map(|(a, b)| a.join(*b))
                .collect(),
            pos_erased: self
                .pos_erased
                .iter()
                .zip(&other.pos_erased)
                .map(|(a, b)| a.join(*b))
                .collect(),
            ..SymState::default()
        };
        for (name, a) in &self.containers {
            let merged = match other.containers.get(name) {
                Some(b) => SymContainer {
                    kind: a.kind,
                    sorted: a.sorted.join(b.sorted),
                    maybe_empty: a.maybe_empty.join(b.maybe_empty),
                },
                None => a.clone(),
            };
            out.containers.insert(name.clone(), merged);
        }
        for (name, b) in &other.containers {
            out.containers
                .entry(name.clone())
                .or_insert_with(|| b.clone());
        }
        for (name, a) in &self.iters {
            let merged = match other.iters.get(name) {
                Some(b) => a.join(b),
                None => SymIter {
                    validity: a.validity.join(Sym::Const(Validity::MaybeSingular)),
                    ..a.clone()
                },
            };
            out.iters.insert(name.clone(), merged);
        }
        for (name, b) in &other.iters {
            out.iters.entry(name.clone()).or_insert_with(|| SymIter {
                validity: b.validity.join(Sym::Const(Validity::MaybeSingular)),
                ..b.clone()
            });
        }
        out
    }
}

fn init_state(params: &[Name], ctx: &CallCtx) -> SymState {
    let mut st = SymState {
        inval: vec![Lat3::No; ctx.0.len()],
        pos_erased: vec![Lat3::No; ctx.0.len()],
        ..SymState::default()
    };
    for (i, (name, b)) in params.iter().zip(&ctx.0).enumerate() {
        match b {
            ParamBinding::Container { kind } => {
                st.containers.insert(
                    name.clone(),
                    SymContainer {
                        kind: *kind,
                        sorted: Sym::Entry(i as u8),
                        maybe_empty: Sym::Entry(i as u8),
                    },
                );
            }
            ParamBinding::Iter { into } => {
                let container = match into {
                    Some(j) => params[*j as usize].clone(),
                    None => external_container(i),
                };
                st.iters.insert(
                    name.clone(),
                    SymIter {
                        container,
                        validity: Sym::Entry(i as u8),
                        at_end: Sym::Entry(i as u8),
                        pos_of: Some(i as u8),
                    },
                );
            }
        }
    }
    st
}

/// Shared per-run context for instance analysis.
struct IpCtx<'a> {
    functions: &'a Functions,
    main_stmts: &'a [Stmt],
    graph: &'a InstanceGraph,
}

impl<'a> IpCtx<'a> {
    fn params_body(&self, fn_idx: usize) -> (&'a [Name], &'a [Stmt]) {
        if fn_idx == self.functions.len() {
            (&[], self.main_stmts)
        } else {
            (&self.functions[fn_idx].params, &self.functions[fn_idx].body)
        }
    }

    fn fn_name(&self, fn_idx: usize) -> &'a str {
        if fn_idx == self.functions.len() {
            "main"
        } else {
            &self.functions[fn_idx].name
        }
    }
}

/// The symbolic analyzer for one instance body.
struct InstanceAnalyzer<'a, 'b> {
    ip: &'a IpCtx<'a>,
    params: &'a [Name],
    /// Container-parameter name → parameter index (stable for the whole
    /// body: shadowing declarations are rejected).
    ctr_param: HashMap<&'a str, u8>,
    lookup: &'b dyn Fn(usize) -> Option<Arc<Summary>>,
    own: Vec<Event>,
    own_seen: HashSet<Event>,
    deferred: Vec<Event>,
    def_seen: HashSet<Event>,
}

impl<'a, 'b> InstanceAnalyzer<'a, 'b> {
    fn new(
        ip: &'a IpCtx<'a>,
        params: &'a [Name],
        ctx: &CallCtx,
        lookup: &'b dyn Fn(usize) -> Option<Arc<Summary>>,
    ) -> Self {
        let mut ctr_param = HashMap::new();
        for (i, (name, b)) in params.iter().zip(&ctx.0).enumerate() {
            if matches!(b, ParamBinding::Container { .. }) {
                ctr_param.insert(&**name, i as u8);
            }
        }
        InstanceAnalyzer {
            ip,
            params,
            ctr_param,
            lookup,
            own: Vec::new(),
            own_seen: HashSet::new(),
            deferred: Vec::new(),
            def_seen: HashSet::new(),
        }
    }

    fn record_own(&mut self, e: Event) {
        if self.own_seen.insert(e.clone()) {
            self.own.push(e);
        }
    }

    fn record_deferred(&mut self, e: Event) {
        if self.def_seen.insert(e.clone()) {
            self.deferred.push(e);
        }
    }

    fn diag(&mut self, severity: Severity, code: DiagnosticCode, subject: &str, message: String) {
        self.record_own(Event::Diag {
            severity,
            code,
            subject: subject.to_string(),
            message: message.into(),
        });
    }

    fn is_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| **p == *name)
    }

    /// Reports (and skips) a declaration that would shadow a parameter.
    fn reject_shadow(&mut self, name: &str) -> bool {
        if self.is_param(name) {
            self.diag(
                Severity::Error,
                DiagnosticCode::ShadowedParam,
                name,
                format!("declaration of `{name}` shadows a function parameter"),
            );
            true
        } else {
            false
        }
    }

    /// Check an iterator use: concrete facts run the decision table
    /// ([`iter_check_events`]) now; anything caller-dependent is
    /// deferred whole (the table runs at resolution).
    fn check_iter_use(&mut self, state: &SymState, name: &str, deref: bool) {
        let Some(it) = state.iters.get(name) else {
            self.diag(
                Severity::Error,
                DiagnosticCode::UnknownName,
                name,
                format!("use of undeclared iterator `{name}`"),
            );
            return;
        };
        match (it.validity.as_const(), it.at_end.as_const()) {
            (Some(v), Some(e)) => {
                let mut evs = Vec::new();
                iter_check_events(deref, name, v, e, &mut evs);
                for ev in evs {
                    self.record_own(ev);
                }
            }
            _ => self.record_deferred(Event::IterCheck {
                deref,
                subject: name.to_string(),
                validity: it.validity,
                at_end: it.at_end,
            }),
        }
    }

    fn invalidate(state: &mut SymState, container: &str) {
        for it in state.iters.values_mut() {
            if *it.container == *container {
                it.validity = Sym::Const(Validity::Singular);
            }
        }
    }

    /// Record an invalidation effect when the container is a parameter.
    fn note_inval(&self, state: &mut SymState, container: &str, ev: Lat3) {
        if let Some(&i) = self.ctr_param.get(container) {
            let slot = &mut state.inval[i as usize];
            *slot = slot.seq(ev);
        }
    }

    fn unknown_container(&mut self, container: &str) {
        self.diag(
            Severity::Error,
            DiagnosticCode::UnknownName,
            container,
            format!("use of undeclared container `{container}`"),
        );
    }

    fn exec_block(&mut self, stmts: &[Stmt], state: &mut SymState) {
        for s in stmts {
            self.exec(s, state);
        }
    }

    fn exec(&mut self, stmt: &Stmt, state: &mut SymState) {
        ip_metrics().stmts.incr();
        match stmt {
            Stmt::DeclContainer { name, kind } => {
                if self.reject_shadow(name) {
                    return;
                }
                state.containers.insert(
                    name.clone(),
                    SymContainer {
                        kind: *kind,
                        sorted: Sym::Const(Sortedness::Unknown),
                        maybe_empty: Sym::Const(true),
                    },
                );
            }
            Stmt::DeclIter {
                name,
                container,
                pos,
            } => {
                if self.reject_shadow(name) {
                    return;
                }
                let Some(c) = state.containers.get(container) else {
                    self.unknown_container(container);
                    return;
                };
                let at_end = match pos {
                    PosExpr::Begin => at_end_of_begin(c.maybe_empty),
                    PosExpr::End => Sym::Const(AtEnd::Yes),
                    PosExpr::SearchResult => Sym::Const(AtEnd::Maybe),
                };
                state.iters.insert(
                    name.clone(),
                    SymIter {
                        container: container.clone(),
                        validity: Sym::Const(Validity::Valid),
                        at_end,
                        pos_of: None,
                    },
                );
            }
            Stmt::Advance { iter } => {
                self.check_iter_use(state, iter, false);
                if let Some(it) = state.iters.get_mut(iter) {
                    it.at_end = at_end_after_advance(it.at_end);
                    it.pos_of = None;
                }
            }
            Stmt::Deref { iter } => {
                self.check_iter_use(state, iter, true);
            }
            Stmt::Erase {
                container,
                iter,
                capture,
            } => {
                self.check_iter_use(state, iter, true); // erase dereferences
                let kind = state.containers.get(container).map(|c| c.kind);
                match kind {
                    Some(k) if kind_invalidates_all(k) => {
                        Self::invalidate(state, container);
                        self.note_inval(state, container, Lat3::Must);
                    }
                    Some(_) => {
                        // Node-based: only the erased position dies — in
                        // the callee, and (via pos_erased) in the caller.
                        let pos = state.iters.get(iter).and_then(|it| it.pos_of);
                        if let Some(j) = pos {
                            let slot = &mut state.pos_erased[j as usize];
                            *slot = slot.seq(Lat3::Must);
                        }
                        if let Some(it) = state.iters.get_mut(iter) {
                            it.validity = Sym::Const(Validity::Singular);
                            it.pos_of = None;
                        }
                    }
                    None => {
                        self.unknown_container(container);
                        return;
                    }
                }
                if let Some(cap) = capture {
                    if !self.reject_shadow(cap) {
                        state.iters.insert(
                            cap.clone(),
                            SymIter {
                                container: container.clone(),
                                validity: Sym::Const(Validity::Valid),
                                at_end: Sym::Const(AtEnd::Maybe),
                                pos_of: None,
                            },
                        );
                    }
                }
                if let Some(c) = state.containers.get_mut(container) {
                    c.maybe_empty = Sym::Const(true);
                }
            }
            Stmt::Insert { container, iter } => {
                self.check_iter_use(state, iter, false);
                let kind = state.containers.get(container).map(|c| c.kind);
                if kind.is_some_and(kind_invalidates_all) {
                    Self::invalidate(state, container);
                    self.note_inval(state, container, Lat3::Must);
                }
                if let Some(c) = state.containers.get_mut(container) {
                    c.sorted = Sym::Const(Sortedness::Unknown);
                    c.maybe_empty = Sym::Const(false);
                }
            }
            Stmt::PushBack { container } => {
                let kind = state.containers.get(container).map(|c| c.kind);
                if kind.is_some_and(kind_invalidates_all) {
                    Self::invalidate(state, container);
                    self.note_inval(state, container, Lat3::Must);
                }
                if let Some(c) = state.containers.get_mut(container) {
                    c.sorted = Sym::Const(Sortedness::Unsorted);
                    c.maybe_empty = Sym::Const(false);
                } else {
                    self.unknown_container(container);
                }
            }
            Stmt::Clear { container } => {
                if state.containers.contains_key(container) {
                    Self::invalidate(state, container);
                    self.note_inval(state, container, Lat3::Must);
                    let c = state.containers.get_mut(container).expect("checked");
                    c.sorted = Sym::Const(Sortedness::Sorted);
                    c.maybe_empty = Sym::Const(true);
                } else {
                    self.unknown_container(container);
                }
            }
            Stmt::Assign { dst, src } => {
                if let Some(info) = state.iters.get(src).cloned() {
                    state.iters.insert(dst.clone(), info);
                } else {
                    self.diag(
                        Severity::Error,
                        DiagnosticCode::UnknownName,
                        src,
                        format!("use of undeclared iterator `{src}`"),
                    );
                }
            }
            Stmt::Call {
                algorithm,
                container,
                capture,
            } => {
                self.exec_algorithm(*algorithm, container, capture.as_deref(), state);
            }
            Stmt::While { cond, body } => {
                let mut loop_state = state.clone();
                for _ in 0..MAX_LOOP_PASSES {
                    ip_metrics().loop_passes.incr();
                    ip_metrics().states.incr();
                    let mut body_state = loop_state.clone();
                    if let Cond::IterNotEnd { iter } = cond {
                        if let Some(it) = body_state.iters.get_mut(iter) {
                            // Seed refinement: `!= end` holds in the body
                            // unless the iterator is *known* at-end. A
                            // symbolic at_end refines too (reachability
                            // reading of the condition).
                            if it.at_end.as_const() != Some(AtEnd::Yes) {
                                it.at_end = Sym::Const(AtEnd::No);
                            }
                        }
                    }
                    self.exec_block(body, &mut body_state);
                    let next = loop_state.join(&body_state);
                    if next == loop_state {
                        break;
                    }
                    loop_state = next;
                }
                if let Cond::IterNotEnd { iter } = cond {
                    if let Some(it) = loop_state.iters.get_mut(iter) {
                        it.at_end = Sym::Const(AtEnd::Yes);
                    }
                }
                *state = loop_state;
            }
            Stmt::If {
                then_branch,
                else_branch,
            } => {
                ip_metrics().states.add(2);
                let mut s_then = state.clone();
                let mut s_else = state.clone();
                self.exec_block(then_branch, &mut s_then);
                self.exec_block(else_branch, &mut s_else);
                *state = s_then.join(&s_else);
            }
            Stmt::Invoke { function, args } => {
                let res = callgraph::resolve_invoke(
                    self.ip.functions,
                    self.ip.graph.function_ids(),
                    function,
                    args,
                    |n| state.containers.get(n).map(|c| c.kind),
                    |n| state.iters.get(n).map(|it| it.container.clone()),
                );
                match res {
                    Resolution::Bad(events) => {
                        for e in events {
                            self.record_own(e);
                        }
                    }
                    Resolution::Call { fn_idx, ctx } => {
                        let Some(&cid) = self.ids().get(&(fn_idx, ctx.clone())) else {
                            debug_assert!(false, "invoke resolved to an undiscovered instance");
                            return;
                        };
                        let Some(summary) = (self.lookup)(cid) else {
                            debug_assert!(false, "callee summary not ready");
                            return;
                        };
                        let callee = self.ip.fn_name(fn_idx);
                        self.apply_summary(state, callee, args, &ctx, &summary);
                    }
                }
            }
        }
    }

    fn ids(&self) -> &FnvMap<(usize, CallCtx), usize> {
        self.ip.graph.instance_ids()
    }

    /// The algorithm entry/exit handlers (§3.1: "entry handlers check
    /// preconditions and exit handlers check/enforce postconditions").
    fn exec_algorithm(
        &mut self,
        alg: AlgorithmName,
        container: &str,
        capture: Option<&str>,
        state: &mut SymState,
    ) {
        let Some(c) = state.containers.get(container).cloned() else {
            self.unknown_container(container);
            return;
        };
        match alg {
            AlgorithmName::Sort => {
                if let Some(cm) = state.containers.get_mut(container) {
                    cm.sorted = Sym::Const(Sortedness::Sorted);
                }
            }
            AlgorithmName::Find
            | AlgorithmName::LowerBound
            | AlgorithmName::BinarySearch
            | AlgorithmName::Unique => {
                let subject = format!("{}({container})", alg.as_str());
                match c.sorted.as_const() {
                    Some(s) => {
                        let mut evs = Vec::new();
                        sort_check_events(alg, &subject, s, &mut evs);
                        for ev in evs {
                            self.record_own(ev);
                        }
                    }
                    None => self.record_deferred(Event::SortCheck {
                        alg,
                        subject,
                        sorted: c.sorted,
                    }),
                }
                if alg == AlgorithmName::Unique && kind_invalidates_all(c.kind) {
                    Self::invalidate(state, container);
                    self.note_inval(state, container, Lat3::Must);
                }
            }
            AlgorithmName::MaxElement => {}
        }
        if let Some(cap) = capture {
            if !self.reject_shadow(cap) {
                state.iters.insert(
                    Name::from(cap),
                    SymIter {
                        container: Name::from(container),
                        validity: Sym::Const(Validity::Valid),
                        at_end: Sym::Const(AtEnd::Maybe),
                        pos_of: None,
                    },
                );
            }
        }
    }

    /// Apply a callee summary at a call site: resolve (or re-defer) its
    /// deferred checks against the caller's current symbolic facts, then
    /// apply its per-parameter effects.
    fn apply_summary(
        &mut self,
        state: &mut SymState,
        callee: &str,
        args: &[Name],
        ctx: &CallCtx,
        summary: &Summary,
    ) {
        let n = ctx.0.len();
        // Caller-side symbolic entry values per callee parameter (dummy
        // TOPs in slots of the other sort — never referenced: sortedness
        // syms only mention container params, validity/at_end only iter
        // params).
        let mut sort_in = vec![Sym::Const(Sortedness::Unknown); n];
        let mut empt_in = vec![Sym::Const(true); n];
        let mut valid_in = vec![Sym::Const(Validity::MaybeSingular); n];
        let mut end_in = vec![Sym::Const(AtEnd::Maybe); n];
        for (k, b) in ctx.0.iter().enumerate() {
            match b {
                ParamBinding::Container { .. } => {
                    let c = state.containers.get(&args[k]).expect("resolved container");
                    sort_in[k] = c.sorted;
                    empt_in[k] = c.maybe_empty;
                }
                ParamBinding::Iter { .. } => {
                    let it = state.iters.get(&args[k]).expect("resolved iterator");
                    valid_in[k] = it.validity;
                    end_in[k] = it.at_end;
                }
            }
        }
        for ev in &summary.deferred {
            match ev {
                Event::IterCheck {
                    deref,
                    subject,
                    validity,
                    at_end,
                } => {
                    let v = validity.compose(|i| valid_in[i as usize]);
                    let e = at_end.compose(|i| end_in[i as usize]);
                    let subject = prefix_subject(callee, subject);
                    match (v.as_const(), e.as_const()) {
                        (Some(cv), Some(ce)) => {
                            let mut evs = Vec::new();
                            iter_check_events(*deref, &subject, cv, ce, &mut evs);
                            for x in evs {
                                self.record_own(x);
                            }
                        }
                        _ => self.record_deferred(Event::IterCheck {
                            deref: *deref,
                            subject,
                            validity: v,
                            at_end: e,
                        }),
                    }
                }
                Event::SortCheck {
                    alg,
                    subject,
                    sorted,
                } => {
                    let s = sorted.compose(|i| sort_in[i as usize]);
                    let subject = prefix_subject(callee, subject);
                    match s.as_const() {
                        Some(cs) => {
                            let mut evs = Vec::new();
                            sort_check_events(*alg, &subject, cs, &mut evs);
                            for x in evs {
                                self.record_own(x);
                            }
                        }
                        None => self.record_deferred(Event::SortCheck {
                            alg: *alg,
                            subject,
                            sorted: s,
                        }),
                    }
                }
                Event::Diag { .. } => debug_assert!(false, "concrete diag in deferred list"),
            }
        }
        for (k, (b, eff)) in ctx.0.iter().zip(&summary.effects).enumerate() {
            match (b, eff) {
                (ParamBinding::Container { .. }, ParamEffect::Container(e)) => {
                    let arg = args[k].clone();
                    match e.inval {
                        Lat3::No => {}
                        Lat3::Must => {
                            Self::invalidate(state, &arg);
                            self.note_inval(state, &arg, Lat3::Must);
                        }
                        Lat3::May => {
                            for it in state.iters.values_mut() {
                                if it.container == arg {
                                    it.validity =
                                        it.validity.join(Sym::Const(Validity::MaybeSingular));
                                }
                            }
                            self.note_inval(state, &arg, Lat3::May);
                        }
                    }
                    let cm = state.containers.get_mut(&arg).expect("resolved container");
                    cm.sorted = e.sorted_out.compose(|i| sort_in[i as usize]);
                    cm.maybe_empty = e.maybe_empty_out.compose(|i| empt_in[i as usize]);
                }
                (ParamBinding::Iter { .. }, ParamEffect::Iter(e)) => {
                    if e.pos_erased == Lat3::No {
                        continue;
                    }
                    let arg = &args[k];
                    let pos = state.iters.get(arg).and_then(|it| it.pos_of);
                    // Every caller value still denoting that position
                    // dies with it (the argument itself when the
                    // position is purely local to the call).
                    let victims: Vec<Name> = match pos {
                        Some(j) => state
                            .iters
                            .iter()
                            .filter(|(_, it)| it.pos_of == Some(j))
                            .map(|(nm, _)| nm.clone())
                            .collect(),
                        None => vec![arg.clone()],
                    };
                    for nm in &victims {
                        let it = state.iters.get_mut(nm).expect("collected above");
                        match e.pos_erased {
                            Lat3::Must => it.validity = Sym::Const(Validity::Singular),
                            Lat3::May => {
                                it.validity = it.validity.join(Sym::Const(Validity::MaybeSingular));
                            }
                            Lat3::No => unreachable!(),
                        }
                    }
                    if let Some(j) = pos {
                        let slot = &mut state.pos_erased[j as usize];
                        *slot = slot.seq(e.pos_erased);
                    }
                }
                _ => debug_assert!(false, "summary effect does not match context binding"),
            }
        }
    }
}

fn extract_effects(state: &SymState, params: &[Name], ctx: &CallCtx) -> Vec<ParamEffect> {
    ctx.0
        .iter()
        .enumerate()
        .map(|(i, b)| match b {
            ParamBinding::Container { .. } => {
                let c = state
                    .containers
                    .get(&params[i])
                    .expect("parameters are never removed or shadowed");
                ParamEffect::Container(ContainerEffect {
                    inval: state.inval[i],
                    sorted_out: c.sorted,
                    maybe_empty_out: c.maybe_empty,
                })
            }
            ParamBinding::Iter { .. } => ParamEffect::Iter(IterEffect {
                pos_erased: state.pos_erased[i],
            }),
        })
        .collect()
}

/// Analyze one instance body under `ctx`, resolving callee instances
/// through `lookup`. Pure in `(body, ctx, lookup)` — the determinism,
/// parallelism, and caching arguments all rest on this.
fn compute_summary(
    ip: &IpCtx,
    inst_id: usize,
    lookup: &dyn Fn(usize) -> Option<Arc<Summary>>,
) -> Summary {
    ip_metrics().fn_analyzed.incr();
    let inst = &ip.graph.instances[inst_id];
    let (params, body) = ip.params_body(inst.fn_idx);
    let mut az = InstanceAnalyzer::new(ip, params, &inst.ctx, lookup);
    let mut state = init_state(params, &inst.ctx);
    az.exec_block(body, &mut state);
    Summary::new(
        az.own,
        az.deferred,
        extract_effects(&state, params, &inst.ctx),
    )
}

type SccResult = Result<Vec<(usize, Arc<Summary>)>, CheckError>;

/// Analyze one SCC whose summaries the cache does not hold: a worklist
/// fixpoint with widening after [`WIDEN_DELAY`] passes. Returns
/// `(instance, summary)` pairs in member order.
fn analyze_scc(
    ip: &IpCtx,
    scc: &[usize],
    finals: &[Option<Arc<Summary>>],
    cfg: &CheckConfig,
) -> SccResult {
    let recursive = scc.len() > 1 || ip.graph.edges[scc[0]].contains(&scc[0]);
    if !recursive {
        let id = scc[0];
        let lookup = |cid: usize| finals[cid].clone();
        let s = Arc::new(compute_summary(ip, id, &lookup));
        return Ok(vec![(id, s)]);
    }
    let mut local: HashMap<usize, Arc<Summary>> = scc
        .iter()
        .map(|&id| (id, Arc::new(Summary::identity(&ip.graph.instances[id].ctx))))
        .collect();
    for pass in 1..=cfg.max_fixpoint_passes {
        let mut changed = false;
        for &id in scc {
            let new = {
                let local_ref = &local;
                let lookup =
                    move |cid: usize| local_ref.get(&cid).cloned().or_else(|| finals[cid].clone());
                compute_summary(ip, id, &lookup)
            };
            let old = local.get(&id).expect("seeded").clone();
            let merged = if cfg.widen && pass >= WIDEN_DELAY {
                let w = old.widen(&new);
                if w != new {
                    ip_metrics().widened.incr();
                }
                w
            } else {
                new
            };
            if *old != merged {
                changed = true;
                local.insert(id, Arc::new(merged));
            }
        }
        if !changed {
            return Ok(scc.iter().map(|&id| (id, local[&id].clone())).collect());
        }
    }
    Err(CheckError::FixpointDiverged {
        function: ip.fn_name(ip.graph.instances[scc[0]].fn_idx).to_string(),
        passes: cfg.max_fixpoint_passes,
    })
}

/// Per body (`main` last): its (content hash, check digest). A
/// definition's are computed once and kept with it.
fn body_digests(program: &Program) -> Vec<(u64, u64)> {
    let functions = &program.functions;
    (0..functions.len())
        .map(|i| {
            let f = functions.facts(i);
            (f.content, f.check)
        })
        .chain([(
            content_hash_stmts(&program.stmts),
            content_check(&[], &program.stmts),
        )])
        .collect()
}

/// Feed a calling context to the keyed hasher: each binding packs into
/// 16 bits exactly, four to a word.
fn mix_ctx(k: &mut impl Hasher, ctx: &CallCtx) {
    k.write_usize(ctx.0.len());
    for chunk in ctx.0.chunks(4) {
        let mut w = 0u64;
        for b in chunk {
            let code: u16 = match *b {
                ParamBinding::Container { kind } => 0x100 | kind as u16,
                ParamBinding::Iter { into: None } => 0x200,
                ParamBinding::Iter { into: Some(j) } => 0x300 | u16::from(j),
            };
            w = w << 16 | u64::from(code);
        }
        k.write_u64(w);
    }
}

/// Fill the summary keys of SCC `c`'s members. The key hash is the SCC
/// fingerprint — per member, in SCC order: its body, context and call
/// resolutions, then each callee it reaches in call-site discovery order,
/// as the value digest of the callee's summary (all from lower heights)
/// or, for a callee inside the SCC, as its index there — mixed back with
/// each member's own body and context. The check digest reads the same
/// material through the keyed hasher (for a lone member, the
/// fingerprint's material is already all of it). Callees are fed in call
/// order because a summary applies its callees' effects in that order:
/// two programs that swap two callees' bodies under fixed names differ
/// only there. Keying callers by their callees' summary *values* rather
/// than keys means an edit that leaves a callee's summary unchanged
/// leaves its callers' keys unchanged too.
fn scc_keys(
    sched: &Schedule,
    c: usize,
    digests: &[(u64, u64)],
    finals: &[Option<Arc<Summary>>],
    keys: &mut [SummaryKey],
) {
    let graph = &sched.graph;
    let scc = &sched.sccs[c];
    let mut h = Fnv::new();
    let mut k = keyed();
    for &id in scc {
        let inst = &graph.instances[id];
        let (resolve, resolve_check) = sched.resolve(inst.fn_idx);
        h.write_u64(digests[inst.fn_idx].0);
        h.write_u64(inst.ctx.hash64());
        h.write_u64(resolve);
        k.write_u64(digests[inst.fn_idx].1);
        mix_ctx(&mut k, &inst.ctx);
        k.write_u64(resolve_check);
        let edges = &graph.edges[id];
        h.write_u64(edges.len() as u64);
        k.write_usize(edges.len());
        for &w in edges {
            match sched.place(w) {
                (wc, i) if wc == c => {
                    h.write_u8(1);
                    h.write_u64(i as u64);
                    k.write_u8(1);
                    k.write_usize(i);
                }
                _ => {
                    let (hash, check) = finals[w]
                        .as_ref()
                        .expect("callees are summarized first")
                        .digest();
                    h.write_u8(0);
                    h.write_u64(hash);
                    k.write_u8(0);
                    k.write_u64(hash);
                    k.write_u64(check);
                }
            }
        }
    }
    let scc_key = h.finish();
    for (i, &id) in scc.iter().enumerate() {
        let inst = &graph.instances[id];
        let mut hm = Fnv::new();
        hm.write_u64(scc_key);
        hm.write_u64(digests[inst.fn_idx].0);
        hm.write_u64(inst.ctx.hash64());
        let check = if scc.len() == 1 {
            k.finish()
        } else {
            let mut km = k.clone();
            km.write_usize(i);
            km.finish()
        };
        keys[id] = SummaryKey {
            hash: hm.finish(),
            check,
        };
    }
}

fn analyze_ip(
    program: &Program,
    cfg: &CheckConfig,
    cache: Option<&SummaryCache>,
) -> Result<Vec<Diagnostic>, CheckError> {
    ip_metrics().runs.incr();
    cfg.validate()?;
    let functions = &program.functions;
    // A flat program's `main` has no caller to reuse its summary, and a
    // repeat of the whole program is a response-cache hit: caching it
    // would only fill the cache.
    let cache = cache.filter(|_| !functions.is_empty());
    let calls = callgraph::call_flags(program);
    let digests = body_digests(program);
    let sched = callgraph::schedule(
        cache.map(|c| &c.schedules),
        program,
        &calls,
        digests[functions.len()].0,
        cfg.max_context_depth,
    )?;
    let graph = &sched.graph;
    for f in functions {
        if let Some(p) = first_duplicate(&f.params) {
            return Err(CheckError::Config(format!(
                "duplicate parameter `{p}` in function `{}`",
                f.name
            )));
        }
    }
    let ip = IpCtx {
        functions,
        main_stmts: &program.stmts,
        graph,
    };
    let sccs = &sched.sccs;
    ip_metrics().scc_count.add(sccs.len() as u64);
    let n = graph.instances.len();
    let mut finals: Vec<Option<Arc<Summary>>> = vec![None; n];
    let mut keys: Vec<SummaryKey> =
        vec![SummaryKey::default(); if cache.is_some() { n } else { 0 }];
    let mut misses: Vec<usize> = Vec::new();
    for batch in &sched.batches {
        // Probe every SCC of the batch first: only the misses are
        // analyzed, and only several misses go to the pool.
        misses.clear();
        match cache {
            Some(cache) => {
                for &c in batch {
                    scc_keys(&sched, c, &digests, &finals, &mut keys);
                }
                cache.probe(batch, sccs, &keys, &mut finals, &mut misses);
            }
            None => misses.extend_from_slice(batch),
        }
        // Merge in ascending SCC order — deterministic regardless of
        // parallel completion order; the first error (if any) is the one
        // the sequential schedule would hit.
        let merge = |r: Vec<(usize, Arc<Summary>)>, finals: &mut [Option<Arc<Summary>>]| {
            for (id, s) in r {
                if let Some(cache) = cache {
                    cache.insert(keys[id], s.clone());
                }
                finals[id] = Some(s);
            }
        };
        if cfg.parallel && misses.len() > 1 {
            ip_metrics().par_batches.incr();
            let ip_ref = &ip;
            let finals_ref: &[Option<Arc<Summary>>] = &finals;
            let results =
                gp_parallel::par::par_map(&misses, gp_parallel::pool::global().workers(), |&c| {
                    analyze_scc(ip_ref, &sccs[c], finals_ref, cfg)
                });
            for r in results {
                merge(r?, &mut finals);
            }
        } else {
            for &c in &misses {
                let r = analyze_scc(&ip, &sccs[c], &finals, cfg)?;
                merge(r, &mut finals);
            }
        }
    }
    // Emission: replay per-instance events, in discovery order, through
    // the deduplicating reporter. `main` (instance 0) emits
    // unprefixed, so flat programs reproduce the seed analyzer (the
    // `gp_bench::oracle` flat-program oracle) byte-for-byte.
    let events = finals.iter().flatten().map(|s| s.own_events.len()).sum();
    let mut rep = Reporter::with_capacity(events);
    for (id, inst) in graph.instances.iter().enumerate() {
        let summary = finals[id].as_ref().expect("all instances analyzed");
        let fname = (inst.fn_idx != functions.len()).then(|| ip.fn_name(inst.fn_idx));
        for ev in &summary.own_events {
            let Event::Diag {
                severity,
                code,
                subject,
                message,
            } = ev
            else {
                debug_assert!(false, "own_events holds only concrete diagnostics");
                continue;
            };
            let subject = match fname {
                Some(f) => prefix_subject(f, subject),
                None => subject.clone(),
            };
            rep.report(*severity, *code, subject, message.to_string());
        }
        debug_assert!(
            fname.is_some() || summary.deferred.is_empty(),
            "main has no parameters, so nothing can stay deferred"
        );
    }
    Ok(rep.into_diags())
}

/// Cold interprocedural analysis (no summary reuse).
pub fn analyze_program(
    program: &Program,
    cfg: &CheckConfig,
) -> Result<Vec<Diagnostic>, CheckError> {
    let _span = gp_telemetry::span!("analyze_ip");
    analyze_ip(program, cfg, None)
}

/// Interprocedural analysis against an explicit [`SummaryCache`] (tests,
/// embedders managing their own cache lifetime).
pub fn analyze_program_with_cache(
    program: &Program,
    cfg: &CheckConfig,
    cache: &SummaryCache,
) -> Result<Vec<Diagnostic>, CheckError> {
    let _span = gp_telemetry::span!("analyze_ip");
    analyze_ip(program, cfg, Some(cache))
}

/// Interprocedural analysis against the process-wide cache — the service
/// `lint` path, where summaries survive across requests.
pub fn analyze_program_cached(
    program: &Program,
    cfg: &CheckConfig,
) -> Result<Vec<Diagnostic>, CheckError> {
    let _span = gp_telemetry::span!("analyze_ip");
    analyze_ip(program, cfg, Some(global_cache()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{DiagnosticCode, Severity, MSG_SORTED_LINEAR};
    use crate::parse::parse;

    fn check(src: &str) -> Vec<Diagnostic> {
        let p = parse("t", src).expect("parse");
        analyze_program(&p, &CheckConfig::default()).expect("analysis converges")
    }

    #[test]
    fn self_recursion_terminates_with_default_config() {
        let diags = check(
            "fn f(C) {\n\
             \tpush_back C\n\
             \tinvoke f(C)\n\
             }\n\
             container V vector\n\
             invoke f(V)\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mutual_recursion_without_widening_hits_the_pass_cap() {
        // Starve the fixpoint: 1 pass is never enough for a recursive SCC
        // whose identity-initialized summaries change on the first pass.
        let p = parse(
            "t",
            "fn f(C) {\n\
             \tpush_back C\n\
             \tinvoke g(C)\n\
             }\n\
             fn g(C) {\n\
             \tinvoke f(C)\n\
             }\n\
             container V vector\n\
             invoke f(V)\n",
        )
        .unwrap();
        let cfg = CheckConfig {
            widen: false,
            max_fixpoint_passes: 1,
            ..CheckConfig::default()
        };
        match analyze_program(&p, &cfg) {
            Err(CheckError::FixpointDiverged { passes: 1, .. }) => {}
            other => panic!("expected FixpointDiverged, got {other:?}"),
        }
        // The same program converges once widening is allowed to run.
        let cfg = CheckConfig::default();
        analyze_program(&p, &cfg).expect("widening converges");
    }

    #[test]
    fn context_depth_limit_is_an_error_not_a_hang() {
        let p = parse(
            "t",
            "fn leaf(C) {\n\
             \tpush_back C\n\
             }\n\
             fn mid(C) {\n\
             \tinvoke leaf(C)\n\
             }\n\
             container V vector\n\
             invoke mid(V)\n",
        )
        .unwrap();
        let cfg = CheckConfig {
            max_context_depth: 1,
            ..CheckConfig::default()
        };
        match analyze_program(&p, &cfg) {
            Err(CheckError::ContextDepth { limit: 1 }) => {}
            other => panic!("expected ContextDepth, got {other:?}"),
        }
    }

    #[test]
    fn zero_limits_are_rejected_as_config_errors() {
        let p = parse("t", "container V vector\n").unwrap();
        for cfg in [
            CheckConfig {
                max_context_depth: 0,
                ..CheckConfig::default()
            },
            CheckConfig {
                max_fixpoint_passes: 0,
                ..CheckConfig::default()
            },
        ] {
            match analyze_program(&p, &cfg) {
                Err(CheckError::Config(_)) => {}
                other => panic!("expected Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_invokes_are_diagnostics_not_errors() {
        // The reporter dedups per (code, subject), so each
        // bad shape targets a distinct function.
        let diags = check(
            "fn f(A, B) {\n\
             \tpush_back A\n\
             \tpush_back B\n\
             }\n\
             fn g(A, B) {\n\
             \tpush_back A\n\
             \tpush_back B\n\
             }\n\
             container V vector\n\
             invoke nope(V)\n\
             invoke f(V)\n\
             invoke g(V, V)\n\
             invoke f(V, W)\n",
        );
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("unknown function `nope`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("1 argument(s), expected 2")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("more than once")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("undeclared name `W`")),
            "{msgs:?}"
        );
        assert!(diags
            .iter()
            .filter(|d| d.code == DiagnosticCode::BadInvoke)
            .all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn iterators_pass_by_value_so_callee_advance_is_invisible() {
        // `adv` moves only its own copy; the caller's `I` still points at
        // the first element and dereferences cleanly.
        let diags = check(
            "fn adv(I) {\n\
             \tadvance I\n\
             }\n\
             container L list\n\
             push_back L\n\
             iter I = begin L\n\
             invoke adv(I)\n\
             deref I\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        // Sanity: the same motion done in the caller itself *does* warn.
        let diags = check(
            "container L list\n\
             push_back L\n\
             iter I = begin L\n\
             advance I\n\
             deref I\n",
        );
        assert!(
            diags.iter().any(|d| d.code == DiagnosticCode::DerefPastEnd),
            "{diags:?}"
        );
    }

    #[test]
    fn list_erase_through_a_param_iter_kills_the_caller_copy() {
        // By-value copies still denote the same *position*; erasing that
        // position in the callee makes the caller's copy singular.
        let diags = check(
            "fn kill(L, I) {\n\
             \terase L I\n\
             }\n\
             container L list\n\
             push_back L\n\
             iter I = begin L\n\
             invoke kill(L, I)\n\
             deref I\n",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagnosticCode::DerefSingular && d.subject == "I"),
            "{diags:?}"
        );
    }

    #[test]
    fn container_mutation_in_callee_invalidates_caller_iterators() {
        let diags = check(
            "fn grow(C) {\n\
             \tpush_back C\n\
             }\n\
             container V vector\n\
             push_back V\n\
             iter I = begin V\n\
             invoke grow(V)\n\
             deref I\n",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagnosticCode::DerefSingular && d.subject == "I"),
            "{diags:?}"
        );
        // Lists do not invalidate on push_back: the same shape is clean.
        let diags = check(
            "fn grow(C) {\n\
             \tpush_back C\n\
             }\n\
             container L list\n\
             push_back L\n\
             iter I = begin L\n\
             invoke grow(L)\n\
             deref I\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sortedness_flows_through_summaries_both_ways() {
        // Callee establishes sortedness; caller's binary_search is clean.
        let diags = check(
            "fn sortit(C) {\n\
             \tcall sort C\n\
             }\n\
             container V vector\n\
             push_back V\n\
             invoke sortit(V)\n\
             call binary_search V\n",
        );
        assert!(
            !diags
                .iter()
                .any(|d| d.code == DiagnosticCode::RequiresSorted),
            "{diags:?}"
        );
        // Callee destroys sortedness; the caller's binary_search warns.
        let diags = check(
            "fn poke(C) {\n\
             \tpush_back C\n\
             }\n\
             container V vector\n\
             call sort V\n\
             invoke poke(V)\n\
             call binary_search V\n",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagnosticCode::RequiresSorted),
            "{diags:?}"
        );
    }

    #[test]
    fn shadowing_a_parameter_is_rejected() {
        let diags = check(
            "fn f(C) {\n\
             \tcontainer C vector\n\
             }\n\
             container V vector\n\
             invoke f(V)\n",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagnosticCode::ShadowedParam && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn flat_programs_stay_out_of_the_summary_cache() {
        let cfg = CheckConfig::default();
        let cache = SummaryCache::new(64);
        for k in 0..16 {
            let src = format!(
                "container V{k} vector\npush_back V{k}\ncall sort V{k}\ncall find V{k} -> i\n"
            );
            let p = parse("t", &src).expect("parse");
            let cold = analyze_program(&p, &cfg).unwrap();
            assert!(!cold.is_empty(), "{src}");
            assert_eq!(analyze_program_with_cache(&p, &cfg, &cache).unwrap(), cold);
        }
        assert!(cache.is_empty(), "{} flat summaries cached", cache.len());
    }

    #[test]
    fn cached_summaries_see_how_invokes_resolve() {
        // Neither a missing callee nor a wrong arity makes an edge, so
        // only the resolution part of the key tells these mains apart.
        let cfg = CheckConfig::default();
        let cache = SummaryCache::new(64);
        for src in [
            "container V vector\ninvoke g(V)\n",
            "fn g(A, B) {\n  push_back A\n}\ncontainer V vector\ninvoke g(V)\n",
            "fn g(A) {\n  push_back A\n}\ncontainer V vector\ninvoke g(V)\n",
            "container V vector\ninvoke g(V)\n",
        ] {
            let p = parse("t", src).expect("parse");
            assert_eq!(
                analyze_program_with_cache(&p, &cfg, &cache),
                analyze_program(&p, &cfg),
                "{src}"
            );
        }
    }

    #[test]
    fn cached_summaries_see_which_callee_each_call_reaches() {
        // Swapping two callees' bodies under fixed names changes nothing
        // in the caller but the order its callees' effects apply in:
        // sort-then-push leaves V unsorted, push-then-sort leaves it
        // sorted, and only then is the linear search flagged.
        let cfg = CheckConfig::default();
        let cache = SummaryCache::new(64);
        let program = |f: &str, g: &str| {
            format!(
                "fn f(A) {{\n  {f}\n}}\nfn g(A) {{\n  {g}\n}}\n\
                 fn mid(A) {{\n  invoke f(A)\n  invoke g(A)\n}}\n\
                 container V vector\ninvoke mid(V)\ncall find V -> i\n"
            )
        };
        let mut flagged = Vec::new();
        for src in [
            program("call sort A", "push_back A"),
            program("push_back A", "call sort A"),
        ] {
            let p = parse("t", &src).expect("parse");
            let cold = analyze_program(&p, &cfg).unwrap();
            assert_eq!(analyze_program_with_cache(&p, &cfg, &cache).unwrap(), cold);
            flagged.push(cold.iter().any(|d| d.message == MSG_SORTED_LINEAR));
        }
        assert_eq!(flagged, [false, true]);
    }

    #[test]
    fn an_edit_that_keeps_a_callee_summary_keeps_its_callers_cached() {
        let cfg = CheckConfig::default();
        let cache = SummaryCache::new(64);
        let src = "fn leaf(A) {\n  push_back A\n}\n\
                   fn mid(A) {\n  invoke leaf(A)\n}\n\
                   container V vector\ninvoke mid(V)\n";
        analyze_program_with_cache(&parse("t", src).unwrap(), &cfg, &cache).unwrap();
        assert_eq!(cache.len(), 3, "leaf, mid and main");
        // A new local in the leaf changes its content, not its summary:
        // only the leaf is keyed afresh, and mid and main hit.
        let edited = src.replace("  push_back A\n", "  push_back A\n  container t list\n");
        let p = parse("t", &edited).unwrap();
        let warm = analyze_program_with_cache(&p, &cfg, &cache).unwrap();
        assert_eq!(warm, analyze_program(&p, &cfg).unwrap());
        assert_eq!(cache.len(), 4, "one new summary: the edited leaf's");
        // An edit that does change the leaf's summary re-keys its callers.
        let changed = src.replace("  push_back A\n", "  clear A\n");
        let p = parse("t", &changed).unwrap();
        let warm = analyze_program_with_cache(&p, &cfg, &cache).unwrap();
        assert_eq!(warm, analyze_program(&p, &cfg).unwrap());
        assert_eq!(cache.len(), 7);
    }

    #[test]
    fn diagnostics_from_callees_carry_the_function_prefix() {
        let diags = check(
            "fn bad(L) {\n\
             \titer I = begin L\n\
             \terase L I\n\
             \tderef I\n\
             }\n\
             container L list\n\
             push_back L\n\
             invoke bad(L)\n",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagnosticCode::DerefSingular && d.subject == "bad::I"),
            "{diags:?}"
        );
    }
}
