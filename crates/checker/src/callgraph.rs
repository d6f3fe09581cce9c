//! Call-graph discovery and condensation for the interprocedural checker.
//!
//! Before any summaries are computed, a cheap *reduced* abstract
//! interpretation walks each reachable `(function, calling context)`
//! instance tracking only the name-level facts — which names are
//! containers of which kind, and which container each iterator points
//! into. That is exactly the information a calling context consists of
//! ([`CallCtx`]), and it is resolvable without the full analysis because
//! kinds are fixed at declaration and `invoke` never rebinds a caller
//! name (containers pass by reference, iterators by value — so an
//! `invoke` is a no-op in the reduced domain). The reduced transfer uses
//! the *same* join bias as the full analyzer (keep-self on existing
//! names) and the same loop pass cap, so every context the full symbolic
//! analyzer later computes at a call site is guaranteed to be among the
//! discovered instances.
//!
//! The instance graph is then condensed with an **iterative** Tarjan SCC
//! pass (the bench runs 10⁵-deep chains; recursion would overflow the
//! stack) into bottom-up order, and SCCs are grouped by condensation
//! height: SCCs at the same height share no edges, so each height batch
//! can be analyzed in parallel with bit-identical results.

use crate::analyze::{DiagnosticCode, Severity};
use crate::interp::CheckError;
use crate::ir::{ContainerKind, FunctionDef, Functions, Name, NameList, Program, Stmt};
use crate::summary::{CallCtx, Event, ParamBinding};
use gp_core::hash::{Fnv, FnvMap, FnvSet};
use std::collections::{BTreeMap, VecDeque};
use std::hash::Hasher;
use std::sync::{Arc, Mutex, OnceLock};

/// Mirrors the seed's `while` fixpoint bound.
pub(crate) const MAX_LOOP_PASSES: usize = 6;

/// Sentinel container name for an iterator argument whose target
/// container was not also passed: the callee cannot name it (`<` is not a
/// legal identifier character), so nothing in the callee can mutate it —
/// which is what makes `into: None` sound.
pub(crate) fn external_container(param: usize) -> Name {
    Name::from(format!("<ext:{param}>"))
}

/// One reachable `(function, context)` analysis unit. `fn_idx` indexes
/// `program.functions`; the implicit `main` is `fn_idx ==
/// functions.len()` with an empty context.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Function index (`functions.len()` = the implicit `main`).
    pub fn_idx: usize,
    /// The abstract calling context.
    pub ctx: CallCtx,
}

/// The discovered instance graph, in deterministic BFS discovery order
/// (instance 0 is always `main`).
#[derive(Debug)]
pub struct InstanceGraph {
    /// Instances in discovery order.
    pub instances: Vec<Instance>,
    /// `edges[i]` = callee instance ids invoked from instance `i`
    /// (deduplicated, first-encounter order).
    pub edges: Vec<Vec<usize>>,
    /// Instance id by `(fn_idx, ctx)`, as discovery assigned them.
    ids: FnvMap<(usize, CallCtx), usize>,
    /// Function index by name.
    fn_ids: FnvMap<Box<str>, usize>,
}

/// How an `invoke` site resolves against the current scope.
pub(crate) enum Resolution {
    /// A well-formed call of `fn_idx` under `ctx`.
    Call {
        /// Callee function index.
        fn_idx: usize,
        /// Callee calling context.
        ctx: CallCtx,
    },
    /// Structurally broken; the diagnostics to report, call skipped.
    Bad(Vec<Event>),
}

/// Resolve an `invoke f(args)` against the caller's scope, shared by the
/// discovery pass and the symbolic analyzer so the instance an `invoke`
/// maps to can never disagree between the two. `kind_of` / `iter_target`
/// consult the caller's current (reduced or symbolic) state; container
/// names take precedence when a name is declared in both namespaces.
pub(crate) fn resolve_invoke(
    functions: &Functions,
    fn_ids: &FnvMap<Box<str>, usize>,
    function: &str,
    args: &[Name],
    kind_of: impl Fn(&str) -> Option<ContainerKind>,
    iter_target: impl Fn(&str) -> Option<Name>,
) -> Resolution {
    let Some(&fn_idx) = fn_ids.get(function) else {
        return Resolution::Bad(vec![Event::Diag {
            severity: Severity::Error,
            code: DiagnosticCode::BadInvoke,
            subject: function.to_string(),
            message: format!("invoke of unknown function `{function}`").into(),
        }]);
    };
    let arity = functions[fn_idx].params.len();
    if args.len() != arity {
        return Resolution::Bad(vec![Event::Diag {
            severity: Severity::Error,
            code: DiagnosticCode::BadInvoke,
            subject: function.to_string(),
            message: format!(
                "invoke of `{function}` with {} argument(s), expected {arity}",
                args.len()
            )
            .into(),
        }]);
    }
    let mut bad = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if args[..i].contains(a) {
            bad.push(Event::Diag {
                severity: Severity::Error,
                code: DiagnosticCode::BadInvoke,
                subject: function.to_string(),
                message: format!(
                    "invoke of `{function}` passes `{a}` more than once; \
                     aliased arguments are not supported"
                )
                .into(),
            });
        }
    }
    if !bad.is_empty() {
        return Resolution::Bad(bad);
    }
    let mut bindings = Vec::with_capacity(args.len());
    for a in args {
        if let Some(kind) = kind_of(a) {
            bindings.push(ParamBinding::Container { kind });
        } else if let Some(target) = iter_target(a) {
            // `into` = the callee parameter index receiving the same
            // container, if the target container is itself an argument.
            let into = args
                .iter()
                .position(|other| *other == target && kind_of(other).is_some())
                .map(|j| j as u8);
            bindings.push(ParamBinding::Iter { into });
        } else {
            bad.push(Event::Diag {
                severity: Severity::Error,
                code: DiagnosticCode::UnknownName,
                subject: a.to_string(),
                message: format!("use of undeclared name `{a}` in invoke of `{function}`").into(),
            });
        }
    }
    if !bad.is_empty() {
        return Resolution::Bad(bad);
    }
    Resolution::Call {
        fn_idx,
        ctx: CallCtx(bindings),
    }
}

/// The reduced abstract state: name-level facts only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RedState {
    /// Container name → kind.
    containers: BTreeMap<Name, ContainerKind>,
    /// Iterator name → container it points into.
    iters: BTreeMap<Name, Name>,
}

impl RedState {
    /// Keep-self-biased union — the reduced projection of the full
    /// analyzer's join (which keeps `self.container` on divergence and
    /// never drops a name).
    fn join(&self, other: &RedState) -> RedState {
        let mut out = self.clone();
        for (k, v) in &other.containers {
            out.containers.entry(k.clone()).or_insert(*v);
        }
        for (k, v) in &other.iters {
            out.iters.entry(k.clone()).or_insert_with(|| v.clone());
        }
        out
    }

    fn from_ctx(params: &[Name], ctx: &CallCtx) -> RedState {
        let mut st = RedState::default();
        for (i, (name, b)) in params.iter().zip(&ctx.0).enumerate() {
            match b {
                ParamBinding::Container { kind } => {
                    st.containers.insert(name.clone(), *kind);
                }
                ParamBinding::Iter { into } => {
                    let target = match into {
                        Some(j) => params[*j as usize].clone(),
                        None => external_container(i),
                    };
                    st.iters.insert(name.clone(), target);
                }
            }
        }
        st
    }
}

/// Does any statement (recursively) call a function? A body without an
/// `invoke` is a leaf: discovery never executes it.
pub(crate) fn contains_invoke(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Invoke { .. } => true,
        Stmt::While { body, .. } => contains_invoke(body),
        Stmt::If {
            then_branch,
            else_branch,
        } => contains_invoke(then_branch) || contains_invoke(else_branch),
        _ => false,
    })
}

/// Does any statement (recursively) bind a name in the reduced domain?
/// The reduced state only changes on declarations, captures, and
/// assigns; blocks free of those can be executed in place.
fn binds_names(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::DeclContainer { .. } | Stmt::DeclIter { .. } | Stmt::Assign { .. } => true,
        Stmt::Erase { capture, .. } => capture.is_some(),
        Stmt::Call { capture, .. } => capture.is_some(),
        Stmt::While { body, .. } => binds_names(body),
        Stmt::If {
            then_branch,
            else_branch,
        } => binds_names(then_branch) || binds_names(else_branch),
        _ => false,
    })
}

/// Reduced transfer. `sink` fires at every `invoke` with the state in
/// effect there. Name-binding statements mirror the full analyzer's
/// scope rules exactly (including *not* binding when the referenced
/// container/iterator is undeclared — the seed reports and skips).
fn exec_red(
    stmt: &Stmt,
    params: &[Name],
    st: &mut RedState,
    sink: &mut impl FnMut(&RedState, &str, &[Name]),
) {
    // Declarations that would shadow a parameter are skipped, matching
    // the symbolic analyzer (which reports `ShadowedParam` and skips).
    let shadows = |name: &str| params.iter().any(|p| **p == *name);
    match stmt {
        Stmt::DeclContainer { name, kind } => {
            if !shadows(name) {
                st.containers.insert(name.clone(), *kind);
            }
        }
        Stmt::DeclIter {
            name, container, ..
        } => {
            if st.containers.contains_key(container) && !shadows(name) {
                st.iters.insert(name.clone(), container.clone());
            }
        }
        Stmt::Erase {
            container, capture, ..
        } => {
            if let Some(cap) = capture {
                if st.containers.contains_key(container) && !shadows(cap) {
                    st.iters.insert(cap.clone(), container.clone());
                }
            }
        }
        Stmt::Call {
            container, capture, ..
        } => {
            if let Some(cap) = capture {
                if st.containers.contains_key(container) && !shadows(cap) {
                    st.iters.insert(cap.clone(), container.clone());
                }
            }
        }
        Stmt::Assign { dst, src } => {
            if let Some(t) = st.iters.get(src).cloned() {
                st.iters.insert(dst.clone(), t);
            }
        }
        Stmt::While { body, .. } => {
            // Fast path: a loop body with no binding statements cannot
            // change the reduced state, so one pass fires every sink
            // with exactly the fixpoint's state — no clones, no joins.
            // (Sinks may fire fewer times than under the fixpoint, but
            // with identical states; edge dedup makes that invisible.)
            if !binds_names(body) {
                for s in body {
                    exec_red(s, params, st, sink);
                }
                return;
            }
            let mut loop_state = st.clone();
            for _ in 0..MAX_LOOP_PASSES {
                let mut body_state = loop_state.clone();
                for s in body {
                    exec_red(s, params, &mut body_state, sink);
                }
                let next = loop_state.join(&body_state);
                if next == loop_state {
                    break;
                }
                loop_state = next;
            }
            *st = loop_state;
        }
        Stmt::If {
            then_branch,
            else_branch,
        } => {
            if !binds_names(then_branch) && !binds_names(else_branch) {
                for s in then_branch.iter().chain(else_branch) {
                    exec_red(s, params, st, sink);
                }
                return;
            }
            let mut s_then = st.clone();
            let mut s_else = st.clone();
            for s in then_branch {
                exec_red(s, params, &mut s_then, sink);
            }
            for s in else_branch {
                exec_red(s, params, &mut s_else, sink);
            }
            *st = s_then.join(&s_else);
        }
        Stmt::Invoke { function, args } => {
            sink(st, function, args);
            // By-reference containers are never rebound; by-value
            // iterators keep their target container: the reduced domain
            // is untouched by the call.
        }
        Stmt::Advance { .. }
        | Stmt::Deref { .. }
        | Stmt::Insert { .. }
        | Stmt::PushBack { .. }
        | Stmt::Clear { .. } => {}
    }
}

/// Discover every reachable instance by BFS from `main`. `max_depth`
/// bounds the BFS depth (call-graph depth of the deepest *new* context);
/// exceeding it is a [`CheckError::ContextDepth`], not a hang.
pub fn discover(program: &Program, max_depth: usize) -> Result<InstanceGraph, CheckError> {
    let calls = call_flags(program);
    discover_with(program, |i| calls[i], max_depth)
}

/// Per body (`main` last): does it contain an `invoke`?
pub(crate) fn call_flags(program: &Program) -> Vec<bool> {
    let functions = &program.functions;
    (0..functions.len())
        .map(|i| functions.facts(i).calls)
        .chain([contains_invoke(&program.stmts)])
        .collect()
}

/// [`discover`], told by `calls(fn_idx)` whether a body contains an
/// `invoke` (`main` is `fn_idx == functions.len()`).
fn discover_with(
    program: &Program,
    calls: impl Fn(usize) -> bool,
    max_depth: usize,
) -> Result<InstanceGraph, CheckError> {
    let functions = &program.functions;
    let mut fn_ids: FnvMap<Box<str>, usize> =
        FnvMap::with_capacity_and_hasher(functions.len(), Default::default());
    for (i, f) in functions.iter().enumerate() {
        if fn_ids.insert(f.name.as_str().into(), i).is_some() {
            return Err(CheckError::Config(format!(
                "duplicate function definition `{}`",
                f.name
            )));
        }
    }
    let main_idx = functions.len();
    // Every function appears at least once in a connected graph; start
    // at that capacity so the maps don't rehash 17 times on the way to
    // 10^5 instances.
    let cap = functions.len() + 1;
    let mut instances = Vec::with_capacity(cap);
    instances.push(Instance {
        fn_idx: main_idx,
        ctx: CallCtx::default(),
    });
    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(cap);
    edges.push(Vec::new());
    let mut ids: FnvMap<(usize, CallCtx), usize> =
        FnvMap::with_capacity_and_hasher(cap, Default::default());
    ids.insert((main_idx, CallCtx::default()), 0);
    let mut depth = Vec::with_capacity(cap);
    depth.push(0usize);
    let mut work: VecDeque<usize> = VecDeque::from([0]);
    let empty: Vec<Name> = Vec::new();
    let mut seen_set: FnvSet<usize> = FnvSet::default();
    while let Some(id) = work.pop_front() {
        let fn_idx = instances[id].fn_idx;
        // A body with no `invoke` can never add edges; skip its reduced
        // execution outright (leaf functions dominate wide graphs).
        if !calls(fn_idx) {
            continue; // edges[id] stays empty
        }
        let (params, body): (&[Name], &[Stmt]) = if fn_idx == main_idx {
            (&empty, &program.stmts)
        } else {
            (&functions[fn_idx].params, &functions[fn_idx].body)
        };
        let mut st = RedState::from_ctx(params, &instances[id].ctx);
        let mut callees: Vec<(usize, CallCtx)> = Vec::new();
        {
            let mut sink = |st: &RedState, function: &str, args: &[Name]| {
                if let Resolution::Call { fn_idx, ctx } = resolve_invoke(
                    functions,
                    &fn_ids,
                    function,
                    args,
                    |n| st.containers.get(n).copied(),
                    |n| st.iters.get(n).cloned(),
                ) {
                    callees.push((fn_idx, ctx));
                }
            };
            for s in body {
                exec_red(s, params, &mut st, &mut sink);
            }
        }
        let mut seen_edges: Vec<usize> = Vec::new();
        seen_set.clear();
        for (fn_idx, ctx) in callees {
            let key = (fn_idx, ctx);
            let callee_id = match ids.get(&key) {
                Some(&cid) => cid,
                None => {
                    let d = depth[id] + 1;
                    if d > max_depth {
                        return Err(CheckError::ContextDepth { limit: max_depth });
                    }
                    let cid = instances.len();
                    instances.push(Instance {
                        fn_idx: key.0,
                        ctx: key.1.clone(),
                    });
                    edges.push(Vec::new());
                    depth.push(d);
                    ids.insert(key, cid);
                    work.push_back(cid);
                    cid
                }
            };
            // First-encounter order, hash-set dedup: a wide caller (10^5
            // call sites) must not pay a linear scan per site.
            if seen_set.insert(callee_id) {
                seen_edges.push(callee_id);
            }
        }
        edges[id] = seen_edges;
    }
    Ok(InstanceGraph {
        instances,
        edges,
        ids,
        fn_ids,
    })
}

impl InstanceGraph {
    /// Instance id for `(fn_idx, ctx)` (symbolic analyzer lookups).
    pub fn instance_ids(&self) -> &FnvMap<(usize, CallCtx), usize> {
        &self.ids
    }

    /// Function index by name (`invoke` resolution).
    pub(crate) fn function_ids(&self) -> &FnvMap<Box<str>, usize> {
        &self.fn_ids
    }
}

/// Iterative Tarjan: SCCs in reverse topological order (every SCC is
/// emitted after all SCCs it calls into), members sorted ascending.
pub fn tarjan_sccs(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, ci)) = frames.last() {
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = edges[v].get(ci) {
                frames.last_mut().expect("frame exists").1 += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// Condensation heights: leaves (no external callees) are height 0; a
/// caller SCC sits one above its tallest callee. SCCs at equal height
/// share no edges, so a height batch is a valid parallel unit.
pub fn scc_heights(sccs: &[Vec<usize>], edges: &[Vec<usize>]) -> Vec<usize> {
    let n = edges.len();
    let mut comp_of = vec![0usize; n];
    for (c, scc) in sccs.iter().enumerate() {
        for &v in scc {
            comp_of[v] = c;
        }
    }
    let mut heights = vec![0usize; sccs.len()];
    // Reverse topological order: callee SCCs come first, so their
    // heights are final by the time a caller reads them.
    for (c, scc) in sccs.iter().enumerate() {
        let mut h = 0usize;
        for &v in scc {
            for &w in &edges[v] {
                let cw = comp_of[w];
                if cw != c {
                    h = h.max(heights[cw] + 1);
                }
            }
        }
        heights[c] = h;
    }
    heights
}

/// Group SCC indices by height, heights ascending, ids ascending within
/// a batch — the deterministic processing schedule.
pub fn height_batches(heights: &[usize]) -> Vec<Vec<usize>> {
    let max_h = heights.iter().copied().max().unwrap_or(0);
    let mut batches = vec![Vec::new(); max_h + 1];
    for (c, &h) in heights.iter().enumerate() {
        batches[h].push(c);
    }
    batches
}

/// Everything the analysis derives from a program's call structure:
/// the instance graph, its SCCs bottom-up, the height batches, where
/// each instance sits among the SCCs and each body's
/// [`resolution_digests`] — what a summary key needs besides the bodies'
/// content and the callees' summaries.
pub(crate) struct Schedule {
    pub graph: InstanceGraph,
    pub sccs: Vec<Vec<usize>>,
    pub batches: Vec<Vec<usize>>,
    /// Per instance: its SCC and its index in that SCC.
    place: Vec<(usize, usize)>,
    /// Per body (`main` last).
    resolve: Vec<(u64, u64)>,
}

impl Schedule {
    /// The SCC of instance `id` and its index there. Only callees are
    /// asked about, so a lone `main` needs no table.
    pub fn place(&self, id: usize) -> (usize, usize) {
        self.place[id]
    }

    /// How the `invoke` sites of body `fn_idx` resolve
    /// ([`resolution_digests`]; `(0, 0)` in a flat program).
    pub fn resolve(&self, fn_idx: usize) -> (u64, u64) {
        self.resolve.get(fn_idx).copied().unwrap_or((0, 0))
    }

    fn build(
        program: &Program,
        calls: impl Fn(usize) -> bool,
        max_depth: usize,
    ) -> Result<Schedule, CheckError> {
        let graph = discover_with(program, calls, max_depth)?;
        let sccs = tarjan_sccs(&graph.edges);
        let batches = height_batches(&scc_heights(&sccs, &graph.edges));
        // A lone `main` calls nothing; its table stays unallocated.
        let mut place = Vec::new();
        if graph.instances.len() > 1 {
            place.resize(graph.instances.len(), (0, 0));
            for (c, scc) in sccs.iter().enumerate() {
                for (i, &id) in scc.iter().enumerate() {
                    place[id] = (c, i);
                }
            }
        }
        let functions = &program.functions;
        // A flat program's `main` can only invoke unknown functions; its
        // list stays unallocated.
        let resolve = if functions.is_empty() {
            Vec::new()
        } else {
            let bodies = functions.iter().map(|f| &f.body[..]);
            bodies
                .chain([&program.stmts[..]])
                .map(|body| resolution_digests(functions, &graph.fn_ids, body))
                .collect()
        };
        Ok(Schedule {
            graph,
            sccs,
            batches,
            place,
            resolve,
        })
    }
}

/// What a body's `invoke` sites find by name, in order: whether the
/// callee exists, and its parameter count. A summary depends on it (an
/// unknown callee and a wrong arity are different diagnostics, and
/// neither makes an edge), so summary keys include it: the content hash
/// and the keyed check digest of it.
fn resolution_digests(
    functions: &Functions,
    fn_ids: &FnvMap<Box<str>, usize>,
    body: &[Stmt],
) -> (u64, u64) {
    fn walk(stmts: &[Stmt], f: &mut impl FnMut(&str)) {
        for s in stmts {
            match s {
                Stmt::Invoke { function, .. } => f(function),
                Stmt::While { body, .. } => walk(body, f),
                Stmt::If {
                    then_branch,
                    else_branch,
                } => {
                    walk(then_branch, f);
                    walk(else_branch, f);
                }
                _ => {}
            }
        }
    }
    let mut h = Fnv::new();
    let mut k = crate::summary::keyed();
    walk(body, &mut |name| {
        let arity = fn_ids
            .get(name)
            .map_or(u64::MAX, |&j| functions[j].params.len() as u64);
        h.write_u64(arity);
        k.write_u64(arity);
    });
    (h.finish(), k.finish())
}

/// What a [`Schedule`] depends on, kept by value so a hit can be checked:
/// function names in order, parameter lists, which bodies contain an
/// `invoke`, those bodies, `main`'s body and the depth limit. Discovery
/// never executes a leaf body, so leaf bodies are not part of it.
struct Shape {
    hash: u64,
    defs: Vec<ShapeDef>,
    main: Vec<Stmt>,
    max_depth: usize,
}

/// One definition's part of a [`Shape`]: its name, parameters and, only
/// if it calls, its body.
struct ShapeDef {
    name: String,
    params: NameList,
    body: Option<Vec<Stmt>>,
}

impl Shape {
    fn new(hash: u64, program: &Program, calls: &[bool], max_depth: usize) -> Shape {
        Shape {
            hash,
            defs: program
                .functions
                .iter()
                .zip(calls)
                .map(|(f, &calls)| ShapeDef {
                    name: f.name.clone(),
                    params: f.params.clone(),
                    body: calls.then(|| f.body.clone()),
                })
                .collect(),
            main: program.stmts.clone(),
            max_depth,
        }
    }

    /// Does `program` have this shape?
    fn matches(&self, program: &Program, calls: &[bool], max_depth: usize) -> bool {
        let functions = &program.functions;
        self.max_depth == max_depth
            && self.defs.len() == functions.len()
            && self.main == program.stmts
            && self
                .defs
                .iter()
                .zip(functions)
                .zip(calls)
                .all(|((d, f), &calls)| {
                    d.name == f.name
                        && d.params == f.params
                        && d.body.is_some() == calls
                        && d.body.as_ref().is_none_or(|b| *b == f.body)
                })
    }
}

/// One definition's part of a [`Shape`], hashed: its name, parameters,
/// whether it calls, and (only if it does) its body's content hash.
pub(crate) fn fn_shape(f: &FunctionDef, calls: bool, content: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_str(&f.name);
    h.write_u64(f.params.len() as u64);
    for p in f.params.iter() {
        h.write_str(p);
    }
    h.write_u8(u8::from(calls));
    if calls {
        h.write_u64(content);
    }
    h.finish()
}

/// The hash [`ScheduleCache`] files a program's shape under: each
/// definition's [`fn_shape`], `main`'s content hash and the depth limit.
fn shape_hash(program: &Program, main_content: u64, max_depth: usize) -> u64 {
    let functions = &program.functions;
    let mut h = Fnv::new();
    h.write_u64(max_depth as u64);
    h.write_u64(functions.len() as u64);
    for i in 0..functions.len() {
        h.write_u64(functions.facts(i).shape);
    }
    h.write_u64(main_content);
    h.finish()
}

struct ScheduleMetrics {
    hit: &'static gp_telemetry::Counter,
    miss: &'static gp_telemetry::Counter,
    collision: &'static gp_telemetry::Counter,
}

fn schedule_metrics() -> &'static ScheduleMetrics {
    static METRICS: OnceLock<ScheduleMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ScheduleMetrics {
        hit: gp_telemetry::counter("checker.graph.hit"),
        miss: gp_telemetry::counter("checker.graph.miss"),
        collision: gp_telemetry::counter("checker.graph.collision"),
    })
}

/// The last few [`Schedule`]s, each with the [`Shape`] it was built
/// for. An edit that stays inside a leaf keeps the shape, so the next
/// request reuses the graph and recomputes only the summary keys.
#[derive(Default)]
pub(crate) struct ScheduleCache {
    entries: Mutex<VecDeque<(Shape, Arc<Schedule>)>>,
}

impl ScheduleCache {
    /// Schedules kept.
    const CAP: usize = 4;

    /// The schedule for `program`, reused when an entry filed under
    /// `hash` has its shape, built (and kept) otherwise. `calls` and
    /// `hash` are [`shape_hash`]'s inputs and output.
    pub(crate) fn get_or_build(
        &self,
        hash: u64,
        program: &Program,
        calls: &[bool],
        max_depth: usize,
    ) -> Result<Arc<Schedule>, CheckError> {
        let m = schedule_metrics();
        {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            for (shape, schedule) in entries.iter().filter(|(s, _)| s.hash == hash) {
                if !shape.matches(program, calls, max_depth) {
                    m.collision.incr();
                    continue;
                }
                m.hit.incr();
                return Ok(Arc::clone(schedule));
            }
        }
        m.miss.incr();
        let schedule = Arc::new(Schedule::build(program, |i| calls[i], max_depth)?);
        let shape = Shape::new(hash, program, calls, max_depth);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.push_front((shape, Arc::clone(&schedule)));
        entries.truncate(Self::CAP);
        Ok(schedule)
    }
}

/// A schedule taken from a [`ScheduleCache`] or built for one request.
pub(crate) enum Sched {
    Cached(Arc<Schedule>),
    Built(Schedule),
}

impl std::ops::Deref for Sched {
    type Target = Schedule;

    fn deref(&self) -> &Schedule {
        match self {
            Sched::Cached(s) => s,
            Sched::Built(s) => s,
        }
    }
}

/// The schedule for `program`: from `cache` when given and the program
/// has functions (a flat program's graph is `main` alone, cheaper to
/// build than to look up), built otherwise. `calls` is per body,
/// `main` last.
pub(crate) fn schedule(
    cache: Option<&ScheduleCache>,
    program: &Program,
    calls: &[bool],
    main_content: u64,
    max_depth: usize,
) -> Result<Sched, CheckError> {
    match cache {
        Some(cache) if !program.functions.is_empty() => {
            let hash = shape_hash(program, main_content, max_depth);
            cache
                .get_or_build(hash, program, calls, max_depth)
                .map(Sched::Cached)
        }
        _ => Schedule::build(program, |i| calls[i], max_depth).map(Sched::Built),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::build::*;
    use crate::ir::ContainerKind as K;

    #[test]
    fn discovery_finds_one_instance_per_context() {
        // g invoked with a vector and with a list: two instances of g.
        let p = Program::with_functions(
            "two-ctx",
            vec![
                container("v", K::Vector),
                container("l", K::List),
                invoke("g", &["v"]),
                invoke("g", &["l"]),
            ],
            vec![func("g", &["c"], vec![push_back("c")])],
        );
        let g = discover(&p, 64).unwrap();
        assert_eq!(g.instances.len(), 3); // main + g/vector + g/list
        assert_eq!(g.edges[0].len(), 2);
    }

    #[test]
    fn iterator_aliasing_is_part_of_the_context() {
        // it aims into the passed container in one call, elsewhere in the
        // other: different contexts.
        let p = Program::with_functions(
            "alias",
            vec![
                container("a", K::List),
                container("b", K::List),
                begin("ia", "a"),
                begin("ib", "b"),
                invoke("g", &["a", "ia"]),
                invoke("g", &["a", "ib"]),
            ],
            vec![func("g", &["c", "it"], vec![deref("it")])],
        );
        let g = discover(&p, 64).unwrap();
        assert_eq!(g.instances.len(), 3);
        let ctxs: Vec<_> = g.instances[1..].iter().map(|i| &i.ctx).collect();
        assert!(ctxs
            .iter()
            .any(|c| c.0[1] == ParamBinding::Iter { into: Some(0) }));
        assert!(ctxs
            .iter()
            .any(|c| c.0[1] == ParamBinding::Iter { into: None }));
    }

    #[test]
    fn context_depth_limit_errors_instead_of_descending() {
        let p = Program::with_functions(
            "deep",
            vec![container("c", K::List), invoke("f0", &["c"])],
            (0..5)
                .map(|i| {
                    let body = if i + 1 < 5 {
                        vec![invoke(&format!("f{}", i + 1), &["c"])]
                    } else {
                        vec![push_back("c")]
                    };
                    func(&format!("f{i}"), &["c"], body)
                })
                .collect::<Vec<_>>(),
        );
        assert!(discover(&p, 64).is_ok());
        let err = discover(&p, 3).unwrap_err();
        assert!(matches!(err, CheckError::ContextDepth { limit: 3 }));
    }

    #[test]
    fn schedules_filed_under_one_hash_never_answer_for_each_other() {
        let p1 = Program::with_functions(
            "one",
            vec![container("v", K::Vector), invoke("g", &["v"])],
            vec![func("g", &["c"], vec![push_back("c")])],
        );
        let p2 = Program::with_functions(
            "two",
            vec![
                container("v", K::Vector),
                container("l", K::List),
                invoke("g", &["v"]),
                invoke("g", &["l"]),
            ],
            vec![func("g", &["c"], vec![push_back("c")])],
        );
        let cache = ScheduleCache::default();
        let collisions = || gp_telemetry::counter("checker.graph.collision").get();
        let get = |p: &Program| {
            // Every program filed under one hash: only the shape check
            // tells them apart.
            cache
                .get_or_build(7, p, &call_flags(p), 64)
                .expect("builds")
        };
        let s1 = get(&p1);
        let c0 = collisions();
        let s2 = get(&p2);
        assert!(collisions() > c0, "p1's entry was checked and rejected");
        assert!(!Arc::ptr_eq(&s1, &s2));
        assert_eq!(s1.graph.instances.len(), 2);
        assert_eq!(s2.graph.instances.len(), 3);
        assert!(Arc::ptr_eq(&get(&p1), &s1), "p1 still hits its own entry");
        // A leaf-body edit keeps the shape: the graph is reused.
        let mut p3 = p1.clone();
        p3.functions[0].body.push(clear("c"));
        assert!(Arc::ptr_eq(&get(&p3), &s1));
        // An edit that adds a call does not.
        let mut p4 = p1.clone();
        p4.functions[0].body.push(invoke("g", &["c"]));
        assert!(!Arc::ptr_eq(&get(&p4), &s1));
    }

    #[test]
    fn tarjan_handles_cycles_and_orders_callees_first() {
        // 0 -> 1 <-> 2, 1 -> 3.
        let edges = vec![vec![1], vec![2, 3], vec![1], vec![]];
        let sccs = tarjan_sccs(&edges);
        assert!(sccs.contains(&vec![1, 2]));
        let pos = |needle: &[usize]| sccs.iter().position(|s| s == needle).unwrap();
        assert!(pos(&[3]) < pos(&[1, 2]));
        assert!(pos(&[1, 2]) < pos(&[0]));
        let heights = scc_heights(&sccs, &edges);
        assert_eq!(heights[pos(&[3])], 0);
        assert_eq!(heights[pos(&[1, 2])], 1);
        assert_eq!(heights[pos(&[0])], 2);
    }

    #[test]
    fn tarjan_survives_a_deep_chain_iteratively() {
        // A 100_000-node chain would overflow a recursive Tarjan.
        let n = 100_000;
        let edges: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let sccs = tarjan_sccs(&edges);
        assert_eq!(sccs.len(), n);
        let heights = scc_heights(&sccs, &edges);
        assert_eq!(heights.iter().copied().max(), Some(n - 1));
    }
}
