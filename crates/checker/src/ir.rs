//! The checked mini-language: concept-level container/iterator/algorithm
//! events.
//!
//! This is the abstraction STLlint works at — not C++ syntax, but the
//! library-semantic events a front end would extract from it. A [`Program`]
//! is a statement list with structured control flow (`while` over an
//! iterator-vs-end condition, nondeterministic `if`).

use std::sync::{Arc, OnceLock};

/// An identifier: container, iterator, function or parameter name.
///
/// Shared, immutable text: the parser interns each distinct identifier
/// once per program, so every statement naming it holds the same
/// allocation, and the analyses clone names by bumping a refcount.
pub type Name = Arc<str>;

/// A parameter or argument list, shared the same way: every `(A, B)` in
/// one parsed program is one allocation.
pub type NameList = Arc<[Name]>;

/// Container kinds, distinguished by their **invalidation semantics** —
/// the cross-cutting semantic iterator concept of §3.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// Contiguous storage: `erase`/`insert`/`push_back` invalidate every
    /// iterator into the container (conservative: reallocation or shifting).
    Vector,
    /// Node-based: `erase` invalidates only the erased position; `insert`
    /// and `push_back` invalidate nothing.
    List,
    /// Block-based: any structural change invalidates everything.
    Deque,
}

/// Where a newly obtained iterator points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PosExpr {
    /// `c.begin()` — dereferenceable unless the container may be empty.
    Begin,
    /// `c.end()` — past the end, never dereferenceable.
    End,
    /// Result of a search — may or may not be the end.
    SearchResult,
}

/// Loop conditions the analyzer understands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cond {
    /// `iter != c.end()` — inside the body the iterator is known
    /// dereferenceable; after the loop it is at the end.
    IterNotEnd {
        /// The iterator compared against `end()`.
        iter: Name,
    },
    /// An opaque condition (analyzed as nondeterministic).
    Unknown,
}

/// Library algorithms with entry/exit handler specifications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgorithmName {
    /// `sort(c)` — exit handler: installs sortedness.
    Sort,
    /// `find(c, v)` — linear search; entry handler: suggests `lower_bound`
    /// when the sequence is known sorted.
    Find,
    /// `lower_bound(c, v)` — entry handler: requires sortedness.
    LowerBound,
    /// `binary_search(c, v)` — entry handler: requires sortedness.
    BinarySearch,
    /// `unique(c)` — entry handler: full deduplication requires
    /// sortedness; also mutates the container (invalidates, vector-style).
    Unique,
    /// `max_element(c)` — no handlers; returns a search-result iterator.
    MaxElement,
}

impl AlgorithmName {
    /// Display name used in diagnostics.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlgorithmName::Sort => "sort",
            AlgorithmName::Find => "find",
            AlgorithmName::LowerBound => "lower_bound",
            AlgorithmName::BinarySearch => "binary_search",
            AlgorithmName::Unique => "unique",
            AlgorithmName::MaxElement => "max_element",
        }
    }
}

/// Statements of the checked language.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Declare a container with statically unknown contents.
    DeclContainer {
        /// Container name.
        name: Name,
        /// Invalidation-semantics kind.
        kind: ContainerKind,
    },
    /// Obtain an iterator into a container.
    DeclIter {
        /// Iterator name.
        name: Name,
        /// Container it points into.
        container: Name,
        /// Initial position.
        pos: PosExpr,
    },
    /// `++iter`.
    Advance {
        /// The iterator.
        iter: Name,
    },
    /// `*iter` (read).
    Deref {
        /// The iterator.
        iter: Name,
    },
    /// `c.erase(iter)`, optionally capturing the returned (valid) iterator:
    /// `res = c.erase(iter)`.
    Erase {
        /// The container.
        container: Name,
        /// The erased position.
        iter: Name,
        /// Name to bind the returned iterator to, if captured.
        capture: Option<Name>,
    },
    /// `c.insert(iter, v)`.
    Insert {
        /// The container.
        container: Name,
        /// Insertion position.
        iter: Name,
    },
    /// `c.push_back(v)`.
    PushBack {
        /// The container.
        container: Name,
    },
    /// `c.clear()` — invalidates every iterator (all kinds) and leaves an
    /// empty (hence vacuously sorted) container.
    Clear {
        /// The container.
        container: Name,
    },
    /// Iterator assignment `dst = src`.
    Assign {
        /// Destination iterator name.
        dst: Name,
        /// Source iterator name.
        src: Name,
    },
    /// A library algorithm call over the whole container, optionally
    /// binding a returned iterator.
    Call {
        /// The algorithm.
        algorithm: AlgorithmName,
        /// The container argument.
        container: Name,
        /// Name to bind a returned iterator to, if any.
        capture: Option<Name>,
    },
    /// `while cond { body }`.
    While {
        /// Loop condition.
        cond: Cond,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Nondeterministic branch (analyzed along both arms, states joined).
    If {
        /// Then-arm.
        then_branch: Vec<Stmt>,
        /// Else-arm.
        else_branch: Vec<Stmt>,
    },
    /// `name(args)` — call a user-defined function ([`FunctionDef`]).
    ///
    /// Containers are passed **by reference** (the callee's structural
    /// mutations — erase, sort, push_back — escape to the caller);
    /// iterators are passed **by value** (the callee advances its own
    /// copy, but erasing *through* the copy kills the caller's position
    /// too, exactly like C++ iterators).
    Invoke {
        /// Callee name.
        function: Name,
        /// Argument names (containers or iterators in the caller's scope).
        args: NameList,
    },
}

/// The first name in `names` that repeats an earlier one. Short lists
/// (every real parameter list) are scanned in place with no allocation;
/// long ones go through a hash set, so a hostile list cannot make the
/// check quadratic.
pub(crate) fn first_duplicate(names: &[Name]) -> Option<&Name> {
    const SCAN: usize = 16;
    if names.len() <= SCAN {
        return names
            .iter()
            .enumerate()
            .find(|(i, n)| names[..*i].contains(n))
            .map(|(_, n)| n);
    }
    let mut seen = std::collections::HashSet::with_capacity(names.len());
    names.iter().find(|n| !seen.insert(&***n))
}

/// A user-defined function: `fn name(params) { body }`.
///
/// Parameters are untyped names; each call site binds them to containers
/// or iterators from the caller's scope, and the interprocedural analysis
/// ([`crate::interp`]) summarizes the body once per abstract calling
/// context (parameter kinds + aliasing), not once per call site.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionDef {
    /// Function name (the `invoke` target). Owned text rather than a
    /// [`Name`]: a definition's name is one string per function, looked
    /// up by value, and never held by another statement.
    pub name: String,
    /// Parameter names, bound per call site.
    pub params: NameList,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// What the analysis derives from one definition's text alone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Facts {
    /// [`crate::summary::content_hash`] of the definition.
    pub content: u64,
    /// [`crate::summary::content_check`] of the definition.
    pub check: u64,
    /// Whether the body contains an `invoke` (a leaf does not).
    pub calls: bool,
    /// [`crate::callgraph::fn_shape`] of the definition.
    pub shape: u64,
}

/// A function definition with its [`Facts`], computed on first use and
/// kept while the definition is unchanged. The parser's block table
/// hands one `Arc<Definition>` to every program that holds the block's
/// text, so a block's facts are computed once, not once per request.
#[derive(Clone, Debug)]
pub(crate) struct Definition {
    def: FunctionDef,
    facts: OnceLock<Facts>,
}

impl Definition {
    /// `def`, its facts not yet computed.
    pub(crate) fn new(def: FunctionDef) -> Definition {
        Definition {
            def,
            facts: OnceLock::new(),
        }
    }

    /// The definition.
    pub(crate) fn def(&self) -> &FunctionDef {
        &self.def
    }

    pub(crate) fn facts(&self) -> Facts {
        *self.facts.get_or_init(|| {
            let def = &self.def;
            let content = crate::summary::content_hash(def);
            let calls = crate::callgraph::contains_invoke(&def.body);
            Facts {
                content,
                check: crate::summary::content_check(&def.params, &def.body),
                calls,
                shape: crate::callgraph::fn_shape(def, calls, content),
            }
        })
    }
}

#[derive(Clone, Debug)]
enum Slot {
    Owned(Definition),
    Shared(Arc<Definition>),
}

impl Slot {
    fn get(&self) -> &Definition {
        match self {
            Slot::Owned(d) => d,
            Slot::Shared(d) => d,
        }
    }
}

/// A program's function definitions, in source order. Each is either
/// owned by the program or shared with other programs; both read as a
/// [`FunctionDef`], and equality compares values. Mutable access to a
/// definition drops its cached facts, and to a shared one copies it out
/// first, so an edit never reaches another program.
#[derive(Clone, Default)]
pub struct Functions(Vec<Slot>);

impl Functions {
    /// No definitions, with room for `n`.
    pub fn with_capacity(n: usize) -> Functions {
        Functions(Vec::with_capacity(n))
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The definitions in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// Append an owned definition.
    pub fn push(&mut self, f: FunctionDef) {
        self.0.push(Slot::Owned(Definition::new(f)));
    }

    /// Append a shared definition.
    pub(crate) fn push_shared(&mut self, f: Arc<Definition>) {
        self.0.push(Slot::Shared(f));
    }

    /// The facts of definition `i`.
    pub(crate) fn facts(&self, i: usize) -> Facts {
        self.0[i].get().facts()
    }

    /// Share the last definition (an owned one becomes shared) and
    /// return it.
    pub(crate) fn share_last(&mut self) -> Option<Arc<Definition>> {
        let shared = match self.0.pop()? {
            Slot::Owned(d) => Arc::new(d),
            Slot::Shared(s) => s,
        };
        self.0.push(Slot::Shared(Arc::clone(&shared)));
        Some(shared)
    }
}

impl std::ops::Index<usize> for Functions {
    type Output = FunctionDef;

    fn index(&self, i: usize) -> &FunctionDef {
        &self.0[i].get().def
    }
}

impl std::ops::IndexMut<usize> for Functions {
    fn index_mut(&mut self, i: usize) -> &mut FunctionDef {
        let slot = &mut self.0[i];
        if let Slot::Shared(s) = slot {
            *slot = Slot::Owned(Definition::new(s.def.clone()));
        }
        match slot {
            Slot::Owned(d) => {
                d.facts = OnceLock::new();
                &mut d.def
            }
            Slot::Shared(_) => unreachable!("copied out above"),
        }
    }
}

/// Iterator over the definitions of [`Functions`].
pub struct Iter<'a>(std::slice::Iter<'a, Slot>);

impl<'a> Iterator for Iter<'a> {
    type Item = &'a FunctionDef;

    fn next(&mut self) -> Option<&'a FunctionDef> {
        self.0.next().map(|s| &s.get().def)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Functions {
    type Item = &'a FunctionDef;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl From<Vec<FunctionDef>> for Functions {
    fn from(v: Vec<FunctionDef>) -> Functions {
        v.into_iter().collect()
    }
}

impl FromIterator<FunctionDef> for Functions {
    fn from_iter<I: IntoIterator<Item = FunctionDef>>(it: I) -> Functions {
        Functions(
            it.into_iter()
                .map(|f| Slot::Owned(Definition::new(f)))
                .collect(),
        )
    }
}

impl PartialEq for Functions {
    fn eq(&self, other: &Functions) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Functions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A checkable program: a named statement list (the implicit `main`) plus
/// any function definitions. Flat programs — every program the seed
/// checker accepted — are simply programs with no functions.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Program name (corpus id / diagnostics context).
    pub name: String,
    /// Top-level statements (the implicit `main`).
    pub stmts: Vec<Stmt>,
    /// Function definitions, invocable from `main` and from each other.
    pub functions: Functions,
}

impl Program {
    /// Create a flat program (no functions).
    pub fn new(name: impl Into<String>, stmts: Vec<Stmt>) -> Self {
        Program {
            name: name.into(),
            stmts,
            functions: Functions::default(),
        }
    }

    /// Create a program with function definitions.
    pub fn with_functions(
        name: impl Into<String>,
        stmts: Vec<Stmt>,
        functions: impl Into<Functions>,
    ) -> Self {
        Program {
            name: name.into(),
            stmts,
            functions: functions.into(),
        }
    }
}

/// Fluent builder helpers so corpus programs read like the C++ they model.
pub mod build {
    use super::*;

    /// `ContainerKind c;`
    pub fn container(name: &str, kind: ContainerKind) -> Stmt {
        Stmt::DeclContainer {
            name: name.into(),
            kind,
        }
    }

    /// `auto it = c.begin();`
    pub fn begin(iter: &str, container: &str) -> Stmt {
        Stmt::DeclIter {
            name: iter.into(),
            container: container.into(),
            pos: PosExpr::Begin,
        }
    }

    /// `auto it = c.end();`
    pub fn end(iter: &str, container: &str) -> Stmt {
        Stmt::DeclIter {
            name: iter.into(),
            container: container.into(),
            pos: PosExpr::End,
        }
    }

    /// `++it;`
    pub fn advance(iter: &str) -> Stmt {
        Stmt::Advance { iter: iter.into() }
    }

    /// `*it;`
    pub fn deref(iter: &str) -> Stmt {
        Stmt::Deref { iter: iter.into() }
    }

    /// `c.erase(it);`
    pub fn erase(container: &str, iter: &str) -> Stmt {
        Stmt::Erase {
            container: container.into(),
            iter: iter.into(),
            capture: None,
        }
    }

    /// `it2 = c.erase(it);`
    pub fn erase_into(container: &str, iter: &str, capture: &str) -> Stmt {
        Stmt::Erase {
            container: container.into(),
            iter: iter.into(),
            capture: Some(capture.into()),
        }
    }

    /// `c.push_back(v);`
    pub fn push_back(container: &str) -> Stmt {
        Stmt::PushBack {
            container: container.into(),
        }
    }

    /// `c.clear();`
    pub fn clear(container: &str) -> Stmt {
        Stmt::Clear {
            container: container.into(),
        }
    }

    /// `c.insert(it, v);`
    pub fn insert(container: &str, iter: &str) -> Stmt {
        Stmt::Insert {
            container: container.into(),
            iter: iter.into(),
        }
    }

    /// `dst = src;`
    pub fn assign(dst: &str, src: &str) -> Stmt {
        Stmt::Assign {
            dst: dst.into(),
            src: src.into(),
        }
    }

    /// `alg(c);`
    pub fn call(algorithm: AlgorithmName, container: &str) -> Stmt {
        Stmt::Call {
            algorithm,
            container: container.into(),
            capture: None,
        }
    }

    /// `it = alg(c);`
    pub fn call_into(algorithm: AlgorithmName, container: &str, capture: &str) -> Stmt {
        Stmt::Call {
            algorithm,
            container: container.into(),
            capture: Some(capture.into()),
        }
    }

    /// `while (it != c.end()) { body }`
    pub fn while_not_end(iter: &str, body: Vec<Stmt>) -> Stmt {
        Stmt::While {
            cond: Cond::IterNotEnd { iter: iter.into() },
            body,
        }
    }

    /// `if (?) { then } else { els }`
    pub fn branch(then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            then_branch,
            else_branch,
        }
    }

    /// `f(a, b);`
    pub fn invoke(function: &str, args: &[&str]) -> Stmt {
        Stmt::Invoke {
            function: function.into(),
            args: args.iter().map(|a| Name::from(*a)).collect(),
        }
    }

    /// `fn name(params) { body }`
    pub fn func(name: &str, params: &[&str], body: Vec<Stmt>) -> FunctionDef {
        FunctionDef {
            name: name.to_string(),
            params: params.iter().map(|p| Name::from(*p)).collect(),
            body,
        }
    }
}
