//! The checker's entry point and its diagnostic vocabulary: severities,
//! codes, the paper's message texts, and the per-code telemetry tallies.
//! The analysis itself is [`crate::interp`].

use crate::ir::Program;
use gp_core::hash::FnvMap;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A definite bug on every path reaching the statement.
    Error,
    /// A bug on some path.
    Warning,
    /// A performance improvement opportunity (§3.2 suggestions).
    Suggestion,
}

/// Machine-readable diagnostic categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// Dereference of a (maybe-)singular iterator (Fig. 4's bug).
    DerefSingular,
    /// Dereference of a (maybe-)past-the-end iterator.
    DerefPastEnd,
    /// Advancing a (maybe-)singular iterator.
    AdvanceSingular,
    /// Advancing past the end.
    AdvancePastEnd,
    /// An algorithm whose entry handler requires sortedness got a sequence
    /// not known to be sorted.
    RequiresSorted,
    /// Linear search over a known-sorted sequence (suggest `lower_bound`).
    SortedLinearSearch,
    /// Reference to an undeclared iterator/container.
    UnknownName,
    /// A structurally broken `invoke`: unknown function, arity mismatch,
    /// or an argument passed more than once (aliased arguments are
    /// unsupported — the summary would be unsound).
    BadInvoke,
    /// A declaration that shadows a function parameter (unsupported: the
    /// parameter binding must stay stable for summary effects).
    ShadowedParam,
    /// The interprocedural analysis hit a configured resource limit
    /// (`max_context_depth`, `max_fixpoint_passes`) and gave up.
    AnalysisLimit,
}

impl DiagnosticCode {
    /// Every code, in declaration order — indexable by [`Self::index`].
    pub const ALL: [DiagnosticCode; 10] = [
        DiagnosticCode::DerefSingular,
        DiagnosticCode::DerefPastEnd,
        DiagnosticCode::AdvanceSingular,
        DiagnosticCode::AdvancePastEnd,
        DiagnosticCode::RequiresSorted,
        DiagnosticCode::SortedLinearSearch,
        DiagnosticCode::UnknownName,
        DiagnosticCode::BadInvoke,
        DiagnosticCode::ShadowedParam,
        DiagnosticCode::AnalysisLimit,
    ];

    /// Position in [`Self::ALL`] (dense, for interned metric tables).
    pub fn index(self) -> usize {
        match self {
            DiagnosticCode::DerefSingular => 0,
            DiagnosticCode::DerefPastEnd => 1,
            DiagnosticCode::AdvanceSingular => 2,
            DiagnosticCode::AdvancePastEnd => 3,
            DiagnosticCode::RequiresSorted => 4,
            DiagnosticCode::SortedLinearSearch => 5,
            DiagnosticCode::UnknownName => 6,
            DiagnosticCode::BadInvoke => 7,
            DiagnosticCode::ShadowedParam => 8,
            DiagnosticCode::AnalysisLimit => 9,
        }
    }

    /// Stable kebab-case name, used in reports and telemetry metric names
    /// (`checker.diag.<name>`).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::DerefSingular => "deref-singular",
            DiagnosticCode::DerefPastEnd => "deref-past-end",
            DiagnosticCode::AdvanceSingular => "advance-singular",
            DiagnosticCode::AdvancePastEnd => "advance-past-end",
            DiagnosticCode::RequiresSorted => "requires-sorted",
            DiagnosticCode::SortedLinearSearch => "sorted-linear-search",
            DiagnosticCode::UnknownName => "unknown-name",
            DiagnosticCode::BadInvoke => "bad-invoke",
            DiagnosticCode::ShadowedParam => "shadowed-param",
            DiagnosticCode::AnalysisLimit => "analysis-limit",
        }
    }
}

/// Interned `checker.diag.<code>` counter handles: the metric names are
/// formatted once per process instead of once per report, so the
/// diagnostic hot path allocates nothing for telemetry.
fn diag_metrics() -> &'static [&'static gp_telemetry::Counter; DiagnosticCode::ALL.len()] {
    static METRICS: std::sync::OnceLock<
        [&'static gp_telemetry::Counter; DiagnosticCode::ALL.len()],
    > = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        DiagnosticCode::ALL
            .map(|code| gp_telemetry::counter(&format!("checker.diag.{}", code.as_str())))
    })
}

/// The pre-resolved tally counter for a diagnostic code (public so the
/// bench can verify the zero-allocation property).
pub fn diag_counter(code: DiagnosticCode) -> &'static gp_telemetry::Counter {
    diag_metrics()[code.index()]
}

/// One checker finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity level.
    pub severity: Severity,
    /// Category.
    pub code: DiagnosticCode,
    /// The iterator/container/algorithm the finding is about.
    pub subject: String,
    /// Human-readable message (matching the paper's wording where the
    /// paper shows one).
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "Error",
            Severity::Warning => "Warning",
            Severity::Suggestion => "Suggestion",
        };
        write!(f, "{sev}: {}", self.message)
    }
}

/// The paper's Fig. 4 diagnostic text.
pub const MSG_SINGULAR: &str = "attempt to dereference a singular iterator";
/// Past-the-end dereference text.
pub const MSG_PAST_END: &str = "attempt to dereference a past-the-end iterator";
/// The paper's §3.2 optimization suggestion text.
pub const MSG_SORTED_LINEAR: &str = "potential optimization: the incoming sequence [first, last) \
is sorted, but will be searched linearly with this algorithm. Consider replacing this algorithm \
with one specialized for sorted sequences (e.g., lower_bound)";

/// Deduplicating diagnostic sink: first report of a `(code, subject)`
/// pair wins position and message; a later `Error` upgrades an earlier
/// `Warning`. Each first report is tallied under `checker.diag.<code>`.
/// The interprocedural emission pass and the seed analyzer (the
/// flat-program oracle in `gp_bench`) both report through it, so both
/// produce identically deduplicated output.
///
/// The owned subject moves into the [`Diagnostic`]; pairs are found
/// through a keyed hash of `(code, subject)` pointing at the first
/// diagnostic with that hash (a colliding pair falls back to a scan), so
/// a report copies nothing.
#[derive(Default)]
pub struct Reporter {
    diags: Vec<Diagnostic>,
    index: FnvMap<u64, usize>,
    keys: RandomState,
}

impl Reporter {
    /// A sink with room for `n` findings.
    pub fn with_capacity(n: usize) -> Reporter {
        Reporter {
            diags: Vec::with_capacity(n),
            index: FnvMap::with_capacity_and_hasher(n, Default::default()),
            keys: RandomState::new(),
        }
    }

    /// Record one finding (see the type docs for the dedup rule).
    pub fn report(
        &mut self,
        severity: Severity,
        code: DiagnosticCode,
        subject: impl Into<String> + AsRef<str>,
        message: String,
    ) {
        let key = self.keys.hash_one((code, subject.as_ref()));
        let same = |d: &Diagnostic| d.code == code && d.subject == subject.as_ref();
        let found = match self.index.get(&key) {
            Some(&i) if same(&self.diags[i]) => Some(i),
            Some(_) => self.diags.iter().position(same),
            None => None,
        };
        match found {
            // Loop fixpoint passes revisit statements; report each
            // finding once, upgrading an earlier Warning to Error if a
            // later pass proves it.
            Some(i) => {
                let d = &mut self.diags[i];
                if severity == Severity::Error && d.severity == Severity::Warning {
                    d.severity = Severity::Error;
                }
            }
            None => {
                diag_counter(code).incr();
                self.index.entry(key).or_insert(self.diags.len());
                self.diags.push(Diagnostic {
                    severity,
                    code,
                    subject: subject.into(),
                    message,
                });
            }
        }
    }

    /// The findings, in first-report order.
    pub fn into_diags(self) -> Vec<Diagnostic> {
        self.diags
    }
}

/// Run the checker over a program with the default configuration.
///
/// Every program goes through the summary-based analysis
/// ([`crate::interp::analyze_program`]); a flat program is its implicit
/// `main` instance. A resource-limit error surfaces as a single
/// [`DiagnosticCode::AnalysisLimit`] diagnostic rather than a panic.
pub fn analyze(program: &Program) -> Vec<Diagnostic> {
    let _span = gp_telemetry::span!("analyze");
    match crate::interp::analyze_program(program, &crate::interp::CheckConfig::default()) {
        Ok(diags) => diags,
        Err(e) => vec![Diagnostic {
            severity: Severity::Error,
            code: DiagnosticCode::AnalysisLimit,
            subject: program.name.clone(),
            message: e.to_string(),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::fig4_program;

    fn check(src: &str) -> Vec<Diagnostic> {
        analyze(&crate::parse::parse("t", src).expect("parse"))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<DiagnosticCode> {
        diags.iter().map(|d| d.code).collect()
    }

    fn has(diags: &[Diagnostic], code: DiagnosticCode) -> bool {
        diags.iter().any(|d| d.code == code)
    }

    #[test]
    fn clean_traversal_produces_no_diagnostics() {
        let d = check(
            "container c list\niter it = begin c\nwhile it != end {\nderef it\nadvance it\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn deref_of_end_is_an_error() {
        let d = check("container c vector\niter it = end c\nderef it");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, DiagnosticCode::DerefPastEnd);
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].message, MSG_PAST_END);
    }

    #[test]
    fn deref_of_begin_on_maybe_empty_container_warns() {
        let d = check("container c vector\niter it = begin c\nderef it");
        assert_eq!(codes(&d), vec![DiagnosticCode::DerefPastEnd]);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn vector_push_back_invalidates_iterators_but_list_does_not() {
        let make = |kind| {
            check(&format!(
                "container c {kind}\niter it = begin c\npush_back c\n\
                 while it != end {{\nderef it\nadvance it\n}}"
            ))
        };
        let d = make("vector");
        assert!(d
            .iter()
            .any(|d| d.code == DiagnosticCode::DerefSingular && d.message == MSG_SINGULAR));
        let d = make("list");
        assert!(
            !has(&d, DiagnosticCode::DerefSingular),
            "list push_back must not invalidate: {d:?}"
        );
    }

    #[test]
    fn fig4_erase_loop_bug_is_detected_with_paper_message() {
        // Fig. 4: extract-and-erase of failing grades without refreshing
        // the loop iterator.
        let d = analyze(&fig4_program(false));
        let hit = d
            .iter()
            .find(|d| d.code == DiagnosticCode::DerefSingular)
            .expect("the Fig. 4 bug must be found");
        assert_eq!(hit.message, MSG_SINGULAR);
    }

    #[test]
    fn fig4_fixed_version_is_clean() {
        // The corrected idiom: iter = students.erase(iter).
        let d = analyze(&fig4_program(true));
        assert!(
            !has(&d, DiagnosticCode::DerefSingular),
            "fixed program must not warn about singular deref: {d:?}"
        );
    }

    #[test]
    fn sorted_then_linear_search_yields_paper_suggestion() {
        let d = check("container v vector\ncall sort v\ncall find v -> i");
        assert_eq!(codes(&d), vec![DiagnosticCode::SortedLinearSearch]);
        assert_eq!(d[0].severity, Severity::Suggestion);
        assert_eq!(d[0].message, MSG_SORTED_LINEAR);
    }

    #[test]
    fn find_on_unsorted_data_is_fine() {
        assert!(check("container v vector\ncall find v -> i").is_empty());
    }

    #[test]
    fn binary_search_without_sort_warns_and_after_push_back_errors() {
        let d = check("container v vector\ncall binary_search v");
        assert_eq!(codes(&d), vec![DiagnosticCode::RequiresSorted]);
        assert_eq!(d[0].severity, Severity::Warning);
        // push_back breaks sortedness.
        let d = check("container v vector\ncall sort v\npush_back v\ncall binary_search v");
        assert!(d
            .iter()
            .any(|d| d.code == DiagnosticCode::RequiresSorted && d.severity == Severity::Error));
    }

    #[test]
    fn binary_search_after_sort_is_clean() {
        assert!(check("container v vector\ncall sort v\ncall binary_search v").is_empty());
    }

    #[test]
    fn branch_join_degrades_validity() {
        // Invalidate on one path only: the later deref is a Warning (maybe),
        // not an Error.
        let d = check(
            "container v vector\niter it = begin v\nif {\npush_back v\n} else {\n}\nderef it",
        );
        let hit = d
            .iter()
            .find(|d| d.code == DiagnosticCode::DerefSingular)
            .expect("maybe-invalidated deref must warn");
        assert_eq!(hit.severity, Severity::Warning);
    }

    #[test]
    fn use_of_undeclared_names_is_reported() {
        let d = check("deref nope");
        assert_eq!(codes(&d), vec![DiagnosticCode::UnknownName]);
        let d = check("iter it = begin ghost");
        assert_eq!(codes(&d), vec![DiagnosticCode::UnknownName]);
    }

    #[test]
    fn erase_capture_produces_valid_iterator_on_vector_too() {
        let d = check(
            "container v vector\niter it = begin v\nwhile it != end {\nderef it\n\
             if {\nerase v it -> it\n} else {\nadvance it\n}\n}",
        );
        assert!(
            !has(&d, DiagnosticCode::DerefSingular),
            "captured erase result is valid: {d:?}"
        );
    }

    #[test]
    fn clear_invalidates_and_makes_vacuously_sorted() {
        // clear-then-deref: every iterator dies, regardless of kind.
        let d = check("container l list\niter it = begin l\nclear l\nderef it");
        assert!(d
            .iter()
            .any(|d| d.code == DiagnosticCode::DerefSingular && d.severity == Severity::Error));
        // clear-then-binary_search: an empty sequence is vacuously sorted,
        // so the entry handler is satisfied.
        assert!(check("container v vector\nclear v\ncall binary_search v").is_empty());
    }

    #[test]
    fn unique_on_unsorted_warns() {
        let d = check("container v vector\ncall unique v");
        assert!(has(&d, DiagnosticCode::RequiresSorted));
        // After sort: clean.
        assert!(check("container v vector\ncall sort v\ncall unique v").is_empty());
    }
}
