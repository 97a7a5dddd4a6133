//! Specification coverage instrumentation.
//!
//! The paper measures test-suite quality as *statement coverage of the model*
//! (§7.2): the proportion of specification clauses exercised when checking a
//! test run. We reproduce this by annotating the model with named *spec
//! points* — one per distinct behavioural clause (error case, success case,
//! platform-specific branch) — and recording which points are hit while
//! checking traces.
//!
//! The registry of all spec points is declared explicitly in
//! [`crate::spec_registry`] together with each syscall's errno envelope; a
//! scan of the embedded model source (every `spec_point("…")` occurrence in
//! the `fs_ops` and `os` modules) double-checks that the declaration never
//! drifts out of sync with the specification code — see
//! [`scanned_registry`] and the `sibylfs audit` static pass.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::commands::{ErrorOrValue, RetValue};

thread_local! {
    /// The per-thread collector: it attributes specification branches to the
    /// single trace being checked on this thread while other threads check
    /// their own.
    static SCOPED: RefCell<Option<BTreeSet<String>>> = const { RefCell::new(None) };
}

/// Record that the named specification clause has been evaluated.
///
/// This is a no-op unless [`scoped_begin`] has started collection on this
/// thread, so the cost in normal checking is one thread-local check.
pub fn spec_point(name: &str) {
    SCOPED.with(|tl| {
        if let Some(set) = tl.borrow_mut().as_mut() {
            if !set.contains(name) {
                set.insert(name.to_string());
            }
        }
    });
}

/// Start collecting spec points on *this thread only*. Any previously scoped
/// points on this thread are cleared. Collection is per-thread, so checking
/// must happen on the same thread that called this.
pub fn scoped_begin() {
    SCOPED.with(|tl| *tl.borrow_mut() = Some(BTreeSet::new()));
}

/// Stop the thread-scoped collection and return the points hit on this thread
/// since [`scoped_begin`].
pub fn scoped_end() -> BTreeSet<String> {
    SCOPED.with(|tl| tl.borrow_mut().take().unwrap_or_default())
}

/// The embedded model sources scanned by the spec-consistency audit.
///
/// `flavor.rs` carries no spec points but holds the per-flavour errno tables,
/// which the audit follows when computing what a syscall rule can emit.
const MODEL_SOURCES: &[(&str, &str)] = &[
    ("fs_ops/mod.rs", include_str!("fs_ops/mod.rs")),
    ("fs_ops/dirs.rs", include_str!("fs_ops/dirs.rs")),
    ("fs_ops/files.rs", include_str!("fs_ops/files.rs")),
    ("fs_ops/links.rs", include_str!("fs_ops/links.rs")),
    ("fs_ops/rename.rs", include_str!("fs_ops/rename.rs")),
    ("fs_ops/open.rs", include_str!("fs_ops/open.rs")),
    ("fs_ops/io.rs", include_str!("fs_ops/io.rs")),
    ("fs_ops/meta_ops.rs", include_str!("fs_ops/meta_ops.rs")),
    ("fs_ops/dir_handles.rs", include_str!("fs_ops/dir_handles.rs")),
    ("path/mod.rs", include_str!("path/mod.rs")),
    ("os/trans.rs", include_str!("os/trans.rs")),
    ("flavor.rs", include_str!("flavor.rs")),
];

/// The embedded model sources, for static analysis (the `sibylfs_analyze`
/// audit parses these to cross-check the declared registry against what the
/// specification text actually contains and can emit).
pub fn model_sources() -> &'static [(&'static str, &'static str)] {
    MODEL_SOURCES
}

/// All specification points of the model: the declared registry.
///
/// Until the spec-consistency audit existed this was derived by scanning the
/// model source for `spec_point("…")` literals; it is now the explicit list
/// in [`crate::spec_registry`], and the audit (plus a unit test below) checks
/// that the declaration and the source never drift apart.
pub fn registry() -> BTreeSet<String> {
    crate::spec_registry::declared_points().iter().map(|p| p.to_string()).collect()
}

/// All `spec_point("…")` literals present in the embedded model sources.
///
/// This is the old ad-hoc derivation of the registry, kept as the
/// cross-check: [`registry`] (the declaration) must equal this scan, which
/// the audit and the `declared_registry_matches_source_scan` test enforce.
pub fn scanned_registry() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (_file, src) in MODEL_SOURCES {
        for occurrence in src.split("spec_point(\"").skip(1) {
            if let Some(end) = occurrence.find('"') {
                out.insert(occurrence[..end].to_string());
            }
        }
    }
    out
}

/// Per-module counts of spec points, used by the model-size report. Sources
/// without any spec points (errno tables and the like) are omitted.
pub fn registry_by_module() -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (file, src) in MODEL_SOURCES {
        let count = src.matches("spec_point(\"").count();
        if count > 0 {
            out.push((file.to_string(), count));
        }
    }
    out
}

/// A simple coverage summary: points hit, total points, percentage.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSummary {
    /// Spec points exercised.
    pub hit: usize,
    /// Total spec points in the model.
    pub total: usize,
    /// Names of points never exercised.
    pub missed: Vec<String>,
}

impl CoverageSummary {
    /// Build a summary from a set of hit points.
    pub fn from_hits(hits: &BTreeSet<String>) -> CoverageSummary {
        let reg = registry();
        let missed: Vec<String> = reg.difference(hits).cloned().collect();
        CoverageSummary { hit: reg.intersection(hits).count(), total: reg.len(), missed }
    }

    /// Coverage percentage (0–100).
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            self.hit as f64 * 100.0 / self.total as f64
        }
    }
}

/// One point of model coverage, as tracked by the exploration engine.
///
/// The key space is the cross product the tentpole asks for — (syscall kind,
/// outcome/errno) transitions actually observed in traces, plus the
/// nondeterministic branch ids of the specification itself (the `spec_point`
/// names, which are exactly the model's behavioural branches).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoverageKey {
    /// A specification branch evaluated while checking (`spec_point` name).
    Branch(String),
    /// A `(syscall, outcome)` pair observed in a checked trace; `outcome` is
    /// an errno name or an `ok/<kind>` success tag (see [`outcome_name`]).
    Transition {
        /// The libc function (from `OsCommand::name`).
        syscall: String,
        /// The observed outcome.
        outcome: String,
    },
}

/// The canonical short name of an observed return value, used as the
/// `outcome` component of [`CoverageKey::Transition`]: the errno name for
/// errors, an `ok/<kind>` tag for successes (payloads are deliberately
/// ignored so the key space stays small).
pub fn outcome_name(ret: &ErrorOrValue) -> String {
    match ret {
        ErrorOrValue::Error(e) => e.to_string(),
        ErrorOrValue::Value(v) => match v {
            RetValue::None => "ok/none".to_string(),
            RetValue::Num(..) => "ok/num".to_string(),
            RetValue::Bytes(..) => "ok/bytes".to_string(),
            RetValue::Stat(..) => "ok/stat".to_string(),
            RetValue::Fd(..) => "ok/fd".to_string(),
            RetValue::DirHandle(..) => "ok/dh".to_string(),
            RetValue::ReaddirEntry(Some(..)) => "ok/readdir".to_string(),
            RetValue::ReaddirEntry(None) => "ok/readdir_end".to_string(),
            RetValue::Path(..) => "ok/path".to_string(),
        },
    }
}

/// A cheap, mergeable, serializable set of [`CoverageKey`]s — the feedback
/// signal of the exploration engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoverageMap {
    keys: BTreeSet<CoverageKey>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Insert one key; `true` if it was new.
    pub fn insert(&mut self, key: CoverageKey) -> bool {
        self.keys.insert(key)
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &CoverageKey) -> bool {
        self.keys.contains(key)
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been recorded.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Merge another map in, returning how many of its keys were new here.
    pub fn merge(&mut self, other: &CoverageMap) -> usize {
        let before = self.keys.len();
        self.keys.extend(other.keys.iter().cloned());
        self.keys.len() - before
    }

    /// The keys of `self` that are *not* in `other` — the novelty signal that
    /// decides whether a script earns a corpus slot.
    pub fn novel_versus(&self, other: &CoverageMap) -> Vec<CoverageKey> {
        self.keys.difference(&other.keys).cloned().collect()
    }

    /// Iterate over all keys in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &CoverageKey> {
        self.keys.iter()
    }

    /// The specification-branch subset as a plain point set.
    pub fn branch_points(&self) -> BTreeSet<String> {
        self.keys
            .iter()
            .filter_map(|k| match k {
                CoverageKey::Branch(p) => Some(p.clone()),
                CoverageKey::Transition { .. } => None,
            })
            .collect()
    }

    /// Branch coverage against the spec-point registry (the headline number).
    pub fn branch_summary(&self) -> CoverageSummary {
        CoverageSummary::from_hits(&self.branch_points())
    }

    /// The number of `(syscall, outcome)` transitions observed.
    pub fn transition_count(&self) -> usize {
        self.keys.iter().filter(|k| matches!(k, CoverageKey::Transition { .. })).count()
    }

    /// Observed outcomes grouped per syscall — the errno-envelope table of the
    /// final exploration report.
    pub fn per_syscall_outcomes(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for k in &self.keys {
            if let CoverageKey::Transition { syscall, outcome } = k {
                out.entry(syscall.clone()).or_default().insert(outcome.clone());
            }
        }
        out
    }

    /// Serialize to the stable line-oriented text format (`branch <point>` /
    /// `transition <syscall> <outcome>`, sorted). Inverse of [`CoverageMap::parse`].
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for k in &self.keys {
            match k {
                CoverageKey::Branch(p) => {
                    out.push_str("branch ");
                    out.push_str(p);
                }
                CoverageKey::Transition { syscall, outcome } => {
                    out.push_str("transition ");
                    out.push_str(syscall);
                    out.push(' ');
                    out.push_str(outcome);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parse the text produced by [`CoverageMap::serialize`]. Lines starting
    /// with `#` and blank lines are ignored.
    pub fn parse(text: &str) -> Result<CoverageMap, String> {
        let mut map = CoverageMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("branch") => {
                    let p = parts.next().ok_or_else(|| {
                        format!("line {}: branch key without a point name", idx + 1)
                    })?;
                    map.insert(CoverageKey::Branch(p.to_string()));
                }
                Some("transition") => {
                    let syscall = parts.next().ok_or_else(|| {
                        format!("line {}: transition key without a syscall", idx + 1)
                    })?;
                    let outcome = parts.next().ok_or_else(|| {
                        format!("line {}: transition key without an outcome", idx + 1)
                    })?;
                    map.insert(CoverageKey::Transition {
                        syscall: syscall.to_string(),
                        outcome: outcome.to_string(),
                    });
                }
                Some(other) => {
                    return Err(format!("line {}: unknown coverage-key kind {other:?}", idx + 1))
                }
                None => unreachable!("blank lines are skipped above"),
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_nonempty_and_namespaced() {
        let reg = registry();
        assert!(reg.len() > 100, "expected a substantial number of spec points, got {}", reg.len());
        // Every point is of the form "<function>/<clause>".
        for p in &reg {
            assert!(p.contains('/'), "spec point {p:?} is not namespaced");
        }
    }

    #[test]
    fn declared_registry_matches_source_scan() {
        let declared = registry();
        let scanned = scanned_registry();
        let missing: Vec<_> = scanned.difference(&declared).collect();
        let stale: Vec<_> = declared.difference(&scanned).collect();
        assert!(
            missing.is_empty() && stale.is_empty(),
            "spec_registry drifted from the model source; \
             unregistered: {missing:?}, stale: {stale:?}"
        );
    }

    #[test]
    fn scoped_collection_is_per_thread() {
        scoped_begin();
        spec_point("test/scoped_a");
        spec_point("test/scoped_b");
        spec_point("test/scoped_a");
        // A point hit on another thread does not land in this thread's set.
        std::thread::scope(|s| {
            s.spawn(|| spec_point("test/other_thread")).join().unwrap();
        });
        let scoped = scoped_end();
        assert!(scoped.contains("test/scoped_a"));
        assert!(scoped.contains("test/scoped_b"));
        assert!(!scoped.contains("test/other_thread"));
        // After scoped_end, collection is off again.
        spec_point("test/late");
        assert!(scoped_end().is_empty());
    }

    #[test]
    fn coverage_map_set_merge_and_novelty() {
        let mut a = CoverageMap::new();
        assert!(a.insert(CoverageKey::Branch("open/success".into())));
        assert!(!a.insert(CoverageKey::Branch("open/success".into())));
        assert!(a.insert(CoverageKey::Transition {
            syscall: "open".into(),
            outcome: "EEXIST".into()
        }));
        let mut b = CoverageMap::new();
        b.insert(CoverageKey::Branch("open/success".into()));
        b.insert(CoverageKey::Branch("mkdir/success".into()));
        let novel = b.novel_versus(&a);
        assert_eq!(novel, vec![CoverageKey::Branch("mkdir/success".into())]);
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.transition_count(), 1);
        assert_eq!(a.branch_points().len(), 2);
        let env = a.per_syscall_outcomes();
        assert!(env["open"].contains("EEXIST"));
    }

    #[test]
    fn coverage_map_serialization_round_trips() {
        let mut m = CoverageMap::new();
        m.insert(CoverageKey::Branch("rename/success".into()));
        m.insert(CoverageKey::Transition { syscall: "rename".into(), outcome: "ENOTEMPTY".into() });
        m.insert(CoverageKey::Transition { syscall: "read".into(), outcome: "ok/bytes".into() });
        let text = m.serialize();
        assert!(text.contains("branch rename/success\n"));
        assert!(text.contains("transition rename ENOTEMPTY\n"));
        let parsed = CoverageMap::parse(&text).unwrap();
        assert_eq!(parsed, m);
        // Comments and blank lines are tolerated; junk is not.
        let commented = format!("# header\n\n{text}");
        assert_eq!(CoverageMap::parse(&commented).unwrap(), m);
        assert!(CoverageMap::parse("mystery open").is_err());
        assert!(CoverageMap::parse("transition open").is_err());
    }

    #[test]
    fn outcome_names_are_compact() {
        use crate::errno::Errno;
        use crate::types::Fd;
        assert_eq!(outcome_name(&ErrorOrValue::Error(Errno::ENOENT)), "ENOENT");
        assert_eq!(outcome_name(&ErrorOrValue::Value(RetValue::None)), "ok/none");
        assert_eq!(outcome_name(&ErrorOrValue::Value(RetValue::Fd(Fd(3)))), "ok/fd");
        assert_eq!(
            outcome_name(&ErrorOrValue::Value(RetValue::ReaddirEntry(None))),
            "ok/readdir_end"
        );
    }

    #[test]
    fn summary_percent() {
        let mut hits = BTreeSet::new();
        for p in registry().into_iter().take(10) {
            hits.insert(p);
        }
        let s = CoverageSummary::from_hits(&hits);
        assert_eq!(s.hit, 10);
        assert!(s.percent() > 0.0 && s.percent() <= 100.0);
    }
}
