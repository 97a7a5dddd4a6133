//! Spec-consistency audit.
//!
//! Parses the embedded model source (comment- and test-stripped), segments it
//! into functions, and computes for every syscall entry point the set of
//! errnos its rules can reach — transitively through the shared `SpecCtx`
//! checks, the path resolver, and the per-flavour errno tables. The result is
//! cross-checked against the declared registry in
//! `sibylfs_core::spec_registry`:
//!
//! | rule id                  | meaning                                              |
//! |--------------------------|------------------------------------------------------|
//! | `duplicate-spec-point`   | the same `spec_point` id occurs at two source sites  |
//! | `unregistered-spec-point`| a source id missing from the declared registry       |
//! | `stale-spec-point`       | a declared id no longer present in the source        |
//! | `misprefixed-spec-point` | an id whose prefix is no syscall or shared namespace |
//! | `undeclared-errno`       | a reachable errno missing from the syscall envelope  |
//! | `dead-errno`             | a declared errno no rule of the syscall can emit     |
//! | `missing-entry-fn`       | a declared entry function absent from the source     |
//!
//! The extraction is deliberately an *over*-approximation (it unions the
//! errnos of every function a rule could call, for every flavour), so
//! `undeclared-errno` findings are sound alarms while `dead-errno` findings
//! mean the errno is unreachable under every configuration — dead spec
//! surface.
//!
//! Calls link by file, not by bare name: a call reaches its own file's
//! function of that name if there is one, and otherwise only one the file
//! imports (`name(…)`), one in the module it names (`module::name(…)`), or a
//! method (`.name(…)`, `Type::name(…)`: a text scan cannot tell the type).

use std::collections::{BTreeMap, BTreeSet};

use sibylfs_core::coverage;
use sibylfs_core::errno::Errno;
use sibylfs_core::spec_registry::{self, SHARED_PREFIXES, SYSCALLS};

/// One audit finding, identified by a stable rule id and a subject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Stable rule id (see the module table).
    pub rule: &'static str,
    /// What the finding is about (a spec-point id, or `"<syscall> <ERRNO>"`).
    pub subject: String,
    /// Human-readable context (source locations, reachability note).
    pub detail: String,
}

impl AuditFinding {
    /// The machine-readable report line for this finding. The `finding
    /// <rule> <subject>` prefix (everything before `--`) is what baselines
    /// match on, so detail text can change without invalidating a baseline.
    pub fn line(&self) -> String {
        format!("finding {} {} -- {}", self.rule, self.subject, self.detail)
    }

    /// The baseline key of this finding (report line minus the detail).
    pub fn key(&self) -> String {
        format!("finding {} {}", self.rule, self.subject)
    }
}

/// The result of auditing the model: summary statistics plus findings.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Model files scanned.
    pub files: usize,
    /// Functions segmented out of the model source.
    pub functions: usize,
    /// Distinct spec-point ids found in the source.
    pub points: usize,
    /// Declared syscalls checked.
    pub syscalls: usize,
    /// All findings, sorted by rule then subject.
    pub findings: Vec<AuditFinding>,
    /// Computed per-syscall errno reachability (model name → errnos).
    pub computed_envelopes: BTreeMap<String, BTreeSet<Errno>>,
}

impl AuditReport {
    /// Whether the audit found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the machine-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("@type audit-report\n");
        out.push_str(&format!(
            "# model: {} files, {} functions, {} spec points, {} syscalls\n",
            self.files, self.functions, self.points, self.syscalls
        ));
        for f in &self.findings {
            out.push_str(&f.line());
            out.push('\n');
        }
        out.push_str(&format!("# findings: {}\n", self.findings.len()));
        out
    }

    /// Findings not explained by a baseline report (matched on
    /// [`AuditFinding::key`]). An empty result means the gate passes.
    pub fn unexplained(&self, baseline: &str) -> Vec<&AuditFinding> {
        let allowed: BTreeSet<&str> = baseline
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("finding "))
            .map(|l| l.split(" -- ").next().unwrap_or(l).trim_end())
            .collect();
        self.findings.iter().filter(|f| !allowed.contains(f.key().as_str())).collect()
    }

    /// Render the computed envelopes in `spec_registry.rs` syntax, used to
    /// bootstrap or update the declared table.
    pub fn render_computed_envelopes(&self) -> String {
        let mut out = String::new();
        for (name, errnos) in &self.computed_envelopes {
            let list: Vec<String> = errnos.iter().map(|e| e.to_string()).collect();
            out.push_str(&format!("{}: &[{}]\n", name, list.join(", ")));
        }
        out
    }
}

/// A function segmented out of the model source.
#[derive(Debug, Clone, Default)]
struct FnInfo {
    /// The file the function is defined in.
    file: &'static str,
    /// Whether it is defined in an `impl` block.
    method: bool,
    /// Direct `Errno::X` mentions in the body.
    errnos: BTreeSet<Errno>,
    /// Lowercase identifiers invoked in the body, each after what names it:
    /// `.`, the segment of `segment::name(…)`, or nothing.
    calls: BTreeSet<(String, String)>,
}

/// Everything the scanner extracts from the model source.
#[derive(Debug, Default)]
struct ModelScan {
    fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
    /// file → each name it imports with `use`, and the module it comes from.
    imports: BTreeMap<&'static str, BTreeMap<String, String>>,
    /// spec-point id → source sites (`file:line`).
    points: BTreeMap<String, Vec<String>>,
}

/// The module a model file defines: `fs_ops/mod.rs` → `fs_ops`,
/// `fs_ops/dirs.rs` → `dirs`.
fn module_of(file: &str) -> &str {
    let stem = file.trim_end_matches(".rs").trim_end_matches("/mod");
    stem.rsplit('/').next().unwrap_or(stem)
}

/// The names a flat `use` statement (`use a::b::c;`, `use a::b::{c, d as
/// e};`) imports, each with the module it comes from.
fn use_items(stmt: &str) -> impl Iterator<Item = (String, String)> + '_ {
    let (head, items) = match stmt.split_once('{') {
        Some(split) => split,
        None => stmt.rsplit_once("::").unwrap_or(("", stmt)),
    };
    let module = head.trim_end_matches("::").rsplit("::").next().unwrap_or("");
    items
        .split([',', '}', ';'])
        .filter_map(|item| item.split_whitespace().last())
        .map(move |name| (name.to_string(), module.to_string()))
}

/// Blank out comments, string contents, and char literals so that brace
/// counting and token extraction never trip over them. Length and line
/// structure are preserved.
fn blank_noncode(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Str { escape: bool },
        Char { escape: bool },
        Line,
        Block,
    }
    let mut st = St::Code;
    let mut out = String::with_capacity(src.len());
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '"' => {
                    st = St::Str { escape: false };
                    out.push('"');
                }
                '\'' => {
                    // Distinguish a char literal from a lifetime: a literal
                    // is 'x' or an escape; a lifetime is 'ident not followed
                    // by a closing quote.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => bytes.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        st = St::Char { escape: false };
                    }
                    out.push('\'');
                }
                '/' if next == Some('/') => {
                    st = St::Line;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    st = St::Block;
                    out.push(' ');
                }
                c => out.push(c),
            },
            St::Str { escape } => {
                if c == '\n' {
                    out.push('\n');
                    st = St::Str { escape: false };
                } else if escape {
                    out.push(' ');
                    st = St::Str { escape: false };
                } else if c == '\\' {
                    out.push(' ');
                    st = St::Str { escape: true };
                } else if c == '"' {
                    out.push('"');
                    st = St::Code;
                } else {
                    out.push(' ');
                }
            }
            St::Char { escape } => {
                if escape {
                    out.push(' ');
                    st = St::Char { escape: false };
                } else if c == '\\' {
                    out.push(' ');
                    st = St::Char { escape: true };
                } else if c == '\'' {
                    out.push('\'');
                    st = St::Code;
                } else {
                    out.push(' ');
                }
            }
            St::Line => {
                if c == '\n' {
                    out.push('\n');
                    st = St::Code;
                } else {
                    out.push(' ');
                }
            }
            St::Block => {
                if c == '*' && next == Some('/') {
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                    st = St::Code;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
        }
        i += 1;
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Extract the identifier ending immediately before byte position `end`.
fn ident_before(line: &str, end: usize) -> &str {
    let bytes = line.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1] as char) {
        start -= 1;
    }
    &line[start..end]
}

/// Collect the body tokens of one code segment into a function's info:
/// direct `Errno::X` mentions and lowercase identifiers invoked as `name(`.
fn collect_tokens(info: &mut FnInfo, seg: &str) {
    let mut search = 0;
    while let Some(rel) = seg[search..].find("Errno::") {
        let at = search + rel + "Errno::".len();
        let name: String = seg[at..].chars().take_while(|c| is_ident_char(*c)).collect();
        if let Ok(e) = name.parse::<Errno>() {
            info.errnos.insert(e);
        }
        search = at;
    }
    for (pos, c) in seg.char_indices() {
        if c == '(' {
            let id = ident_before(seg, pos);
            if id
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                && id != "fn"
            {
                let head = seg[..pos - id.len()].trim_end();
                let via = match head.strip_suffix("::") {
                    Some(path) => ident_before(path, path.len()),
                    None if head.ends_with('.') => ".",
                    None => "",
                };
                info.calls.insert((via.to_string(), id.to_string()));
            }
        }
    }
}

/// Scan one model file into `scan`, skipping `#[cfg(test)]` modules.
fn scan_file(scan: &mut ModelScan, file: &'static str, raw: &str) {
    let blanked = blank_noncode(raw);
    let mut depth: i32 = 0;
    // Function currently being collected, innermost last.
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    // Set when a `fn name` signature was seen and its `{` is still pending.
    let mut pending_fn: Option<String> = None;
    // Depths of the `impl` blocks the scan is inside, and whether an `impl`
    // header's `{` is still pending.
    let mut impl_depths: Vec<i32> = Vec::new();
    let mut pending_impl = false;
    // A `use` statement read so far, until its `;`.
    let mut use_stmt: Option<String> = None;
    // Set when `#[cfg(test)]` was seen and the guarded item is pending.
    let mut pending_test_attr = false;
    // When inside a test module: the depth to return to before resuming.
    let mut skip_above: Option<i32> = None;

    for (idx, (line, raw_line)) in blanked.lines().zip(raw.lines()).enumerate() {
        let lineno = idx + 1;
        let trimmed = line.trim();

        if skip_above.is_none() {
            if trimmed.starts_with("#[cfg(test)]") {
                pending_test_attr = true;
            } else if pending_test_attr && !trimmed.starts_with("#[") && !trimmed.is_empty() {
                if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                    skip_above = Some(depth);
                }
                pending_test_attr = false;
            }
        }

        let in_test = skip_above.is_some();

        if !in_test {
            if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
                use_stmt = Some(String::new());
            }
            if let Some(stmt) = &mut use_stmt {
                stmt.push_str(trimmed);
                if trimmed.contains(';') {
                    scan.imports.entry(file).or_default().extend(use_items(stmt));
                    use_stmt = None;
                }
            }
            pending_impl |= trimmed.starts_with("impl ") || trimmed.starts_with("impl<");

            // Function signature detection.
            let mut search = 0;
            while let Some(rel) = line[search..].find("fn ") {
                let at = search + rel;
                let boundary_ok =
                    at == 0 || !is_ident_char(line.as_bytes()[at - 1] as char);
                if boundary_ok {
                    let after = line[at + 3..].trim_start();
                    let name: String =
                        after.chars().take_while(|c| is_ident_char(*c)).collect();
                    if !name.is_empty() {
                        pending_fn = Some(name);
                    }
                }
                search = at + 3;
            }

            // spec_point literals come from the raw line (strings are blanked
            // in `line`), guarded by the blanked line so commented-out calls
            // are ignored.
            if line.contains("spec_point(") {
                let mut search = 0;
                while let Some(rel) = raw_line[search..].find("spec_point(\"") {
                    let at = search + rel + "spec_point(\"".len();
                    if let Some(end) = raw_line[at..].find('"') {
                        let id = raw_line[at..at + end].to_string();
                        scan.points.entry(id).or_default().push(format!("{file}:{lineno}"));
                        search = at + end;
                    } else {
                        break;
                    }
                }
            }

        }

        // Walk the line's brace events in source order, collecting body
        // tokens from the code segment *before* each event with whatever
        // function is innermost there. This keeps single-line functions
        // (`fn f() { g(); }`) and trailing tokens after a `}` attributed
        // to the right function.
        let mut events: Vec<(usize, char)> =
            line.char_indices().filter(|&(_, c)| c == '{' || c == '}').collect();
        events.push((line.len(), '\0'));
        let mut seg_start = 0usize;
        for (pos, c) in events {
            if skip_above.is_none() {
                if let Some(&(fi, _)) = fn_stack.last() {
                    collect_tokens(&mut scan.fns[fi], &line[seg_start..pos]);
                }
            }
            seg_start = pos + c.len_utf8();
            match c {
                '{' => {
                    if skip_above.is_none() {
                        if let Some(name) = pending_fn.take() {
                            let fi = scan.fns.len();
                            // A function nested in another is not a method.
                            let method = !impl_depths.is_empty() && fn_stack.is_empty();
                            scan.fns.push(FnInfo { file, method, ..FnInfo::default() });
                            scan.by_name.entry(name).or_default().push(fi);
                            fn_stack.push((fi, depth));
                        } else if std::mem::take(&mut pending_impl) {
                            impl_depths.push(depth);
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(&(_, d)) = fn_stack.last() {
                        if depth <= d {
                            fn_stack.pop();
                        }
                    }
                    if impl_depths.last().is_some_and(|&d| depth <= d) {
                        impl_depths.pop();
                    }
                    if let Some(d) = skip_above {
                        if depth <= d {
                            skip_above = None;
                        }
                    }
                }
                _ => {}
            }
        }
        // A semicolon ends a pending signature that turned out to be a trait
        // method declaration or similar.
        if line.contains(';') && !line.contains('{') {
            pending_fn = None;
        }
    }
}

fn scan_model() -> (ModelScan, usize) {
    let sources = coverage::model_sources();
    let mut scan = ModelScan::default();
    for (file, src) in sources {
        scan_file(&mut scan, file, src);
    }
    (scan, sources.len())
}

/// The functions a call from `caller` reaches (the module docs give the
/// rule).
fn callees(scan: &ModelScan, caller: &FnInfo, (via, name): &(String, String)) -> Vec<usize> {
    let named = scan.by_name.get(name).map_or(&[][..], Vec::as_slice);
    let own: Vec<usize> =
        named.iter().copied().filter(|&fi| scan.fns[fi].file == caller.file).collect();
    if !own.is_empty() {
        return own;
    }
    let imported = scan.imports.get(caller.file).and_then(|imports| imports.get(name));
    let reached = |fi: &usize| {
        let f = &scan.fns[*fi];
        match via.as_str() {
            "" => imported.is_some_and(|module| module == module_of(f.file)),
            q if q == "." || q.starts_with(char::is_uppercase) => f.method,
            module => module == module_of(f.file),
        }
    };
    named.iter().copied().filter(reached).collect()
}

/// Every errno reachable from `entry` through the call graph of the scanned
/// model (union over all flavours and trait configurations).
fn reachable_errnos(scan: &ModelScan, entry: &str) -> BTreeSet<Errno> {
    let mut out = BTreeSet::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = scan.by_name.get(entry).cloned().unwrap_or_default();
    while let Some(fi) = queue.pop() {
        if !seen.insert(fi) {
            continue;
        }
        let f = &scan.fns[fi];
        out.extend(f.errnos.iter().copied());
        for call in &f.calls {
            queue.extend(callees(scan, f, call));
        }
    }
    out
}

/// Run the spec-consistency audit over the embedded model source.
pub fn audit_model() -> AuditReport {
    let (scan, files) = scan_model();
    let mut findings = Vec::new();

    // Spec-point checks.
    let declared: BTreeSet<&str> = spec_registry::declared_points().iter().copied().collect();
    for (id, sites) in &scan.points {
        if sites.len() > 1 {
            findings.push(AuditFinding {
                rule: "duplicate-spec-point",
                subject: id.clone(),
                detail: format!("declared at {}", sites.join(" and ")),
            });
        }
        if !declared.contains(id.as_str()) {
            findings.push(AuditFinding {
                rule: "unregistered-spec-point",
                subject: id.clone(),
                detail: format!("present at {} but not in spec_registry::POINTS", sites[0]),
            });
        }
        let prefix = id.split('/').next().unwrap_or("");
        if spec_registry::syscall_spec(prefix).is_none() && !SHARED_PREFIXES.contains(&prefix) {
            findings.push(AuditFinding {
                rule: "misprefixed-spec-point",
                subject: id.clone(),
                detail: format!(
                    "prefix {prefix:?} is neither a declared syscall nor one of {SHARED_PREFIXES:?}"
                ),
            });
        }
    }
    for id in &declared {
        if !scan.points.contains_key(*id) {
            findings.push(AuditFinding {
                rule: "stale-spec-point",
                subject: (*id).to_string(),
                detail: "declared in spec_registry::POINTS but absent from the model source"
                    .to_string(),
            });
        }
    }

    // Errno envelope checks.
    let mut computed_envelopes = BTreeMap::new();
    for sys in SYSCALLS {
        if !scan.by_name.contains_key(sys.entry) {
            findings.push(AuditFinding {
                rule: "missing-entry-fn",
                subject: sys.name.to_string(),
                detail: format!("entry function {} not found in the model source", sys.entry),
            });
            continue;
        }
        let computed = reachable_errnos(&scan, sys.entry);
        let declared: BTreeSet<Errno> = sys.errnos.iter().copied().collect();
        for e in computed.difference(&declared) {
            findings.push(AuditFinding {
                rule: "undeclared-errno",
                subject: format!("{} {}", sys.name, e),
                detail: format!("reachable from {} but missing from the declared envelope", sys.entry),
            });
        }
        for e in declared.difference(&computed) {
            findings.push(AuditFinding {
                rule: "dead-errno",
                subject: format!("{} {}", sys.name, e),
                detail: format!("declared but unreachable from {} — dead spec surface", sys.entry),
            });
        }
        computed_envelopes.insert(sys.name.to_string(), computed);
    }

    findings.sort_by(|a, b| (a.rule, &a.subject).cmp(&(b.rule, &b.subject)));

    AuditReport {
        files,
        functions: scan.fns.len(),
        points: scan.points.len(),
        syscalls: SYSCALLS.len(),
        findings,
        computed_envelopes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_skips_comments_strings_and_test_mods() {
        let src = r#"
fn alpha() {
    // Errno::EACCES in a comment is ignored.
    let s = "Errno::EAGAIN in a string is ignored";
    beta(Errno::ENOENT);
    spec_point("alpha/go");
}

#[cfg(test)]
mod tests {
    fn gamma() {
        delta(Errno::EPERM);
        spec_point("test/hidden");
    }
}
"#;
        let mut scan = ModelScan::default();
        scan_file(&mut scan, "x.rs", src);
        assert!(scan.by_name.contains_key("alpha"));
        assert!(!scan.by_name.contains_key("gamma"));
        let fi = scan.by_name["alpha"][0];
        assert_eq!(
            scan.fns[fi].errnos.iter().copied().collect::<Vec<_>>(),
            vec![Errno::ENOENT]
        );
        assert!(scan.fns[fi].calls.contains(&(String::new(), "beta".to_string())));
        assert!(scan.points.contains_key("alpha/go"));
        assert!(!scan.points.contains_key("test/hidden"));
    }

    #[test]
    fn closure_follows_calls_transitively() {
        let src = r#"
fn top() { middle(); }
fn middle() { bottom(); }
fn bottom() { fail(Errno::ELOOP); }
fn unrelated() { other(Errno::EBUSY); }
"#;
        let mut scan = ModelScan::default();
        scan_file(&mut scan, "x.rs", src);
        let e = reachable_errnos(&scan, "top");
        assert!(e.contains(&Errno::ELOOP));
        assert!(!e.contains(&Errno::EBUSY));
    }

    #[test]
    fn calls_link_by_file_not_by_bare_name() {
        let mut scan = ModelScan::default();
        scan_file(
            &mut scan,
            "fs/a.rs",
            "fn spec_a() { helper(); }\nfn helper() { fail(Errno::EACCES); }\n\
             pub fn shared() { fail(Errno::EBUSY); }\n",
        );
        scan_file(
            &mut scan,
            "fs/b.rs",
            "fn spec_b() { helper(); apply(); }\nfn helper() { fail(Errno::ELOOP); }\n",
        );
        scan_file(
            &mut scan,
            "fs/c.rs",
            "use crate::fs::a::shared;\nfn spec_c() { shared(); b::helper(); }\n\
             struct S;\nimpl S {\n    fn apply(&self) { fail(Errno::EPERM); }\n}\n",
        );
        let errnos = |entry| reachable_errnos(&scan, entry).into_iter().collect::<Vec<_>>();
        // Each file's own `helper`, and no other file's `apply` method.
        assert_eq!(errnos("spec_a"), [Errno::EACCES]);
        assert_eq!(errnos("spec_b"), [Errno::ELOOP]);
        // An import by name and a module path reach across files.
        assert_eq!(errnos("spec_c"), [Errno::EBUSY, Errno::ELOOP]);
    }

    #[test]
    fn model_audit_is_clean() {
        let report = audit_model();
        assert!(
            report.is_clean(),
            "spec-consistency findings:\n{}",
            report.render()
        );
        assert!(report.points >= 190, "expected the full registry, got {}", report.points);
        assert_eq!(report.syscalls, 25);
    }

    #[test]
    fn baseline_matching_ignores_detail_text() {
        let f = AuditFinding {
            rule: "dead-errno",
            subject: "open EBUSY".into(),
            detail: "whatever".into(),
        };
        let report = AuditReport { findings: vec![f], ..AuditReport::default() };
        assert_eq!(report.unexplained("").len(), 1);
        assert!(report.unexplained("finding dead-errno open EBUSY -- old detail\n").is_empty());
        assert!(report.unexplained("finding dead-errno open EBUSY\n").is_empty());
    }
}
