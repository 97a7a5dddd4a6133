//! # SibylFS result analysis and reporting
//!
//! The volume of data produced by a test run (tens of thousands of checked
//! traces per platform, §2) makes manual analysis impractical; this crate
//! reproduces the paper's analysis tooling: per-run summaries, aggregation of
//! deviations by libc function and by error signature, cross-configuration
//! merging that highlights behaviour common to many systems versus
//! configuration-specific deviations, and coverage reports. Output is
//! markdown/plain text rather than HTML, but the aggregation logic is the
//! same.

use std::collections::{BTreeMap, BTreeSet};

use sibylfs_check::CheckedTrace;
use sibylfs_core::coverage::{CoverageMap, CoverageSummary};

/// A single aggregated deviation signature: the libc function, what was
/// observed, and what the specification allowed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DeviationKey {
    /// The libc function involved.
    pub function: String,
    /// What the implementation did.
    pub observed: String,
    /// What the model allowed (joined for readability).
    pub allowed: String,
}

/// The summary of checking one configuration's traces against one flavour of
/// the specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// The configuration name (e.g. `linux/ext4`).
    pub config: String,
    /// The specification flavour used for checking.
    pub flavor: String,
    /// The executor that produced the traces: `"sim"` for the in-process
    /// simulation, `"host"` for the real-host backend.
    pub backend: String,
    /// Number of traces checked.
    pub traces: usize,
    /// Number of traces accepted.
    pub accepted: usize,
    /// Number of traces with at least one deviation.
    pub failing: usize,
    /// Total deviation count.
    pub deviations: usize,
    /// Deviations per libc function.
    pub by_function: BTreeMap<String, usize>,
    /// Deviations per (function, observed, allowed) signature.
    pub by_signature: BTreeMap<DeviationKey, usize>,
    /// Names of failing traces (capped to keep reports readable).
    pub failing_traces: Vec<String>,
}

/// Maximum number of failing trace names retained in a summary.
const MAX_FAILING_NAMES: usize = 50;

/// Summarise a checked run of simulation-produced traces.
pub fn summarize_run(config: &str, flavor: &str, checked: &[CheckedTrace]) -> RunSummary {
    summarize_run_for_backend(config, flavor, "sim", checked)
}

/// Summarise a checked run, labelling which executor produced the traces.
pub fn summarize_run_for_backend(
    config: &str,
    flavor: &str,
    backend: &str,
    checked: &[CheckedTrace],
) -> RunSummary {
    let mut summary = RunSummary {
        config: config.to_string(),
        flavor: flavor.to_string(),
        backend: backend.to_string(),
        traces: checked.len(),
        ..RunSummary::default()
    };
    for trace in checked {
        if trace.accepted {
            summary.accepted += 1;
        } else {
            summary.failing += 1;
            if summary.failing_traces.len() < MAX_FAILING_NAMES {
                summary.failing_traces.push(trace.name.clone());
            }
        }
        for d in &trace.deviations {
            summary.deviations += 1;
            *summary.by_function.entry(d.function.clone()).or_default() += 1;
            let key = DeviationKey {
                function: d.function.clone(),
                observed: d.observed.clone(),
                allowed: d.allowed.join(", "),
            };
            *summary.by_signature.entry(key).or_default() += 1;
        }
    }
    summary
}

impl RunSummary {
    /// The acceptance rate as a percentage.
    pub fn acceptance_rate(&self) -> f64 {
        if self.traces == 0 {
            100.0
        } else {
            self.accepted as f64 * 100.0 / self.traces as f64
        }
    }

    /// The most common deviation signatures, most frequent first.
    pub fn top_signatures(&self, n: usize) -> Vec<(&DeviationKey, usize)> {
        let mut v: Vec<(&DeviationKey, usize)> =
            self.by_signature.iter().map(|(k, c)| (k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v.into_iter().take(n).collect()
    }
}

/// Render a run summary as markdown.
pub fn render_run_markdown(s: &RunSummary) -> String {
    let mut out = String::new();
    let backend_note =
        if s.backend.is_empty() || s.backend == "sim" { String::new() } else { format!(" [{} backend]", s.backend) };
    out.push_str(&format!(
        "## {}{} checked against the `{}` model\n\n",
        s.config, backend_note, s.flavor
    ));
    out.push_str(&format!(
        "* traces: {}  accepted: {}  failing: {}  ({:.2}% accepted)\n",
        s.traces,
        s.accepted,
        s.failing,
        s.acceptance_rate()
    ));
    out.push_str(&format!("* total deviations: {}\n\n", s.deviations));
    if !s.by_function.is_empty() {
        out.push_str("| function | deviations |\n|---|---|\n");
        for (f, c) in &s.by_function {
            out.push_str(&format!("| {f} | {c} |\n"));
        }
        out.push('\n');
    }
    if !s.by_signature.is_empty() {
        out.push_str("Top deviation signatures:\n\n");
        for (key, count) in s.top_signatures(10) {
            out.push_str(&format!(
                "* `{}`: observed {}, allowed {} — {} occurrence(s)\n",
                key.function, key.observed, key.allowed, count
            ));
        }
        out.push('\n');
    }
    out
}

/// A merged view over many configurations (the paper's merged test runs,
/// §2/§7): per-configuration acceptance plus the deviation signatures that
/// are unique to a few configurations (highlighted) versus common to many.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergedReport {
    /// Per-configuration summaries, in input order.
    pub runs: Vec<RunSummary>,
    /// For each deviation signature, the configurations that exhibit it.
    pub signature_configs: BTreeMap<DeviationKey, BTreeSet<String>>,
}

/// Merge several run summaries.
pub fn merge_runs(runs: Vec<RunSummary>) -> MergedReport {
    let mut signature_configs: BTreeMap<DeviationKey, BTreeSet<String>> = BTreeMap::new();
    for run in &runs {
        for key in run.by_signature.keys() {
            signature_configs.entry(key.clone()).or_default().insert(run.config.clone());
        }
    }
    MergedReport { runs, signature_configs }
}

impl MergedReport {
    /// Deviation signatures exhibited by at most `threshold` configurations —
    /// the interesting, configuration-specific behaviours.
    pub fn distinctive_signatures(
        &self,
        threshold: usize,
    ) -> Vec<(&DeviationKey, &BTreeSet<String>)> {
        self.signature_configs.iter().filter(|(_, configs)| configs.len() <= threshold).collect()
    }

    /// Deviation signatures shared by at least `threshold` configurations —
    /// platform conventions rather than individual bugs.
    pub fn common_signatures(&self, threshold: usize) -> Vec<(&DeviationKey, &BTreeSet<String>)> {
        self.signature_configs.iter().filter(|(_, configs)| configs.len() >= threshold).collect()
    }
}

/// The configuration-specific findings of the paper's survey (§7.3), as
/// `(configuration, libc function that deviates, what the paper found)`. A
/// finding is reproduced when its configuration, checked against its own
/// platform's model, deviates in that function.
pub const SURVEY_FINDINGS: &[(&str, &str, &str)] = &[
    ("linux/sshfs-tmpfs", "rename", "EPERM on rename over a non-empty directory (Fig. 4)"),
    ("linux/posixovl-vfat", "write", "ENOSPC on an effectively empty volume (storage leak)"),
    ("linux/openzfs-trusty", "pread", "O_APPEND writes land at the old offset (corruption observed by a later pread)"),
    ("mac/hfsplus", "pwrite", "negative offset mishandled by the VFS layer"),
    ("freebsd/ufs", "open", "O_CREAT|O_EXCL on a symlink replaces it and returns ENOTDIR"),
    ("linux/hfsplus-trusty", "chmod", "chmod returns EOPNOTSUPP"),
    ("mac/openzfs", "open", "creating inside a deleted working directory succeeds"),
    ("linux/btrfs", "stat", "directory link counts not maintained"),
];

/// Render the merged acceptance table (one row per configuration).
pub fn render_merged_markdown(m: &MergedReport) -> String {
    let mut out = String::new();
    out.push_str(
        "| configuration | backend | model | traces | accepted | failing | deviations | accepted % |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for r in &m.runs {
        let backend = if r.backend.is_empty() { "sim" } else { &r.backend };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.2}% |\n",
            r.config,
            backend,
            r.flavor,
            r.traces,
            r.accepted,
            r.failing,
            r.deviations,
            r.acceptance_rate()
        ));
    }
    out.push('\n');
    let distinctive = m.distinctive_signatures(2);
    if !distinctive.is_empty() {
        out.push_str("Configuration-specific deviations (at most 2 configurations):\n\n");
        const MAX_LISTED: usize = 25;
        for (key, configs) in distinctive.iter().take(MAX_LISTED) {
            out.push_str(&format!(
                "* `{}`: observed {} (allowed {}) — {}\n",
                key.function,
                key.observed,
                key.allowed,
                configs.iter().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
        if distinctive.len() > MAX_LISTED {
            out.push_str(&format!("* … and {} more\n", distinctive.len() - MAX_LISTED));
        }
        out.push('\n');
    }
    out
}

/// Render the §7.3 checklist: each of [`SURVEY_FINDINGS`], marked reproduced
/// or not by the merged survey.
pub fn render_findings_markdown(m: &MergedReport) -> String {
    let mut out = String::from("## Expected findings (paper §7.3 → reproduction)\n\n");
    for (config, function, note) in SURVEY_FINDINGS {
        let seen = m
            .signature_configs
            .iter()
            .any(|(key, configs)| key.function == *function && configs.contains(*config));
        let mark = if seen { "reproduced" } else { "NOT reproduced" };
        out.push_str(&format!("* [{mark}] {config}: {note}\n"));
    }
    out
}

/// Render a full [`CoverageMap`] as markdown: the headline branch-coverage
/// number, the per-syscall outcome-envelope table (which errnos and success
/// shapes each libc function has been observed to produce), and the list of
/// specification points never exercised — the exploration engine's final
/// report, also pinned by a golden snapshot.
pub fn render_coverage_map_markdown(map: &CoverageMap) -> String {
    let mut out = String::new();
    let branches = map.branch_summary();
    out.push_str(&format!(
        "## Model coverage map\n\n\
         * specification branches: {} of {} exercised ({:.1}%)\n\
         * observed (syscall, outcome) transitions: {}\n\n",
        branches.hit,
        branches.total,
        branches.percent(),
        map.transition_count()
    ));
    let envelope = map.per_syscall_outcomes();
    if !envelope.is_empty() {
        out.push_str("### Per-syscall outcome envelope\n\n");
        out.push_str("| syscall | outcomes observed |\n|---|---|\n");
        for (syscall, outcomes) in &envelope {
            let joined: Vec<&str> = outcomes.iter().map(String::as_str).collect();
            out.push_str(&format!("| {syscall} | {} |\n", joined.join(", ")));
        }
        out.push('\n');
    }
    if !branches.missed.is_empty() {
        out.push_str("### Uncovered specification points\n\n");
        const MAX_LISTED: usize = 60;
        for m in branches.missed.iter().take(MAX_LISTED) {
            out.push_str(&format!("* `{m}`\n"));
        }
        if branches.missed.len() > MAX_LISTED {
            out.push_str(&format!("* … and {} more\n", branches.missed.len() - MAX_LISTED));
        }
        out.push('\n');
    }
    out
}

/// Render a coverage summary (§7.2) as markdown.
pub fn render_coverage_markdown(c: &CoverageSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Model coverage: {} of {} specification points exercised ({:.1}%)\n\n",
        c.hit,
        c.total,
        c.percent()
    ));
    if !c.missed.is_empty() {
        out.push_str("Uncovered specification points:\n\n");
        for m in &c.missed {
            out.push_str(&format!("* `{m}`\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_check::{CheckedStep, Deviation, StepKind, StepLabel, StepVerdict};

    fn fake_trace(name: &str, dev: Option<(&str, &str)>) -> CheckedTrace {
        let deviations = dev
            .map(|(f, obs)| {
                vec![Deviation {
                    lineno: 4,
                    function: f.to_string(),
                    call: format!("{f} \"x\""),
                    observed: obs.to_string(),
                    allowed: vec!["ENOENT".to_string()],
                }]
            })
            .unwrap_or_default();
        CheckedTrace {
            name: name.to_string(),
            group: "g".to_string(),
            accepted: deviations.is_empty(),
            steps: vec![CheckedStep {
                lineno: 1,
                label: StepLabel::Synthetic("p1: call stat \"x\""),
                kind: StepKind::Call,
                verdict: StepVerdict::Ok,
                states_tracked: 1,
            }],
            deviations,
            max_states_tracked: 1,
        }
    }

    #[test]
    fn summaries_count_correctly() {
        let checked = vec![
            fake_trace("a", None),
            fake_trace("b", Some(("rename", "EPERM"))),
            fake_trace("c", Some(("rename", "EPERM"))),
            fake_trace("d", Some(("open", "EISDIR"))),
        ];
        let s = summarize_run("linux/sshfs-tmpfs", "linux", &checked);
        assert_eq!(s.traces, 4);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.failing, 3);
        assert_eq!(s.deviations, 3);
        assert_eq!(s.by_function["rename"], 2);
        assert_eq!(s.by_function["open"], 1);
        assert!(s.acceptance_rate() > 24.0 && s.acceptance_rate() < 26.0);
        let top = s.top_signatures(1);
        assert_eq!(top[0].0.function, "rename");
        assert_eq!(top[0].1, 2);
        let md = render_run_markdown(&s);
        assert!(md.contains("linux/sshfs-tmpfs"));
        assert!(md.contains("| rename | 2 |"));
    }

    #[test]
    fn merged_report_identifies_distinctive_signatures() {
        let a = summarize_run("linux/ext4", "linux", &[fake_trace("t", None)]);
        let b = summarize_run(
            "linux/sshfs-tmpfs",
            "linux",
            &[fake_trace("t", Some(("rename", "EPERM")))],
        );
        let c = summarize_run(
            "linux/posixovl-vfat",
            "linux",
            &[fake_trace("t", Some(("rename", "EPERM")))],
        );
        let merged = merge_runs(vec![a, b, c]);
        assert_eq!(merged.runs.len(), 3);
        let distinctive = merged.distinctive_signatures(2);
        assert_eq!(distinctive.len(), 1);
        assert_eq!(distinctive[0].1.len(), 2);
        assert!(merged.common_signatures(3).is_empty());
        let md = render_merged_markdown(&merged);
        assert!(md.contains("| linux/ext4 |"));
        assert!(md.contains("Configuration-specific deviations"));
    }

    #[test]
    fn the_signature_list_says_how_many_it_leaves_out() {
        let checked: Vec<CheckedTrace> = (0..26)
            .map(|i| fake_trace(&format!("t{i}"), Some(("rename", &*format!("E{i:02}")))))
            .collect();
        let merged = merge_runs(vec![summarize_run("linux/sshfs-tmpfs", "linux", &checked)]);
        assert_eq!(merged.distinctive_signatures(2).len(), 26);
        let md = render_merged_markdown(&merged);
        assert_eq!(md.matches("* `rename`: observed").count(), 25, "{md}");
        assert!(md.contains("observed E24 "), "{md}");
        assert!(!md.contains("observed E25 "), "{md}");
        assert!(md.ends_with("* … and 1 more\n\n"), "{md}");

        // At the cap, nothing is left out and nothing says so.
        let merged = merge_runs(vec![summarize_run("linux/sshfs-tmpfs", "linux", &checked[..25])]);
        assert!(!render_merged_markdown(&merged).contains("more\n"));
    }

    #[test]
    fn host_backend_runs_are_labelled() {
        let s = summarize_run_for_backend("host/linux", "linux", "host", &[fake_trace("a", None)]);
        assert_eq!(s.backend, "host");
        let md = render_run_markdown(&s);
        assert!(md.contains("[host backend]"), "{md}");
        let sim = summarize_run("linux/ext4", "linux", &[fake_trace("a", None)]);
        assert_eq!(sim.backend, "sim");
        assert!(!render_run_markdown(&sim).contains("backend]"));
        let merged = merge_runs(vec![sim, s]);
        let md = render_merged_markdown(&merged);
        assert!(md.contains("| linux/ext4 | sim |"), "{md}");
        assert!(md.contains("| host/linux | host |"), "{md}");
    }

    #[test]
    fn merged_table_carries_the_acceptance_rate() {
        let checked = [fake_trace("a", None), fake_trace("b", None), fake_trace("c", None)];
        let mut partly = checked.to_vec();
        partly.push(fake_trace("d", Some(("rename", "EPERM"))));
        let merged = merge_runs(vec![
            summarize_run("linux/ext4", "linux", &checked),
            summarize_run("linux/sshfs-tmpfs", "linux", &partly),
        ]);
        let md = render_merged_markdown(&merged);
        assert!(md.contains("| deviations | accepted % |\n"), "{md}");
        assert!(md.contains("| linux/ext4 | sim | linux | 3 | 3 | 0 | 0 | 100.00% |"), "{md}");
        assert!(md.contains("| linux/sshfs-tmpfs | sim | linux | 4 | 3 | 1 | 1 | 75.00% |"), "{md}");
    }

    #[test]
    fn findings_are_reproduced_only_by_their_own_configuration_and_function() {
        let merged = merge_runs(vec![
            summarize_run("linux/sshfs-tmpfs", "linux", &[fake_trace("t", Some(("rename", "EPERM")))]),
            // mac/hfsplus deviates, but not in pwrite; linux/ext4 deviates in
            // pwrite, but is not mac/hfsplus.
            summarize_run("mac/hfsplus", "mac", &[fake_trace("t", Some(("open", "EISDIR")))]),
            summarize_run("linux/ext4", "linux", &[fake_trace("t", Some(("pwrite", "EINVAL")))]),
        ]);
        let md = render_findings_markdown(&merged);
        assert_eq!(md.matches("\n* [").count(), SURVEY_FINDINGS.len(), "{md}");
        assert!(md.contains("* [reproduced] linux/sshfs-tmpfs: EPERM on rename"), "{md}");
        assert!(md.contains("* [NOT reproduced] mac/hfsplus: negative offset"), "{md}");
        assert_eq!(md.matches("[reproduced]").count(), 1, "{md}");
    }

    #[test]
    fn coverage_map_rendering_has_envelope_table_and_uncovered_list() {
        use sibylfs_core::coverage::CoverageKey;
        let mut m = CoverageMap::new();
        m.insert(CoverageKey::Branch("open/existing_file_success".into()));
        m.insert(CoverageKey::Transition { syscall: "open".into(), outcome: "EEXIST".into() });
        m.insert(CoverageKey::Transition { syscall: "open".into(), outcome: "ok/fd".into() });
        m.insert(CoverageKey::Transition { syscall: "rmdir".into(), outcome: "ENOTEMPTY".into() });
        let md = render_coverage_map_markdown(&m);
        assert!(md.contains("## Model coverage map"));
        assert!(md.contains("| open | EEXIST, ok/fd |"), "{md}");
        assert!(md.contains("| rmdir | ENOTEMPTY |"));
        assert!(md.contains("Uncovered specification points"));
        // One real branch is covered, so it must not be in the uncovered list.
        assert!(!md.contains("* `open/existing_file_success`"));
        assert!(md.contains("transitions: 3"));
    }

    #[test]
    fn coverage_rendering() {
        let c = CoverageSummary { hit: 98, total: 100, missed: vec!["x/y".into(), "z/w".into()] };
        let md = render_coverage_markdown(&c);
        assert!(md.contains("98 of 100"));
        assert!(md.contains("98.0%"));
        assert!(md.contains("`x/y`"));
    }
}
