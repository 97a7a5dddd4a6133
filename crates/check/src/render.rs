//! Rendering of checked traces in the style of Fig. 4 of the paper.

use std::fmt::Write as _;

use crate::checker::{CheckedTrace, StepVerdict};

/// A structural diagnostic in the shape of the paper's Fig. 4 annotations: a
/// severity, the line it anchors to, a one-line title, and follow-up notes.
/// Shared between the trace checker's deviation rendering and the static
/// linter's reports so every tool's findings read the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticBlock {
    /// 1-based line the diagnostic anchors to.
    pub lineno: usize,
    /// Severity label, e.g. `"Error"` or `"Warning"`.
    pub severity: &'static str,
    /// The headline of the block.
    pub title: String,
    /// Additional `# `-prefixed lines.
    pub notes: Vec<String>,
}

/// Append a diagnostic block in the Fig. 4 comment style:
///
/// ```text
/// # Error: 6: EPERM
/// # unexpected results: EPERM
/// ```
pub fn render_diagnostic_block(out: &mut String, block: &DiagnosticBlock) {
    let _ = writeln!(out, "# {}: {}: {}", block.severity, block.lineno, block.title);
    for note in &block.notes {
        let _ = writeln!(out, "# {note}");
    }
}

/// Render a checked trace as text. Conformant steps appear as in the original
/// trace; non-conformant steps are annotated with the diagnostic block of
/// Fig. 4.
pub fn render_checked_trace(checked: &CheckedTrace) -> String {
    let mut out = String::new();
    out.push_str("@type checked-trace\n");
    let _ = writeln!(out, "# Test {}", checked.name);
    let _ = writeln!(
        out,
        "# Verdict: {}",
        if checked.accepted { "accepted" } else { "NOT accepted" }
    );
    for step in &checked.steps {
        match &step.verdict {
            StepVerdict::Ok => {
                let _ = writeln!(out, "{}", step.label);
            }
            StepVerdict::Deviation { observed, allowed, continued_with } => {
                let mut notes = vec![
                    format!("unexpected results: {observed}"),
                    format!("allowed are only: {}", allowed.join(", ")),
                ];
                if let Some(c) = continued_with {
                    notes.push(format!("continuing with {c}"));
                }
                render_diagnostic_block(
                    &mut out,
                    &DiagnosticBlock {
                        lineno: step.lineno,
                        severity: "Error",
                        title: observed.clone(),
                        notes,
                    },
                );
            }
            StepVerdict::StateSetBounded { tracked, bound } => {
                render_diagnostic_block(
                    &mut out,
                    &DiagnosticBlock {
                        lineno: step.lineno,
                        severity: "Error",
                        title: format!(
                            "state set exceeded the safety bound ({tracked} states tracked, bound {bound}); the set was truncated and the rest of this check is lossy"
                        ),
                        notes: Vec::new(),
                    },
                );
            }
        }
    }
    out
}

/// Render a [`sibylfs_script::ParseError`] through the same diagnostic block
/// shape as checker deviations and lint findings, so a server client (or a CLI
/// user) gets a locatable error in the one format every tool emits:
///
/// ```text
/// @type parse-error
/// # Test badfile.txt
/// # Error: 3: cannot parse: uid out of range: -5
/// # at badfile.txt line 3, column 17
/// ```
pub fn render_parse_error(source_name: &str, err: &sibylfs_script::ParseError) -> String {
    let mut out = String::new();
    out.push_str("@type parse-error\n");
    let _ = writeln!(out, "# Test {source_name}");
    render_diagnostic_block(
        &mut out,
        &DiagnosticBlock {
            lineno: err.line,
            severity: "Error",
            title: format!("cannot parse: {}", err.message),
            notes: vec![format!("at {source_name} line {}, column {}", err.line, err.col)],
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CheckedStep, Deviation, StepKind, StepLabel};

    fn sample() -> CheckedTrace {
        CheckedTrace {
            name: "rename___case".into(),
            group: "rename".into(),
            accepted: false,
            steps: vec![
                CheckedStep {
                    lineno: 1,
                    label: StepLabel::Synthetic("p1: call mkdir \"d\" 0o777"),
                    kind: StepKind::Call,
                    verdict: StepVerdict::Ok,
                    states_tracked: 1,
                },
                CheckedStep {
                    lineno: 6,
                    label: StepLabel::Synthetic("p1: return EPERM"),
                    kind: StepKind::Return,
                    verdict: StepVerdict::Deviation {
                        observed: "EPERM".into(),
                        allowed: vec!["EEXIST".into(), "ENOTEMPTY".into()],
                        continued_with: Some("EEXIST".into()),
                    },
                    states_tracked: 1,
                },
            ],
            deviations: vec![Deviation {
                lineno: 6,
                function: "rename".into(),
                call: "rename \"emptydir\" \"nonemptydir\"".into(),
                observed: "EPERM".into(),
                allowed: vec!["EEXIST".into(), "ENOTEMPTY".into()],
            }],
            max_states_tracked: 2,
        }
    }

    #[test]
    fn rendering_matches_fig4_shape() {
        let text = render_checked_trace(&sample());
        assert!(text.contains("# Error: 6: EPERM"));
        assert!(text.contains("# unexpected results: EPERM"));
        assert!(text.contains("# allowed are only: EEXIST, ENOTEMPTY"));
        assert!(text.contains("# continuing with EEXIST"));
    }
}
