//! Printer for the script and trace text formats.
//!
//! Commands and return values print via their `Display` implementations in
//! `sibylfs-core`; this module adds the file-level framing (`@type` headers,
//! `# Test` names, process prefixes and directives, line numbers, and the
//! `[pN]` tag on a return that does not directly follow its own call).

use std::fmt::Write as _;

use sibylfs_core::commands::OsLabel;
use sibylfs_core::types::INITIAL_PID;

use crate::{Script, ScriptStep, Trace};

/// Render a script to its text form.
pub fn render_script(script: &Script) -> String {
    let mut out = String::new();
    out.push_str("@type script\n");
    if !script.name.is_empty() {
        let _ = writeln!(out, "# Test {}", script.name);
    }
    for step in &script.steps {
        match step {
            ScriptStep::Call { pid, cmd } => {
                if *pid != INITIAL_PID {
                    let _ = write!(out, "[p{}] ", pid.0);
                }
                let _ = writeln!(out, "{cmd}");
            }
            ScriptStep::CreateProcess { pid, uid, gid } => {
                let _ = writeln!(out, "@process create {} {} {}", pid.0, uid.0, gid.0);
            }
            ScriptStep::DestroyProcess { pid } => {
                let _ = writeln!(out, "@process destroy {}", pid.0);
            }
        }
    }
    out
}

/// Render a trace to its text form. Call lines are numbered by their position
/// in the trace (as in Fig. 3 of the paper). A return value directly after
/// its own call prints bare; any other return carries its process's `[pN]`
/// tag, so overlapping calls survive the round trip.
pub fn render_trace(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("@type trace\n");
    if !trace.name.is_empty() {
        let _ = writeln!(out, "# Test {}", trace.name);
    }
    let mut prev: Option<&OsLabel> = None;
    for step in &trace.steps {
        match &step.label {
            OsLabel::Call(pid, cmd) => {
                let _ = write!(out, "{}: ", step.lineno);
                if *pid != INITIAL_PID {
                    let _ = write!(out, "[p{}] ", pid.0);
                }
                let _ = writeln!(out, "{cmd}");
            }
            OsLabel::Return(pid, ret) => {
                if !matches!(prev, Some(OsLabel::Call(p, _)) if p == pid) {
                    let _ = write!(out, "[p{}] ", pid.0);
                }
                let _ = writeln!(out, "{ret}");
            }
            OsLabel::Create(pid, uid, gid) => {
                let _ = writeln!(out, "@process create {} {} {}", pid.0, uid.0, gid.0);
            }
            OsLabel::Destroy(pid) => {
                let _ = writeln!(out, "@process destroy {}", pid.0);
            }
            OsLabel::Tau => {
                // τ events are internal and never appear in recorded traces.
            }
        }
        prev = Some(&step.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_script, parse_trace};
    use sibylfs_core::commands::{ErrorOrValue, OsCommand, RetValue};
    use sibylfs_core::errno::Errno;
    use sibylfs_core::flags::{FileMode, OpenFlags};
    use sibylfs_core::types::{Gid, Pid, Uid};

    #[test]
    fn script_render_parse_round_trip() {
        let mut s = Script::new("rename___case_1", "rename");
        s.call(OsCommand::Mkdir("emptydir".into(), FileMode::new(0o777)))
            .call(OsCommand::Open(
                "nonemptydir/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(FileMode::new(0o666)),
            ))
            .create_process(Pid(2), Uid(1000), Gid(1000))
            .call_as(Pid(2), OsCommand::Rename("emptydir".into(), "nonemptydir".into()))
            .destroy_process(Pid(2));
        let text = render_script(&s);
        let parsed = parse_script(&text).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn trace_render_parse_round_trip() {
        let mut t = Trace::new("open___case", "open");
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Open("f".into(), OpenFlags::O_CREAT, Some(FileMode::new(0o644))),
            ErrorOrValue::Value(RetValue::Fd(sibylfs_core::types::Fd(3))),
        );
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Write(sibylfs_core::types::Fd(3), b"hello".to_vec()),
            ErrorOrValue::Value(RetValue::Num(5)),
        );
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Rmdir("f".into()),
            ErrorOrValue::Error(Errno::ENOTDIR),
        );
        let text = render_trace(&t);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.call_count(), 3);
        assert_eq!(parsed.name, t.name);
        // Labels survive the round trip (line numbers are regenerated).
        let expected: Vec<_> = t.labels().cloned().collect();
        let actual: Vec<_> = parsed.labels().cloned().collect();
        assert_eq!(expected, actual);
    }

    #[test]
    fn overlapping_calls_round_trip_with_tagged_returns() {
        let mkdir = |p: &str| OsCommand::Mkdir(p.into(), FileMode::new(0o777));
        let none = ErrorOrValue::Value(RetValue::None);
        let mut t = Trace::new("concurrency___overlap", "concurrency");
        t.push_label(OsLabel::Create(Pid(2), Uid(0), Gid(0)));
        t.push_label(OsLabel::Call(INITIAL_PID, mkdir("/a")));
        t.push_label(OsLabel::Call(Pid(2), mkdir("/b")));
        t.push_label(OsLabel::Return(Pid(2), none.clone()));
        t.push_label(OsLabel::Return(INITIAL_PID, none));
        let text = render_trace(&t);
        // Only the return that does not directly follow its own call is tagged.
        assert_eq!(
            text,
            "@type trace\n# Test concurrency___overlap\n@process create 2 0 0\n\
             2: mkdir \"/a\" 0o777\n3: [p2] mkdir \"/b\" 0o777\nRV_none\n[p1] RV_none\n"
        );
        assert_eq!(parse_trace(&text).unwrap(), t);
    }

    #[test]
    fn rendered_script_matches_paper_style() {
        let mut s = Script::new("rename___rename_emptydir___nonemptydir", "rename");
        s.call(OsCommand::Mkdir("emptydir".into(), FileMode::new(0o777)));
        let text = render_script(&s);
        assert!(text.starts_with("@type script\n# Test rename___rename_emptydir___nonemptydir\n"));
        assert!(text.contains("mkdir \"emptydir\" 0o777"));
    }
}
