//! # SibylFS script and trace formats
//!
//! Test scripts drive the file system under test; traces record what the
//! system actually did; checked traces record the oracle's verdict (Figs. 2–4
//! of the paper). This crate defines the in-memory representations of scripts
//! and traces and a concrete text syntax with a parser and printer.
//!
//! The text syntax follows the paper's examples:
//!
//! ```text
//! @type script
//! # Test rename___rename_emptydir___nonemptydir
//! mkdir "emptydir" 0o777
//! mkdir "nonemptydir" 0o777
//! open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
//! rename "emptydir" "nonemptydir"
//! ```
//!
//! Multi-process scripts prefix lines with `[p2]` and use `@process
//! create`/`@process destroy` directives. A trace numbers its call lines and
//! puts each return value (`RV_none`, `RV_num(3)`, an errno name, …) on a
//! line of its own: bare when it directly follows its own call, tagged
//! `[pN]` otherwise, so calls from several processes may overlap. Which call
//! a step belongs to is a fact of the trace, named by [`Trace::call_of`] for
//! the checker's diagnostics and coverage alike.

pub mod parse;
pub mod print;

use sibylfs_core::commands::{ErrorOrValue, OsCommand, OsLabel};
use sibylfs_core::types::{Gid, Pid, Uid, INITIAL_PID};

pub use parse::{parse_script, parse_script_spanned, parse_trace, ParseError};
pub use print::{render_script, render_trace};

/// One step of a test script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptStep {
    /// A libc call made by a process.
    Call {
        /// The calling process.
        pid: Pid,
        /// The command and its arguments.
        cmd: OsCommand,
    },
    /// Create a new process with the given credentials.
    CreateProcess {
        /// The new process id.
        pid: Pid,
        /// The user the process runs as.
        uid: Uid,
        /// The group the process runs as.
        gid: Gid,
    },
    /// Destroy a process.
    DestroyProcess {
        /// The process to destroy.
        pid: Pid,
    },
}

/// A test script: a named sequence of steps, executed against an initially
/// empty file system by a default process (`p1`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Script {
    /// The script name (from the `# Test <name>` header comment).
    pub name: String,
    /// The libc function group this script belongs to (e.g. `"rename"`),
    /// used to organise suites; derived from the name when omitted.
    pub group: String,
    /// The steps, in order.
    pub steps: Vec<ScriptStep>,
}

impl Script {
    /// Create an empty script with the given name and group.
    pub fn new(name: impl Into<String>, group: impl Into<String>) -> Script {
        Script { name: name.into(), group: group.into(), steps: Vec::new() }
    }

    /// Append a call by the default process.
    pub fn call(&mut self, cmd: OsCommand) -> &mut Self {
        self.call_as(INITIAL_PID, cmd)
    }

    /// Append a call by a specific process.
    pub fn call_as(&mut self, pid: Pid, cmd: OsCommand) -> &mut Self {
        self.steps.push(ScriptStep::Call { pid, cmd });
        self
    }

    /// Append a process-creation step.
    pub fn create_process(&mut self, pid: Pid, uid: Uid, gid: Gid) -> &mut Self {
        self.steps.push(ScriptStep::CreateProcess { pid, uid, gid });
        self
    }

    /// Append a process-destruction step.
    pub fn destroy_process(&mut self, pid: Pid) -> &mut Self {
        self.steps.push(ScriptStep::DestroyProcess { pid });
        self
    }

    /// The number of libc calls in the script.
    pub fn call_count(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, ScriptStep::Call { .. })).count()
    }
}

/// One event of a recorded trace, tagged with the line number of the call in
/// the trace file (used in diagnostics, as in Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The line number of this step in the rendered trace.
    pub lineno: usize,
    /// The observed label.
    pub label: OsLabel,
}

/// A recorded trace: the interleaving of calls and observed return values
/// produced by executing a script against a real (or simulated) file system.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// The originating script name.
    pub name: String,
    /// The libc function group of the originating script.
    pub group: String,
    /// The recorded events in order.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Create an empty trace for the given script name/group.
    pub fn new(name: impl Into<String>, group: impl Into<String>) -> Trace {
        Trace { name: name.into(), group: group.into(), steps: Vec::new() }
    }

    /// Append a call/return pair observed for `pid`.
    pub fn push_call_return(&mut self, pid: Pid, cmd: OsCommand, ret: ErrorOrValue) {
        self.push_label(OsLabel::Call(pid, cmd));
        self.push_label(OsLabel::Return(pid, ret));
    }

    /// Append a process lifecycle label.
    pub fn push_label(&mut self, label: OsLabel) {
        let lineno = self.steps.len() + 1;
        self.steps.push(TraceStep { lineno, label });
    }

    /// The labels of the trace in order (without line numbers).
    pub fn labels(&self) -> impl Iterator<Item = &OsLabel> {
        self.steps.iter().map(|s| &s.label)
    }

    /// The number of call labels (i.e. libc invocations) in the trace.
    pub fn call_count(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s.label, OsLabel::Call(..))).count()
    }

    /// The call that step `index` belongs to: the latest call by its process
    /// at or before it, so a call belongs to itself and a return to the call
    /// it answers. A return after that call was already answered belongs to
    /// none, and neither do τ and a process with no call yet.
    pub fn call_of(&self, index: usize) -> Option<&OsCommand> {
        let label = &self.steps[index].label;
        let pid = label.pid()?;
        let returning = matches!(label, OsLabel::Return(..));
        let before = if returning { &self.steps[..index] } else { &self.steps[..=index] };
        let latest = before.iter().rev().map(|s| &s.label).find(|l| match l {
            OsLabel::Call(p, _) => *p == pid,
            OsLabel::Return(p, _) => *p == pid && returning,
            _ => false,
        })?;
        match latest {
            OsLabel::Call(_, cmd) => Some(cmd),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_core::commands::RetValue;
    use sibylfs_core::flags::FileMode;

    #[test]
    fn script_builder_counts_calls() {
        let mut s = Script::new("t", "mkdir");
        s.call(OsCommand::Mkdir("/d".into(), FileMode::new(0o777)))
            .create_process(Pid(2), Uid(1000), Gid(1000))
            .call_as(Pid(2), OsCommand::Stat("/d".into()))
            .destroy_process(Pid(2));
        assert_eq!(s.call_count(), 2);
        assert_eq!(s.steps.len(), 4);
    }

    #[test]
    fn call_of_names_the_latest_call_by_the_steps_process() {
        let mkdir = OsCommand::Mkdir("/a".into(), FileMode::new(0o777));
        let stat = OsCommand::Stat("/b".into());
        let none = ErrorOrValue::Value(RetValue::None);
        let mut t = Trace::new("t", "t");
        t.push_label(OsLabel::Create(Pid(2), Uid(0), Gid(0)));
        t.push_label(OsLabel::Call(INITIAL_PID, mkdir.clone()));
        t.push_label(OsLabel::Call(Pid(2), stat.clone()));
        t.push_label(OsLabel::Return(INITIAL_PID, none.clone()));
        t.push_label(OsLabel::Return(Pid(2), none.clone()));
        t.push_label(OsLabel::Return(Pid(2), none));
        assert_eq!(t.call_of(0), None, "p2 has made no call yet");
        assert_eq!(t.call_of(2), Some(&stat), "a call belongs to itself");
        assert_eq!(t.call_of(3), Some(&mkdir));
        assert_eq!(t.call_of(4), Some(&stat));
    }

    #[test]
    fn a_return_after_its_call_was_answered_names_no_call() {
        let mkdir = OsCommand::Mkdir("/a".into(), FileMode::new(0o777));
        let none = ErrorOrValue::Value(RetValue::None);
        let mut t = Trace::new("t", "t");
        t.push_label(OsLabel::Create(Pid(2), Uid(0), Gid(0)));
        t.push_call_return(INITIAL_PID, mkdir.clone(), none.clone());
        t.push_label(OsLabel::Call(Pid(2), OsCommand::Stat("/a".into())));
        t.push_label(OsLabel::Return(INITIAL_PID, none.clone()));
        t.push_label(OsLabel::Return(Pid(2), none.clone()));
        t.push_label(OsLabel::Return(Pid(2), none));
        assert_eq!(t.call_of(2), Some(&mkdir));
        assert_eq!(t.call_of(4), None, "p1's mkdir was answered at step 2");
        assert_eq!(t.call_of(5), Some(&OsCommand::Stat("/a".into())));
        assert_eq!(t.call_of(6), None, "p2's stat was answered at step 5");
    }

    #[test]
    fn trace_records_call_return_pairs() {
        let mut t = Trace::new("t", "mkdir");
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        );
        assert_eq!(t.steps.len(), 2);
        assert_eq!(t.call_count(), 1);
        assert_eq!(t.steps[0].lineno, 1);
        assert_eq!(t.steps[1].lineno, 2);
    }
}
