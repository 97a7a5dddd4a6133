//! # SibylFS trace checker
//!
//! The executable test oracle: given a recorded trace of libc calls and
//! returns, decide whether it is allowed by the model (Fig. 1, "SibylFS").
//!
//! The checker maintains the set of model states the real system might be in,
//! applying the transition function to every state for every label and taking
//! the union (§5). Internal nondeterminism is resolved when observed values
//! arrive, so no search or constraint solving is ever needed (§3); an empty
//! state set means the step is not allowed, in which case the checker emits a
//! diagnostic listing the allowed return values and continues from a recovered
//! state (Fig. 4).

// Panicking escape hatches are banned from the shipped library: a model or
// checker that aborts on unexpected input is useless as an oracle. Tests may
// still unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checker;
pub mod parallel;
pub mod render;

pub use checker::{
    check_trace, check_trace_with_coverage, CheckOptions, CheckedStep, CheckedTrace, Checker,
    Deviation, StepKind, StepLabel, StepVerdict,
};
pub use parallel::{check_traces_parallel, SuiteCheckStats};
pub use render::{
    render_checked_trace, render_diagnostic_block, render_parse_error, DiagnosticBlock,
};

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_core::commands::OsCommand;
    use sibylfs_core::flags::{FileMode, OpenFlags};
    use sibylfs_core::flavor::{Flavor, SpecConfig};
    use sibylfs_exec::{execute_script, ExecOptions};
    use sibylfs_fsimpl::configs;
    use sibylfs_script::Script;

    /// End-to-end smoke test mirroring the paper's Figs. 2–4: generate the
    /// rename script, execute it on SSHFS, check it, and observe the EPERM
    /// deviation with the EEXIST/ENOTEMPTY diagnostic.
    #[test]
    fn fig2_to_fig4_round_trip() {
        let mut s = Script::new("rename___rename_emptydir___nonemptydir", "rename");
        s.call(OsCommand::Mkdir("emptydir".into(), FileMode::new(0o777)))
            .call(OsCommand::Mkdir("nonemptydir".into(), FileMode::new(0o777)))
            .call(OsCommand::Open(
                "nonemptydir/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(FileMode::new(0o666)),
            ))
            .call(OsCommand::Rename("emptydir".into(), "nonemptydir".into()));

        // A well-behaved Linux file system conforms.
        let good = execute_script(&configs::by_name("linux/ext4").unwrap(), &s, ExecOptions::default());
        let checked = check_trace(&SpecConfig::standard(Flavor::Linux), &good, CheckOptions::default());
        assert!(checked.accepted, "ext4 trace should be accepted: {:?}", checked.deviations);

        // SSHFS returns EPERM, which the model rejects with the Fig. 4 message.
        let bad = execute_script(&configs::by_name("linux/sshfs-tmpfs").unwrap(), &s, ExecOptions::default());
        let checked = check_trace(&SpecConfig::standard(Flavor::Linux), &bad, CheckOptions::default());
        assert!(!checked.accepted);
        assert_eq!(checked.deviations.len(), 1);
        let d = &checked.deviations[0];
        assert_eq!(d.function, "rename");
        assert_eq!(d.observed, "EPERM");
        assert!(d.allowed.contains(&"EEXIST".to_string()));
        assert!(d.allowed.contains(&"ENOTEMPTY".to_string()));
        let rendered = render_checked_trace(&checked);
        assert!(rendered.contains("allowed are only"), "rendered:\n{rendered}");
    }
}
