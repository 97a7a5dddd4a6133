//! # SibylFS core model
//!
//! An executable specification of POSIX and real-world file-system behaviour,
//! reproducing the model of *SibylFS: formal specification and oracle-based
//! testing for POSIX and real-world file systems* (SOSP 2015).
//!
//! The model is a labelled transition system:
//!
//! * **states** are abstract operating-system states ([`os::OsState`]):
//!   a directory heap ([`state::DirHeap`]), OS-level open file descriptions,
//!   a group table, and per-process state (cwd, descriptor tables, directory
//!   handles, umask, credentials, run state);
//! * **labels** ([`commands::OsLabel`]) are libc calls, returns, process
//!   creation/destruction, and the internal τ step;
//! * the transition function [`os::trans::os_trans`] maps a state and a label
//!   to the finite set of allowed next states.
//!
//! The model is *loose* — it admits every behaviour the specification allows
//! (multiple error codes, short reads and writes, any `readdir` order,
//! concurrency) — yet checking a trace against it never requires search:
//! nondeterminism is resolved step by step as observed values arrive (§3 of
//! the paper).
//!
//! The model is parameterised by a [`flavor::SpecConfig`]: a platform flavour
//! (POSIX envelope, Linux, OS X, FreeBSD) plus the permissions trait.
//!
//! ## Quick example
//!
//! ```
//! use sibylfs_core::prelude::*;
//!
//! let cfg = SpecConfig::standard(Flavor::Linux);
//! let st = OsState::initial_with_process(&cfg, INITIAL_PID);
//!
//! // The process calls mkdir("/d", 0o777) …
//! let cmd = OsCommand::Mkdir("/d".into(), FileMode::new(0o777));
//! let after_call = os_trans(&cfg, &st, &OsLabel::Call(INITIAL_PID, cmd));
//! assert_eq!(after_call.len(), 1);
//!
//! // … a τ step processes it, one state per allowed outcome …
//! let processed = os_trans(&cfg, &after_call[0], &OsLabel::Tau);
//!
//! // … and the real system reports success: allowed by the model.
//! let ret = OsLabel::Return(INITIAL_PID, ErrorOrValue::Value(RetValue::None));
//! let after_ret: Vec<OsState> =
//!     processed.iter().flat_map(|st| os_trans(&cfg, st, &ret)).collect();
//! assert_eq!(after_ret.len(), 1);
//! ```

// Panicking escape hatches are banned from the shipped library: a model or
// checker that aborts on unexpected input is useless as an oracle. Tests may
// still unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod commands;
pub mod coverage;
pub mod errno;
pub mod flags;
pub mod flavor;
pub mod footprint;
pub mod fs_ops;
pub mod fxhash;
pub mod intern;
pub mod monad;
pub mod obs;
pub mod os;
pub mod path;
pub mod perms;
pub mod pool;
pub mod spec_registry;
pub mod state;
pub mod types;

/// A convenient prelude re-exporting the types most users need.
pub mod prelude {
    pub use crate::commands::{ErrorOrValue, OsCommand, OsLabel, RetValue, Stat};
    pub use crate::errno::Errno;
    pub use crate::flags::{AccessMode, FileMode, OpenFlags, SeekWhence};
    pub use crate::flavor::{Flavor, SpecConfig};
    pub use crate::footprint::{footprint_of, Footprint};
    pub use crate::fs_ops::{dispatch, CmdOutcome};
    pub use crate::intern::Name;
    pub use crate::os::state_set::StateSet;
    pub use crate::path::ParsedPath;
    pub use crate::os::trans::{os_trans, tau_closure};
    pub use crate::os::{OsState, Pending, ProcRunState};
    pub use crate::perms::{Access, Creds};
    pub use crate::state::{DirHeap, DirRef, Entry, FileRef};
    pub use crate::types::{DirHandleId, Fd, FileKind, Gid, Pid, Uid, INITIAL_PID};
}

#[cfg(test)]
mod lib_tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_usable_api() {
        let cfg = SpecConfig::standard(Flavor::Posix);
        let st = OsState::initial_with_process(&cfg, INITIAL_PID);
        let out = dispatch(&cfg, &st, INITIAL_PID, &OsCommand::Stat("/".into()));
        assert!(!out.is_empty());
    }
}
