//! The file-system module (Fig. 5): the behaviour of each libc command.
//!
//! Every command is specified by a function that takes the whole OS state and
//! the command's arguments, evaluates its guard checks with the [`Checks`]
//! combinators, and produces a [`CmdOutcome`]: the set of errors the call may
//! return plus zero or more success branches. Internally the functions work
//! over resolved names ([`ResName`]); raw path strings never reach the
//! per-command semantics (§4 "Modules").

pub mod dir_handles;
pub mod dirs;
pub mod files;
pub mod io;
pub mod links;
pub mod meta_ops;
pub mod open;
pub mod rename;

use std::collections::BTreeSet;

use crate::commands::{OsCommand, RetValue, Stat};
use crate::coverage::spec_point;
use crate::errno::Errno;
use crate::flags::FileMode;
use crate::flavor::SpecConfig;
use crate::monad::Checks;
use crate::os::{OsState, Pending, SpecialKind};
use crate::path::{resolve_path, FollowLast, ParsedPath, ResName, ResolveCtx};
use crate::perms::{access_allowed, Access, Creds};
use crate::state::{DirHeap, DirRef, FileRef, Meta};
use crate::types::{FileKind, Pid};

/// The outcome of processing one command in one model state: the envelope of
/// allowed behaviours for the corresponding `OS_RETURN`.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdOutcome {
    /// Errors the call is allowed to return (state unchanged).
    pub errors: BTreeSet<Errno>,
    /// Whether at least one mandatory error condition held, forbidding
    /// success.
    pub must_fail: bool,
    /// Success branches: the updated OS state (with the calling process not
    /// yet marked pending) paired with the return-value constraint.
    pub successes: Vec<(OsState, Pending)>,
    /// If set, the call's behaviour is undefined/unspecified and any return
    /// is accepted.
    pub special: Option<SpecialKind>,
}

impl CmdOutcome {
    /// An outcome whose error envelope comes from `checks` and which has no
    /// success branches (yet).
    pub fn from_checks(checks: Checks) -> CmdOutcome {
        CmdOutcome {
            errors: checks.errors,
            must_fail: checks.must_fail,
            successes: Vec::new(),
            special: None,
        }
    }

    /// A mandatory single-error outcome.
    pub fn error(e: Errno) -> CmdOutcome {
        CmdOutcome::from_checks(Checks::fail(e))
    }

    /// A mandatory multi-error outcome.
    pub fn error_any<I: IntoIterator<Item = Errno>>(errs: I) -> CmdOutcome {
        CmdOutcome::from_checks(Checks::fail_any(errs))
    }

    /// An outcome whose behaviour is left undefined/unspecified by POSIX.
    pub fn special(kind: SpecialKind) -> CmdOutcome {
        CmdOutcome {
            errors: BTreeSet::new(),
            must_fail: false,
            successes: Vec::new(),
            special: Some(kind),
        }
    }

    /// Add a success branch (ignored if the checks require failure).
    pub fn with_success(mut self, st: OsState, pending: Pending) -> CmdOutcome {
        if !self.must_fail {
            self.successes.push((st, pending));
        }
        self
    }

    /// Convenience: a success branch returning an exact value.
    pub fn with_value(self, st: OsState, value: RetValue) -> CmdOutcome {
        self.with_success(st, Pending::Value(value))
    }

    /// Whether the outcome admits any behaviour at all (used as a sanity
    /// check: an empty outcome would make every trace fail).
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty() && self.successes.is_empty() && self.special.is_none()
    }
}

/// Shared context handed to every command specification.
pub struct SpecCtx<'a> {
    /// The model configuration (flavour + traits).
    pub cfg: &'a SpecConfig,
    /// The pre-call OS state.
    pub st: &'a OsState,
    /// The calling process.
    pub pid: Pid,
    /// The caller's credentials (`None` when the permissions trait is off).
    pub creds: Option<Creds>,
}

impl<'a> SpecCtx<'a> {
    /// Build the context for a call by `pid` in state `st`.
    pub fn new(cfg: &'a SpecConfig, st: &'a OsState, pid: Pid) -> SpecCtx<'a> {
        let creds = st.creds_of(cfg, pid);
        SpecCtx { cfg, st, pid, creds }
    }

    /// The calling process's cwd (falling back to the root for robustness).
    pub fn cwd(&self) -> DirRef {
        self.st.proc(self.pid).map(|p| p.cwd).unwrap_or_else(|| self.st.heap.root())
    }

    /// Resolve a pre-parsed path in the caller's context. No string data is
    /// touched: the resolver walks interned component symbols.
    pub fn resolve(&self, path: &ParsedPath, follow: FollowLast) -> ResName {
        let ctx = ResolveCtx::new(&self.st.heap, self.cwd(), self.creds.as_ref());
        resolve_path(&ctx, path, follow)
    }

    /// Whether the caller may write into (create/remove entries of) `dir`.
    pub fn dir_writable(&self, dir: DirRef) -> bool {
        match self.st.heap.dir(dir) {
            Some(d) => {
                access_allowed(self.creds.as_ref(), &d.meta, Access::Write)
                    && access_allowed(self.creds.as_ref(), &d.meta, Access::Exec)
            }
            None => false,
        }
    }

    /// Whether the caller has the given access on a directory.
    pub fn dir_access(&self, dir: DirRef, access: Access) -> bool {
        match self.st.heap.dir(dir) {
            Some(d) => access_allowed(self.creds.as_ref(), &d.meta, access),
            None => false,
        }
    }

    /// Whether the caller has the given access on a file.
    pub fn file_access(&self, file: FileRef, access: Access) -> bool {
        match self.st.heap.file(file) {
            Some(f) => access_allowed(self.creds.as_ref(), &f.meta, access),
            None => false,
        }
    }

    /// Metadata for an object the caller is about to create: the requested
    /// mode filtered through the process umask, owned by the caller.
    pub fn new_object_meta(&self, requested: FileMode) -> Meta {
        let proc = self.st.proc(self.pid);
        let umask = proc.map(|p| p.umask).unwrap_or_else(|| FileMode::new(0o022));
        let (uid, gid) = proc.map(|p| (p.euid, p.egid)).unwrap_or_default();
        Meta::new(requested.apply_umask(umask), uid, gid)
    }

    /// The check that a parent directory is still connected to the root: a
    /// new entry cannot be created inside a directory that has been removed
    /// (the OpenZFS Fig. 8 scenario); POSIX requires `ENOENT`.
    pub fn connected_dir_checks(&self, dir: DirRef) -> Checks {
        if self.st.heap.is_connected(dir) {
            Checks::ok()
        } else {
            spec_point("common/create_in_disconnected_dir_enoent");
            Checks::fail(Errno::ENOENT)
        }
    }

    /// The looseness associated with a path that resolved to a non-directory
    /// file but carried a trailing slash (§7.3.2 "Path resolution, trailing
    /// slashes, and symlinks").
    pub fn trailing_slash_file_checks(&self, trailing_slash: bool) -> Checks {
        if trailing_slash {
            spec_point("common/trailing_slash_on_file");
            Checks::fail_any(self.cfg.flavor.trailing_slash_on_file_errors().iter().copied())
        } else {
            Checks::ok()
        }
    }

    /// The looseness for a *removal* target written as `symlink/`: POSIX path
    /// resolution follows the link (so `rmdir`/`unlink` act on the target),
    /// but Linux-family kernels refuse such paths up front with `ENOTDIR`
    /// before following (§7.3.2 "Path resolution, trailing slashes, and
    /// symlinks"; validated against the real kernel by the host differential
    /// harness).
    pub fn symlink_trailing_slash_checks(&self, path: &ParsedPath) -> Checks {
        if !path.trailing_slash {
            return Checks::ok();
        }
        if path.components().is_empty() {
            return Checks::ok();
        }
        match self.resolve(&path.without_trailing_slash(), FollowLast::NoFollow) {
            ResName::File { is_symlink: true, .. } => {
                spec_point("common/symlink_with_trailing_slash_may_enotdir");
                Checks::may_fail(Errno::ENOTDIR)
            }
            _ => Checks::ok(),
        }
    }

    /// The check on write permission for a parent directory that is about to
    /// gain or lose an entry.
    pub fn parent_write_checks(&self, dir: DirRef) -> Checks {
        if self.dir_writable(dir) {
            Checks::ok()
        } else {
            spec_point("common/parent_dir_not_writable_eacces");
            Checks::fail(Errno::EACCES)
        }
    }
}

/// Build the `stat` structure the model predicts for a directory.
pub fn stat_of_dir(heap: &DirHeap, d: DirRef) -> Option<Stat> {
    let dir = heap.dir(d)?;
    Some(Stat {
        kind: FileKind::Directory,
        size: 0,
        nlink: heap.dir_nlink(d),
        mode: dir.meta.mode,
        uid: dir.meta.uid,
        gid: dir.meta.gid,
    })
}

/// Build the `stat` structure the model predicts for a file or symlink.
pub fn stat_of_file(heap: &DirHeap, f: FileRef) -> Option<Stat> {
    let file = heap.file(f)?;
    Some(Stat {
        kind: file.content.kind(),
        size: file.content.size(),
        nlink: file.nlink,
        mode: file.meta.mode,
        uid: file.meta.uid,
        gid: file.meta.gid,
    })
}

/// Process a single libc command in a single model state: the heart of the
/// file-system module. Returns the envelope of allowed behaviours.
pub fn dispatch(cfg: &SpecConfig, st: &OsState, pid: Pid, cmd: &OsCommand) -> CmdOutcome {
    let ctx = SpecCtx::new(cfg, st, pid);
    match cmd {
        OsCommand::Mkdir(path, mode) => dirs::spec_mkdir(&ctx, path, *mode),
        OsCommand::Rmdir(path) => dirs::spec_rmdir(&ctx, path),
        OsCommand::Chdir(path) => dirs::spec_chdir(&ctx, path),
        OsCommand::Unlink(path) => files::spec_unlink(&ctx, path),
        OsCommand::Truncate(path, len) => files::spec_truncate(&ctx, path, *len),
        OsCommand::Stat(path) => files::spec_stat(&ctx, path, FollowLast::Follow),
        OsCommand::Lstat(path) => files::spec_stat(&ctx, path, FollowLast::NoFollow),
        OsCommand::Link(src, dst) => links::spec_link(&ctx, src, dst),
        OsCommand::Symlink(target, path) => links::spec_symlink(&ctx, target, path),
        OsCommand::Readlink(path) => links::spec_readlink(&ctx, path),
        OsCommand::Rename(src, dst) => rename::spec_rename(&ctx, src, dst),
        OsCommand::Open(path, flags, mode) => open::spec_open(&ctx, path, *flags, *mode),
        OsCommand::Close(fd) => open::spec_close(&ctx, *fd),
        OsCommand::Lseek(fd, off, whence) => open::spec_lseek(&ctx, *fd, *off, *whence),
        OsCommand::Read(fd, count) => io::spec_read(&ctx, *fd, *count),
        OsCommand::Pread(fd, count, off) => io::spec_pread(&ctx, *fd, *count, *off),
        OsCommand::Write(fd, data) => io::spec_write(&ctx, *fd, data),
        OsCommand::Pwrite(fd, data, off) => io::spec_pwrite(&ctx, *fd, data, *off),
        OsCommand::Chmod(path, mode) => meta_ops::spec_chmod(&ctx, path, *mode),
        OsCommand::Chown(path, uid, gid) => meta_ops::spec_chown(&ctx, path, *uid, *gid),
        OsCommand::Umask(mask) => meta_ops::spec_umask(&ctx, *mask),
        OsCommand::AddUserToGroup(uid, gid) => meta_ops::spec_add_user_to_group(&ctx, *uid, *gid),
        OsCommand::Opendir(path) => dir_handles::spec_opendir(&ctx, path),
        OsCommand::Readdir(dh) => dir_handles::spec_readdir(&ctx, *dh),
        OsCommand::Rewinddir(dh) => dir_handles::spec_rewinddir(&ctx, *dh),
        OsCommand::Closedir(dh) => dir_handles::spec_closedir(&ctx, *dh),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::Flavor;
    use crate::types::INITIAL_PID;

    fn setup() -> (SpecConfig, OsState) {
        let cfg = SpecConfig::standard(Flavor::Posix);
        let st = OsState::initial_with_process(&cfg, INITIAL_PID);
        (cfg, st)
    }

    #[test]
    fn dispatch_never_returns_an_empty_envelope() {
        let (cfg, st) = setup();
        let cmds = vec![
            OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
            OsCommand::Stat("/missing".into()),
            OsCommand::Unlink("/missing".into()),
            OsCommand::Umask(FileMode::new(0o077)),
            OsCommand::Read(crate::types::Fd(42), 16),
        ];
        for cmd in cmds {
            let out = dispatch(&cfg, &st, INITIAL_PID, &cmd);
            assert!(!out.is_empty(), "empty envelope for {cmd}");
        }
    }

    #[test]
    fn outcome_builders() {
        let (_, st) = setup();
        let out = CmdOutcome::error(Errno::ENOENT);
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::ENOENT));
        // with_success on a must-fail outcome is ignored.
        let out = out.with_value(st.clone(), RetValue::None);
        assert!(out.successes.is_empty());

        let ok = CmdOutcome::from_checks(Checks::ok()).with_value(st, RetValue::None);
        assert_eq!(ok.successes.len(), 1);
        assert!(!ok.is_empty());
    }

    #[test]
    fn stat_builders_report_expected_shapes() {
        let (_, st) = setup();
        let root = st.heap.root();
        let s = stat_of_dir(&st.heap, root).unwrap();
        assert_eq!(s.kind, FileKind::Directory);
        assert_eq!(s.nlink, 2);
    }
}
