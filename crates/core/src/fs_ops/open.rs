//! Specification of `open`, `close`, and `lseek`.

use crate::commands::RetValue;
use crate::coverage::spec_point;
use crate::errno::Errno;
use crate::flags::{FileMode, OpenFlags, SeekWhence};
use crate::flavor::Flavor;
use crate::fs_ops::{CmdOutcome, SpecCtx};
use crate::monad::Checks;
use crate::os::{FidState, FidTarget, OsState, Pending, SpecialKind};
use crate::path::{FollowLast, ParsedPath, ResName};
use crate::perms::Access;
use crate::types::{Fd, Fid};

/// `open(path, flags, mode)`: open (and possibly create) a file.
pub fn spec_open(
    ctx: &SpecCtx<'_>,
    path: &ParsedPath,
    flags: OpenFlags,
    mode: Option<FileMode>,
) -> CmdOutcome {
    let Some(access) = flags.access_mode() else {
        // O_WRONLY and O_RDWR together: not a meaningful access mode.
        spec_point("open/invalid_access_mode_einval");
        return CmdOutcome::error(Errno::EINVAL);
    };
    // POSIX leaves O_TRUNC with O_RDONLY unspecified; platform models treat it
    // as an ordinary (truncating) open.
    if flags.contains(OpenFlags::O_TRUNC)
        && !access.writable()
        && ctx.cfg.flavor == Flavor::Posix
    {
        spec_point("open/o_trunc_with_rdonly_unspecified");
        return CmdOutcome::special(SpecialKind::Unspecified);
    }

    // POSIX: with O_CREAT|O_EXCL a final-component symlink is *never*
    // followed — the call shall fail with EEXIST even for a dangling link
    // (the clause behind the paper's FreeBSD finding, §7.3.2 "Invariants").
    let creat_excl = flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL);
    if creat_excl && !flags.contains(OpenFlags::O_NOFOLLOW) {
        spec_point("open/creat_excl_does_not_follow_final_symlink");
    }
    let follow = if flags.contains(OpenFlags::O_NOFOLLOW) || creat_excl {
        FollowLast::NoFollow
    } else {
        FollowLast::Follow
    };
    // POSIX leaves O_CREAT combined with O_DIRECTORY unspecified; Linux
    // kernels past 6.x reject the combination outright with EINVAL before
    // even looking at the path, while older kernels proceed (and may create
    // a regular file). The envelope admits the refusal everywhere.
    let creat_directory_checks = if flags.contains(OpenFlags::O_CREAT)
        && flags.contains(OpenFlags::O_DIRECTORY)
    {
        spec_point("open/creat_with_o_directory_may_einval");
        Checks::may_fail(Errno::EINVAL)
    } else {
        Checks::ok()
    };
    let res = ctx.resolve(path, follow);

    match res {
        ResName::Err(e) => {
            spec_point("open/resolution_error");
            CmdOutcome::from_checks(Checks::fail(e).par(creat_directory_checks.clone()))
        }
        ResName::Dir { dref, .. } => {
            // Note the paper's FreeBSD finding: with O_CREAT|O_DIRECTORY|O_EXCL
            // on a symlink to an existing directory, POSIX requires EEXIST;
            // FreeBSD returns ENOTDIR *and* replaces the symlink, violating the
            // error-invariance invariant. The specification is strict here so
            // that the implementation defect is flagged.
            let mut checks = creat_directory_checks.clone();
            if flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL) {
                spec_point("open/creat_excl_on_existing_dir_eexist");
                checks = checks.par(Checks::fail(Errno::EEXIST));
            }
            if access.writable() {
                spec_point("open/write_access_on_directory_eisdir");
                checks = checks.par(Checks::fail(Errno::EISDIR));
            }
            if flags.contains(OpenFlags::O_TRUNC) {
                spec_point("open/truncate_directory_eisdir");
                checks = checks.par(Checks::fail(Errno::EISDIR));
            }
            if !ctx.dir_access(dref, Access::Read) && access.readable() {
                spec_point("open/directory_read_permission_eacces");
                checks = checks.par(Checks::fail(Errno::EACCES));
            }
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            spec_point("open/directory_read_only_success");
            opened(ctx, checks, ctx.st.clone(), FidTarget::Dir(dref), flags)
        }
        ResName::File { fref, is_symlink, trailing_slash, .. } => {
            let mut checks = creat_directory_checks.clone();
            if is_symlink {
                // Only reachable with O_NOFOLLOW (otherwise the resolver
                // followed the link): O_CREAT|O_EXCL reports EEXIST, other
                // combinations report ELOOP.
                if flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL) {
                    spec_point("open/creat_excl_on_symlink_eexist");
                    checks = checks.par(Checks::fail(Errno::EEXIST));
                } else {
                    spec_point("open/nofollow_on_symlink_eloop");
                    checks = checks.par(Checks::fail(Errno::ELOOP));
                }
            }
            if flags.contains(OpenFlags::O_DIRECTORY) {
                spec_point("open/o_directory_on_file_enotdir");
                checks = checks.par(Checks::fail(Errno::ENOTDIR));
            }
            if flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL) {
                spec_point("open/creat_excl_on_existing_file_eexist");
                checks = checks.par(Checks::fail(Errno::EEXIST));
            }
            if trailing_slash {
                spec_point("open/trailing_slash_on_file");
                checks = checks.par(ctx.trailing_slash_file_checks(true));
                if flags.contains(OpenFlags::O_CREAT) {
                    // An existing file named with a trailing slash under
                    // O_CREAT: Linux reports EISDIR here (the same errno it
                    // uses for the would-create case below), other platforms
                    // stay with the plain trailing-slash errnos.
                    spec_point("open/creat_trailing_slash_on_existing_file");
                    checks = checks.par(Checks::fail_any(
                        ctx.cfg.flavor.open_creat_trailing_slash_errors().iter().copied(),
                    ));
                }
            }
            if access.readable() && !ctx.file_access(fref, Access::Read) {
                spec_point("open/file_read_permission_eacces");
                checks = checks.par(Checks::fail(Errno::EACCES));
            }
            if access.writable() && !ctx.file_access(fref, Access::Write) {
                spec_point("open/file_write_permission_eacces");
                checks = checks.par(Checks::fail(Errno::EACCES));
            }
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            spec_point("open/existing_file_success");
            let mut new_st = ctx.st.clone();
            if flags.contains(OpenFlags::O_TRUNC) && access.writable() {
                spec_point("open/existing_file_truncated");
                new_st.heap.truncate(fref, 0);
            }
            opened(ctx, checks, new_st, FidTarget::File(fref), flags)
        }
        ResName::None { parent, name, trailing_slash } => {
            if !flags.contains(OpenFlags::O_CREAT) {
                spec_point("open/missing_without_creat_enoent");
                return CmdOutcome::error(Errno::ENOENT);
            }
            let mut checks = ctx
                .parent_write_checks(parent)
                .par(ctx.connected_dir_checks(parent))
                .par(creat_directory_checks);
            if trailing_slash {
                // Creating "name/" — platforms disagree on the errno (§7.3.2).
                spec_point("open/creat_with_trailing_slash");
                checks = checks.par(Checks::fail_any(
                    ctx.cfg.flavor.open_creat_trailing_slash_errors().iter().copied(),
                ));
            }
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            spec_point("open/create_new_file_success");
            let mut new_st = ctx.st.clone();
            let meta = ctx.new_object_meta(mode.unwrap_or_else(|| FileMode::new(0o666)));
            let created = new_st
                .new_id(ctx.pid)
                .and_then(|id| new_st.heap.create_file(parent, name, meta, id));
            let Some(fref) = created else {
                return CmdOutcome::error(Errno::EEXIST);
            };
            new_st.notify_entry_added(parent, name);
            opened(ctx, checks, new_st, FidTarget::File(fref), flags)
        }
    }
}

/// The success branch of an `open` that reached `target`: `new_st` with a new
/// open file description, whose id comes from the caller's own history.
fn opened(
    ctx: &SpecCtx<'_>,
    checks: Checks,
    mut new_st: OsState,
    target: FidTarget,
    flags: OpenFlags,
) -> CmdOutcome {
    let outcome = CmdOutcome::from_checks(checks);
    let Some(fid) = new_st.new_id(ctx.pid).map(Fid) else { return outcome };
    new_st.fids.insert(fid, FidState { target, offset: 0, flags });
    outcome.with_success(new_st, Pending::NewFd { fid })
}

/// `close(fd)`: close a file descriptor.
pub fn spec_close(ctx: &SpecCtx<'_>, fd: Fd) -> CmdOutcome {
    let Some(proc) = ctx.st.proc(ctx.pid) else {
        return CmdOutcome::error(Errno::EBADF);
    };
    let Some(fid) = proc.fds.get(&fd).copied() else {
        spec_point("close/bad_fd_ebadf");
        return CmdOutcome::error(Errno::EBADF);
    };
    spec_point("close/success");
    let mut new_st = ctx.st.clone();
    if let Some(p) = new_st.proc_mut(ctx.pid) {
        p.fds.remove(&fd);
    }
    // Each descriptor owns its file description in this model (no dup/fork),
    // so the description is dropped too. The underlying file object is
    // retained by the heap even if its link count is zero.
    new_st.fids.remove(&fid);
    CmdOutcome::from_checks(Checks::ok()).with_value(new_st, RetValue::None)
}

/// `lseek(fd, offset, whence)`: reposition a file offset.
pub fn spec_lseek(ctx: &SpecCtx<'_>, fd: Fd, offset: i64, whence: SeekWhence) -> CmdOutcome {
    let Some((fid, fid_state)) = ctx.st.fd_entry(ctx.pid, fd) else {
        spec_point("lseek/bad_fd_ebadf");
        return CmdOutcome::error(Errno::EBADF);
    };
    let base: i64 = match whence {
        SeekWhence::Set => 0,
        SeekWhence::Cur => fid_state.offset as i64,
        SeekWhence::End => match fid_state.target {
            FidTarget::File(f) => ctx.st.heap.file_size(f) as i64,
            FidTarget::Dir(_) => 0,
        },
    };
    let new_offset = base.checked_add(offset);
    match new_offset {
        None => {
            spec_point("lseek/offset_overflow_eoverflow");
            CmdOutcome::error(Errno::EOVERFLOW)
        }
        Some(n) if n < 0 => {
            spec_point("lseek/negative_result_einval");
            CmdOutcome::error(Errno::EINVAL)
        }
        Some(n) => {
            spec_point("lseek/success");
            let fid = *fid;
            let mut new_st = ctx.st.clone();
            if let Some(f) = new_st.fids.get_mut(&fid) {
                f.offset = n as u64;
            }
            CmdOutcome::from_checks(Checks::ok()).with_value(new_st, RetValue::Num(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OsCommand;
    use crate::flavor::SpecConfig;
    use crate::fs_ops::dispatch;
    use crate::os::OsState;
    use crate::types::INITIAL_PID;

    fn setup(flavor: Flavor) -> (SpecConfig, OsState) {
        let cfg = SpecConfig::standard(flavor);
        let st = OsState::initial_with_process(&cfg, INITIAL_PID);
        (cfg, st)
    }

    fn run(cfg: &SpecConfig, st: &OsState, cmd: OsCommand) -> CmdOutcome {
        dispatch(cfg, st, INITIAL_PID, &cmd)
    }

    /// Apply a success branch, binding any newly allocated descriptor to the
    /// given fd number (mimicking what the transition function does when the
    /// observed return value arrives).
    fn ok_bind(out: &CmdOutcome, fd: i32) -> OsState {
        assert!(!out.successes.is_empty(), "expected success, errors: {:?}", out.errors);
        let (st, pending) = &out.successes[0];
        let mut st = st.clone();
        if let Pending::NewFd { fid } = pending {
            st.proc_mut(INITIAL_PID).unwrap().fds.insert(Fd(fd), *fid);
        }
        st
    }

    fn mkfile(cfg: &SpecConfig, st: &OsState, p: &str, fd: i32) -> OsState {
        ok_bind(
            &run(
                cfg,
                st,
                OsCommand::Open(
                    p.into(),
                    OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                    Some(FileMode::new(0o644)),
                ),
            ),
            fd,
        )
    }

    #[test]
    fn open_creates_file_and_allocates_descriptor() {
        let (cfg, st) = setup(Flavor::Linux);
        let out = run(
            &cfg,
            &st,
            OsCommand::Open("/f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(FileMode::new(0o666))),
        );
        assert!(!out.must_fail);
        assert!(matches!(out.successes[0].1, Pending::NewFd { .. }));
        let st2 = ok_bind(&out, 3);
        assert!(st2.heap.lookup(st2.heap.root(), "f").is_some());
        assert!(st2.fd_entry(INITIAL_PID, Fd(3)).is_some());
    }

    #[test]
    fn open_missing_without_creat_is_enoent() {
        let (cfg, st) = setup(Flavor::Posix);
        let out = run(&cfg, &st, OsCommand::Open("/f".into(), OpenFlags::O_RDONLY, None));
        assert!(out.errors.contains(&Errno::ENOENT));
    }

    #[test]
    fn open_excl_on_existing_is_eexist() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = mkfile(&cfg, &st, "/f", 3);
        let out = run(
            &cfg,
            &st,
            OsCommand::Open(
                "/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_EXCL | OpenFlags::O_WRONLY,
                Some(FileMode::new(0o644)),
            ),
        );
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::EEXIST));
    }

    #[test]
    fn open_creat_excl_directory_on_symlink_to_dir_is_eexist() {
        // §7.3.2 "Invariants": POSIX requires EEXIST here on every platform,
        // including FreeBSD (whose real implementation deviates).
        for flavor in [Flavor::Posix, Flavor::Linux, Flavor::Mac, Flavor::FreeBsd] {
            let (cfg, st) = setup(flavor);
            let st = {
                let s = run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
                s.successes[0].0.clone()
            };
            let st = {
                let s = run(&cfg, &st, OsCommand::Symlink("/d".into(), "/s".into()));
                s.successes[0].0.clone()
            };
            let out = run(
                &cfg,
                &st,
                OsCommand::Open(
                    "/s".into(),
                    OpenFlags::O_CREAT | OpenFlags::O_EXCL | OpenFlags::O_DIRECTORY,
                    Some(FileMode::new(0o644)),
                ),
            );
            assert!(out.must_fail, "flavor {flavor}");
            assert!(out.errors.contains(&Errno::EEXIST), "flavor {flavor}: {:?}", out.errors);
        }
    }

    #[test]
    fn open_write_on_directory_is_eisdir() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = {
            let s = run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
            s.successes[0].0.clone()
        };
        let out = run(&cfg, &st, OsCommand::Open("/d".into(), OpenFlags::O_WRONLY, None));
        assert!(out.errors.contains(&Errno::EISDIR));
        // Read-only opens of directories succeed.
        let out = run(&cfg, &st, OsCommand::Open("/d".into(), OpenFlags::O_RDONLY, None));
        assert!(!out.must_fail);
        assert!(!out.successes.is_empty());
    }

    #[test]
    fn open_o_trunc_truncates_existing_file() {
        let (cfg, st) = setup(Flavor::Linux);
        let st = mkfile(&cfg, &st, "/f", 3);
        let st = {
            let s = run(&cfg, &st, OsCommand::Truncate("/f".into(), 10));
            s.successes[0].0.clone()
        };
        let st2 = ok_bind(
            &run(
                &cfg,
                &st,
                OsCommand::Open("/f".into(), OpenFlags::O_WRONLY | OpenFlags::O_TRUNC, None),
            ),
            4,
        );
        let f = match st2.heap.lookup(st2.heap.root(), "f").unwrap() {
            crate::state::Entry::File(f) => f,
            _ => panic!(),
        };
        assert_eq!(st2.heap.file_size(f), 0);
    }

    #[test]
    fn open_nofollow_on_symlink() {
        let (cfg, st) = setup(Flavor::Linux);
        let st = mkfile(&cfg, &st, "/f", 3);
        let st = {
            let s = run(&cfg, &st, OsCommand::Symlink("/f".into(), "/s".into()));
            s.successes[0].0.clone()
        };
        let out = run(&cfg, &st, OsCommand::Open("/s".into(), OpenFlags::O_NOFOLLOW, None));
        assert!(out.errors.contains(&Errno::ELOOP));
        // Without O_NOFOLLOW the symlink is followed and the open succeeds.
        let out = run(&cfg, &st, OsCommand::Open("/s".into(), OpenFlags::O_RDONLY, None));
        assert!(!out.must_fail);
    }

    #[test]
    fn open_rdonly_trunc_is_unspecified_in_posix() {
        let (cfg, st) = setup(Flavor::Posix);
        let out = run(&cfg, &st, OsCommand::Open("/f".into(), OpenFlags::O_TRUNC, None));
        assert!(out.special.is_some());
        let (cfg, st) = setup(Flavor::Linux);
        let out = run(&cfg, &st, OsCommand::Open("/f".into(), OpenFlags::O_TRUNC, None));
        assert!(out.special.is_none());
    }

    #[test]
    fn close_and_double_close() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = mkfile(&cfg, &st, "/f", 3);
        let out = run(&cfg, &st, OsCommand::Close(Fd(3)));
        assert!(!out.must_fail);
        let st2 = out.successes[0].0.clone();
        let out = run(&cfg, &st2, OsCommand::Close(Fd(3)));
        assert!(out.errors.contains(&Errno::EBADF));
    }

    #[test]
    fn lseek_moves_offset_and_rejects_negative() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = mkfile(&cfg, &st, "/f", 3);
        let st = {
            let s = run(&cfg, &st, OsCommand::Truncate("/f".into(), 100));
            s.successes[0].0.clone()
        };
        let out = run(&cfg, &st, OsCommand::Lseek(Fd(3), 10, SeekWhence::Set));
        assert!(matches!(&out.successes[0].1, Pending::Value(RetValue::Num(10))));
        let st = out.successes[0].0.clone();
        let out = run(&cfg, &st, OsCommand::Lseek(Fd(3), 5, SeekWhence::Cur));
        assert!(matches!(&out.successes[0].1, Pending::Value(RetValue::Num(15))));
        let out = run(&cfg, &st, OsCommand::Lseek(Fd(3), -5, SeekWhence::End));
        assert!(matches!(&out.successes[0].1, Pending::Value(RetValue::Num(95))));
        let out = run(&cfg, &st, OsCommand::Lseek(Fd(3), -100, SeekWhence::Cur));
        assert!(out.errors.contains(&Errno::EINVAL));
        let out = run(&cfg, &st, OsCommand::Lseek(Fd(99), 0, SeekWhence::Set));
        assert!(out.errors.contains(&Errno::EBADF));
    }
}
