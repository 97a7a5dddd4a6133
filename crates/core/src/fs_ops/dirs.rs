//! Specification of the directory-manipulation commands: `mkdir`, `rmdir`,
//! and `chdir`.

use crate::commands::RetValue;
use crate::coverage::spec_point;
use crate::errno::Errno;
use crate::flags::FileMode;
use crate::flavor::Flavor;
use crate::fs_ops::{CmdOutcome, SpecCtx};
use crate::monad::Checks;
use crate::intern::Name;
use crate::path::{FollowLast, ParsedPath, ResName};
use crate::perms::Access;

/// `mkdir(path, mode)`: create a new, empty directory.
pub fn spec_mkdir(ctx: &SpecCtx<'_>, path: &ParsedPath, mode: FileMode) -> CmdOutcome {
    let res = ctx.resolve(path, FollowLast::NoFollow);
    match res {
        ResName::Err(e) => {
            spec_point("mkdir/resolution_error");
            CmdOutcome::error(e)
        }
        ResName::Dir { .. } => {
            spec_point("mkdir/target_is_existing_dir_eexist");
            CmdOutcome::error(Errno::EEXIST)
        }
        ResName::File { trailing_slash, .. } => {
            if trailing_slash {
                spec_point("mkdir/target_is_file_with_trailing_slash");
                let mut errs: Vec<Errno> =
                    ctx.cfg.flavor.trailing_slash_on_file_errors().to_vec();
                errs.push(Errno::EEXIST);
                CmdOutcome::error_any(errs)
            } else {
                spec_point("mkdir/target_is_existing_file_eexist");
                CmdOutcome::error(Errno::EEXIST)
            }
        }
        ResName::None { parent, name, .. } => {
            spec_point("mkdir/create_new_directory");
            let checks = ctx
                .parent_write_checks(parent)
                .par(ctx.connected_dir_checks(parent));
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            let mut new_st = ctx.st.clone();
            let meta = ctx.new_object_meta(mode);
            let Some(id) = new_st.new_id(ctx.pid) else { return CmdOutcome::from_checks(checks) };
            new_st.heap.create_dir(parent, name, meta, id);
            new_st.notify_entry_added(parent, name);
            spec_point("mkdir/success");
            CmdOutcome::from_checks(checks).with_value(new_st, RetValue::None)
        }
    }
}

/// `rmdir(path)`: remove an empty directory.
pub fn spec_rmdir(ctx: &SpecCtx<'_>, path: &ParsedPath) -> CmdOutcome {
    // POSIX: if the final component is "." the call shall fail with EINVAL;
    // ".." is ENOTEMPTY or EBUSY territory on real systems.
    match path.last_component() {
        Some(Name::DOT) => {
            spec_point("rmdir/path_ends_in_dot_einval");
            return CmdOutcome::error(Errno::EINVAL);
        }
        Some(Name::DOTDOT) => {
            spec_point("rmdir/path_ends_in_dotdot");
            // A real kernel resolves the path before rejecting the final
            // ".."; when resolution fails on the way the resolution error
            // surfaces instead (found by the exploration engine:
            // `rmdir "../missing/.."` returns ENOENT on Linux and in the
            // simulation). The envelope admits both orders of checking.
            let mut errnos = vec![Errno::ENOTEMPTY, Errno::EINVAL, Errno::EBUSY];
            // Resolution of a ".."-final path either fails (`ResName::Err`)
            // or lands on a directory: the resolver handles ".." inline and
            // never reports a missing last component, so `ResName::None` is
            // unreachable here and needs no arm (a missing intermediate
            // already surfaced as `Err(ENOENT)`).
            if let ResName::Err(e) = ctx.resolve(path, FollowLast::NoFollow) {
                spec_point("rmdir/path_ends_in_dotdot_resolution_error");
                if !errnos.contains(&e) {
                    errnos.push(e);
                }
            }
            return CmdOutcome::error_any(errnos);
        }
        _ => {}
    }
    let res = ctx.resolve(path, FollowLast::NoFollow);
    match res {
        ResName::Err(e) => {
            spec_point("rmdir/resolution_error");
            CmdOutcome::error(e)
        }
        ResName::None { .. } => {
            spec_point("rmdir/target_missing_enoent");
            CmdOutcome::error(Errno::ENOENT)
        }
        ResName::File { .. } => {
            spec_point("rmdir/target_is_file_enotdir");
            CmdOutcome::error(Errno::ENOTDIR)
        }
        ResName::Dir { dref, parent, .. } => {
            if dref == ctx.st.heap.root() {
                spec_point("rmdir/remove_root_directory");
                return CmdOutcome::error_any(
                    ctx.cfg.flavor.rmdir_root_errors().iter().copied(),
                );
            }
            let Some((parent_dir, name)) = parent else {
                spec_point("rmdir/no_parent_entry_einval");
                return CmdOutcome::error_any([Errno::EINVAL, Errno::EBUSY]);
            };
            let mut checks = ctx.symlink_trailing_slash_checks(path);
            if !ctx.st.heap.dir_is_empty(dref) {
                spec_point("rmdir/directory_not_empty");
                let not_empty: &[Errno] = if ctx.cfg.flavor.is_posix() {
                    &[Errno::ENOTEMPTY, Errno::EEXIST]
                } else {
                    &[Errno::ENOTEMPTY]
                };
                checks = checks.par(Checks::fail_any(not_empty.iter().copied()));
            }
            checks = checks.par(ctx.parent_write_checks(parent_dir));
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            spec_point("rmdir/success");
            let mut new_st = ctx.st.clone();
            new_st.heap.remove_entry(parent_dir, name);
            new_st.notify_entry_removed(parent_dir, name);
            CmdOutcome::from_checks(checks).with_value(new_st, RetValue::None)
        }
    }
}

/// `chdir(path)`: change the calling process's working directory.
pub fn spec_chdir(ctx: &SpecCtx<'_>, path: &ParsedPath) -> CmdOutcome {
    let res = ctx.resolve(path, FollowLast::Follow);
    match res {
        ResName::Err(e) => {
            spec_point("chdir/resolution_error");
            CmdOutcome::error(e)
        }
        ResName::None { .. } => {
            spec_point("chdir/target_missing_enoent");
            CmdOutcome::error(Errno::ENOENT)
        }
        ResName::File { .. } => {
            spec_point("chdir/target_is_file_enotdir");
            CmdOutcome::error(Errno::ENOTDIR)
        }
        ResName::Dir { dref, .. } => {
            let checks = if ctx.dir_access(dref, Access::Exec) {
                Checks::ok()
            } else {
                spec_point("chdir/search_permission_denied_eacces");
                Checks::fail(Errno::EACCES)
            };
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            spec_point("chdir/success");
            let mut new_st = ctx.st.clone();
            if let Some(p) = new_st.proc_mut(ctx.pid) {
                p.cwd = dref;
            }
            CmdOutcome::from_checks(checks).with_value(new_st, RetValue::None)
        }
    }
}

/// A note on flavours: `mkdir` with a trailing slash on a *missing* final
/// component is accepted everywhere, so no flavour hook is needed there; the
/// Linux-specific trailing-slash quirks only concern paths that resolve to
/// existing non-directory files.
#[allow(dead_code)]
fn _flavor_notes(_: Flavor) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OsCommand;
    use crate::flavor::{Flavor, SpecConfig};
    use crate::fs_ops::dispatch;
    use crate::os::{OsState, Pending};
    use crate::types::{Pid, INITIAL_PID};

    fn setup(flavor: Flavor) -> (SpecConfig, OsState) {
        let cfg = SpecConfig::standard(flavor);
        let st = OsState::initial_with_process(&cfg, INITIAL_PID);
        (cfg, st)
    }

    fn apply_success(out: &CmdOutcome) -> OsState {
        assert!(
            !out.successes.is_empty(),
            "expected a success branch, got errors {:?}",
            out.errors
        );
        out.successes[0].0.clone()
    }

    fn run(cfg: &SpecConfig, st: &OsState, cmd: OsCommand) -> CmdOutcome {
        dispatch(cfg, st, INITIAL_PID, &cmd)
    }

    #[test]
    fn mkdir_succeeds_in_empty_root() {
        let (cfg, st) = setup(Flavor::Posix);
        let out = run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        assert!(!out.must_fail);
        let st2 = apply_success(&out);
        assert!(st2.heap.lookup(st2.heap.root(), "d").is_some());
    }

    #[test]
    fn mkdir_applies_umask() {
        let (cfg, st) = setup(Flavor::Linux);
        let out = run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        let st2 = apply_success(&out);
        let d = match st2.heap.lookup(st2.heap.root(), "d").unwrap() {
            crate::state::Entry::Dir(d) => d,
            _ => panic!(),
        };
        // Default umask is 0o022.
        assert_eq!(st2.heap.dir(d).unwrap().meta.mode, FileMode::new(0o755));
    }

    #[test]
    fn mkdir_existing_gives_eexist() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = apply_success(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::EEXIST));
        // Also for the root itself.
        let out = run(&cfg, &st, OsCommand::Mkdir("/".into(), FileMode::new(0o777)));
        assert!(out.errors.contains(&Errno::EEXIST));
    }

    #[test]
    fn mkdir_missing_intermediate_gives_enoent() {
        let (cfg, st) = setup(Flavor::Posix);
        let out = run(&cfg, &st, OsCommand::Mkdir("/a/b".into(), FileMode::new(0o777)));
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::ENOENT));
    }

    #[test]
    fn rmdir_nonempty_allows_enotempty() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = apply_success(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let st = apply_success(&run(&cfg, &st, OsCommand::Mkdir("/d/e".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Rmdir("/d".into()));
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::ENOTEMPTY));
        // POSIX also allows EEXIST here; Linux does not.
        assert!(out.errors.contains(&Errno::EEXIST));
        let (cfg_l, _) = setup(Flavor::Linux);
        let out = dispatch(&cfg_l, &st, INITIAL_PID, &OsCommand::Rmdir("/d".into()));
        assert!(!out.errors.contains(&Errno::EEXIST));
    }

    #[test]
    fn rmdir_empty_succeeds_and_disconnects() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = apply_success(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Rmdir("/d".into()));
        let st2 = apply_success(&out);
        assert!(st2.heap.lookup(st2.heap.root(), "d").is_none());
    }

    #[test]
    fn rmdir_of_root_and_dot() {
        let (cfg, st) = setup(Flavor::Posix);
        let out = run(&cfg, &st, OsCommand::Rmdir("/".into()));
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::EBUSY));
        let out = run(&cfg, &st, OsCommand::Rmdir("/.".into()));
        assert_eq!(out.errors.iter().copied().collect::<Vec<_>>(), vec![Errno::EINVAL]);
    }

    #[test]
    fn rmdir_on_file_and_missing() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = apply_success(&run(
            &cfg,
            &st,
            OsCommand::Open("/f".into(), crate::flags::OpenFlags::O_CREAT, Some(FileMode::new(0o644))),
        ));
        let out = run(&cfg, &st, OsCommand::Rmdir("/f".into()));
        assert!(out.errors.contains(&Errno::ENOTDIR));
        let out = run(&cfg, &st, OsCommand::Rmdir("/missing".into()));
        assert!(out.errors.contains(&Errno::ENOENT));
    }

    #[test]
    fn chdir_changes_cwd_and_affects_relative_resolution() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = apply_success(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Chdir("/d".into()));
        let st2 = apply_success(&out);
        let out = run(&cfg, &st2, OsCommand::Mkdir("sub".into(), FileMode::new(0o777)));
        let st3 = apply_success(&out);
        // The new directory must have been created inside /d.
        let d = match st3.heap.lookup(st3.heap.root(), "d").unwrap() {
            crate::state::Entry::Dir(d) => d,
            _ => panic!(),
        };
        assert!(st3.heap.lookup(d, "sub").is_some());
    }

    #[test]
    fn chdir_to_file_is_enotdir() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = apply_success(&run(
            &cfg,
            &st,
            OsCommand::Open("/f".into(), crate::flags::OpenFlags::O_CREAT, Some(FileMode::new(0o644))),
        ));
        let out = run(&cfg, &st, OsCommand::Chdir("/f".into()));
        assert!(out.errors.contains(&Errno::ENOTDIR));
    }

    #[test]
    fn mkdir_in_unwritable_dir_needs_permission() {
        let cfg = SpecConfig::unprivileged(Flavor::Linux);
        let mut st = OsState::initial_with_process(&cfg, Pid(1));
        // Root dir is owned by root with mode 0755: an unprivileged process
        // cannot create entries in it.
        st.proc_mut(Pid(1)).unwrap().euid = crate::types::Uid(1000);
        let out = dispatch(&cfg, &st, Pid(1), &OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::EACCES));
    }

    #[test]
    fn creating_inside_removed_directory_is_enoent() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = apply_success(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let st = apply_success(&run(&cfg, &st, OsCommand::Chdir("/d".into())));
        let st = apply_success(&run(&cfg, &st, OsCommand::Rmdir("/d".into())));
        // cwd is now a disconnected directory; creating inside it must fail.
        let out = run(&cfg, &st, OsCommand::Mkdir("sub".into(), FileMode::new(0o777)));
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::ENOENT));
    }

    #[test]
    fn success_pending_is_plain_none() {
        let (cfg, st) = setup(Flavor::Posix);
        let out = run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        assert!(matches!(out.successes[0].1, Pending::Value(RetValue::None)));
    }
}
