//! Specification of `link`, `symlink`, and `readlink`.

use crate::commands::RetValue;
use crate::coverage::spec_point;
use crate::errno::Errno;
use crate::flavor::LinkSymlinkBehavior;
use crate::fs_ops::{CmdOutcome, SpecCtx};
use crate::monad::Checks;
use crate::path::{FollowLast, ParsedPath, ResName};
use crate::state::Meta;
use crate::types::LINK_MAX;

/// `link(src, dst)`: create a hard link to an existing file.
///
/// Whether a symlink source is followed is implementation-defined (§7.3.2):
/// Linux links the symlink itself, OS X follows it, and the POSIX envelope
/// admits both. In the `Either` case the outcomes of both interpretations are
/// merged.
pub fn spec_link(ctx: &SpecCtx<'_>, src: &ParsedPath, dst: &ParsedPath) -> CmdOutcome {
    match ctx.cfg.flavor.link_follows_symlink() {
        LinkSymlinkBehavior::LinkSymlink => {
            spec_point("link/source_symlink_linked_directly");
            link_with_follow(ctx, src, dst, FollowLast::NoFollow)
        }
        LinkSymlinkBehavior::FollowSymlink => {
            spec_point("link/source_symlink_followed");
            link_with_follow(ctx, src, dst, FollowLast::Follow)
        }
        LinkSymlinkBehavior::Either => {
            spec_point("link/source_symlink_behaviour_impl_defined");
            let a = link_with_follow(ctx, src, dst, FollowLast::NoFollow);
            let b = link_with_follow(ctx, src, dst, FollowLast::Follow);
            merge_outcomes(a, b)
        }
    }
}

/// Merge two alternative envelopes (used when POSIX leaves a choice of
/// interpretation to the implementation): errors are unioned, success
/// branches concatenated, and success is forbidden only if both
/// interpretations forbid it.
fn merge_outcomes(mut a: CmdOutcome, b: CmdOutcome) -> CmdOutcome {
    a.errors.extend(b.errors);
    a.must_fail &= b.must_fail;
    a.successes.extend(b.successes);
    a.special = a.special.or(b.special);
    a
}

fn link_with_follow(
    ctx: &SpecCtx<'_>,
    src: &ParsedPath,
    dst: &ParsedPath,
    follow_src: FollowLast,
) -> CmdOutcome {
    let src_res = ctx.resolve(src, follow_src);
    let (src_fref, src_checks) = match src_res {
        ResName::Err(e) => {
            spec_point("link/source_resolution_error");
            return CmdOutcome::error(e);
        }
        ResName::None { .. } => {
            spec_point("link/source_missing_enoent");
            return CmdOutcome::error(Errno::ENOENT);
        }
        ResName::Dir { .. } => {
            // Hard links to directories are not permitted.
            spec_point("link/source_is_directory_eperm");
            return CmdOutcome::error(Errno::EPERM);
        }
        ResName::File { fref, trailing_slash, .. } => {
            let checks = ctx.trailing_slash_file_checks(trailing_slash);
            (fref, checks)
        }
    };

    let dst_res = ctx.resolve(dst, FollowLast::NoFollow);
    match dst_res {
        ResName::Err(e) => {
            spec_point("link/destination_resolution_error");
            CmdOutcome::from_checks(src_checks.par(Checks::fail(e)))
        }
        ResName::Dir { .. } => {
            spec_point("link/destination_exists_dir_eexist");
            CmdOutcome::from_checks(src_checks.par(Checks::fail(Errno::EEXIST)))
        }
        ResName::File { trailing_slash, .. } => {
            spec_point("link/destination_exists_eexist");
            let mut checks = src_checks.par(Checks::fail(Errno::EEXIST));
            if trailing_slash {
                spec_point("link/destination_trailing_slash");
                checks = checks.par(ctx.trailing_slash_file_checks(true));
            }
            CmdOutcome::from_checks(checks)
        }
        ResName::None { parent, name, trailing_slash } => {
            let mut checks = src_checks
                .par(ctx.parent_write_checks(parent))
                .par(ctx.connected_dir_checks(parent));
            if trailing_slash {
                spec_point("link/destination_missing_with_trailing_slash_enoent");
                checks = checks.par(Checks::fail_any([Errno::ENOENT, Errno::ENOTDIR]));
            }
            let nlink = ctx.st.heap.file(src_fref).map(|f| f.nlink).unwrap_or(0);
            if nlink >= LINK_MAX {
                spec_point("link/link_count_exhausted_emlink");
                checks = checks.par(Checks::fail(Errno::EMLINK));
            }
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            spec_point("link/success");
            let mut new_st = ctx.st.clone();
            new_st.heap.add_link(parent, name, src_fref);
            new_st.notify_entry_added(parent, name);
            CmdOutcome::from_checks(checks).with_value(new_st, RetValue::None)
        }
    }
}

/// `symlink(target, linkpath)`: create a symbolic link containing `target`.
pub fn spec_symlink(ctx: &SpecCtx<'_>, target: &ParsedPath, path: &ParsedPath) -> CmdOutcome {
    let res = ctx.resolve(path, FollowLast::NoFollow);
    match res {
        ResName::Err(e) => {
            spec_point("symlink/resolution_error");
            CmdOutcome::error(e)
        }
        ResName::Dir { .. } => {
            spec_point("symlink/target_name_exists_dir_eexist");
            CmdOutcome::error(Errno::EEXIST)
        }
        ResName::File { .. } => {
            spec_point("symlink/target_name_exists_eexist");
            CmdOutcome::error(Errno::EEXIST)
        }
        ResName::None { parent, name, trailing_slash } => {
            let mut checks =
                ctx.parent_write_checks(parent).par(ctx.connected_dir_checks(parent));
            if trailing_slash {
                spec_point("symlink/linkpath_trailing_slash");
                checks = checks.par(Checks::fail_any([Errno::ENOENT, Errno::EEXIST]));
            }
            if target.is_empty() {
                // An empty symlink target: Linux rejects it with ENOENT.
                spec_point("symlink/empty_target_enoent");
                checks = checks.par(Checks::fail(Errno::ENOENT));
            }
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            spec_point("symlink/success");
            let mut new_st = ctx.st.clone();
            // Symlink permission bits are implementation-defined and are not
            // filtered through the umask on the platforms we model.
            let mode = ctx
                .cfg
                .flavor
                .symlink_default_mode()
                .unwrap_or(crate::flags::FileMode::new(0o777));
            let proc = ctx.st.proc(ctx.pid);
            let (uid, gid) = proc.map(|p| (p.euid, p.egid)).unwrap_or_default();
            let meta = Meta::new(mode, uid, gid);
            let Some(id) = new_st.new_id(ctx.pid) else { return CmdOutcome::from_checks(checks) };
            new_st.heap.create_symlink(parent, name, target.clone(), meta, id);
            new_st.notify_entry_added(parent, name);
            CmdOutcome::from_checks(checks).with_value(new_st, RetValue::None)
        }
    }
}

/// `readlink(path)`: read the target stored in a symbolic link.
pub fn spec_readlink(ctx: &SpecCtx<'_>, path: &ParsedPath) -> CmdOutcome {
    let res = ctx.resolve(path, FollowLast::NoFollow);
    match res {
        ResName::Err(e) => {
            spec_point("readlink/resolution_error");
            CmdOutcome::error(e)
        }
        ResName::None { .. } => {
            spec_point("readlink/target_missing_enoent");
            CmdOutcome::error(Errno::ENOENT)
        }
        ResName::Dir { .. } => {
            // Includes the case of a symlink with a trailing slash that
            // resolved through to its directory target.
            spec_point("readlink/target_is_directory_einval");
            CmdOutcome::error(Errno::EINVAL)
        }
        ResName::File { fref, is_symlink, trailing_slash, .. } => {
            if !is_symlink {
                spec_point("readlink/target_not_a_symlink_einval");
                let mut errs = vec![Errno::EINVAL];
                if trailing_slash {
                    errs.push(Errno::ENOTDIR);
                }
                return CmdOutcome::error_any(errs);
            }
            let Some(target) = ctx.st.heap.symlink_target(fref) else {
                return CmdOutcome::error(Errno::EINVAL);
            };
            spec_point("readlink/success");
            CmdOutcome::from_checks(Checks::ok())
                .with_value(ctx.st.clone(), RetValue::Path(target.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OsCommand;
    use crate::flags::{FileMode, OpenFlags};
    use crate::flavor::{Flavor, SpecConfig};
    use crate::fs_ops::dispatch;
    use crate::os::{OsState, Pending};
    use crate::state::Entry;
    use crate::types::INITIAL_PID;

    fn setup(flavor: Flavor) -> (SpecConfig, OsState) {
        let cfg = SpecConfig::standard(flavor);
        let st = OsState::initial_with_process(&cfg, INITIAL_PID);
        (cfg, st)
    }

    fn run(cfg: &SpecConfig, st: &OsState, cmd: OsCommand) -> CmdOutcome {
        dispatch(cfg, st, INITIAL_PID, &cmd)
    }

    fn ok(out: &CmdOutcome) -> OsState {
        assert!(!out.successes.is_empty(), "expected success, errors: {:?}", out.errors);
        out.successes[0].0.clone()
    }

    fn with_file(cfg: &SpecConfig, st: &OsState, path: &str) -> OsState {
        ok(&run(
            cfg,
            st,
            OsCommand::Open(path.into(), OpenFlags::O_CREAT, Some(FileMode::new(0o644))),
        ))
    }

    #[test]
    fn link_creates_second_name_for_same_file() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = with_file(&cfg, &st, "/f");
        let st = ok(&run(&cfg, &st, OsCommand::Link("/f".into(), "/g".into())));
        let root = st.heap.root();
        let f = match st.heap.lookup(root, "f").unwrap() {
            Entry::File(f) => f,
            _ => panic!(),
        };
        assert_eq!(st.heap.lookup(root, "g"), Some(Entry::File(f)));
        assert_eq!(st.heap.file(f).unwrap().nlink, 2);
    }

    #[test]
    fn link_errors() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = with_file(&cfg, &st, "/f");
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        // Missing source.
        let out = run(&cfg, &st, OsCommand::Link("/nope".into(), "/x".into()));
        assert!(out.errors.contains(&Errno::ENOENT));
        // Directory source.
        let out = run(&cfg, &st, OsCommand::Link("/d".into(), "/x".into()));
        assert!(out.errors.contains(&Errno::EPERM));
        // Existing destination.
        let out = run(&cfg, &st, OsCommand::Link("/f".into(), "/d".into()));
        assert!(out.errors.contains(&Errno::EEXIST));
        let out = run(&cfg, &st, OsCommand::Link("/f".into(), "/f".into()));
        assert!(out.errors.contains(&Errno::EEXIST));
    }

    #[test]
    fn link_trailing_slash_looseness_is_flavor_specific() {
        // The paper's example: `link /dir/ /f.txt/` returns EEXIST on Linux
        // although POSIX intends ENOTDIR.
        let (cfg_linux, st) = setup(Flavor::Linux);
        let st = with_file(&cfg_linux, &st, "/f.txt");
        let st = ok(&run(&cfg_linux, &st, OsCommand::Mkdir("/dir".into(), FileMode::new(0o777))));
        let out = run(&cfg_linux, &st, OsCommand::Link("/f.txt/".into(), "/g".into()));
        assert!(out.errors.contains(&Errno::EEXIST) || out.errors.contains(&Errno::ENOTDIR));
        let cfg_posix = SpecConfig::standard(Flavor::Posix);
        let out = dispatch(&cfg_posix, &st, INITIAL_PID, &OsCommand::Link("/f.txt/".into(), "/g".into()));
        assert!(out.errors.contains(&Errno::ENOTDIR));
    }

    #[test]
    fn link_to_symlink_depends_on_flavor() {
        let (cfg_linux, st0) = setup(Flavor::Linux);
        let st = with_file(&cfg_linux, &st0, "/f");
        let st = ok(&run(&cfg_linux, &st, OsCommand::Symlink("/f".into(), "/s".into())));

        // Linux: the new name is a hard link to the symlink itself.
        let st_linux = ok(&run(&cfg_linux, &st, OsCommand::Link("/s".into(), "/l".into())));
        let out = dispatch(&cfg_linux, &st_linux, INITIAL_PID, &OsCommand::Lstat("/l".into()));
        match &out.successes[0].1 {
            Pending::StatValue { expected, .. } => {
                assert_eq!(expected.kind, crate::types::FileKind::Symlink)
            }
            other => panic!("unexpected {other:?}"),
        }

        // OS X: the symlink is followed; the new name links to the target.
        let cfg_mac = SpecConfig::standard(Flavor::Mac);
        let out = dispatch(&cfg_mac, &st, INITIAL_PID, &OsCommand::Link("/s".into(), "/l".into()));
        let st_mac = ok(&out);
        let out = dispatch(&cfg_mac, &st_mac, INITIAL_PID, &OsCommand::Lstat("/l".into()));
        match &out.successes[0].1 {
            Pending::StatValue { expected, .. } => {
                assert_eq!(expected.kind, crate::types::FileKind::Regular)
            }
            other => panic!("unexpected {other:?}"),
        }

        // POSIX: both interpretations allowed (two success branches).
        let cfg_posix = SpecConfig::standard(Flavor::Posix);
        let out = dispatch(&cfg_posix, &st, INITIAL_PID, &OsCommand::Link("/s".into(), "/l".into()));
        assert_eq!(out.successes.len(), 2);
    }

    #[test]
    fn symlink_creates_and_reads_back() {
        let (cfg, st) = setup(Flavor::Linux);
        let st = ok(&run(&cfg, &st, OsCommand::Symlink("/else/where".into(), "/s".into())));
        let out = run(&cfg, &st, OsCommand::Readlink("/s".into()));
        match &out.successes[0].1 {
            Pending::Value(RetValue::Path(p)) => assert_eq!(p, "/else/where"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn symlink_existing_name_is_eexist() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = with_file(&cfg, &st, "/f");
        let out = run(&cfg, &st, OsCommand::Symlink("/t".into(), "/f".into()));
        assert!(out.errors.contains(&Errno::EEXIST));
    }

    #[test]
    fn symlink_empty_target_is_enoent() {
        let (cfg, st) = setup(Flavor::Linux);
        let out = run(&cfg, &st, OsCommand::Symlink("".into(), "/s".into()));
        assert!(out.errors.contains(&Errno::ENOENT));
    }

    #[test]
    fn readlink_errors() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = with_file(&cfg, &st, "/f");
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Readlink("/f".into()));
        assert!(out.errors.contains(&Errno::EINVAL));
        let out = run(&cfg, &st, OsCommand::Readlink("/d".into()));
        assert!(out.errors.contains(&Errno::EINVAL));
        let out = run(&cfg, &st, OsCommand::Readlink("/missing".into()));
        assert!(out.errors.contains(&Errno::ENOENT));
    }

    #[test]
    fn readlink_on_symlink_to_dir_with_trailing_slash_is_einval() {
        // readlink "s/" where s -> d (a directory): the trailing slash forces
        // resolution to the directory and readlink reports EINVAL.
        let (cfg, st) = setup(Flavor::Linux);
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let st = ok(&run(&cfg, &st, OsCommand::Symlink("d".into(), "/s".into())));
        let out = run(&cfg, &st, OsCommand::Readlink("/s/".into()));
        assert!(out.errors.contains(&Errno::EINVAL));
    }
}
