//! Specification of the metadata commands: `chmod`, `chown`, `umask`, and the
//! harness's `add_user_to_group`.

use crate::commands::RetValue;
use crate::coverage::spec_point;
use crate::errno::Errno;
use crate::flags::FileMode;
use crate::fs_ops::{CmdOutcome, SpecCtx};
use crate::monad::Checks;
use crate::path::{FollowLast, ParsedPath, ResName};
use crate::perms::may_change_meta;
use crate::state::Entry;
use crate::types::{Gid, Uid};

/// A deferred state mutation chosen by resolution, applied only after the
/// permission checks pass.
type MetaUpdate = Box<dyn Fn(&mut crate::os::OsState)>;

/// `chmod(path, mode)`: change the permission bits of a file or directory.
pub fn spec_chmod(ctx: &SpecCtx<'_>, path: &ParsedPath, mode: FileMode) -> CmdOutcome {
    let res = ctx.resolve(path, FollowLast::Follow);
    let (meta, apply): (crate::state::Meta, MetaUpdate) = match res {
        ResName::Err(e) => {
            spec_point("chmod/resolution_error");
            return CmdOutcome::error(e);
        }
        ResName::None { .. } => {
            spec_point("chmod/target_missing_enoent");
            return CmdOutcome::error(Errno::ENOENT);
        }
        ResName::Dir { dref, .. } => {
            let Some(dir) = ctx.st.heap.dir(dref) else {
                return CmdOutcome::error(Errno::ENOENT);
            };
            spec_point("chmod/target_is_directory");
            (
                dir.meta,
                Box::new(move |st: &mut crate::os::OsState| {
                    if let Some(d) = st.heap.dir_mut(dref) {
                        d.meta.mode = mode;
                    }
                }),
            )
        }
        ResName::File { fref, trailing_slash, is_symlink, .. } => {
            if trailing_slash && !is_symlink {
                // POSIX path resolution: a trailing slash on a path naming a
                // non-directory shall fail with ENOTDIR (validated against
                // the real kernel by the host differential harness).
                spec_point("chmod/trailing_slash_on_file_enotdir");
                return CmdOutcome::error(Errno::ENOTDIR);
            }
            let Some(file) = ctx.st.heap.file(fref) else {
                return CmdOutcome::error(Errno::ENOENT);
            };
            spec_point("chmod/target_is_file");
            (
                file.meta,
                Box::new(move |st: &mut crate::os::OsState| {
                    if let Some(f) = st.heap.file_mut(fref) {
                        f.meta.mode = mode;
                    }
                }),
            )
        }
    };
    let checks = if may_change_meta(ctx.creds.as_ref(), &meta) {
        Checks::ok()
    } else {
        spec_point("chmod/caller_not_owner_eperm");
        Checks::fail(Errno::EPERM)
    };
    if !checks.allows_success() {
        return CmdOutcome::from_checks(checks);
    }
    spec_point("chmod/success");
    let mut new_st = ctx.st.clone();
    apply(&mut new_st);
    CmdOutcome::from_checks(checks).with_value(new_st, RetValue::None)
}

/// `chown(path, uid, gid)`: change the ownership of a file or directory.
///
/// Only the superuser may change the owning uid; the owner may change the
/// group to one they belong to (modelled loosely: owner group changes are
/// accepted, non-owners get `EPERM`).
pub fn spec_chown(ctx: &SpecCtx<'_>, path: &ParsedPath, uid: Uid, gid: Gid) -> CmdOutcome {
    let res = ctx.resolve(path, FollowLast::Follow);
    let target = match res {
        ResName::Err(e) => {
            spec_point("chown/resolution_error");
            return CmdOutcome::error(e);
        }
        ResName::None { .. } => {
            spec_point("chown/target_missing_enoent");
            return CmdOutcome::error(Errno::ENOENT);
        }
        ResName::Dir { dref, .. } => Entry::Dir(dref),
        ResName::File { fref, trailing_slash, is_symlink, .. } => {
            if trailing_slash && !is_symlink {
                // As for chmod: trailing slash on a non-directory → ENOTDIR.
                spec_point("chown/trailing_slash_on_file_enotdir");
                return CmdOutcome::error(Errno::ENOTDIR);
            }
            Entry::File(fref)
        }
    };
    let meta = match target {
        Entry::Dir(d) => ctx.st.heap.dir(d).map(|x| x.meta),
        Entry::File(f) => ctx.st.heap.file(f).map(|x| x.meta),
    };
    let Some(meta) = meta else {
        return CmdOutcome::error(Errno::ENOENT);
    };
    let checks = match ctx.creds.as_ref() {
        None => Checks::ok(),
        Some(c) if c.is_root() => {
            spec_point("chown/superuser_allowed");
            Checks::ok()
        }
        Some(c) if c.euid == meta.uid && uid == meta.uid => {
            // Owner changing only the group. POSIX requires the owner to be a
            // member of the target group; when the harness's group table says
            // so the change must succeed, otherwise the kernel may refuse
            // with EPERM (Linux does) — the table may be incomplete, so the
            // refusal is optional rather than mandatory.
            if c.in_group(gid) || ctx.st.groups.is_member(c.euid, gid) {
                spec_point("chown/owner_changes_group_to_member_group");
                Checks::ok()
            } else {
                spec_point("chown/owner_changes_group_to_nonmember_group");
                Checks::may_fail(Errno::EPERM)
            }
        }
        Some(_) => {
            spec_point("chown/caller_not_permitted_eperm");
            Checks::fail(Errno::EPERM)
        }
    };
    if !checks.allows_success() {
        return CmdOutcome::from_checks(checks);
    }
    spec_point("chown/success");
    let mut new_st = ctx.st.clone();
    match target {
        Entry::Dir(d) => {
            if let Some(dir) = new_st.heap.dir_mut(d) {
                dir.meta.uid = uid;
                dir.meta.gid = gid;
            }
        }
        Entry::File(f) => {
            if let Some(file) = new_st.heap.file_mut(f) {
                file.meta.uid = uid;
                file.meta.gid = gid;
            }
        }
    }
    CmdOutcome::from_checks(checks).with_value(new_st, RetValue::None)
}

/// `umask(mask)`: set the file-creation mask, returning the previous mask.
pub fn spec_umask(ctx: &SpecCtx<'_>, mask: FileMode) -> CmdOutcome {
    let Some(proc) = ctx.st.proc(ctx.pid) else {
        return CmdOutcome::error(Errno::EINVAL);
    };
    spec_point("umask/success");
    let old = proc.umask;
    let mut new_st = ctx.st.clone();
    if let Some(p) = new_st.proc_mut(ctx.pid) {
        p.umask = FileMode::new(mask.bits() & 0o777);
    }
    CmdOutcome::from_checks(Checks::ok()).with_value(new_st, RetValue::Num(old.bits() as i64))
}

/// The harness command that records group membership in the OS group table.
pub fn spec_add_user_to_group(ctx: &SpecCtx<'_>, uid: Uid, gid: Gid) -> CmdOutcome {
    spec_point("add_user_to_group/success");
    let mut new_st = ctx.st.clone();
    new_st.groups.add(uid, gid);
    CmdOutcome::from_checks(Checks::ok()).with_value(new_st, RetValue::None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OsCommand;
    use crate::flags::OpenFlags;
    use crate::flavor::{Flavor, SpecConfig};
    use crate::fs_ops::dispatch;
    use crate::os::{OsState, Pending};
    use crate::types::{Pid, INITIAL_PID};

    fn setup(flavor: Flavor) -> (SpecConfig, OsState) {
        let cfg = SpecConfig::standard(flavor);
        let st = OsState::initial_with_process(&cfg, INITIAL_PID);
        (cfg, st)
    }

    fn run(cfg: &SpecConfig, st: &OsState, cmd: OsCommand) -> CmdOutcome {
        dispatch(cfg, st, INITIAL_PID, &cmd)
    }

    fn ok(out: &CmdOutcome) -> OsState {
        assert!(!out.successes.is_empty(), "expected success, got {:?}", out.errors);
        out.successes[0].0.clone()
    }

    #[test]
    fn chmod_changes_mode_reported_by_stat() {
        let (cfg, st) = setup(Flavor::Linux);
        let st = ok(&run(
            &cfg,
            &st,
            OsCommand::Open("/f".into(), OpenFlags::O_CREAT, Some(FileMode::new(0o666))),
        ));
        let st = ok(&run(&cfg, &st, OsCommand::Chmod("/f".into(), FileMode::new(0o600))));
        let out = run(&cfg, &st, OsCommand::Stat("/f".into()));
        match &out.successes[0].1 {
            Pending::StatValue { expected, .. } => assert_eq!(expected.mode, FileMode::new(0o600)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chmod_missing_is_enoent() {
        let (cfg, st) = setup(Flavor::Posix);
        let out = run(&cfg, &st, OsCommand::Chmod("/nope".into(), FileMode::new(0o644)));
        assert!(out.errors.contains(&Errno::ENOENT));
    }

    #[test]
    fn chmod_by_non_owner_is_eperm() {
        let cfg = SpecConfig::unprivileged(Flavor::Linux);
        let mut st = OsState::initial_with_process(&cfg, Pid(1));
        // Create a root-owned directory entry by hand.
        let root = st.heap.root();
        let meta = crate::state::Meta::new(FileMode::new(0o644), Uid(0), Gid(0));
        st.heap.create_file(root, "f", meta, 1).unwrap();
        let out = dispatch(&cfg, &st, Pid(1), &OsCommand::Chmod("/f".into(), FileMode::new(0o777)));
        assert!(out.must_fail);
        assert!(out.errors.contains(&Errno::EPERM));
    }

    #[test]
    fn chown_only_root_changes_owner() {
        let cfg = SpecConfig::unprivileged(Flavor::Linux);
        let mut st = OsState::initial_with_process(&cfg, Pid(1));
        let root = st.heap.root();
        let meta = crate::state::Meta::new(FileMode::new(0o644), Uid(1000), Gid(1000));
        st.heap.create_file(root, "f", meta, 1).unwrap();
        // Non-owner / non-root changing the owner: EPERM.
        st.proc_mut(Pid(1)).unwrap().euid = Uid(2000);
        let out = dispatch(&cfg, &st, Pid(1), &OsCommand::Chown("/f".into(), Uid(2000), Gid(2000)));
        assert!(out.errors.contains(&Errno::EPERM));
        // Owner keeping the uid but changing the group: allowed.
        st.proc_mut(Pid(1)).unwrap().euid = Uid(1000);
        let out = dispatch(&cfg, &st, Pid(1), &OsCommand::Chown("/f".into(), Uid(1000), Gid(7)));
        assert!(!out.must_fail);
        // Root can do anything.
        st.proc_mut(Pid(1)).unwrap().euid = Uid(0);
        let out = dispatch(&cfg, &st, Pid(1), &OsCommand::Chown("/f".into(), Uid(42), Gid(42)));
        assert!(!out.must_fail);
    }

    #[test]
    fn umask_returns_previous_mask_and_applies_to_creation() {
        let (cfg, st) = setup(Flavor::Linux);
        let out = run(&cfg, &st, OsCommand::Umask(FileMode::new(0o077)));
        match &out.successes[0].1 {
            Pending::Value(RetValue::Num(old)) => assert_eq!(*old, 0o022),
            other => panic!("unexpected {other:?}"),
        }
        let st = ok(&out);
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Stat("/d".into()));
        match &out.successes[0].1 {
            Pending::StatValue { expected, .. } => assert_eq!(expected.mode, FileMode::new(0o700)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn add_user_to_group_updates_group_table() {
        let (cfg, st) = setup(Flavor::Posix);
        let st = ok(&run(&cfg, &st, OsCommand::AddUserToGroup(Uid(5), Gid(77))));
        assert!(st.groups.is_member(Uid(5), Gid(77)));
    }
}
