//! The simulated operating system: processes, descriptors, and the concrete,
//! deterministic implementation of every libc call in the model's scope,
//! parameterised by a [`BehaviorProfile`].
//!
//! Where the specification describes an *envelope* of allowed behaviour, this
//! implementation makes one concrete choice per situation — exactly like a
//! real kernel + file system — and, for the profiles that model the defective
//! configurations of §7.3, deliberately makes the *wrong* choice so that the
//! oracle can flag it.

use std::collections::{BTreeMap, BTreeSet};

use sibylfs_core::commands::{ErrorOrValue, OsCommand, RetValue, Stat};
use sibylfs_core::errno::Errno;
use sibylfs_core::flags::{FileMode, OpenFlags, SeekWhence};
use sibylfs_core::intern::Name;
use sibylfs_core::path::ParsedPath;
use sibylfs_core::types::{DirHandleId, Fd, FileKind, Gid, Pid, Uid, MAX_FILE_SIZE};

use crate::behavior::{BehaviorProfile, ReaddirOrder};
use crate::memfs::{Ino, MemFs, NodeKind, NodeMeta, SimRes};

/// What a test script runs against: the simulation or a real kernel and
/// file system. The executors record a trace over any of them.
pub trait World {
    /// Create a process with the given credentials (cwd starts at the root).
    fn create_process(&mut self, pid: Pid, uid: Uid, gid: Gid);
    /// Destroy a process, closing everything it had open.
    fn destroy_process(&mut self, pid: Pid);
    /// Make one libc call as `pid`, returning what the system reports.
    fn call(&mut self, pid: Pid, cmd: &OsCommand) -> ErrorOrValue;
}

/// A per-process open file descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFd {
    /// The inode the descriptor refers to.
    pub ino: Ino,
    /// Current file offset.
    pub offset: u64,
    /// Open flags.
    pub flags: OpenFlags,
    /// Whether the descriptor is open on a directory.
    pub is_dir: bool,
}

/// A per-process open directory stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SimDh {
    /// The directory being listed.
    pub dir: Ino,
    /// The snapshot of entry names (interned), in the order this
    /// configuration returns them; resolved back to text only when a
    /// `readdir` return value is produced.
    pub entries: Vec<Name>,
    /// The position of the next entry to return.
    pub pos: usize,
}

/// Per-process state of the simulated OS.
#[derive(Debug, Clone, PartialEq)]
pub struct SimProc {
    /// Current working directory.
    pub cwd: Ino,
    /// File-creation mask.
    pub umask: u32,
    /// Effective user id.
    pub euid: u32,
    /// Effective group id.
    pub egid: u32,
    /// Open file descriptors.
    pub fds: BTreeMap<i32, SimFd>,
    /// Open directory streams.
    pub dhs: BTreeMap<i32, SimDh>,
    next_fd: i32,
    next_dh: i32,
}

impl SimProc {
    fn new(cwd: Ino, euid: u32, egid: u32) -> SimProc {
        SimProc {
            cwd,
            umask: 0o022,
            euid,
            egid,
            fds: BTreeMap::new(),
            dhs: BTreeMap::new(),
            next_fd: 3,
            next_dh: 1,
        }
    }
}

/// What kind of access a permission check is asking about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    Read,
    Write,
    Exec,
}

/// The simulated operating system and file system under test.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOs {
    /// The behaviour profile of this configuration.
    pub profile: BehaviorProfile,
    /// The inode store.
    pub fs: MemFs,
    procs: BTreeMap<u32, SimProc>,
    groups: BTreeMap<u32, BTreeSet<u32>>,
}

impl World for SimOs {
    fn create_process(&mut self, pid: Pid, uid: Uid, gid: Gid) {
        let root = self.fs.root();
        self.procs.insert(pid.0, SimProc::new(root, uid.0, gid.0));
    }

    fn destroy_process(&mut self, pid: Pid) {
        self.procs.remove(&pid.0);
    }

    fn call(&mut self, pid: Pid, cmd: &OsCommand) -> ErrorOrValue {
        if !self.procs.contains_key(&pid.0) {
            return ErrorOrValue::Error(Errno::EINVAL);
        }
        match cmd {
            OsCommand::Mkdir(path, mode) => self.do_mkdir(pid, path, mode.bits()),
            OsCommand::Rmdir(path) => self.do_rmdir(pid, path),
            OsCommand::Chdir(path) => self.do_chdir(pid, path),
            OsCommand::Unlink(path) => self.do_unlink(pid, path),
            OsCommand::Truncate(path, len) => self.do_truncate(pid, path, *len),
            OsCommand::Stat(path) => self.do_stat(pid, path, true),
            OsCommand::Lstat(path) => self.do_stat(pid, path, false),
            OsCommand::Link(src, dst) => self.do_link(pid, src, dst),
            OsCommand::Symlink(target, path) => self.do_symlink(pid, target, path),
            OsCommand::Readlink(path) => self.do_readlink(pid, path),
            OsCommand::Rename(src, dst) => self.do_rename(pid, src, dst),
            OsCommand::Open(path, flags, mode) => self.do_open(pid, path, *flags, *mode),
            OsCommand::Close(fd) => self.do_close(pid, *fd),
            OsCommand::Lseek(fd, off, whence) => self.do_lseek(pid, *fd, *off, *whence),
            OsCommand::Read(fd, count) => self.do_read(pid, *fd, *count, None),
            OsCommand::Pread(fd, count, off) => self.do_read(pid, *fd, *count, Some(*off)),
            OsCommand::Write(fd, data) => self.do_write(pid, *fd, data, None),
            OsCommand::Pwrite(fd, data, off) => self.do_write(pid, *fd, data, Some(*off)),
            OsCommand::Chmod(path, mode) => self.do_chmod(pid, path, mode.bits()),
            OsCommand::Chown(path, uid, gid) => self.do_chown(pid, path, uid.0, gid.0),
            OsCommand::Umask(mask) => self.do_umask(pid, mask.bits()),
            OsCommand::AddUserToGroup(uid, gid) => {
                self.groups.entry(gid.0).or_default().insert(uid.0);
                ErrorOrValue::Value(RetValue::None)
            }
            OsCommand::Opendir(path) => self.do_opendir(pid, path),
            OsCommand::Readdir(dh) => self.do_readdir(pid, *dh),
            OsCommand::Rewinddir(dh) => self.do_rewinddir(pid, *dh),
            OsCommand::Closedir(dh) => self.do_closedir(pid, *dh),
        }
    }
}

impl SimOs {
    /// Create a fresh system with the given behaviour profile and no
    /// processes.
    pub fn new(profile: BehaviorProfile) -> SimOs {
        SimOs { profile, fs: MemFs::new(), procs: BTreeMap::new(), groups: BTreeMap::new() }
    }

    fn proc_mut(&mut self, pid: Pid) -> Option<&mut SimProc> {
        self.procs.get_mut(&pid.0)
    }

    fn in_group(&self, uid: u32, gid: u32, proc_egid: u32) -> bool {
        proc_egid == gid || self.groups.get(&gid).map(|s| s.contains(&uid)).unwrap_or(false)
    }

    fn allowed(&self, proc: &SimProc, meta: &NodeMeta, want: Want) -> bool {
        if self.profile.permissions_not_enforced || proc.euid == 0 {
            return true;
        }
        let (r, w, x) = if proc.euid == meta.uid {
            (0o400, 0o200, 0o100)
        } else if self.in_group(proc.euid, meta.gid, proc.egid) {
            (0o040, 0o020, 0o010)
        } else {
            (0o004, 0o002, 0o001)
        };
        let bit = match want {
            Want::Read => r,
            Want::Write => w,
            Want::Exec => x,
        };
        meta.mode & bit == bit
    }

    fn node_meta(&self, ino: Ino) -> NodeMeta {
        self.fs.node(ino).map(|n| n.meta).unwrap_or(NodeMeta { mode: 0, uid: 0, gid: 0 })
    }

    fn check_dir_writable(&self, proc: &SimProc, dir: Ino) -> Result<(), Errno> {
        let meta = self.node_meta(dir);
        if self.allowed(proc, &meta, Want::Write) && self.allowed(proc, &meta, Want::Exec) {
            Ok(())
        } else {
            Err(Errno::EACCES)
        }
    }

    /// The effective mode of a newly created object, after umask and mount
    /// options.
    fn creation_mode(&self, proc: &SimProc, requested: u32) -> u32 {
        let umask = if self.profile.umask_ignored {
            0
        } else if let Some(forced) = self.profile.forced_umask_or {
            proc.umask | forced
        } else {
            proc.umask
        };
        requested & !umask & 0o7777
    }

    /// The owner of newly created objects.
    fn creation_owner(&self, proc: &SimProc) -> (u32, u32) {
        if self.profile.creation_owner_root {
            (0, 0)
        } else {
            (proc.euid, proc.egid)
        }
    }

    fn capacity_exceeded(&self, extra: u64) -> bool {
        match self.profile.capacity_bytes {
            Some(cap) => self.fs.bytes_used.saturating_add(extra) > cap,
            None => false,
        }
    }

    fn stat_of(&self, ino: Ino) -> Stat {
        let node = self.fs.node(ino).expect("stat of a live inode");
        match &node.kind {
            NodeKind::Dir { .. } => Stat {
                kind: FileKind::Directory,
                size: 0,
                nlink: if self.profile.supports_dir_nlink { self.fs.dir_nlink(ino) } else { 1 },
                mode: FileMode::new(node.meta.mode),
                uid: Uid(node.meta.uid),
                gid: Gid(node.meta.gid),
            },
            NodeKind::File { data } => Stat {
                kind: FileKind::Regular,
                size: data.len() as u64,
                nlink: if self.profile.supports_file_nlink { node.nlink } else { 1 },
                mode: FileMode::new(node.meta.mode),
                uid: Uid(node.meta.uid),
                gid: Gid(node.meta.gid),
            },
            NodeKind::Symlink { target } => Stat {
                kind: FileKind::Symlink,
                size: target.raw_len() as u64,
                nlink: if self.profile.supports_file_nlink { node.nlink } else { 1 },
                mode: FileMode::new(self.profile.symlink_mode()),
                uid: Uid(node.meta.uid),
                gid: Gid(node.meta.gid),
            },
        }
    }

    fn ordered_entries(&self, dir: Ino) -> Vec<Name> {
        match self.profile.readdir_order {
            ReaddirOrder::Sorted => self.fs.entries(dir),
            ReaddirOrder::Reverse => {
                let mut e = self.fs.entries(dir);
                e.reverse();
                e
            }
            ReaddirOrder::Insertion => {
                let mut e = self.fs.entries_with_seq(dir);
                e.sort_by_key(|(_, seq)| *seq);
                e.into_iter().map(|(n, _)| n).collect()
            }
        }
    }

    fn resolve(&self, pid: Pid, path: &ParsedPath, follow_last: bool) -> SimRes {
        let Some(proc) = self.procs.get(&pid.0) else {
            return SimRes::Error(Errno::EINVAL);
        };
        let cwd = proc.cwd;
        if self.profile.permissions_not_enforced || proc.euid == 0 {
            return self.fs.resolve_parsed(cwd, path, follow_last, None);
        }
        let proc = proc.clone();
        let check = |meta: &NodeMeta| self.allowed(&proc, meta, Want::Exec);
        self.fs.resolve_parsed(cwd, path, follow_last, Some(&check))
    }

    // --- directories ---------------------------------------------------------

    fn do_mkdir(&mut self, pid: Pid, path: &ParsedPath, mode: u32) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        match self.resolve(pid, path, false) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Dir { .. } => ErrorOrValue::Error(Errno::EEXIST),
            SimRes::NonDir { .. } => ErrorOrValue::Error(Errno::EEXIST),
            SimRes::Missing { parent, name, .. } => {
                if !self.fs.is_connected(parent) && !self.profile.create_in_deleted_cwd_succeeds {
                    return ErrorOrValue::Error(Errno::ENOENT);
                }
                if let Err(e) = self.check_dir_writable(&proc, parent) {
                    return ErrorOrValue::Error(e);
                }
                let (uid, gid) = self.creation_owner(&proc);
                let meta = NodeMeta { mode: self.creation_mode(&proc, mode), uid, gid };
                self.fs.create(
                    parent,
                    name,
                    NodeKind::Dir { entries: BTreeMap::new(), parent: None },
                    meta,
                );
                ErrorOrValue::Value(RetValue::None)
            }
        }
    }

    fn do_rmdir(&mut self, pid: Pid, path: &ParsedPath) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        if path.last_component() == Some(Name::DOT) {
            return ErrorOrValue::Error(Errno::EINVAL);
        }
        match self.resolve(pid, path, false) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Missing { .. } => ErrorOrValue::Error(Errno::ENOENT),
            SimRes::NonDir { .. } => ErrorOrValue::Error(Errno::ENOTDIR),
            SimRes::Dir { ino, parent } => {
                if ino == self.fs.root() {
                    // Removing the root is always refused with EBUSY (the
                    // OS X EISDIR quirk applies to *renaming* the root only).
                    return ErrorOrValue::Error(Errno::EBUSY);
                }
                let Some((pdir, name)) = parent else {
                    return ErrorOrValue::Error(Errno::EBUSY);
                };
                if !self.fs.dir_is_empty(ino) {
                    return ErrorOrValue::Error(Errno::ENOTEMPTY);
                }
                if let Err(e) = self.check_dir_writable(&proc, pdir) {
                    return ErrorOrValue::Error(e);
                }
                self.fs.remove_entry(pdir, name, true);
                ErrorOrValue::Value(RetValue::None)
            }
        }
    }

    fn do_chdir(&mut self, pid: Pid, path: &ParsedPath) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        match self.resolve(pid, path, true) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Missing { .. } => ErrorOrValue::Error(Errno::ENOENT),
            SimRes::NonDir { .. } => ErrorOrValue::Error(Errno::ENOTDIR),
            SimRes::Dir { ino, .. } => {
                let meta = self.node_meta(ino);
                if !self.allowed(&proc, &meta, Want::Exec) {
                    return ErrorOrValue::Error(Errno::EACCES);
                }
                self.proc_mut(pid).expect("process exists").cwd = ino;
                ErrorOrValue::Value(RetValue::None)
            }
        }
    }

    // --- files ---------------------------------------------------------------

    fn do_unlink(&mut self, pid: Pid, path: &ParsedPath) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        match self.resolve(pid, path, false) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Missing { .. } => ErrorOrValue::Error(Errno::ENOENT),
            SimRes::Dir { .. } => ErrorOrValue::Error(self.profile.unlink_dir_errno()),
            SimRes::NonDir { parent, name, trailing_slash, .. } => {
                if trailing_slash {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                if let Err(e) = self.check_dir_writable(&proc, parent) {
                    return ErrorOrValue::Error(e);
                }
                self.fs.remove_entry(parent, name, true);
                ErrorOrValue::Value(RetValue::None)
            }
        }
    }

    fn do_truncate(&mut self, pid: Pid, path: &ParsedPath, len: i64) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        if len < 0 {
            return ErrorOrValue::Error(Errno::EINVAL);
        }
        match self.resolve(pid, path, true) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Missing { .. } => ErrorOrValue::Error(Errno::ENOENT),
            SimRes::Dir { .. } => ErrorOrValue::Error(Errno::EISDIR),
            SimRes::NonDir { ino, trailing_slash, .. } => {
                if trailing_slash {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                let meta = self.node_meta(ino);
                if !self.allowed(&proc, &meta, Want::Write) {
                    return ErrorOrValue::Error(Errno::EACCES);
                }
                if len > MAX_FILE_SIZE {
                    // Past the maximum file size (mirrors the model's limit,
                    // like a real fs's s_maxbytes): EFBIG, and the in-memory
                    // store never materializes a fuzzed multi-gigabyte file.
                    return ErrorOrValue::Error(Errno::EFBIG);
                }
                let cur = self.fs.file_size(ino);
                let grow = (len as u64).saturating_sub(cur);
                if self.capacity_exceeded(grow) {
                    return ErrorOrValue::Error(Errno::ENOSPC);
                }
                self.fs.truncate(ino, len as u64);
                ErrorOrValue::Value(RetValue::None)
            }
        }
    }

    fn do_stat(&mut self, pid: Pid, path: &ParsedPath, follow: bool) -> ErrorOrValue {
        match self.resolve(pid, path, follow) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Missing { .. } => ErrorOrValue::Error(Errno::ENOENT),
            SimRes::Dir { ino, .. } => {
                ErrorOrValue::Value(RetValue::Stat(Box::new(self.stat_of(ino))))
            }
            SimRes::NonDir { ino, trailing_slash, .. } => {
                let is_symlink = self.fs.node(ino).map(|n| n.is_symlink()).unwrap_or(false);
                if trailing_slash && !is_symlink {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                ErrorOrValue::Value(RetValue::Stat(Box::new(self.stat_of(ino))))
            }
        }
    }

    // --- links ---------------------------------------------------------------

    fn do_link(&mut self, pid: Pid, src: &ParsedPath, dst: &ParsedPath) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        // Examine the source without following, to apply per-configuration
        // symlink handling.
        let src_nofollow = self.resolve(pid, src, false);
        if let SimRes::NonDir { ino, .. } = &src_nofollow {
            let is_symlink = self.fs.node(*ino).map(|n| n.is_symlink()).unwrap_or(false);
            if is_symlink {
                if let Some(e) = self.profile.link_to_symlink_errno {
                    return ErrorOrValue::Error(e);
                }
            }
        }
        let src_res = if self.profile.link_follows_symlink() {
            self.resolve(pid, src, true)
        } else {
            src_nofollow
        };
        let src_ino = match src_res {
            SimRes::Error(e) => return ErrorOrValue::Error(e),
            SimRes::Missing { .. } => return ErrorOrValue::Error(Errno::ENOENT),
            SimRes::Dir { .. } => return ErrorOrValue::Error(Errno::EPERM),
            SimRes::NonDir { ino, trailing_slash, .. } => {
                if trailing_slash {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                ino
            }
        };
        match self.resolve(pid, dst, false) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Dir { .. } => ErrorOrValue::Error(Errno::EEXIST),
            SimRes::NonDir { trailing_slash, .. } => {
                if trailing_slash {
                    // The Linux quirk surveyed in §7.3.2: the existence check
                    // fires before the trailing slash is noticed.
                    ErrorOrValue::Error(Errno::ENOTDIR)
                } else {
                    ErrorOrValue::Error(Errno::EEXIST)
                }
            }
            SimRes::Missing { parent, name, trailing_slash } => {
                if trailing_slash {
                    return ErrorOrValue::Error(Errno::ENOENT);
                }
                if !self.fs.is_connected(parent) {
                    return ErrorOrValue::Error(Errno::ENOENT);
                }
                if let Err(e) = self.check_dir_writable(&proc, parent) {
                    return ErrorOrValue::Error(e);
                }
                self.fs.add_link(parent, name, src_ino);
                ErrorOrValue::Value(RetValue::None)
            }
        }
    }

    fn do_symlink(&mut self, pid: Pid, target: &ParsedPath, path: &ParsedPath) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        match self.resolve(pid, path, false) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Dir { .. } | SimRes::NonDir { .. } => ErrorOrValue::Error(Errno::EEXIST),
            SimRes::Missing { parent, name, trailing_slash } => {
                if trailing_slash || target.is_empty() {
                    return ErrorOrValue::Error(Errno::ENOENT);
                }
                if !self.fs.is_connected(parent) && !self.profile.create_in_deleted_cwd_succeeds {
                    return ErrorOrValue::Error(Errno::ENOENT);
                }
                if let Err(e) = self.check_dir_writable(&proc, parent) {
                    return ErrorOrValue::Error(e);
                }
                let (uid, gid) = self.creation_owner(&proc);
                let meta = NodeMeta { mode: self.profile.symlink_mode(), uid, gid };
                self.fs.create(parent, name, NodeKind::Symlink { target: target.clone() }, meta);
                ErrorOrValue::Value(RetValue::None)
            }
        }
    }

    fn do_readlink(&mut self, pid: Pid, path: &ParsedPath) -> ErrorOrValue {
        match self.resolve(pid, path, false) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Missing { .. } => ErrorOrValue::Error(Errno::ENOENT),
            SimRes::Dir { .. } => ErrorOrValue::Error(Errno::EINVAL),
            SimRes::NonDir { ino, .. } => match self.fs.symlink_target(ino) {
                Some(t) => ErrorOrValue::Value(RetValue::Path(t.to_string())),
                None => ErrorOrValue::Error(Errno::EINVAL),
            },
        }
    }

    // --- rename ---------------------------------------------------------------

    fn do_rename(&mut self, pid: Pid, src: &ParsedPath, dst: &ParsedPath) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        for p in [src, dst] {
            if p.ends_in_dot() {
                return ErrorOrValue::Error(Errno::EINVAL);
            }
        }
        let src_res = self.resolve(pid, src, false);
        let dst_res = self.resolve(pid, dst, false);

        // Same-object rename is a no-op.
        let src_ino = match &src_res {
            SimRes::Dir { ino, .. } => Some(*ino),
            SimRes::NonDir { ino, .. } => Some(*ino),
            _ => None,
        };
        let dst_ino = match &dst_res {
            SimRes::Dir { ino, .. } => Some(*ino),
            SimRes::NonDir { ino, .. } => Some(*ino),
            _ => None,
        };
        if src_ino.is_some() && src_ino == dst_ino {
            return ErrorOrValue::Value(RetValue::None);
        }

        match src_res {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Missing { .. } => ErrorOrValue::Error(Errno::ENOENT),
            SimRes::Dir { ino: sd, parent: sparent } => {
                if sd == self.fs.root() {
                    return ErrorOrValue::Error(self.profile.rename_root_errno());
                }
                let Some((sp, sname)) = sparent else {
                    return ErrorOrValue::Error(Errno::EINVAL);
                };
                match dst_res {
                    SimRes::Error(e) => ErrorOrValue::Error(e),
                    SimRes::NonDir { .. } => ErrorOrValue::Error(Errno::ENOTDIR),
                    SimRes::Dir { ino: dd, parent: dparent } => {
                        if dd == self.fs.root() {
                            return ErrorOrValue::Error(self.profile.rename_root_errno());
                        }
                        if self.fs.is_same_or_ancestor(sd, dd) {
                            return ErrorOrValue::Error(Errno::EINVAL);
                        }
                        if !self.fs.dir_is_empty(dd) {
                            let e = if self.profile.rename_nonempty_eperm {
                                Errno::EPERM
                            } else {
                                Errno::ENOTEMPTY
                            };
                            return ErrorOrValue::Error(e);
                        }
                        let Some((dp, dname)) = dparent else {
                            return ErrorOrValue::Error(Errno::EINVAL);
                        };
                        if let Err(e) = self
                            .check_dir_writable(&proc, sp)
                            .and_then(|_| self.check_dir_writable(&proc, dp))
                        {
                            return ErrorOrValue::Error(e);
                        }
                        self.fs.remove_entry(dp, dname, true);
                        self.fs.remove_entry(sp, sname, true);
                        self.fs.attach_dir(dp, dname, sd);
                        ErrorOrValue::Value(RetValue::None)
                    }
                    SimRes::Missing { parent: dp, name: dname, .. } => {
                        if self.fs.is_same_or_ancestor(sd, dp) {
                            return ErrorOrValue::Error(Errno::EINVAL);
                        }
                        // Creating an entry in a deleted directory (e.g. a
                        // removed cwd) fails — the Fig. 8 scenario; found
                        // missing here by the exploration engine.
                        if !self.fs.is_connected(dp)
                            && !self.profile.create_in_deleted_cwd_succeeds
                        {
                            return ErrorOrValue::Error(Errno::ENOENT);
                        }
                        if let Err(e) = self
                            .check_dir_writable(&proc, sp)
                            .and_then(|_| self.check_dir_writable(&proc, dp))
                        {
                            return ErrorOrValue::Error(e);
                        }
                        self.fs.remove_entry(sp, sname, true);
                        self.fs.attach_dir(dp, dname, sd);
                        ErrorOrValue::Value(RetValue::None)
                    }
                }
            }
            SimRes::NonDir { parent: sp, name: sname, ino: sino, trailing_slash } => {
                if trailing_slash {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                match dst_res {
                    SimRes::Error(e) => ErrorOrValue::Error(e),
                    SimRes::Dir { .. } => ErrorOrValue::Error(Errno::EISDIR),
                    SimRes::NonDir { parent: dp, name: dname, trailing_slash: dts, .. } => {
                        if dts {
                            return ErrorOrValue::Error(Errno::ENOTDIR);
                        }
                        if let Err(e) = self
                            .check_dir_writable(&proc, sp)
                            .and_then(|_| self.check_dir_writable(&proc, dp))
                        {
                            return ErrorOrValue::Error(e);
                        }
                        self.fs.remove_entry(dp, dname, true);
                        self.fs.remove_entry(sp, sname, false);
                        self.fs.add_link(dp, dname, sino);
                        // posixovl/VFAT leak (§7.3.5): the moved file's link
                        // count is left one too high, so a later unlink never
                        // reaches zero and the blocks are never reclaimed.
                        if !self.profile.rename_link_count_leak {
                            if let Some(n) = self.fs.node_mut(sino) {
                                n.nlink = n.nlink.saturating_sub(1);
                            }
                        }
                        ErrorOrValue::Value(RetValue::None)
                    }
                    SimRes::Missing { parent: dp, name: dname, trailing_slash: dts } => {
                        if dts {
                            return ErrorOrValue::Error(Errno::ENOTDIR);
                        }
                        // As above: no new entries in a deleted directory.
                        if !self.fs.is_connected(dp)
                            && !self.profile.create_in_deleted_cwd_succeeds
                        {
                            return ErrorOrValue::Error(Errno::ENOENT);
                        }
                        if let Err(e) = self
                            .check_dir_writable(&proc, sp)
                            .and_then(|_| self.check_dir_writable(&proc, dp))
                        {
                            return ErrorOrValue::Error(e);
                        }
                        self.fs.remove_entry(sp, sname, false);
                        self.fs.add_link(dp, dname, sino);
                        if let Some(n) = self.fs.node_mut(sino) {
                            n.nlink = n.nlink.saturating_sub(1);
                        }
                        ErrorOrValue::Value(RetValue::None)
                    }
                }
            }
        }
    }

    // --- open / close / lseek --------------------------------------------------

    fn do_open(&mut self, pid: Pid, path: &ParsedPath, flags: OpenFlags, mode: Option<FileMode>) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        let Some(access) = flags.access_mode() else {
            return ErrorOrValue::Error(Errno::EINVAL);
        };

        // FreeBSD defect (§7.3.2): O_CREAT|O_EXCL on a symlink replaces the
        // symlink with a new file and reports ENOTDIR.
        if self.profile.creat_excl_symlink_replaces
            && flags.contains(OpenFlags::O_CREAT)
            && flags.contains(OpenFlags::O_EXCL)
        {
            if let SimRes::NonDir { parent, name, ino, .. } = self.resolve(pid, path, false) {
                if self.fs.node(ino).map(|n| n.is_symlink()).unwrap_or(false) {
                    let (uid, gid) = self.creation_owner(&proc);
                    let m = self.creation_mode(&proc, mode.map(|m| m.bits()).unwrap_or(0o666));
                    self.fs.remove_entry(parent, name, true);
                    self.fs.create(
                        parent,
                        name,
                        NodeKind::File { data: Vec::new() },
                        NodeMeta { mode: m, uid, gid },
                    );
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
            }
        }

        // With O_CREAT|O_EXCL a final-component symlink is never followed:
        // POSIX requires EEXIST even for a dangling link, and real kernels
        // implement it exactly so.
        let follow = !(flags.contains(OpenFlags::O_NOFOLLOW)
            || (flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL)));
        match self.resolve(pid, path, follow) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Dir { ino, .. } => {
                if flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL) {
                    return ErrorOrValue::Error(Errno::EEXIST);
                }
                if access.writable() || flags.contains(OpenFlags::O_TRUNC) {
                    return ErrorOrValue::Error(Errno::EISDIR);
                }
                let meta = self.node_meta(ino);
                if !self.allowed(&proc, &meta, Want::Read) {
                    return ErrorOrValue::Error(Errno::EACCES);
                }
                self.alloc_fd(pid, ino, flags, true)
            }
            SimRes::NonDir { ino, trailing_slash, .. } => {
                let is_symlink = self.fs.node(ino).map(|n| n.is_symlink()).unwrap_or(false);
                if is_symlink {
                    if flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL) {
                        return ErrorOrValue::Error(Errno::EEXIST);
                    }
                    return ErrorOrValue::Error(Errno::ELOOP);
                }
                if flags.contains(OpenFlags::O_DIRECTORY) {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                if flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL) {
                    return ErrorOrValue::Error(Errno::EEXIST);
                }
                if trailing_slash {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                let meta = self.node_meta(ino);
                if access.readable() && !self.allowed(&proc, &meta, Want::Read) {
                    return ErrorOrValue::Error(Errno::EACCES);
                }
                if access.writable() && !self.allowed(&proc, &meta, Want::Write) {
                    return ErrorOrValue::Error(Errno::EACCES);
                }
                if flags.contains(OpenFlags::O_TRUNC) && access.writable() {
                    self.fs.truncate(ino, 0);
                }
                self.alloc_fd(pid, ino, flags, false)
            }
            SimRes::Missing { parent, name, trailing_slash } => {
                if !flags.contains(OpenFlags::O_CREAT) {
                    return ErrorOrValue::Error(Errno::ENOENT);
                }
                if trailing_slash {
                    return ErrorOrValue::Error(self.profile.open_creat_trailing_slash_errno());
                }
                if !self.fs.is_connected(parent) && !self.profile.create_in_deleted_cwd_succeeds {
                    return ErrorOrValue::Error(Errno::ENOENT);
                }
                if let Err(e) = self.check_dir_writable(&proc, parent) {
                    return ErrorOrValue::Error(e);
                }
                if self.capacity_exceeded(0) {
                    return ErrorOrValue::Error(Errno::ENOSPC);
                }
                let (uid, gid) = self.creation_owner(&proc);
                let m = self.creation_mode(&proc, mode.map(|m| m.bits()).unwrap_or(0o666));
                let Some(ino) = self.fs.create(
                    parent,
                    name,
                    NodeKind::File { data: Vec::new() },
                    NodeMeta { mode: m, uid, gid },
                ) else {
                    return ErrorOrValue::Error(Errno::EEXIST);
                };
                self.alloc_fd(pid, ino, flags, false)
            }
        }
    }

    fn alloc_fd(&mut self, pid: Pid, ino: Ino, flags: OpenFlags, is_dir: bool) -> ErrorOrValue {
        let proc = self.proc_mut(pid).expect("process exists");
        let fd = proc.next_fd;
        proc.next_fd += 1;
        proc.fds.insert(fd, SimFd { ino, offset: 0, flags, is_dir });
        ErrorOrValue::Value(RetValue::Fd(Fd(fd)))
    }

    fn do_close(&mut self, pid: Pid, fd: Fd) -> ErrorOrValue {
        let proc = self.proc_mut(pid).expect("process exists");
        if proc.fds.remove(&fd.0).is_some() {
            ErrorOrValue::Value(RetValue::None)
        } else {
            ErrorOrValue::Error(Errno::EBADF)
        }
    }

    fn do_lseek(&mut self, pid: Pid, fd: Fd, off: i64, whence: SeekWhence) -> ErrorOrValue {
        let Some(entry) = self.procs.get(&pid.0).and_then(|p| p.fds.get(&fd.0)).cloned() else {
            return ErrorOrValue::Error(Errno::EBADF);
        };
        let base = match whence {
            SeekWhence::Set => 0,
            SeekWhence::Cur => entry.offset as i64,
            SeekWhence::End => self.fs.file_size(entry.ino) as i64,
        };
        match base.checked_add(off) {
            None => ErrorOrValue::Error(Errno::EOVERFLOW),
            Some(n) if n < 0 => ErrorOrValue::Error(Errno::EINVAL),
            Some(n) => {
                if let Some(e) = self.proc_mut(pid).and_then(|p| p.fds.get_mut(&fd.0)) {
                    e.offset = n as u64;
                }
                ErrorOrValue::Value(RetValue::Num(n))
            }
        }
    }

    // --- read / write -----------------------------------------------------------

    fn do_read(&mut self, pid: Pid, fd: Fd, count: usize, offset: Option<i64>) -> ErrorOrValue {
        if let Some(off) = offset {
            if off < 0 {
                return ErrorOrValue::Error(Errno::EINVAL);
            }
        }
        let Some(entry) = self.procs.get(&pid.0).and_then(|p| p.fds.get(&fd.0)).cloned() else {
            return ErrorOrValue::Error(Errno::EBADF);
        };
        if entry.is_dir {
            return ErrorOrValue::Error(Errno::EISDIR);
        }
        if !entry.flags.access_mode().map(|m| m.readable()).unwrap_or(false) {
            return ErrorOrValue::Error(Errno::EBADF);
        }
        let pos = offset.map(|o| o as u64).unwrap_or(entry.offset);
        let data = self.fs.read(entry.ino, pos, count);
        if offset.is_none() {
            if let Some(e) = self.proc_mut(pid).and_then(|p| p.fds.get_mut(&fd.0)) {
                e.offset = pos + data.len() as u64;
            }
        }
        ErrorOrValue::Value(RetValue::Bytes(data))
    }

    fn do_write(&mut self, pid: Pid, fd: Fd, data: &[u8], offset: Option<i64>) -> ErrorOrValue {
        let entry = self.procs.get(&pid.0).and_then(|p| p.fds.get(&fd.0)).cloned();
        let Some(entry) = entry else {
            if data.is_empty() && self.profile.zero_write_bad_fd_returns_zero() {
                return ErrorOrValue::Value(RetValue::Num(0));
            }
            return ErrorOrValue::Error(Errno::EBADF);
        };
        if let Some(off) = offset {
            if off < 0 {
                // The OS X VFS underflow defect (§7.3.4): the negative offset
                // wraps to a huge unsigned value and the process is killed by
                // SIGXFSZ; we surface that as EFBIG so the oracle (which only
                // allows EINVAL) flags it.
                if self.profile.pwrite_negative_offset_underflow {
                    return ErrorOrValue::Error(Errno::EFBIG);
                }
                return ErrorOrValue::Error(Errno::EINVAL);
            }
        }
        if entry.is_dir || !entry.flags.access_mode().map(|m| m.writable()).unwrap_or(false) {
            return ErrorOrValue::Error(Errno::EBADF);
        }
        let append = entry.flags.contains(OpenFlags::O_APPEND) && !self.profile.o_append_ignored;
        let pos = match offset {
            Some(off) => {
                if append && self.profile.pwrite_append_ignores_offset() {
                    self.fs.file_size(entry.ino)
                } else {
                    off as u64
                }
            }
            None => {
                if append {
                    self.fs.file_size(entry.ino)
                } else {
                    entry.offset
                }
            }
        };
        if !data.is_empty() && pos.saturating_add(data.len() as u64) > MAX_FILE_SIZE as u64 {
            // The write would grow the file past the maximum file size
            // (a descriptor seeked to an extreme offset): EFBIG, mirroring
            // the model's envelope. Zero-byte writes return 0 regardless of
            // the offset, as on Linux.
            return ErrorOrValue::Error(Errno::EFBIG);
        }
        let cur = self.fs.file_size(entry.ino);
        let grow = (pos + data.len() as u64).saturating_sub(cur);
        if self.capacity_exceeded(grow) {
            return ErrorOrValue::Error(Errno::ENOSPC);
        }
        let written = self.fs.write(entry.ino, pos, data);
        if offset.is_none() {
            if let Some(e) = self.proc_mut(pid).and_then(|p| p.fds.get_mut(&fd.0)) {
                e.offset = pos + written as u64;
            }
        }
        ErrorOrValue::Value(RetValue::Num(written as i64))
    }

    // --- metadata ---------------------------------------------------------------

    fn do_chmod(&mut self, pid: Pid, path: &ParsedPath, mode: u32) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        if !self.profile.chmod_supported {
            return ErrorOrValue::Error(Errno::EOPNOTSUPP);
        }
        let ino = match self.resolve(pid, path, true) {
            SimRes::Error(e) => return ErrorOrValue::Error(e),
            SimRes::Missing { .. } => return ErrorOrValue::Error(Errno::ENOENT),
            SimRes::Dir { ino, .. } => ino,
            SimRes::NonDir { ino, trailing_slash, .. } => {
                // POSIX path resolution: trailing slash on a non-directory.
                let is_symlink = self.fs.node(ino).map(|n| n.is_symlink()).unwrap_or(false);
                if trailing_slash && !is_symlink {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                ino
            }
        };
        let meta = self.node_meta(ino);
        if proc.euid != 0 && proc.euid != meta.uid && !self.profile.permissions_not_enforced {
            return ErrorOrValue::Error(Errno::EPERM);
        }
        if let Some(n) = self.fs.node_mut(ino) {
            n.meta.mode = mode & 0o7777;
        }
        ErrorOrValue::Value(RetValue::None)
    }

    fn do_chown(&mut self, pid: Pid, path: &ParsedPath, uid: u32, gid: u32) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        let ino = match self.resolve(pid, path, true) {
            SimRes::Error(e) => return ErrorOrValue::Error(e),
            SimRes::Missing { .. } => return ErrorOrValue::Error(Errno::ENOENT),
            SimRes::Dir { ino, .. } => ino,
            SimRes::NonDir { ino, trailing_slash, .. } => {
                let is_symlink = self.fs.node(ino).map(|n| n.is_symlink()).unwrap_or(false);
                if trailing_slash && !is_symlink {
                    return ErrorOrValue::Error(Errno::ENOTDIR);
                }
                ino
            }
        };
        let meta = self.node_meta(ino);
        let permitted = proc.euid == 0
            || self.profile.permissions_not_enforced
            || (proc.euid == meta.uid && uid == meta.uid);
        if !permitted {
            return ErrorOrValue::Error(Errno::EPERM);
        }
        if let Some(n) = self.fs.node_mut(ino) {
            n.meta.uid = uid;
            n.meta.gid = gid;
        }
        ErrorOrValue::Value(RetValue::None)
    }

    fn do_umask(&mut self, pid: Pid, mask: u32) -> ErrorOrValue {
        let proc = self.proc_mut(pid).expect("process exists");
        let old = proc.umask;
        proc.umask = mask & 0o777;
        ErrorOrValue::Value(RetValue::Num(old as i64))
    }

    // --- directory streams --------------------------------------------------------

    fn do_opendir(&mut self, pid: Pid, path: &ParsedPath) -> ErrorOrValue {
        let proc = self.procs[&pid.0].clone();
        match self.resolve(pid, path, true) {
            SimRes::Error(e) => ErrorOrValue::Error(e),
            SimRes::Missing { .. } => ErrorOrValue::Error(Errno::ENOENT),
            SimRes::NonDir { .. } => ErrorOrValue::Error(Errno::ENOTDIR),
            SimRes::Dir { ino, .. } => {
                let meta = self.node_meta(ino);
                if !self.allowed(&proc, &meta, Want::Read) {
                    return ErrorOrValue::Error(Errno::EACCES);
                }
                let entries = self.ordered_entries(ino);
                let p = self.proc_mut(pid).expect("process exists");
                let dh = p.next_dh;
                p.next_dh += 1;
                p.dhs.insert(dh, SimDh { dir: ino, entries, pos: 0 });
                ErrorOrValue::Value(RetValue::DirHandle(DirHandleId(dh)))
            }
        }
    }

    fn do_readdir(&mut self, pid: Pid, dh: DirHandleId) -> ErrorOrValue {
        let proc = self.proc_mut(pid).expect("process exists");
        let Some(stream) = proc.dhs.get_mut(&dh.0) else {
            return ErrorOrValue::Error(Errno::EBADF);
        };
        if stream.pos < stream.entries.len() {
            let name = stream.entries[stream.pos];
            stream.pos += 1;
            ErrorOrValue::Value(RetValue::ReaddirEntry(Some(name.as_str().to_string())))
        } else {
            ErrorOrValue::Value(RetValue::ReaddirEntry(None))
        }
    }

    fn do_rewinddir(&mut self, pid: Pid, dh: DirHandleId) -> ErrorOrValue {
        let dir = match self.procs.get(&pid.0).and_then(|p| p.dhs.get(&dh.0)) {
            Some(s) => s.dir,
            None => return ErrorOrValue::Error(Errno::EBADF),
        };
        let entries = self.ordered_entries(dir);
        if let Some(s) = self.proc_mut(pid).and_then(|p| p.dhs.get_mut(&dh.0)) {
            s.entries = entries;
            s.pos = 0;
        }
        ErrorOrValue::Value(RetValue::None)
    }

    fn do_closedir(&mut self, pid: Pid, dh: DirHandleId) -> ErrorOrValue {
        let proc = self.proc_mut(pid).expect("process exists");
        if proc.dhs.remove(&dh.0).is_some() {
            ErrorOrValue::Value(RetValue::None)
        } else {
            ErrorOrValue::Error(Errno::EBADF)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use sibylfs_core::flavor::Flavor;
    use sibylfs_core::types::INITIAL_PID;

    fn sim(profile: BehaviorProfile) -> SimOs {
        let mut os = SimOs::new(profile);
        os.create_process(INITIAL_PID, Uid(0), Gid(0));
        os
    }

    fn baseline_linux() -> SimOs {
        sim(BehaviorProfile::baseline("linux/test", Flavor::Linux))
    }

    fn value(r: ErrorOrValue) -> RetValue {
        match r {
            ErrorOrValue::Value(v) => v,
            ErrorOrValue::Error(e) => panic!("unexpected error {e}"),
        }
    }

    fn errno(r: ErrorOrValue) -> Errno {
        match r {
            ErrorOrValue::Error(e) => e,
            ErrorOrValue::Value(v) => panic!("unexpected value {v}"),
        }
    }

    #[test]
    fn basic_mkdir_open_write_read_cycle() {
        let mut os = baseline_linux();
        let p = INITIAL_PID;
        value(os.call(p, &OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let fd = match value(os.call(
            p,
            &OsCommand::Open(
                "/d/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                Some(FileMode::new(0o644)),
            ),
        )) {
            RetValue::Fd(fd) => fd,
            other => panic!("unexpected {other}"),
        };
        assert_eq!(fd, Fd(3));
        assert_eq!(value(os.call(p, &OsCommand::Write(fd, b"hello".to_vec()))), RetValue::Num(5));
        value(os.call(p, &OsCommand::Lseek(fd, 0, SeekWhence::Set)));
        assert_eq!(
            value(os.call(p, &OsCommand::Read(fd, 100))),
            RetValue::Bytes(b"hello".to_vec())
        );
        value(os.call(p, &OsCommand::Close(fd)));
        assert_eq!(errno(os.call(p, &OsCommand::Close(fd))), Errno::EBADF);
    }

    #[test]
    fn unlink_dir_errno_follows_profile() {
        let mut linux = baseline_linux();
        value(linux.call(INITIAL_PID, &OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        assert_eq!(errno(linux.call(INITIAL_PID, &OsCommand::Unlink("/d".into()))), Errno::EISDIR);

        let mut mac = sim(BehaviorProfile::baseline("mac/test", Flavor::Mac));
        value(mac.call(INITIAL_PID, &OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        assert_eq!(errno(mac.call(INITIAL_PID, &OsCommand::Unlink("/d".into()))), Errno::EPERM);
    }

    #[test]
    fn readdir_returns_each_entry_then_end() {
        let mut os = baseline_linux();
        let p = INITIAL_PID;
        value(os.call(p, &OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        value(os.call(p, &OsCommand::Mkdir("/d/a".into(), FileMode::new(0o777))));
        value(os.call(p, &OsCommand::Mkdir("/d/b".into(), FileMode::new(0o777))));
        let dh = match value(os.call(p, &OsCommand::Opendir("/d".into()))) {
            RetValue::DirHandle(dh) => dh,
            other => panic!("unexpected {other}"),
        };
        let mut names = Vec::new();
        loop {
            match value(os.call(p, &OsCommand::Readdir(dh))) {
                RetValue::ReaddirEntry(Some(n)) => names.push(n),
                RetValue::ReaddirEntry(None) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn sshfs_rename_nonempty_reports_eperm() {
        let profile = configs::by_name("linux/sshfs-tmpfs").expect("config exists");
        let mut os = sim(profile);
        let p = INITIAL_PID;
        value(os.call(p, &OsCommand::Mkdir("/emptydir".into(), FileMode::new(0o777))));
        value(os.call(p, &OsCommand::Mkdir("/nonemptydir".into(), FileMode::new(0o777))));
        value(os.call(
            p,
            &OsCommand::Open(
                "/nonemptydir/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(FileMode::new(0o666)),
            ),
        ));
        // The paper's Fig. 4 deviation: SSHFS reports EPERM here.
        assert_eq!(
            errno(os.call(p, &OsCommand::Rename("/emptydir".into(), "/nonemptydir".into()))),
            Errno::EPERM
        );
    }

    #[test]
    fn posixovl_leak_eventually_reports_enospc_on_empty_volume() {
        let profile = configs::by_name("linux/posixovl-vfat").expect("config exists");
        let mut os = sim(profile);
        let p = INITIAL_PID;
        // Repeatedly create a file with data and rename it over another file;
        // the leak keeps the old blocks accounted until the volume fills.
        let mut saw_enospc = false;
        for i in 0..200 {
            let a = format!("/a{i}");
            let b = format!("/b{i}");
            let fd = match os.call(
                p,
                &OsCommand::Open(a.as_str().into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(FileMode::new(0o644))),
            ) {
                ErrorOrValue::Value(RetValue::Fd(fd)) => fd,
                ErrorOrValue::Error(Errno::ENOSPC) => {
                    saw_enospc = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            };
            match os.call(p, &OsCommand::Write(fd, vec![7u8; 4096])) {
                ErrorOrValue::Value(_) => {}
                ErrorOrValue::Error(Errno::ENOSPC) => {
                    saw_enospc = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
            os.call(p, &OsCommand::Close(fd));
            os.call(
                p,
                &OsCommand::Open(b.as_str().into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(FileMode::new(0o644))),
            );
            os.call(p, &OsCommand::Rename(a.into(), b.as_str().into()));
            // Deleting the renamed file should release the space, but the
            // leak keeps it accounted.
            os.call(p, &OsCommand::Unlink(b.into()));
        }
        assert!(saw_enospc, "the storage leak should eventually exhaust the volume");
        // A correct overlay on the same small volume never runs out of space.
        let mut good = BehaviorProfile::baseline("linux/posixovl-fixed", Flavor::Linux);
        good.capacity_bytes = Some(256 * 1024);
        let mut os = sim(good);
        for i in 0..200 {
            let a = format!("/a{i}");
            let b = format!("/b{i}");
            let fd = match value(os.call(
                p,
                &OsCommand::Open(a.as_str().into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(FileMode::new(0o644))),
            )) {
                RetValue::Fd(fd) => fd,
                other => panic!("unexpected {other}"),
            };
            value(os.call(p, &OsCommand::Write(fd, vec![7u8; 4096])));
            value(os.call(p, &OsCommand::Close(fd)));
            value(os.call(
                p,
                &OsCommand::Open(b.as_str().into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(FileMode::new(0o644))),
            ));
            value(os.call(p, &OsCommand::Rename(a.into(), b.as_str().into())));
            value(os.call(p, &OsCommand::Unlink(b.into())));
        }
    }

    #[test]
    fn freebsd_defect_replaces_symlink_and_reports_enotdir() {
        let profile = configs::by_name("freebsd/ufs").expect("config exists");
        let mut os = sim(profile);
        let p = INITIAL_PID;
        value(os.call(p, &OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        value(os.call(p, &OsCommand::Symlink("/d".into(), "/s".into())));
        let r = os.call(
            p,
            &OsCommand::Open(
                "/s".into(),
                OpenFlags::O_CREAT | OpenFlags::O_EXCL | OpenFlags::O_DIRECTORY,
                Some(FileMode::new(0o644)),
            ),
        );
        assert_eq!(errno(r), Errno::ENOTDIR);
        // The invariant violation: the symlink has been replaced by a file.
        match value(os.call(p, &OsCommand::Lstat("/s".into()))) {
            RetValue::Stat(s) => assert_eq!(s.kind, FileKind::Regular),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn openzfs_osx_allows_create_in_deleted_cwd() {
        let profile = configs::by_name("mac/openzfs").expect("config exists");
        let mut os = sim(profile);
        let p = INITIAL_PID;
        // The Fig. 8 sequence.
        value(os.call(p, &OsCommand::Mkdir("/deserted".into(), FileMode::new(0o700))));
        value(os.call(p, &OsCommand::Chdir("/deserted".into())));
        value(os.call(p, &OsCommand::Rmdir("/deserted".into())));
        let r = os.call(
            p,
            &OsCommand::Open("party".into(), OpenFlags::O_CREAT | OpenFlags::O_RDONLY, Some(FileMode::new(0o600))),
        );
        assert!(matches!(r, ErrorOrValue::Value(RetValue::Fd(_))), "the defect allows the create");
        // A correct implementation reports ENOENT.
        let good = configs::by_name("mac/hfsplus").expect("config exists");
        let mut os = sim(good);
        value(os.call(p, &OsCommand::Mkdir("/deserted".into(), FileMode::new(0o700))));
        value(os.call(p, &OsCommand::Chdir("/deserted".into())));
        value(os.call(p, &OsCommand::Rmdir("/deserted".into())));
        let r = os.call(
            p,
            &OsCommand::Open("party".into(), OpenFlags::O_CREAT | OpenFlags::O_RDONLY, Some(FileMode::new(0o600))),
        );
        assert_eq!(errno(r), Errno::ENOENT);
    }

    #[test]
    fn mac_pwrite_underflow_defect_reports_wrong_error() {
        let profile = configs::by_name("mac/hfsplus").expect("config exists");
        let mut os = sim(profile);
        let p = INITIAL_PID;
        let fd = match value(os.call(
            p,
            &OsCommand::Open("/f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(FileMode::new(0o644))),
        )) {
            RetValue::Fd(fd) => fd,
            other => panic!("unexpected {other}"),
        };
        // POSIX requires EINVAL; the OS X defect surfaces as EFBIG.
        assert_eq!(errno(os.call(p, &OsCommand::Pwrite(fd, b"x".to_vec(), -1))), Errno::EFBIG);
    }

    #[test]
    fn permissions_enforced_for_ordinary_users() {
        let mut os = baseline_linux();
        let root = INITIAL_PID;
        value(os.call(root, &OsCommand::Mkdir("/private".into(), FileMode::new(0o700))));
        os.create_process(Pid(2), Uid(1000), Gid(1000));
        let r = os.call(Pid(2), &OsCommand::Open("/private/f".into(), OpenFlags::O_CREAT, Some(FileMode::new(0o644))));
        assert_eq!(errno(r), Errno::EACCES);
        // With the SSHFS allow_other profile, permissions are not enforced.
        let profile = configs::by_name("linux/sshfs-allow-other").expect("config exists");
        let mut os = sim(profile);
        value(os.call(root, &OsCommand::Mkdir("/private".into(), FileMode::new(0o700))));
        os.create_process(Pid(2), Uid(1000), Gid(1000));
        let r = os.call(Pid(2), &OsCommand::Open("/private/f".into(), OpenFlags::O_CREAT, Some(FileMode::new(0o644))));
        assert!(matches!(r, ErrorOrValue::Value(_)));
    }

    #[test]
    fn old_hfsplus_chmod_unsupported() {
        let profile = configs::by_name("linux/hfsplus-trusty").expect("config exists");
        let mut os = sim(profile);
        let p = INITIAL_PID;
        value(os.call(p, &OsCommand::Open("/f".into(), OpenFlags::O_CREAT, Some(FileMode::new(0o644)))));
        assert_eq!(
            errno(os.call(p, &OsCommand::Chmod("/f".into(), FileMode::new(0o600)))),
            Errno::EOPNOTSUPP
        );
    }

    #[test]
    fn openzfs_linux_old_ignores_o_append() {
        let profile = configs::by_name("linux/openzfs-trusty").expect("config exists");
        let mut os = sim(profile);
        let p = INITIAL_PID;
        let fd = match value(os.call(
            p,
            &OsCommand::Open(
                "/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDWR | OpenFlags::O_APPEND,
                Some(FileMode::new(0o644)),
            ),
        )) {
            RetValue::Fd(fd) => fd,
            other => panic!("unexpected {other}"),
        };
        value(os.call(p, &OsCommand::Write(fd, b"AAAA".to_vec())));
        value(os.call(p, &OsCommand::Lseek(fd, 0, SeekWhence::Set)));
        // With the defect, this write lands at offset 0 and corrupts the data
        // instead of appending.
        value(os.call(p, &OsCommand::Write(fd, b"BB".to_vec())));
        value(os.call(p, &OsCommand::Lseek(fd, 0, SeekWhence::Set)));
        assert_eq!(value(os.call(p, &OsCommand::Read(fd, 10))), RetValue::Bytes(b"BBAA".to_vec()));
    }
}
