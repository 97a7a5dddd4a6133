//! Per-command footprints for partial-order reduction.
//!
//! Every in-flight [`OsCommand`] gets a cheap, state-concrete [`Footprint`]:
//! the set of heap resources its τ-step (the `process_call` dispatch) reads
//! and writes. Two commands whose footprints [`Footprint::commutes`] produce
//! the *same* set of states regardless of the order their τ-steps fire in,
//! so the checker's τ-closure only needs to dispatch them in one order (see
//! `crates/core/DESIGN_POR.md` for the argument and the conservatism rules).
//!
//! Footprints are computed against the state the command is dispatched from,
//! by re-running path resolution with a recording hook
//! ([`crate::path::resolve_path_observed`]): the footprint of `mkdir /a/b`
//! is not the textual prefix `/a/b` but the concrete directories and entries
//! the resolver actually reads — which handles symlinks, `..`, and relative
//! paths exactly instead of conservatively.
//!
//! Two deliberate asymmetries keep the table small and sound:
//!
//! - **fd I/O is τ-pure.** `read`/`write`/`pread`/`pwrite` capture their
//!   pending payload at τ-time but apply their effects (offset advance,
//!   `apply_write`) when the *return* label is matched. Their τ footprints
//!   are therefore read-only; `TrackedSet::after` separately filters sleep
//!   sets by [`return_effect_of`] when a return that writes is matched.
//! - **Per-process resources are elided.** fd tables, dir-handle tables,
//!   cwd, and umask belong to a single process, and commutativity is only
//!   ever evaluated across *different* pids, so touching them never
//!   conflicts. (Dir handles *contents* are shared — a concurrent entry
//!   write updates every open handle on that directory — which is why
//!   `readdir` carries a [`Res::ListingRead`].)

use crate::commands::OsCommand;
use crate::flags::OpenFlags;
use crate::flavor::{LinkSymlinkBehavior, SpecConfig};
use crate::intern::Name;
use crate::os::OsState;
use crate::path::{
    resolve_path_observed, FollowLast, ParsedPath, PathObs, ResName, ResolveCtx,
};
use crate::perms::Creds;
use crate::state::{DirRef, FileRef};
use crate::types::{DirHandleId, Fd, Pid};

/// One heap resource a command's τ-step reads or writes.
///
/// The vocabulary is deliberately finer than "the directory": an entry
/// write (`mkdir /d/a`) changes `/d`'s entry map and link count, but *not*
/// its mode or owner — so it conflicts with a
/// concurrent `stat /d` (which reads `nlink` via [`Res::DirShapeRead`]) and
/// a concurrent `readdir` on `/d`, but commutes with a sibling creation
/// `mkdir /d/b` (whose permission check only reads [`Res::DirMetaRead`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Res {
    /// Lookup of one entry in a directory — hit or miss.
    EntryRead(DirRef, Name),
    /// Creation or removal of one entry in a directory.
    EntryWrite(DirRef, Name),
    /// Read of a directory's mode/owner (search-permission checks during
    /// traversal, access checks, the mode/uid/gid half of `stat`).
    DirMetaRead(DirRef),
    /// Write of a directory's mode/owner (`chmod`/`chown` of a directory),
    /// or destruction of the directory itself (`rmdir`), which invalidates
    /// every read of it.
    DirMetaWrite(DirRef),
    /// Read of a directory's link count (the `nlink` half of `stat`), which
    /// entry writes *do* change.
    DirShapeRead(DirRef),
    /// Read of a directory's full entry listing (`opendir` snapshot,
    /// `readdir`/`rewinddir` candidates, `rmdir`'s emptiness check).
    ListingRead(DirRef),
    /// Read of "this directory is still connected to the root", performed by
    /// creation in a directory. Conflicts only with the directory's
    /// destruction ([`Res::DirMetaWrite`]).
    ConnRead(DirRef),
    /// Read of a file's content, size, metadata, or link count.
    FileRead(FileRef),
    /// Write of a file's content, size, metadata, or link count.
    FileWrite(FileRef),
}

impl Res {
    /// Directed conflict check: does `self`, as a *write*, invalidate the
    /// resource `r`? Read-read pairs never conflict.
    fn invalidates(self, r: Res) -> bool {
        match self {
            Res::EntryWrite(d, n) => match r {
                Res::EntryRead(d2, n2) | Res::EntryWrite(d2, n2) => d == d2 && n == n2,
                // Entry writes change the listing and the link count …
                Res::ListingRead(d2) | Res::DirShapeRead(d2) => d == d2,
                // … but not the mode/owner or the connectivity of `d`.
                _ => false,
            },
            Res::DirMetaWrite(d) => match r {
                Res::EntryRead(d2, _)
                | Res::EntryWrite(d2, _)
                | Res::DirMetaRead(d2)
                | Res::DirMetaWrite(d2)
                | Res::DirShapeRead(d2)
                | Res::ListingRead(d2)
                | Res::ConnRead(d2) => d == d2,
                _ => false,
            },
            Res::FileWrite(f) => {
                matches!(r, Res::FileRead(f2) | Res::FileWrite(f2) if f == f2)
            }
            // Pure reads invalidate nothing.
            _ => false,
        }
    }
}

/// The read/write set of one command's τ-step against one concrete state.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    res: Vec<Res>,
    /// Conservative fallback: the command's effects could not be bounded
    /// (flavour-dependent `link`-through-symlink, the administrative
    /// group-table write, a write through an fd with no file behind it). A
    /// `may_conflict` footprint commutes with nothing.
    may_conflict: bool,
}

impl Footprint {
    /// An empty (pure) footprint: commutes with everything bounded.
    pub fn pure() -> Footprint {
        Footprint::default()
    }

    /// The conservative top element: commutes with nothing.
    pub fn unbounded() -> Footprint {
        Footprint { res: Vec::new(), may_conflict: true }
    }

    /// The recorded resources (empty for [`Footprint::unbounded`]).
    pub fn resources(&self) -> &[Res] {
        &self.res
    }

    fn push(&mut self, r: Res) {
        self.res.push(r);
    }

    /// Whether the two commands' τ-steps provably commute: neither footprint
    /// is unbounded and no resource written by one is read or written by the
    /// other.
    pub fn commutes(&self, other: &Footprint) -> bool {
        if self.may_conflict || other.may_conflict {
            return false;
        }
        for a in &self.res {
            for b in &other.res {
                if a.invalidates(*b) || b.invalidates(*a) {
                    return false;
                }
            }
        }
        true
    }
}

struct FpCtx<'a> {
    st: &'a OsState,
    creds: Option<Creds>,
    cwd: DirRef,
}

impl<'a> FpCtx<'a> {
    /// Resolve a path argument exactly as dispatch would, folding every heap
    /// read the resolver performs into `fp`.
    fn resolve(&self, fp: &mut Footprint, path: &ParsedPath, follow: FollowLast) -> ResName {
        let mut obs = PathObs::default();
        let rctx = ResolveCtx::new(&self.st.heap, self.cwd, self.creds.as_ref());
        let res = resolve_path_observed(&rctx, path, follow, &mut obs);
        for d in obs.dirs {
            fp.push(Res::DirMetaRead(d));
        }
        for (d, n) in obs.edges {
            fp.push(Res::EntryRead(d, n));
        }
        res
    }

    /// Creation in `parent` checks `is_connected(parent)`, which walks the
    /// parent chain to the root: record a [`Res::ConnRead`] for every
    /// directory on it so a concurrent `rmdir` of an ancestor conflicts.
    fn conn_chain(&self, fp: &mut Footprint, parent: DirRef) {
        let root = self.st.heap.root();
        let mut cur = parent;
        let mut hops = 0usize;
        loop {
            fp.push(Res::ConnRead(cur));
            if cur == root {
                break;
            }
            match self.st.heap.parent_of(cur) {
                Some(p) => cur = p,
                None => break, // already disconnected: the walk stops here
            }
            hops += 1;
            if hops > 4096 {
                // The heap is a tree, so this is unreachable; bail into the
                // conservative footprint rather than loop if that ever breaks.
                fp.may_conflict = true;
                break;
            }
        }
    }

    /// Footprint of creating a missing final entry: the entry write, the
    /// parent's write-permission check, and the connectivity walk.
    fn creation(&self, fp: &mut Footprint, parent: DirRef, name: Name) {
        fp.push(Res::EntryWrite(parent, name));
        fp.push(Res::DirMetaRead(parent));
        self.conn_chain(fp, parent);
    }

    /// Footprint of `rename` beyond its two path resolutions, following
    /// `fs_ops::rename`'s dispatch on the resolved shapes.
    ///
    /// Only the four shapes that can succeed (file to a new name, file over
    /// another file, directory to a new name, directory over a directory)
    /// read or write anything more. For them every check and write is
    /// recorded whether or not the checks pass in this state, so a
    /// concurrent write that would flip a failing check still conflicts.
    /// Same-object no-ops and the error-only shapes depend on nothing but
    /// the resolutions already recorded. (The root is never found through a
    /// parent entry, so `parent: Some(..)` also rules out renaming it.)
    fn rename(&self, fp: &mut Footprint, src: &ResName, dst: &ResName) {
        let (sp, sn, moved) = match *src {
            ResName::File { parent, name, fref, .. } => (parent, name, Res::FileWrite(fref)),
            // A move rewrites the directory's parent pointer. Only `..`
            // traversal out of it and `ConnRead` walks through it read that
            // pointer, and both record the directory itself, so a
            // `DirMetaWrite` on it covers every reader.
            ResName::Dir { dref, parent: Some((p, n)), .. } => (p, n, Res::DirMetaWrite(dref)),
            _ => return,
        };
        let (dp, dn) = match (src, dst) {
            (ResName::File { fref: sf, .. }, ResName::File { parent, name, fref, .. })
                if fref != sf =>
            {
                fp.push(Res::FileWrite(*fref)); // the replaced file loses a link
                (*parent, *name)
            }
            (ResName::Dir { dref: sd, .. }, ResName::Dir { dref, parent: Some((p, n)), .. })
                if dref != sd =>
            {
                // The replaced directory: emptiness check and destruction.
                // The ancestry walk starts here, but the write already
                // conflicts with everything a `ConnRead` of it would; the
                // walk goes on through `dp`'s chain below.
                fp.push(Res::ListingRead(*dref));
                fp.push(Res::DirMetaWrite(*dref));
                (*p, *n)
            }
            (_, ResName::None { parent, name, .. }) => (*parent, *name),
            _ => return,
        };
        fp.push(moved);
        for (d, n) in [(sp, sn), (dp, dn)] {
            fp.push(Res::EntryWrite(d, n));
            fp.push(Res::DirMetaRead(d)); // parent write-permission check
        }
        // `is_connected(dp)` and the `is_same_or_ancestor` walk from the
        // destination both climb `dp`'s parent chain.
        self.conn_chain(fp, dp);
    }

    fn fd_file(&self, pid: Pid, fd: Fd) -> Option<FileRef> {
        self.st.fd_entry(pid, fd).and_then(|(_, fid_st)| fid_st.file())
    }

    fn dh_dir(&self, pid: Pid, dh: DirHandleId) -> Option<DirRef> {
        self.st.proc(pid).and_then(|p| p.dir_handles.get(&dh)).map(|h| h.dir)
    }
}

/// Compute the footprint of `cmd`'s τ-step when dispatched by `pid` from
/// `st`. Conservative by construction: over-approximating the read/write
/// sets only costs reduction, never soundness.
pub fn footprint_of(cfg: &SpecConfig, st: &OsState, pid: Pid, cmd: &OsCommand) -> Footprint {
    let ctx = FpCtx {
        st,
        creds: st.creds_of(cfg, pid),
        cwd: st
            .proc(pid)
            .map(|p| p.cwd)
            .unwrap_or_else(|| st.heap.root()),
    };
    let mut fp = Footprint::pure();
    match cmd {
        OsCommand::Mkdir(p, _) => {
            if let ResName::None { parent, name, .. } = ctx.resolve(&mut fp, p, FollowLast::NoFollow)
            {
                ctx.creation(&mut fp, parent, name);
            }
        }
        OsCommand::Rmdir(p) => {
            if let ResName::Dir { dref, parent: Some((pd, n)), .. } =
                ctx.resolve(&mut fp, p, FollowLast::NoFollow)
            {
                fp.push(Res::EntryWrite(pd, n));
                fp.push(Res::DirMetaRead(pd));
                // Emptiness check + destruction of the directory itself.
                fp.push(Res::ListingRead(dref));
                fp.push(Res::DirMetaWrite(dref));
            }
        }
        OsCommand::Unlink(p) => {
            if let ResName::File { parent, name, fref, .. } =
                ctx.resolve(&mut fp, p, FollowLast::NoFollow)
            {
                fp.push(Res::EntryWrite(parent, name));
                fp.push(Res::DirMetaRead(parent));
                fp.push(Res::FileWrite(fref));
            }
        }
        OsCommand::Link(src, dst) => {
            if let ResName::File { fref, is_symlink, .. } =
                ctx.resolve(&mut fp, src, FollowLast::NoFollow)
            {
                if is_symlink
                    && cfg.flavor.link_follows_symlink() != LinkSymlinkBehavior::LinkSymlink
                {
                    // The flavour may re-resolve through the symlink;
                    // bounding that here is not worth the complexity.
                    return Footprint::unbounded();
                }
                fp.push(Res::FileWrite(fref)); // nlink bump
            }
            if let ResName::None { parent, name, .. } =
                ctx.resolve(&mut fp, dst, FollowLast::NoFollow)
            {
                ctx.creation(&mut fp, parent, name);
            }
        }
        OsCommand::Symlink(_, linkpath) => {
            if let ResName::None { parent, name, .. } =
                ctx.resolve(&mut fp, linkpath, FollowLast::NoFollow)
            {
                ctx.creation(&mut fp, parent, name);
            }
        }
        OsCommand::Open(p, flags, _) => {
            let follow = if flags.contains(OpenFlags::O_NOFOLLOW) {
                FollowLast::NoFollow
            } else {
                FollowLast::Follow
            };
            match ctx.resolve(&mut fp, p, follow) {
                ResName::None { parent, name, .. } => {
                    if flags.contains(OpenFlags::O_CREAT) {
                        ctx.creation(&mut fp, parent, name);
                    }
                }
                ResName::File { fref, .. } => {
                    fp.push(Res::FileRead(fref));
                    if flags.contains(OpenFlags::O_TRUNC) {
                        fp.push(Res::FileWrite(fref));
                    }
                }
                ResName::Dir { dref, .. } => {
                    fp.push(Res::DirMetaRead(dref));
                }
                ResName::Err(_) => {}
            }
        }
        OsCommand::Truncate(p, _) => {
            if let ResName::File { fref, .. } = ctx.resolve(&mut fp, p, FollowLast::Follow) {
                fp.push(Res::FileWrite(fref));
            }
        }
        OsCommand::Chmod(p, _) | OsCommand::Chown(p, _, _) => {
            match ctx.resolve(&mut fp, p, FollowLast::Follow) {
                ResName::Dir { dref, .. } => fp.push(Res::DirMetaWrite(dref)),
                ResName::File { fref, .. } => fp.push(Res::FileWrite(fref)),
                _ => {}
            }
        }
        OsCommand::Stat(p) | OsCommand::Lstat(p) => {
            let follow = if matches!(cmd, OsCommand::Stat(_)) {
                FollowLast::Follow
            } else {
                FollowLast::NoFollow
            };
            match ctx.resolve(&mut fp, p, follow) {
                ResName::Dir { dref, .. } => {
                    fp.push(Res::DirMetaRead(dref));
                    fp.push(Res::DirShapeRead(dref));
                }
                ResName::File { fref, .. } => fp.push(Res::FileRead(fref)),
                _ => {}
            }
        }
        OsCommand::Readlink(p) => {
            if let ResName::File { fref, .. } = ctx.resolve(&mut fp, p, FollowLast::NoFollow) {
                fp.push(Res::FileRead(fref));
            }
        }
        OsCommand::Chdir(p) => {
            if let ResName::Dir { dref, .. } = ctx.resolve(&mut fp, p, FollowLast::Follow) {
                fp.push(Res::DirMetaRead(dref)); // search-permission check
            }
        }
        OsCommand::Opendir(p) => {
            if let ResName::Dir { dref, .. } = ctx.resolve(&mut fp, p, FollowLast::Follow) {
                fp.push(Res::DirMetaRead(dref));
                fp.push(Res::ListingRead(dref));
            }
        }
        OsCommand::Readdir(dh) | OsCommand::Rewinddir(dh) => {
            // The pending itself is per-pid, but the handle's candidate set
            // is updated by concurrent entry writes on the same directory.
            if let Some(d) = ctx.dh_dir(pid, *dh) {
                fp.push(Res::ListingRead(d));
            }
        }
        OsCommand::Read(fd, _) | OsCommand::Pread(fd, _, _) => {
            if let Some(f) = ctx.fd_file(pid, *fd) {
                fp.push(Res::FileRead(f));
            }
        }
        OsCommand::Write(fd, _) | OsCommand::Pwrite(fd, _, _) => {
            // τ-pure: the pending captures the payload; `apply_write` runs
            // at return-match time (see `return_effect_of`).
            if let Some(f) = ctx.fd_file(pid, *fd) {
                fp.push(Res::FileRead(f));
            }
        }
        OsCommand::Lseek(fd, _, _) => {
            // SEEK_END reads the file size; the offset update is per-pid.
            if let Some(f) = ctx.fd_file(pid, *fd) {
                fp.push(Res::FileRead(f));
            }
        }
        OsCommand::Close(_) | OsCommand::Closedir(_) | OsCommand::Umask(_) => {
            // Purely per-process state.
        }
        OsCommand::Rename(src, dst) => {
            let src = ctx.resolve(&mut fp, src, FollowLast::NoFollow);
            let dst = ctx.resolve(&mut fp, dst, FollowLast::NoFollow);
            ctx.rename(&mut fp, &src, &dst);
        }
        OsCommand::AddUserToGroup(_, _) => {
            // Writes the global group table, which every permission check
            // reads: conservatively unbounded.
            return Footprint::unbounded();
        }
    }
    fp
}

/// The *shared-state write* a matched return label performs for `pid` in
/// `st`, if any.
///
/// Almost every pending applies only per-process effects at return time
/// (binding an fd, advancing an offset, marking a dir-handle entry
/// returned). The single exception is a write's `apply_write`, which mutates
/// shared file content: a sleeping command whose footprint overlaps that
/// file must be woken when such a return fires. `None` means the return is
/// pure with respect to shared state.
pub fn return_effect_of(st: &OsState, pid: Pid) -> Option<Footprint> {
    use crate::os::{Pending, ProcRunState};
    let ProcRunState::Pending(Pending::WriteData { fd, .. }) = &st.proc(pid)?.run_state else {
        return None;
    };
    Some(match st.fd_entry(pid, *fd).and_then(|(_, f)| f.file()) {
        Some(f) => Footprint { res: vec![Res::FileWrite(f)], may_conflict: false },
        None => Footprint::unbounded(),
    })
}
