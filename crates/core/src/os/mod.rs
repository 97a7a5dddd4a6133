//! The POSIX API module (Fig. 5): processes, file descriptors, directory
//! handles, and the top-level operating-system state of the model.
//!
//! This module defines the *states* of the labelled transition system; the
//! transition function itself lives in [`trans`].

pub mod state_set;
pub mod trans;

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::commands::{OsCommand, RetValue, Stat};
use crate::errno::Errno;
use crate::flags::{FileMode, OpenFlags};
use crate::flavor::SpecConfig;
use crate::intern::Name;
use crate::perms::{Creds, GroupTable};
use crate::state::{DirHeap, DirRef, FileRef};
use crate::types::{DirHandleId, Fd, Fid, Gid, Pid, Uid};

/// What an open file description refers to: `open` can open directories as
/// well as regular files (reads on a directory descriptor then fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FidTarget {
    /// A regular file or symlink object.
    File(FileRef),
    /// A directory.
    Dir(DirRef),
}

/// An OS-level open file description (the `fid_state` of the Lem model).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FidState {
    /// The object the description refers to.
    pub target: FidTarget,
    /// The current file offset.
    pub offset: u64,
    /// The flags the file was opened with (access mode, `O_APPEND`, …).
    pub flags: OpenFlags,
}

impl FidState {
    /// The file reference, if the description is for a non-directory file.
    pub fn file(&self) -> Option<FileRef> {
        match self.target {
            FidTarget::File(f) => Some(f),
            FidTarget::Dir(_) => None,
        }
    }
}

/// The state of an open directory handle.
///
/// `readdir` nondeterminism is handled with explicit *must*/*may* sets (§3
/// "Directory listing nondeterminism"): entries in `must` have to be returned
/// exactly once before end-of-directory may be reported; entries in `may` may
/// or may not be returned (they were added or removed while the handle was
/// open); `returned` records what has already been handed out so nothing is
/// returned twice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DirHandleState {
    /// The directory being listed.
    pub dir: DirRef,
    /// Entries that must still be returned (interned name symbols).
    pub must: BTreeSet<Name>,
    /// Entries that may be returned.
    pub may: BTreeSet<Name>,
    /// Entries already returned.
    pub returned: BTreeSet<Name>,
}

impl DirHandleState {
    /// A handle freshly opened on `dir` whose current entries are `entries`.
    pub fn open(dir: DirRef, entries: impl IntoIterator<Item = Name>) -> DirHandleState {
        DirHandleState {
            dir,
            must: entries.into_iter().collect(),
            may: BTreeSet::new(),
            returned: BTreeSet::new(),
        }
    }

    /// Record that `name` was removed from the directory while this handle is
    /// open: if it had not yet been returned it may (but need not) still be
    /// returned.
    pub fn note_removed(&mut self, name: Name) {
        if self.must.remove(&name) {
            self.may.insert(name);
        }
        // If it was already returned it stays returned; if it was already in
        // `may` it stays there.
    }

    /// Record that `name` was added to the directory while this handle is
    /// open: it may (but need not) be returned by subsequent reads.
    pub fn note_added(&mut self, name: Name) {
        if !self.must.contains(&name) {
            self.may.insert(name);
        }
    }

    /// Record that `name` was returned by `readdir`.
    pub fn note_returned(&mut self, name: Name) {
        self.must.remove(&name);
        self.may.remove(&name);
        self.returned.insert(name);
    }

    /// Whether end-of-directory may be reported now.
    pub fn may_finish(&self) -> bool {
        self.must.is_empty()
    }

    /// The set of entries that may be returned by the next `readdir`.
    pub fn candidates(&self) -> BTreeSet<Name> {
        self.must.union(&self.may).copied().collect()
    }
}

/// POSIX "special" behaviour classes (§1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpecialKind {
    /// Undefined behaviour: the arguments were invalid according to POSIX.
    Undefined,
    /// Unspecified behaviour: valid arguments, but POSIX does not say what
    /// happens.
    Unspecified,
    /// Implementation-defined behaviour.
    ImplDefined,
}

/// How a pending write applies its data when the observed byte count arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteAt {
    /// Write at the given offset and advance the descriptor offset past the
    /// written bytes (plain `write`).
    Offset(u64),
    /// Write at end of file and advance the offset (`O_APPEND` semantics).
    Append,
    /// Write at end of file but leave the descriptor offset unchanged: the
    /// Linux convention for `pwrite` on an `O_APPEND` descriptor, which
    /// redirects the data to EOF yet — `pwrite` never moves the offset —
    /// keeps the descriptor where it was (found by the exploration engine:
    /// a subsequent `read` sees the appended bytes, not EOF).
    AppendKeepOffset,
    /// Write at the given offset but leave the descriptor offset unchanged
    /// (`pwrite`).
    KeepOffset(u64),
}

/// The constraint on the value a pending call is allowed to return, together
/// with enough information to update the state once the value is observed.
///
/// Error returns never change the state (the POSIX invariant), so a single
/// [`Pending::Errors`] branch represents every allowed error at once; success
/// branches either carry an exact value or a constrained family of values
/// (short reads/writes, readdir entries, newly allocated descriptors) that is
/// resolved when the real system's choice is observed — the strategy of §3.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pending {
    /// The call must fail with one of these errors.
    Errors(BTreeSet<Errno>),
    /// The call succeeds with exactly this value.
    Value(RetValue),
    /// The call returns a `stat` structure; mode/ownership comparison is
    /// configurable so the POSIX envelope can leave symlink modes loose.
    StatValue {
        /// The expected structure.
        expected: Stat,
        /// Whether the mode bits must match exactly.
        check_mode: bool,
        /// Whether uid/gid must match exactly.
        check_owner: bool,
    },
    /// `open` succeeded: any not-yet-used non-negative descriptor is allowed;
    /// on observation the descriptor is bound to this description.
    NewFd {
        /// The file description to bind.
        fid: Fid,
    },
    /// `opendir` succeeded: any unused handle id is allowed.
    NewDirHandle {
        /// The handle state to bind.
        handle: DirHandleState,
    },
    /// `read`/`pread` succeeded: any prefix of `data` may be returned
    /// (non-empty if `data` is non-empty).
    ReadData {
        /// The descriptor whose offset advances (None for `pread`).
        fd: Option<Fd>,
        /// The bytes available at the read position.
        data: Vec<u8>,
    },
    /// `write`/`pwrite` succeeded: any count `1..=data.len()` may be reported
    /// (or 0 when `data` is empty); the reported prefix is applied to the file.
    WriteData {
        /// The descriptor written through.
        fd: Fd,
        /// The bytes the process asked to write.
        data: Vec<u8>,
        /// Where the write lands.
        at: WriteAt,
    },
    /// `readdir` succeeded: the allowed entries are drawn from the handle's
    /// must/may sets, or end-of-directory if every `must` entry has been
    /// returned.
    ReaddirEntry {
        /// The handle being read.
        dh: DirHandleId,
    },
    /// The behaviour is undefined/unspecified/implementation-defined: any
    /// return is accepted.
    Special(SpecialKind),
}

/// The run state of a process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProcRunState {
    /// The process is not in a libc call.
    Ready,
    /// The process has made a call that the OS has not yet processed.
    InCall(OsCommand),
    /// The OS has processed the call; the return value is constrained by the
    /// `Pending`.
    Pending(Pending),
}

/// Per-process state tracked by the operating system
/// (the `per_process_state` of the Lem model).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PerProcessState {
    /// Current working directory.
    pub cwd: DirRef,
    /// Per-process file descriptor table, mapping descriptors to OS-level
    /// file descriptions.
    pub fds: BTreeMap<Fd, Fid>,
    /// Open directory handles.
    pub dir_handles: BTreeMap<DirHandleId, DirHandleState>,
    /// The file-creation mask.
    pub umask: FileMode,
    /// Effective user id.
    pub euid: Uid,
    /// Effective group id.
    pub egid: Gid,
    /// Whether the process is idle, in a call, or awaiting a return.
    pub run_state: ProcRunState,
}

impl PerProcessState {
    /// A fresh process with the given credentials whose cwd is `cwd`.
    pub fn new(cwd: DirRef, euid: Uid, egid: Gid) -> PerProcessState {
        PerProcessState {
            cwd,
            fds: BTreeMap::new(),
            dir_handles: BTreeMap::new(),
            umask: FileMode::new(0o022),
            euid,
            egid,
            run_state: ProcRunState::Ready,
        }
    }
}

/// A lazily computed 64-bit structural fingerprint, memoised per state.
///
/// `0` means "not yet computed" (computed fingerprints are remapped away from
/// zero). The cache is deliberately *reset* on clone: the transition engine
/// always clones a state before mutating it, so a state whose fingerprint has
/// been observed is never mutated in place and the cached value can never go
/// stale, while the fresh clone recomputes after its mutations.
#[derive(Default)]
struct FingerprintCell(AtomicU64);

impl FingerprintCell {
    fn get(&self) -> Option<u64> {
        match self.0.load(Ordering::Relaxed) {
            0 => None,
            fp => Some(fp),
        }
    }

    fn set(&self, fp: u64) {
        self.0.store(fp, Ordering::Relaxed);
    }

    fn invalidate(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Clone for FingerprintCell {
    fn clone(&self) -> FingerprintCell {
        FingerprintCell::default()
    }
}

impl std::fmt::Debug for FingerprintCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.get() {
            Some(fp) => write!(f, "{fp:#018x}"),
            None => f.write_str("<uncomputed>"),
        }
    }
}

/// The top-level state of the model: the `ty_os_state` of the Lem model.
///
/// Branching transitions clone the whole state, so the heavyweight components
/// — the directory heap's object maps and each per-process table — sit behind
/// [`Arc`]s with copy-on-write mutation (`Arc::make_mut`): a clone shares all
/// unmodified structure and only the pieces a branch actually touches are
/// copied.
#[derive(Debug, Clone)]
pub struct OsState {
    /// Directory structure and file contents.
    pub heap: DirHeap,
    /// OS-level open file descriptions (`oss_fid_table`).
    pub fids: BTreeMap<Fid, FidState>,
    /// Group membership (`oss_group_table`).
    pub groups: GroupTable,
    /// Per-process state (`oss_pid_table`). The table entries are shared
    /// copy-on-write between branches; mutate through [`OsState::proc_mut`].
    pub procs: BTreeMap<Pid, Arc<PerProcessState>>,
    next_fid: u64,
    fingerprint: FingerprintCell,
}

impl PartialEq for OsState {
    fn eq(&self, other: &OsState) -> bool {
        // The fingerprint cache is excluded: it is derived data.
        self.next_fid == other.next_fid
            && self.heap == other.heap
            && self.fids == other.fids
            && self.groups == other.groups
            && self.procs == other.procs
    }
}

impl Eq for OsState {}

impl Hash for OsState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.heap.hash(state);
        self.fids.hash(state);
        self.groups.hash(state);
        self.procs.hash(state);
        self.next_fid.hash(state);
    }
}

impl OsState {
    /// The initial state: an empty file system and no processes.
    pub fn initial() -> OsState {
        OsState {
            heap: DirHeap::empty(),
            fids: BTreeMap::new(),
            groups: GroupTable::new(),
            procs: BTreeMap::new(),
            next_fid: 1,
            fingerprint: FingerprintCell::default(),
        }
    }

    /// The state's 64-bit structural fingerprint, computed on first use and
    /// cached. Two equal states always have equal fingerprints; unequal states
    /// collide with probability ~2⁻⁶⁴, and [`state_set::StateSet`] resolves
    /// collisions with a structural comparison, so dedup stays exact.
    pub fn fingerprint(&self) -> u64 {
        if let Some(fp) = self.fingerprint.get() {
            return fp;
        }
        let mut hasher = state_set::FxHasher64::default();
        self.hash(&mut hasher);
        // 0 is the cache's "unset" sentinel; remap it.
        let fp = hasher.finish().max(1);
        self.fingerprint.set(fp);
        fp
    }

    /// The initial state used for checking a test trace: an empty file system
    /// and a single initial process whose credentials depend on whether the
    /// configuration runs tests as root.
    pub fn initial_with_process(cfg: &SpecConfig, pid: Pid) -> OsState {
        let mut st = OsState::initial();
        let (uid, gid) =
            if cfg.root_user { (Uid(0), Gid(0)) } else { (Uid(1000), Gid(1000)) };
        let root = st.heap.root();
        st.procs.insert(pid, Arc::new(PerProcessState::new(root, uid, gid)));
        st
    }

    /// Allocate a fresh OS-level file description id.
    pub fn fresh_fid(&mut self) -> Fid {
        self.fingerprint.invalidate();
        let id = self.next_fid;
        self.next_fid += 1;
        Fid(id)
    }

    /// The credentials the given process presents, or `None` when the
    /// permissions trait is disabled.
    pub fn creds_of(&self, cfg: &SpecConfig, pid: Pid) -> Option<Creds> {
        if !cfg.permissions {
            return None;
        }
        let proc = self.procs.get(&pid)?;
        let mut creds = Creds::user(proc.euid, proc.egid);
        creds.groups = self.groups.groups_of(proc.euid);
        Some(creds)
    }

    /// The per-process state of `pid`.
    pub fn proc(&self, pid: Pid) -> Option<&PerProcessState> {
        self.procs.get(&pid).map(Arc::as_ref)
    }

    /// The per-process state of `pid`, mutably. Unshares the entry first if it
    /// is still shared with other states (copy-on-write).
    ///
    /// Note: mutating through the `pub` fields directly (`heap`, `fids`,
    /// `procs`) does *not* invalidate a previously computed fingerprint —
    /// clone the state first (clones start with an empty cache), as every
    /// transition-engine path does.
    pub fn proc_mut(&mut self, pid: Pid) -> Option<&mut PerProcessState> {
        self.fingerprint.invalidate();
        self.procs.get_mut(&pid).map(Arc::make_mut)
    }

    /// Look up the open file description behind a process's descriptor.
    pub fn fd_entry(&self, pid: Pid, fd: Fd) -> Option<(&Fid, &FidState)> {
        let fid = self.proc(pid)?.fds.get(&fd)?;
        let st = self.fids.get(fid)?;
        Some((fid, st))
    }

    /// Notify every open directory handle on `dir` that `name` was removed.
    pub fn notify_entry_removed(&mut self, dir: DirRef, name: Name) {
        self.fingerprint.invalidate();
        for proc in self.procs.values_mut() {
            // Only unshare processes that actually hold a handle on `dir`.
            if proc.dir_handles.values().any(|dh| dh.dir == dir) {
                for dh in Arc::make_mut(proc).dir_handles.values_mut() {
                    if dh.dir == dir {
                        dh.note_removed(name);
                    }
                }
            }
        }
    }

    /// Notify every open directory handle on `dir` that `name` was added.
    pub fn notify_entry_added(&mut self, dir: DirRef, name: Name) {
        self.fingerprint.invalidate();
        for proc in self.procs.values_mut() {
            if proc.dir_handles.values().any(|dh| dh.dir == dir) {
                for dh in Arc::make_mut(proc).dir_handles.values_mut() {
                    if dh.dir == dir {
                        dh.note_added(name);
                    }
                }
            }
        }
    }

    /// The number of processes currently in a call or awaiting a return.
    pub fn busy_processes(&self) -> usize {
        self.procs
            .values()
            .filter(|p| !matches!(p.run_state, ProcRunState::Ready))
            .count()
    }
}

impl Default for OsState {
    fn default() -> Self {
        OsState::initial()
    }
}

/// Canonical *observational* fingerprint of a state.
///
/// Structural identity ([`OsState`]'s `Eq`/`Hash`) distinguishes states by
/// raw heap reference ids, fid ids, the allocator cursors, and per-object
/// logical timestamps — all artifacts of the *order* operations were
/// dispatched in, none of which ever appears in a matched return value
/// (`Stat` carries kind/size/nlink/mode/uid/gid only; fd and handle numbers
/// come from the observed trace, not the allocator). This fingerprint hashes
/// the state up to a canonical renumbering of references in deterministic
/// discovery order (root DFS by entry name, then processes in pid order) and
/// skips timestamps and allocator cursors, so two states related by a
/// commuting reordering of τ-steps hash equal. Objects reachable from
/// nothing (no entry, no descriptor, no handle, no cwd) are unobservable and
/// are skipped.
///
/// Used by the POR soundness proptest and the footprint layer
/// (`crate::footprint::obs_fingerprint`); the checker itself keeps using the
/// exact structural [`state_set::StateSet`] dedup.
pub fn canonical_fingerprint(st: &OsState) -> u64 {
    use std::collections::HashMap;

    struct Canon<'a> {
        st: &'a OsState,
        h: state_set::FxHasher64,
        dirs: HashMap<u64, u64>,
        files: HashMap<u64, u64>,
        fids: HashMap<u64, u64>,
    }

    impl Canon<'_> {
        /// Canonical id of a directory; hashes its observable content
        /// (meta sans times, parent link, entries, recursively) on first
        /// discovery.
        fn dir_id(&mut self, d: DirRef) -> u64 {
            if let Some(&id) = self.dirs.get(&d.0) {
                return id;
            }
            let id = self.dirs.len() as u64;
            self.dirs.insert(d.0, id);
            0xD1u8.hash(&mut self.h);
            id.hash(&mut self.h);
            let st = self.st;
            if let Some(dir) = st.heap.dir(d) {
                dir.meta.mode.hash(&mut self.h);
                dir.meta.uid.hash(&mut self.h);
                dir.meta.gid.hash(&mut self.h);
                match dir.parent {
                    Some(p) => {
                        1u8.hash(&mut self.h);
                        let pid = self.dir_id(p);
                        pid.hash(&mut self.h);
                    }
                    None => 0u8.hash(&mut self.h),
                }
                dir.entries.len().hash(&mut self.h);
                for (name, entry) in dir.entries.iter() {
                    name.hash(&mut self.h);
                    match *entry {
                        crate::state::Entry::Dir(c) => {
                            0u8.hash(&mut self.h);
                            let cid = self.dir_id(c);
                            cid.hash(&mut self.h);
                        }
                        crate::state::Entry::File(f) => {
                            1u8.hash(&mut self.h);
                            let fid = self.file_id(f);
                            fid.hash(&mut self.h);
                        }
                    }
                }
            }
            id
        }

        /// Canonical id of a file; hashes content/meta/nlink on first
        /// discovery (hard links to an already-seen file hash only the id).
        fn file_id(&mut self, f: FileRef) -> u64 {
            if let Some(&id) = self.files.get(&f.0) {
                return id;
            }
            let id = self.files.len() as u64;
            self.files.insert(f.0, id);
            0xF1u8.hash(&mut self.h);
            id.hash(&mut self.h);
            if let Some(file) = self.st.heap.file(f) {
                match &file.content {
                    crate::state::FileContent::Regular(data) => {
                        0u8.hash(&mut self.h);
                        data.hash(&mut self.h);
                    }
                    crate::state::FileContent::Symlink(target) => {
                        1u8.hash(&mut self.h);
                        target.as_str().hash(&mut self.h);
                    }
                }
                file.meta.mode.hash(&mut self.h);
                file.meta.uid.hash(&mut self.h);
                file.meta.gid.hash(&mut self.h);
                file.nlink.hash(&mut self.h);
            }
            id
        }

        /// Canonical id of an open file description; hashes target/offset/
        /// flags on first discovery.
        fn fid_id(&mut self, fid: Fid) -> u64 {
            if let Some(&id) = self.fids.get(&fid.0) {
                return id;
            }
            let id = self.fids.len() as u64;
            self.fids.insert(fid.0, id);
            0xFDu8.hash(&mut self.h);
            id.hash(&mut self.h);
            let st = self.st;
            if let Some(fs) = st.fids.get(&fid) {
                match fs.target {
                    FidTarget::File(f) => {
                        0u8.hash(&mut self.h);
                        let fi = self.file_id(f);
                        fi.hash(&mut self.h);
                    }
                    FidTarget::Dir(d) => {
                        1u8.hash(&mut self.h);
                        let di = self.dir_id(d);
                        di.hash(&mut self.h);
                    }
                }
                fs.offset.hash(&mut self.h);
                fs.flags.hash(&mut self.h);
            }
            id
        }

        fn pending(&mut self, p: &Pending) {
            match p {
                Pending::Errors(errs) => {
                    0u8.hash(&mut self.h);
                    errs.hash(&mut self.h);
                }
                Pending::Value(v) => {
                    1u8.hash(&mut self.h);
                    v.hash(&mut self.h);
                }
                Pending::StatValue { expected, check_mode, check_owner } => {
                    2u8.hash(&mut self.h);
                    expected.hash(&mut self.h);
                    check_mode.hash(&mut self.h);
                    check_owner.hash(&mut self.h);
                }
                Pending::NewFd { fid } => {
                    3u8.hash(&mut self.h);
                    let id = self.fid_id(*fid);
                    id.hash(&mut self.h);
                }
                Pending::NewDirHandle { handle } => {
                    4u8.hash(&mut self.h);
                    let d = self.dir_id(handle.dir);
                    d.hash(&mut self.h);
                    handle.must.hash(&mut self.h);
                    handle.may.hash(&mut self.h);
                    handle.returned.hash(&mut self.h);
                }
                Pending::ReadData { fd, data } => {
                    5u8.hash(&mut self.h);
                    fd.hash(&mut self.h);
                    data.hash(&mut self.h);
                }
                Pending::WriteData { fd, data, at } => {
                    6u8.hash(&mut self.h);
                    fd.hash(&mut self.h);
                    data.hash(&mut self.h);
                    at.hash(&mut self.h);
                }
                Pending::ReaddirEntry { dh } => {
                    7u8.hash(&mut self.h);
                    dh.hash(&mut self.h);
                }
                Pending::Special(k) => {
                    8u8.hash(&mut self.h);
                    k.hash(&mut self.h);
                }
            }
        }
    }

    let mut c = Canon {
        st,
        h: state_set::FxHasher64::default(),
        dirs: HashMap::new(),
        files: HashMap::new(),
        fids: HashMap::new(),
    };
    let root = c.dir_id(st.heap.root());
    root.hash(&mut c.h);
    st.groups.hash(&mut c.h);
    st.procs.len().hash(&mut c.h);
    for (pid, p) in &st.procs {
        pid.hash(&mut c.h);
        let cwd = c.dir_id(p.cwd);
        cwd.hash(&mut c.h);
        p.umask.hash(&mut c.h);
        p.euid.hash(&mut c.h);
        p.egid.hash(&mut c.h);
        p.fds.len().hash(&mut c.h);
        for (fd, fid) in &p.fds {
            fd.hash(&mut c.h);
            let id = c.fid_id(*fid);
            id.hash(&mut c.h);
        }
        p.dir_handles.len().hash(&mut c.h);
        for (dh, hs) in &p.dir_handles {
            dh.hash(&mut c.h);
            let d = c.dir_id(hs.dir);
            d.hash(&mut c.h);
            hs.must.hash(&mut c.h);
            hs.may.hash(&mut c.h);
            hs.returned.hash(&mut c.h);
        }
        match &p.run_state {
            ProcRunState::Ready => 0u8.hash(&mut c.h),
            ProcRunState::InCall(cmd) => {
                1u8.hash(&mut c.h);
                cmd.hash(&mut c.h);
            }
            ProcRunState::Pending(pe) => {
                2u8.hash(&mut c.h);
                c.pending(pe);
            }
        }
    }
    c.h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::Flavor;

    #[test]
    fn initial_state_with_process() {
        let cfg = SpecConfig::standard(Flavor::Posix);
        let st = OsState::initial_with_process(&cfg, Pid(1));
        assert_eq!(st.procs.len(), 1);
        let p = st.proc(Pid(1)).unwrap();
        assert_eq!(p.euid, Uid(0));
        assert_eq!(p.umask, FileMode::new(0o022));
        assert!(matches!(p.run_state, ProcRunState::Ready));

        let cfg = SpecConfig::unprivileged(Flavor::Posix);
        let st = OsState::initial_with_process(&cfg, Pid(1));
        assert_eq!(st.proc(Pid(1)).unwrap().euid, Uid(1000));
    }

    #[test]
    fn creds_respect_permissions_trait() {
        let cfg = SpecConfig::without_permissions(Flavor::Linux);
        let st = OsState::initial_with_process(&cfg, Pid(1));
        assert!(st.creds_of(&cfg, Pid(1)).is_none());

        let cfg = SpecConfig::standard(Flavor::Linux);
        let st = OsState::initial_with_process(&cfg, Pid(1));
        let creds = st.creds_of(&cfg, Pid(1)).unwrap();
        assert!(creds.is_root());
    }

    #[test]
    fn fresh_fids_are_distinct() {
        let mut st = OsState::initial();
        let a = st.fresh_fid();
        let b = st.fresh_fid();
        assert_ne!(a, b);
    }

    #[test]
    fn dir_handle_must_may_transitions() {
        let mut dh = DirHandleState::open(DirRef(1), [Name::intern("a"), Name::intern("b")]);
        assert!(!dh.may_finish());
        assert_eq!(dh.candidates().len(), 2);

        // Deleting an unreturned entry moves it to `may`.
        let (a, b, c) = (Name::intern("a"), Name::intern("b"), Name::intern("c"));
        dh.note_removed(a);
        assert!(dh.may.contains(&a));
        assert!(!dh.must.contains(&a));
        // It can still be returned — or the directory can finish once `must`
        // is drained.
        dh.note_returned(b);
        assert!(dh.may_finish());
        assert!(dh.candidates().contains(&a));

        // Once returned, an entry is not offered again.
        dh.note_returned(a);
        assert!(dh.candidates().is_empty());

        // A new entry added while open becomes a `may` entry.
        dh.note_added(c);
        assert!(dh.candidates().contains(&c));
        assert!(dh.may_finish());
    }

    #[test]
    fn notify_updates_all_matching_handles() {
        let cfg = SpecConfig::standard(Flavor::Posix);
        let mut st = OsState::initial_with_process(&cfg, Pid(1));
        let root = st.heap.root();
        let (x, y) = (Name::intern("x"), Name::intern("y"));
        let dh_state = DirHandleState::open(root, [x]);
        st.proc_mut(Pid(1)).unwrap().dir_handles.insert(DirHandleId(1), dh_state);
        st.notify_entry_added(root, y);
        st.notify_entry_removed(root, x);
        let dh = &st.proc(Pid(1)).unwrap().dir_handles[&DirHandleId(1)];
        assert!(dh.may.contains(&x));
        assert!(dh.may.contains(&y));
        assert!(dh.must.is_empty());
    }

    #[test]
    fn busy_process_count() {
        let cfg = SpecConfig::standard(Flavor::Posix);
        let mut st = OsState::initial_with_process(&cfg, Pid(1));
        assert_eq!(st.busy_processes(), 0);
        st.proc_mut(Pid(1)).unwrap().run_state =
            ProcRunState::InCall(OsCommand::Stat("/".into()));
        assert_eq!(st.busy_processes(), 1);
    }
}
