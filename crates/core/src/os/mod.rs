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
    /// The last id this process handed out for a new directory, file or open
    /// file description (at first, the base of its range). The high 32 bits
    /// are the process's incarnation and the low 32 count its allocations,
    /// so an id depends on this process's own history only: no interleaving
    /// with other processes changes it.
    next_id: u64,
}

impl PerProcessState {
    /// A fresh process with the given credentials whose cwd is `cwd`, the
    /// `incarnation`-th process of its state.
    pub(crate) fn new(cwd: DirRef, euid: Uid, egid: Gid, incarnation: u64) -> PerProcessState {
        PerProcessState {
            cwd,
            fds: BTreeMap::new(),
            dir_handles: BTreeMap::new(),
            umask: FileMode::new(0o022),
            euid,
            egid,
            run_state: ProcRunState::Ready,
            next_id: incarnation << 32,
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
/// Nothing in it depends on the order in which τ steps processed the calls
/// of different processes: each object id comes from the history of the
/// process that created it, and no clock is kept, so commuting calls reach
/// one equal state in either order.
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
    /// How many processes this state has created. Only `Create` labels
    /// advance it, and every state of a checked set sees those in the same
    /// trace order.
    incarnations: u64,
    fingerprint: FingerprintCell,
}

impl PartialEq for OsState {
    fn eq(&self, other: &OsState) -> bool {
        // The fingerprint cache is excluded: it is derived data.
        self.incarnations == other.incarnations
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
        self.incarnations.hash(state);
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
            incarnations: 0,
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
        st.add_process(pid, uid, gid);
        st
    }

    /// Add a process with cwd `/`, as a new incarnation: its object ids
    /// follow no id that an earlier process, of this pid or another, handed
    /// out.
    pub(crate) fn add_process(&mut self, pid: Pid, uid: Uid, gid: Gid) {
        self.fingerprint.invalidate();
        self.incarnations += 1;
        let proc = PerProcessState::new(self.heap.root(), uid, gid, self.incarnations);
        self.procs.insert(pid, Arc::new(proc));
    }

    /// A new id for an object `pid` creates (a directory, a file, or an open
    /// file description), drawn from `pid`'s own history; `None` if `pid`
    /// has no process.
    pub(crate) fn new_id(&mut self, pid: Pid) -> Option<u64> {
        let proc = self.proc_mut(pid)?;
        proc.next_id += 1;
        Some(proc.next_id)
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
    fn ids_come_from_the_creating_process_alone() {
        let cfg = SpecConfig::standard(Flavor::Posix);
        let mut st = OsState::initial_with_process(&cfg, Pid(1));
        st.add_process(Pid(2), Uid(0), Gid(0));
        let mut other_first = st.clone();
        other_first.new_id(Pid(2));
        // Pid 1's ids do not depend on what pid 2 allocated before.
        let a = st.new_id(Pid(1)).unwrap();
        assert_eq!(other_first.new_id(Pid(1)), Some(a));
        assert_ne!(st.new_id(Pid(1)), Some(a));
        assert_eq!(st.new_id(Pid(9)), None);
        // A pid created again is a new incarnation and never reuses an id.
        let b = st.new_id(Pid(2)).unwrap();
        st.procs.remove(&Pid(2));
        st.add_process(Pid(2), Uid(0), Gid(0));
        assert!(st.new_id(Pid(2)).unwrap() > b);
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
