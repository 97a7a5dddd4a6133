//! The directory-heap state: an abstract store of directories and files.
//!
//! This is the model's equivalent of the paper's `dir_heap_state_fs` record: a
//! finite map from directory references to directories and a finite map from
//! file references to files. The interface is expressed purely in terms of
//! references; arbitrary linking and unlinking is permitted, so disconnected
//! files and directories (objects not reachable from the root) can be
//! represented, which is required to model files that remain readable through
//! open descriptors after being unlinked, and the OpenZFS "disconnected
//! directory" defect scenario of Fig. 8.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::flags::FileMode;
use crate::fxhash::FxHasher64;
use crate::intern::Name;
use crate::path::ParsedPath;
use crate::state::meta::Meta;
use crate::types::{FileKind, Gid, Uid};

/// An abstract reference to a directory (the `'dir_ref` of the Lem model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DirRef(pub u64);

/// An abstract reference to a non-directory file (regular file or symlink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileRef(pub u64);

/// A directory entry: either a subdirectory or a (regular or symlink) file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Entry {
    /// A subdirectory.
    Dir(DirRef),
    /// A non-directory file.
    File(FileRef),
}

impl Entry {
    /// Whether the entry is a directory.
    pub fn is_dir(self) -> bool {
        matches!(self, Entry::Dir(_))
    }
}

/// The content of a non-directory file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileContent {
    /// A regular file with byte contents.
    Regular(Vec<u8>),
    /// A symbolic link with its target path stored pre-parsed: the raw text
    /// interned whole (for `readlink` and `stat` sizes) plus interned
    /// components, so following the link splices symbols without re-parsing.
    Symlink(ParsedPath),
}

impl FileContent {
    /// The object kind corresponding to this content.
    pub fn kind(&self) -> FileKind {
        match self {
            FileContent::Regular(_) => FileKind::Regular,
            FileContent::Symlink(_) => FileKind::Symlink,
        }
    }

    /// The size in bytes as reported by `stat` (for symlinks, the target length).
    pub fn size(&self) -> u64 {
        match self {
            FileContent::Regular(data) => data.len() as u64,
            FileContent::Symlink(target) => target.raw_len() as u64,
        }
    }
}

/// Cached structural hash of a heap object (`0` = not yet computed; real
/// hashes are remapped away from zero). Heap objects are immutable once
/// shared behind an [`Arc`]: every mutation path goes through
/// [`DirHeap::dir_mut`]/[`DirHeap::file_mut`], which invalidate the cache
/// before handing out `&mut`, and `Clone` (what `Arc::make_mut` calls on a
/// shared object) resets it — so a cached value can never go stale. The cache
/// is excluded from `Eq`/`Ord`/`Hash`: it is derived data.
#[derive(Default)]
struct HashCell(AtomicU64);

impl HashCell {
    fn get(&self) -> Option<u64> {
        match self.0.load(Ordering::Relaxed) {
            0 => None,
            h => Some(h),
        }
    }

    fn set(&self, h: u64) {
        self.0.store(h, Ordering::Relaxed);
    }

    fn invalidate(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Clone for HashCell {
    fn clone(&self) -> HashCell {
        HashCell::default()
    }
}

impl std::fmt::Debug for HashCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.get() {
            Some(h) => write!(f, "{h:#018x}"),
            None => f.write_str("<uncomputed>"),
        }
    }
}

/// A directory object.
#[derive(Debug, Clone)]
pub struct Dir {
    /// Named entries (excluding the implicit `.` and `..`), keyed by interned
    /// name symbol. The `BTreeMap` ordering is the symbols' `u32` order —
    /// arbitrary but fixed, so lookups on the resolve hot path compare
    /// integers; anything needing lexicographic order goes through
    /// [`DirHeap::entry_names`], which sorts at the boundary.
    pub entries: BTreeMap<Name, Entry>,
    /// The parent directory, or `None` for the root and for disconnected
    /// directories.
    pub parent: Option<DirRef>,
    /// Ownership and permissions.
    pub meta: Meta,
    /// Cached structural hash (see [`HashCell`]); not part of the object's
    /// identity.
    cache: HashCell,
}

impl Dir {
    fn new(entries: BTreeMap<Name, Entry>, parent: Option<DirRef>, meta: Meta) -> Dir {
        Dir { entries, parent, meta, cache: HashCell::default() }
    }

    /// The object's structural hash, computed on first use and cached.
    ///
    /// [`DirHeap`]'s `Hash` combines these per-object values instead of
    /// re-walking every entry map on each state fingerprint: a τ-closure
    /// successor changes one or two directories, so the other ~`N` keep
    /// their cached hashes and the per-state cost drops from "walk the whole
    /// tree" to "hash `N` integers".
    fn content_hash(&self) -> u64 {
        if let Some(h) = self.cache.get() {
            return h;
        }
        let mut hasher = FxHasher64::default();
        self.entries.hash(&mut hasher);
        self.parent.hash(&mut hasher);
        self.meta.hash(&mut hasher);
        let h = hasher.finish().max(1);
        self.cache.set(h);
        h
    }
}

impl PartialEq for Dir {
    fn eq(&self, other: &Dir) -> bool {
        self.entries == other.entries && self.parent == other.parent && self.meta == other.meta
    }
}

impl Eq for Dir {}

impl PartialOrd for Dir {
    fn partial_cmp(&self, other: &Dir) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dir {
    fn cmp(&self, other: &Dir) -> std::cmp::Ordering {
        (&self.entries, &self.parent, &self.meta).cmp(&(
            &other.entries,
            &other.parent,
            &other.meta,
        ))
    }
}

impl Hash for Dir {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries.hash(state);
        self.parent.hash(state);
        self.meta.hash(state);
    }
}

/// A non-directory file object.
#[derive(Debug, Clone)]
pub struct File {
    /// Regular data or symlink target.
    pub content: FileContent,
    /// Ownership and permissions.
    pub meta: Meta,
    /// The hard-link count (number of directory entries referring to this
    /// file). A value of zero means the file is disconnected but may still be
    /// readable through open file descriptions.
    pub nlink: u32,
    /// Cached structural hash (see [`HashCell`]); not part of the object's
    /// identity.
    cache: HashCell,
}

impl File {
    fn new(content: FileContent, meta: Meta, nlink: u32) -> File {
        File { content, meta, nlink, cache: HashCell::default() }
    }

    /// The object's structural hash, computed on first use and cached (the
    /// file analogue of [`Dir::content_hash`] — this is what keeps large
    /// regular-file contents out of the per-state fingerprint walk).
    fn content_hash(&self) -> u64 {
        if let Some(h) = self.cache.get() {
            return h;
        }
        let mut hasher = FxHasher64::default();
        self.content.hash(&mut hasher);
        self.meta.hash(&mut hasher);
        self.nlink.hash(&mut hasher);
        let h = hasher.finish().max(1);
        self.cache.set(h);
        h
    }
}

impl PartialEq for File {
    fn eq(&self, other: &File) -> bool {
        self.content == other.content && self.meta == other.meta && self.nlink == other.nlink
    }
}

impl Eq for File {}

impl PartialOrd for File {
    fn partial_cmp(&self, other: &File) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for File {
    fn cmp(&self, other: &File) -> std::cmp::Ordering {
        (&self.content, &self.meta, &self.nlink).cmp(&(
            &other.content,
            &other.meta,
            &other.nlink,
        ))
    }
}

impl Hash for File {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.content.hash(state);
        self.meta.hash(state);
        self.nlink.hash(state);
    }
}

/// The directory-heap file-system state.
///
/// The heap allocates no ids: each creation names the id of its new object,
/// which the OS state draws from the creating process's own history, so two
/// orders of the same calls build equal heaps.
///
/// Both object maps and every object within them are behind [`Arc`]s: cloning
/// a heap is two reference-count bumps, and mutation goes through
/// `Arc::make_mut` so a branch that modifies one directory copies only the
/// map spine and that directory — every other object (in particular full
/// regular-file contents) stays shared with the sibling branches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirHeap {
    dirs: Arc<BTreeMap<u64, Arc<Dir>>>,
    files: Arc<BTreeMap<u64, Arc<File>>>,
    root: DirRef,
}

impl Hash for DirHeap {
    /// Hashes each object's cached [`Dir::content_hash`]/[`File::content_hash`]
    /// rather than re-walking entry maps and file contents: after a COW step
    /// only the objects that were actually mutated recompute. Consistent with
    /// the derived `PartialEq` because equal objects have equal content
    /// hashes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (id, dir) in self.dirs.iter() {
            state.write_u64(*id);
            state.write_u64(dir.content_hash());
        }
        for (id, file) in self.files.iter() {
            state.write_u64(*id);
            state.write_u64(file.content_hash());
        }
        self.root.hash(state);
    }
}

impl DirHeap {
    /// Create an empty file system whose root directory is owned by
    /// `uid:gid` with the given mode.
    pub fn new(root_mode: FileMode, uid: Uid, gid: Gid) -> DirHeap {
        let mut dirs = BTreeMap::new();
        let root = DirRef(0);
        dirs.insert(0, Arc::new(Dir::new(BTreeMap::new(), None, Meta::new(root_mode, uid, gid))));
        DirHeap { dirs: Arc::new(dirs), files: Arc::new(BTreeMap::new()), root }
    }

    /// An empty file system with conventional root ownership (`root:root`,
    /// mode 0755), the initial state of every test script.
    pub fn empty() -> DirHeap {
        DirHeap::new(FileMode::new(0o755), Uid(0), Gid(0))
    }

    /// The root directory reference.
    pub fn root(&self) -> DirRef {
        self.root
    }

    /// Look up a directory object.
    pub fn dir(&self, d: DirRef) -> Option<&Dir> {
        self.dirs.get(&d.0).map(Arc::as_ref)
    }

    /// Look up a directory object mutably, unsharing the map spine and the
    /// object itself if they are shared with other states (copy-on-write).
    pub fn dir_mut(&mut self, d: DirRef) -> Option<&mut Dir> {
        Arc::make_mut(&mut self.dirs).get_mut(&d.0).map(|dir| {
            let dir = Arc::make_mut(dir);
            // `make_mut` only resets the hash cache when it actually clones;
            // a uniquely-owned object is handed out in place, so drop the
            // cache here before the caller mutates.
            dir.cache.invalidate();
            dir
        })
    }

    /// Look up a file object.
    pub fn file(&self, f: FileRef) -> Option<&File> {
        self.files.get(&f.0).map(Arc::as_ref)
    }

    /// Look up a file object mutably, unsharing the map spine and the object
    /// itself if they are shared with other states (copy-on-write).
    pub fn file_mut(&mut self, f: FileRef) -> Option<&mut File> {
        Arc::make_mut(&mut self.files).get_mut(&f.0).map(|file| {
            let file = Arc::make_mut(file);
            // See `dir_mut`: invalidate explicitly for the uniquely-owned,
            // no-clone `make_mut` path.
            file.cache.invalidate();
            file
        })
    }

    /// Look up a named entry in a directory. The hot-path callers pass a
    /// [`Name`] (a no-op conversion); string arguments (tests, boundaries)
    /// intern on the way in.
    pub fn lookup(&self, d: DirRef, name: impl Into<Name>) -> Option<Entry> {
        let name = name.into();
        self.dir(d).and_then(|dir| dir.entries.get(&name).copied())
    }

    /// The interned names of the entries in a directory.
    ///
    /// **Ordering guarantee**: lexicographic by name bytes — the model's
    /// deterministic dirent order, relied on by the simulated kernels'
    /// `readdir` profiles and by rendered listings. The entry map itself is
    /// keyed by symbol id (for integer-compare lookups), so this accessor
    /// sorts at the boundary; no per-name `String` is allocated — resolving
    /// symbols back to text is left to the render layer.
    pub fn entry_names(&self, d: DirRef) -> Vec<Name> {
        // Resolve each symbol once, then sort — one interner read per element
        // rather than per comparison.
        let mut pairs: Vec<(&'static str, Name)> = self
            .dir(d)
            .map(|dir| dir.entries.keys().map(|n| (n.as_str(), *n)).collect())
            .unwrap_or_default();
        pairs.sort_unstable_by_key(|(s, _)| *s);
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        pairs.into_iter().map(|(_, n)| n).collect()
    }

    /// Whether a directory has no entries.
    pub fn dir_is_empty(&self, d: DirRef) -> bool {
        self.dir(d).map(|dir| dir.entries.is_empty()).unwrap_or(true)
    }

    /// The parent of a directory (`None` for the root or disconnected dirs).
    pub fn parent_of(&self, d: DirRef) -> Option<DirRef> {
        self.dir(d).and_then(|dir| dir.parent)
    }

    /// Whether `ancestor` is `d` itself or a proper ancestor of `d`.
    ///
    /// Used by `rename` to reject renaming a directory into a subdirectory of
    /// itself (`EINVAL`).
    pub fn is_same_or_ancestor(&self, ancestor: DirRef, d: DirRef) -> bool {
        let mut cur = Some(d);
        let mut fuel = self.dirs.len() + 1;
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            if fuel == 0 {
                return false;
            }
            fuel -= 1;
            cur = self.parent_of(c);
        }
        false
    }

    /// The link count of a directory, as reported by `stat`.
    ///
    /// A connected directory has `2 + (number of subdirectories)` links
    /// (its entry in the parent, its own `.`, and each child's `..`); a
    /// disconnected directory has lost the entry in its parent.
    pub fn dir_nlink(&self, d: DirRef) -> u32 {
        let Some(dir) = self.dir(d) else { return 0 };
        let base: u32 = if dir.parent.is_some() || d == self.root { 2 } else { 1 };
        let subdirs = dir.entries.values().filter(|e| e.is_dir()).count() as u32;
        base + subdirs
    }

    /// Create a new empty directory as `name` within `parent`, with the
    /// unused id `id`.
    ///
    /// Returns `None` if `parent` does not exist or `name` is already taken.
    pub fn create_dir(
        &mut self,
        parent: DirRef,
        name: impl Into<Name>,
        meta: Meta,
        id: u64,
    ) -> Option<DirRef> {
        let name = name.into();
        if self.dir(parent)?.entries.contains_key(&name) {
            return None;
        }
        let dirs = Arc::make_mut(&mut self.dirs);
        debug_assert!(!dirs.contains_key(&id), "directory id {id} is taken");
        dirs.insert(id, Arc::new(Dir::new(BTreeMap::new(), Some(parent), meta)));
        self.dir_mut(parent)?.entries.insert(name, Entry::Dir(DirRef(id)));
        Some(DirRef(id))
    }

    /// Create a new regular file as `name` within `parent`, with the unused
    /// id `id`.
    pub fn create_file(
        &mut self,
        parent: DirRef,
        name: impl Into<Name>,
        meta: Meta,
        id: u64,
    ) -> Option<FileRef> {
        self.create_file_with(parent, name.into(), meta, FileContent::Regular(Vec::new()), id)
    }

    /// Create a new symlink as `name` within `parent` pointing at `target`,
    /// with the unused id `id`.
    pub fn create_symlink(
        &mut self,
        parent: DirRef,
        name: impl Into<Name>,
        target: impl Into<ParsedPath>,
        meta: Meta,
        id: u64,
    ) -> Option<FileRef> {
        self.create_file_with(parent, name.into(), meta, FileContent::Symlink(target.into()), id)
    }

    fn create_file_with(
        &mut self,
        parent: DirRef,
        name: Name,
        meta: Meta,
        content: FileContent,
        id: u64,
    ) -> Option<FileRef> {
        if self.dir(parent)?.entries.contains_key(&name) {
            return None;
        }
        let files = Arc::make_mut(&mut self.files);
        debug_assert!(!files.contains_key(&id), "file id {id} is taken");
        files.insert(id, Arc::new(File::new(content, meta, 1)));
        self.dir_mut(parent)?.entries.insert(name, Entry::File(FileRef(id)));
        Some(FileRef(id))
    }

    /// Add a hard link: insert `name -> file` into `parent` and bump the link
    /// count. Returns `false` if the name is taken or anything is missing.
    pub fn add_link(&mut self, parent: DirRef, name: impl Into<Name>, file: FileRef) -> bool {
        let name = name.into();
        if self.file(file).is_none() {
            return false;
        }
        match self.dir(parent) {
            Some(d) if !d.entries.contains_key(&name) => {}
            _ => return false,
        }
        if let Some(d) = self.dir_mut(parent) {
            d.entries.insert(name, Entry::File(file));
        }
        if let Some(f) = self.file_mut(file) {
            f.nlink += 1;
        }
        true
    }

    /// Insert an existing directory as `name` within `parent` (used by
    /// `rename`). The directory's parent pointer is updated.
    pub fn attach_dir(&mut self, parent: DirRef, name: impl Into<Name>, d: DirRef) -> bool {
        let name = name.into();
        match self.dir(parent) {
            Some(p) if !p.entries.contains_key(&name) => {}
            _ => return false,
        }
        if self.dir(d).is_none() {
            return false;
        }
        if let Some(p) = self.dir_mut(parent) {
            p.entries.insert(name, Entry::Dir(d));
        }
        if let Some(dd) = self.dir_mut(d) {
            dd.parent = Some(parent);
        }
        true
    }

    /// Remove the entry `name` from `parent`.
    ///
    /// For file entries the link count is decremented (the file object itself
    /// is retained even at zero links so that open file descriptions keep
    /// working). For directory entries the directory becomes disconnected
    /// (its parent pointer is cleared) but is likewise retained.
    pub fn remove_entry(&mut self, parent: DirRef, name: impl Into<Name>) -> Option<Entry> {
        let name = name.into();
        let entry = self.dir(parent)?.entries.get(&name).copied()?;
        if let Some(p) = self.dir_mut(parent) {
            p.entries.remove(&name);
        }
        match entry {
            Entry::File(f) => {
                if let Some(file) = self.file_mut(f) {
                    file.nlink = file.nlink.saturating_sub(1);
                }
            }
            Entry::Dir(d) => {
                if let Some(dir) = self.dir_mut(d) {
                    dir.parent = None;
                }
            }
        }
        Some(entry)
    }

    /// The size of a regular file (or symlink target length) in bytes.
    pub fn file_size(&self, f: FileRef) -> u64 {
        self.file(f).map(|file| file.content.size()).unwrap_or(0)
    }

    /// The kind (regular/symlink) of a file object.
    pub fn file_kind(&self, f: FileRef) -> Option<FileKind> {
        self.file(f).map(|file| file.content.kind())
    }

    /// The target text of a symlink, if `f` is one (render boundary only).
    pub fn symlink_target(&self, f: FileRef) -> Option<&'static str> {
        self.symlink_target_parsed(f).map(|t| t.as_str())
    }

    /// The pre-parsed target of a symlink, if `f` is one: what the resolver
    /// splices, with no re-parse and no allocation.
    pub fn symlink_target_parsed(&self, f: FileRef) -> Option<&ParsedPath> {
        match self.file(f).map(|file| &file.content) {
            Some(FileContent::Symlink(t)) => Some(t),
            _ => None,
        }
    }

    /// Read up to `count` bytes from a regular file at `offset`.
    ///
    /// Returns the bytes actually available (possibly empty at or past EOF).
    pub fn read_bytes(&self, f: FileRef, offset: u64, count: usize) -> Vec<u8> {
        match self.file(f).map(|file| &file.content) {
            Some(FileContent::Regular(data)) => {
                let start = (offset as usize).min(data.len());
                let end = start.saturating_add(count).min(data.len());
                data[start..end].to_vec()
            }
            _ => Vec::new(),
        }
    }

    /// Write `data` into a regular file at `offset`, zero-filling any gap.
    ///
    /// Returns the number of bytes written (0 if `f` is not a regular file).
    pub fn write_bytes(&mut self, f: FileRef, offset: u64, data: &[u8]) -> usize {
        if data.is_empty() {
            // A zero-byte write has no effect — no gap-filling up to the
            // offset (POSIX: "returns 0 and has no other result"), which
            // also keeps an extreme offset from forcing a huge allocation.
            return 0;
        }
        match self.file_mut(f) {
            Some(file) => match &mut file.content {
                FileContent::Regular(existing) => {
                    let off = offset as usize;
                    if existing.len() < off {
                        existing.resize(off, 0);
                    }
                    let end = off + data.len();
                    if existing.len() < end {
                        existing.resize(end, 0);
                    }
                    existing[off..end].copy_from_slice(data);
                    data.len()
                }
                FileContent::Symlink(_) => 0,
            },
            None => 0,
        }
    }

    /// Truncate (or extend with zeros) a regular file to `len` bytes.
    pub fn truncate(&mut self, f: FileRef, len: u64) -> bool {
        match self.file_mut(f) {
            Some(file) => match &mut file.content {
                FileContent::Regular(data) => {
                    data.resize(len as usize, 0);
                    true
                }
                FileContent::Symlink(_) => false,
            },
            None => false,
        }
    }

    /// Number of directory objects currently allocated (reachable or not).
    pub fn dir_count(&self) -> usize {
        self.dirs.len()
    }

    /// Number of file objects currently allocated (reachable or not).
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Whether a directory is reachable from the root by following entries.
    pub fn is_connected(&self, d: DirRef) -> bool {
        self.is_same_or_ancestor(self.root, d)
            && (d == self.root || self.parent_of(d).is_some())
    }
}

impl Default for DirHeap {
    fn default() -> Self {
        DirHeap::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> Meta {
        Meta::new(FileMode::new(0o755), Uid(0), Gid(0))
    }

    #[test]
    fn empty_heap_has_root_only() {
        let h = DirHeap::empty();
        assert!(h.dir_is_empty(h.root()));
        assert_eq!(h.dir_count(), 1);
        assert_eq!(h.file_count(), 0);
        assert_eq!(h.dir_nlink(h.root()), 2);
    }

    #[test]
    fn create_and_lookup() {
        let mut h = DirHeap::empty();
        let root = h.root();
        let d = h.create_dir(root, "d", meta(), 1).unwrap();
        let f = h.create_file(d, "f", meta(), 2).unwrap();
        assert_eq!(h.lookup(root, "d"), Some(Entry::Dir(d)));
        assert_eq!(h.lookup(d, "f"), Some(Entry::File(f)));
        assert_eq!(h.lookup(root, "missing"), None);
        assert_eq!(h.dir_nlink(root), 3);
        assert_eq!(h.dir_nlink(d), 2);
        assert_eq!(h.file(f).unwrap().nlink, 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut h = DirHeap::empty();
        let root = h.root();
        assert!(h.create_dir(root, "x", meta(), 1).is_some());
        assert!(h.create_dir(root, "x", meta(), 2).is_none());
        assert!(h.create_file(root, "x", meta(), 3).is_none());
    }

    #[test]
    fn hard_links_bump_and_drop_nlink() {
        let mut h = DirHeap::empty();
        let root = h.root();
        let f = h.create_file(root, "a", meta(), 1).unwrap();
        assert!(h.add_link(root, "b", f));
        assert_eq!(h.file(f).unwrap().nlink, 2);
        h.remove_entry(root, "a");
        assert_eq!(h.file(f).unwrap().nlink, 1);
        h.remove_entry(root, "b");
        assert_eq!(h.file(f).unwrap().nlink, 0);
        // The file object is retained while disconnected.
        assert_eq!(h.file_count(), 1);
    }

    #[test]
    fn removing_directory_disconnects_it() {
        let mut h = DirHeap::empty();
        let root = h.root();
        let d = h.create_dir(root, "d", meta(), 1).unwrap();
        assert!(h.is_connected(d));
        h.remove_entry(root, "d");
        assert!(!h.is_connected(d));
        assert!(h.dir(d).is_some());
        assert_eq!(h.dir_nlink(d), 1);
    }

    #[test]
    fn read_write_truncate_round_trip() {
        let mut h = DirHeap::empty();
        let root = h.root();
        let f = h.create_file(root, "f", meta(), 1).unwrap();
        assert_eq!(h.write_bytes(f, 0, b"hello world"), 11);
        assert_eq!(h.read_bytes(f, 0, 5), b"hello");
        assert_eq!(h.read_bytes(f, 6, 100), b"world");
        assert_eq!(h.read_bytes(f, 100, 5), b"");
        // Sparse write zero-fills the gap.
        assert_eq!(h.write_bytes(f, 14, b"!"), 1);
        assert_eq!(h.file_size(f), 15);
        assert_eq!(h.read_bytes(f, 11, 3), &[0, 0, 0]);
        assert!(h.truncate(f, 5));
        assert_eq!(h.file_size(f), 5);
        assert!(h.truncate(f, 8));
        assert_eq!(h.read_bytes(f, 5, 3), &[0, 0, 0]);
    }

    #[test]
    fn symlink_target_and_size() {
        let mut h = DirHeap::empty();
        let root = h.root();
        let s = h.create_symlink(root, "s", "/some/where", meta(), 1).unwrap();
        assert_eq!(h.symlink_target(s), Some("/some/where"));
        assert_eq!(h.file_size(s), 11);
        assert_eq!(h.file_kind(s), Some(FileKind::Symlink));
        // Writing to a symlink through the data API is a no-op.
        assert_eq!(h.write_bytes(s, 0, b"x"), 0);
    }

    #[test]
    fn ancestor_detection() {
        let mut h = DirHeap::empty();
        let root = h.root();
        let a = h.create_dir(root, "a", meta(), 1).unwrap();
        let b = h.create_dir(a, "b", meta(), 2).unwrap();
        assert!(h.is_same_or_ancestor(root, b));
        assert!(h.is_same_or_ancestor(a, b));
        assert!(h.is_same_or_ancestor(b, b));
        assert!(!h.is_same_or_ancestor(b, a));
    }

    #[test]
    fn cached_object_hashes_track_mutation() {
        fn heap_hash(h: &DirHeap) -> u64 {
            let mut s = FxHasher64::default();
            h.hash(&mut s);
            s.finish()
        }
        let mut h = DirHeap::empty();
        let root = h.root();
        let d = h.create_dir(root, "d", meta(), 1).unwrap();
        // Populate every cache, then check a structurally equal heap (fresh
        // caches) hashes identically.
        let before = heap_hash(&h);
        let twin = h.clone();
        assert_eq!(h, twin);
        assert_eq!(before, heap_hash(&twin));
        // Mutate through `dir_mut` while `h` holds the only reference to the
        // object — the in-place `make_mut` path, where only the explicit
        // invalidation stops the stale cached hash from being reused.
        drop(twin);
        h.dir_mut(d).unwrap().meta.mode = FileMode::new(0o700);
        let after = heap_hash(&h);
        assert_ne!(before, after, "mutation must change the heap hash");
        assert_eq!(after, heap_hash(&h.clone()), "recomputed hash must be structural");
        // Same in-place path for files, through `file_mut`.
        let f = h.create_file(d, "f", meta(), 2).unwrap();
        let with_file = heap_hash(&h);
        h.file_mut(f).unwrap().nlink += 1;
        assert_ne!(with_file, heap_hash(&h));
        assert_eq!(heap_hash(&h), heap_hash(&h.clone()));
    }

    #[test]
    fn attach_dir_for_rename() {
        let mut h = DirHeap::empty();
        let root = h.root();
        let a = h.create_dir(root, "a", meta(), 1).unwrap();
        let b = h.create_dir(root, "b", meta(), 2).unwrap();
        h.remove_entry(root, "a");
        assert!(h.attach_dir(b, "a2", a));
        assert_eq!(h.lookup(b, "a2"), Some(Entry::Dir(a)));
        assert_eq!(h.parent_of(a), Some(b));
        assert!(h.is_connected(a));
    }
}
