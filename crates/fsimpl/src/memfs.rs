//! The in-memory inode store used by the simulated file systems.
//!
//! This is a deliberately *independent* implementation from the abstract
//! directory heap of the model crate: it is inode-based, tracks storage
//! usage (so capacity limits and storage leaks can be simulated), and its
//! path resolver makes single deterministic choices rather than describing an
//! envelope.

use std::collections::BTreeMap;

use sibylfs_core::errno::Errno;
use sibylfs_core::intern::Name;
use sibylfs_core::path::ParsedPath;

/// An inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ino(pub u64);

/// Ownership and permission metadata of an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMeta {
    /// Permission bits (low 12 bits of `mode_t`).
    pub mode: u32,
    /// Owning user.
    pub uid: u32,
    /// Owning group.
    pub gid: u32,
}

/// The type-specific part of an inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A regular file with its data.
    File {
        /// File contents.
        data: Vec<u8>,
    },
    /// A directory with named entries and a parent pointer.
    Dir {
        /// Interned name → inode of each entry (`.` and `..` are implicit).
        /// Keyed by symbol id like the model's heap; lexicographic listings
        /// go through [`MemFs::entries`].
        entries: BTreeMap<Name, Ino>,
        /// Parent directory (self for the root; `None` once unlinked).
        parent: Option<Ino>,
    },
    /// A symbolic link and its target path, stored pre-parsed so the
    /// simulated resolver splices interned components like the model's.
    Symlink {
        /// The stored target path.
        target: ParsedPath,
    },
}

/// An inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Type-specific content.
    pub kind: NodeKind,
    /// Ownership and permissions.
    pub meta: NodeMeta,
    /// Hard-link count (directory entries referring to this inode).
    pub nlink: u32,
    /// Insertion sequence number, used for insertion-ordered readdir.
    pub seq: u64,
}

impl Node {
    /// Whether the inode is a directory.
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, NodeKind::Dir { .. })
    }

    /// Whether the inode is a symlink.
    pub fn is_symlink(&self) -> bool {
        matches!(self.kind, NodeKind::Symlink { .. })
    }

    /// The size reported by `stat`.
    pub fn size(&self) -> u64 {
        match &self.kind {
            NodeKind::File { data } => data.len() as u64,
            NodeKind::Dir { .. } => 0,
            NodeKind::Symlink { target } => target.raw_len() as u64,
        }
    }
}

/// The result of deterministic path resolution in the simulated kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimRes {
    /// Resolved to a directory.
    Dir {
        /// The directory inode.
        ino: Ino,
        /// The containing directory and entry name, when the path reached the
        /// directory through an ordinary entry (absent for the root and for
        /// paths ending in `.` or `..`).
        parent: Option<(Ino, Name)>,
    },
    /// Resolved to a non-directory inode (file or unfollowed symlink).
    NonDir {
        /// Containing directory.
        parent: Ino,
        /// Entry name.
        name: Name,
        /// The inode.
        ino: Ino,
        /// Whether the original path had a trailing slash.
        trailing_slash: bool,
    },
    /// Resolved to a missing entry of an existing directory.
    Missing {
        /// The directory that would contain the entry.
        parent: Ino,
        /// The missing name.
        name: Name,
        /// Whether the original path had a trailing slash.
        trailing_slash: bool,
    },
    /// Resolution failed with this errno.
    Error(Errno),
}

/// The in-memory inode store.
#[derive(Debug, Clone, PartialEq)]
pub struct MemFs {
    nodes: BTreeMap<u64, Node>,
    root: Ino,
    next_ino: u64,
    next_seq: u64,
    /// Bytes of data currently accounted against the volume (used to model
    /// capacity limits and the posixovl storage leak).
    pub bytes_used: u64,
}

impl MemFs {
    /// A fresh file system containing only a root directory owned by root.
    pub fn new() -> MemFs {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            0,
            Node {
                kind: NodeKind::Dir { entries: BTreeMap::new(), parent: None },
                meta: NodeMeta { mode: 0o755, uid: 0, gid: 0 },
                nlink: 2,
                seq: 0,
            },
        );
        MemFs { nodes, root: Ino(0), next_ino: 1, next_seq: 1, bytes_used: 0 }
    }

    /// The root inode.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// Access an inode.
    pub fn node(&self, ino: Ino) -> Option<&Node> {
        self.nodes.get(&ino.0)
    }

    /// Access an inode mutably.
    pub fn node_mut(&mut self, ino: Ino) -> Option<&mut Node> {
        self.nodes.get_mut(&ino.0)
    }

    fn alloc(&mut self, node: Node) -> Ino {
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        self.nodes.insert(ino.0, node);
        ino
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Look up `name` within directory `dir`.
    pub fn lookup(&self, dir: Ino, name: impl Into<Name>) -> Option<Ino> {
        let name = name.into();
        match &self.node(dir)?.kind {
            NodeKind::Dir { entries, .. } => entries.get(&name).copied(),
            _ => None,
        }
    }

    /// The entry names of a directory in lexicographic order (by name bytes;
    /// the entry map itself is keyed by symbol id, so this sorts at the
    /// boundary — same guarantee as the model heap's `entry_names`).
    pub fn entries(&self, dir: Ino) -> Vec<Name> {
        match self.node(dir).map(|n| &n.kind) {
            Some(NodeKind::Dir { entries, .. }) => {
                // Resolve each symbol once, then sort — one interner read per
                // element rather than per comparison.
                let mut pairs: Vec<(&'static str, Name)> =
                    entries.keys().map(|n| (n.as_str(), *n)).collect();
                pairs.sort_unstable_by_key(|(s, _)| *s);
                pairs.into_iter().map(|(_, n)| n).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The entry names together with the insertion sequence of their inodes.
    pub fn entries_with_seq(&self, dir: Ino) -> Vec<(Name, u64)> {
        match self.node(dir).map(|n| &n.kind) {
            Some(NodeKind::Dir { entries, .. }) => entries
                .iter()
                .map(|(k, v)| (*k, self.node(*v).map(|n| n.seq).unwrap_or(0)))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Whether a directory has no entries.
    pub fn dir_is_empty(&self, dir: Ino) -> bool {
        self.entries(dir).is_empty()
    }

    /// The parent of a directory.
    pub fn parent_of(&self, dir: Ino) -> Option<Ino> {
        match self.node(dir).map(|n| &n.kind) {
            Some(NodeKind::Dir { parent, .. }) => *parent,
            _ => None,
        }
    }

    /// Whether `dir` is reachable from the root (false once its entry has
    /// been removed).
    pub fn is_connected(&self, dir: Ino) -> bool {
        if dir == self.root {
            return true;
        }
        let mut cur = dir;
        let mut fuel = self.nodes.len() + 1;
        while fuel > 0 {
            match self.parent_of(cur) {
                Some(p) if p == self.root => return true,
                Some(p) => cur = p,
                None => return false,
            }
            fuel -= 1;
        }
        false
    }

    /// Whether `ancestor` is the same as or an ancestor of `dir`.
    pub fn is_same_or_ancestor(&self, ancestor: Ino, dir: Ino) -> bool {
        let mut cur = Some(dir);
        let mut fuel = self.nodes.len() + 1;
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

    /// The directory link count (2 + subdirectories), as reported by
    /// configurations that maintain it.
    pub fn dir_nlink(&self, dir: Ino) -> u32 {
        let Some(node) = self.node(dir) else { return 0 };
        let NodeKind::Dir { entries, parent } = &node.kind else { return 0 };
        let base = if parent.is_some() || dir == self.root { 2 } else { 1 };
        let subdirs = entries
            .values()
            .filter(|i| self.node(**i).map(|n| n.is_dir()).unwrap_or(false))
            .count() as u32;
        base + subdirs
    }

    /// Create a directory entry `name` in `parent` for a brand-new node.
    pub fn create(
        &mut self,
        parent: Ino,
        name: impl Into<Name>,
        kind: NodeKind,
        meta: NodeMeta,
    ) -> Option<Ino> {
        let name = name.into();
        if self.lookup(parent, name).is_some() {
            return None;
        }
        let seq = self.next_seq();
        let is_dir = matches!(kind, NodeKind::Dir { .. });
        let ino = self.alloc(Node { kind, meta, nlink: if is_dir { 2 } else { 1 }, seq });
        if is_dir {
            if let Some(Node { kind: NodeKind::Dir { parent: p, .. }, .. }) = self.node_mut(ino) {
                *p = Some(parent);
            }
        }
        match self.node_mut(parent).map(|n| &mut n.kind) {
            Some(NodeKind::Dir { entries, .. }) => {
                entries.insert(name, ino);
            }
            _ => return None,
        }
        Some(ino)
    }

    /// Add a hard link `name -> ino` in `parent`, bumping the link count.
    pub fn add_link(&mut self, parent: Ino, name: impl Into<Name>, ino: Ino) -> bool {
        let name = name.into();
        if self.lookup(parent, name).is_some() || self.node(ino).is_none() {
            return false;
        }
        match self.node_mut(parent).map(|n| &mut n.kind) {
            Some(NodeKind::Dir { entries, .. }) => {
                entries.insert(name, ino);
            }
            _ => return false,
        }
        if let Some(n) = self.node_mut(ino) {
            n.nlink += 1;
        }
        true
    }

    /// Remove the entry `name` from `parent`.
    ///
    /// If `decrement_nlink` is false the link count of the removed inode is
    /// left untouched (the posixovl leak).
    pub fn remove_entry(
        &mut self,
        parent: Ino,
        name: impl Into<Name>,
        decrement_nlink: bool,
    ) -> Option<Ino> {
        let name = name.into();
        let ino = self.lookup(parent, name)?;
        match self.node_mut(parent).map(|n| &mut n.kind) {
            Some(NodeKind::Dir { entries, .. }) => {
                entries.remove(&name);
            }
            _ => return None,
        }
        let is_dir = self.node(ino).map(|n| n.is_dir()).unwrap_or(false);
        if is_dir {
            if let Some(Node { kind: NodeKind::Dir { parent: p, .. }, .. }) = self.node_mut(ino) {
                *p = None;
            }
        } else if decrement_nlink {
            let mut freed = 0u64;
            if let Some(n) = self.node_mut(ino) {
                n.nlink = n.nlink.saturating_sub(1);
                if n.nlink == 0 {
                    if let NodeKind::File { data } = &n.kind {
                        freed = data.len() as u64;
                    }
                }
            }
            self.bytes_used = self.bytes_used.saturating_sub(freed);
        }
        Some(ino)
    }

    /// Move a directory `ino` to live under `new_parent` as `name`.
    pub fn attach_dir(&mut self, new_parent: Ino, name: impl Into<Name>, ino: Ino) -> bool {
        let name = name.into();
        if self.lookup(new_parent, name).is_some() {
            return false;
        }
        match self.node_mut(new_parent).map(|n| &mut n.kind) {
            Some(NodeKind::Dir { entries, .. }) => {
                entries.insert(name, ino);
            }
            _ => return false,
        }
        if let Some(Node { kind: NodeKind::Dir { parent, .. }, .. }) = self.node_mut(ino) {
            *parent = Some(new_parent);
        }
        true
    }

    /// Read up to `count` bytes from a file at `offset`.
    pub fn read(&self, ino: Ino, offset: u64, count: usize) -> Vec<u8> {
        match self.node(ino).map(|n| &n.kind) {
            Some(NodeKind::File { data }) => {
                let start = (offset as usize).min(data.len());
                let end = start.saturating_add(count).min(data.len());
                data[start..end].to_vec()
            }
            _ => Vec::new(),
        }
    }

    /// Write `bytes` to a file at `offset`, updating the storage accounting.
    /// Returns the number of bytes written.
    pub fn write(&mut self, ino: Ino, offset: u64, bytes: &[u8]) -> usize {
        if bytes.is_empty() {
            // A zero-byte write has no effect — in particular it does not
            // zero-fill up to the offset (POSIX: "returns 0 and has no
            // other result"), which also keeps an extreme offset from
            // forcing a huge allocation.
            return 0;
        }
        let mut grown = 0u64;
        let written = match self.node_mut(ino).map(|n| &mut n.kind) {
            Some(NodeKind::File { data }) => {
                let off = offset as usize;
                let before = data.len();
                if data.len() < off {
                    data.resize(off, 0);
                }
                let end = off + bytes.len();
                if data.len() < end {
                    data.resize(end, 0);
                }
                data[off..end].copy_from_slice(bytes);
                grown = (data.len() - before) as u64;
                bytes.len()
            }
            _ => 0,
        };
        self.bytes_used += grown;
        written
    }

    /// The current size of a file.
    pub fn file_size(&self, ino: Ino) -> u64 {
        self.node(ino).map(|n| n.size()).unwrap_or(0)
    }

    /// Truncate (or zero-extend) a file to `len` bytes.
    pub fn truncate(&mut self, ino: Ino, len: u64) -> bool {
        let mut delta_grow = 0u64;
        let mut delta_shrink = 0u64;
        let ok = match self.node_mut(ino).map(|n| &mut n.kind) {
            Some(NodeKind::File { data }) => {
                let before = data.len() as u64;
                data.resize(len as usize, 0);
                if len > before {
                    delta_grow = len - before;
                } else {
                    delta_shrink = before - len;
                }
                true
            }
            _ => false,
        };
        self.bytes_used = self.bytes_used + delta_grow - delta_shrink.min(self.bytes_used);
        ok
    }

    /// The target text of a symlink (render boundary only).
    pub fn symlink_target(&self, ino: Ino) -> Option<&'static str> {
        self.symlink_target_parsed(ino).map(|t| t.as_str())
    }

    /// The pre-parsed target of a symlink: what the resolver splices.
    pub fn symlink_target_parsed(&self, ino: Ino) -> Option<&ParsedPath> {
        match self.node(ino).map(|n| &n.kind) {
            Some(NodeKind::Symlink { target }) => Some(target),
            _ => None,
        }
    }

    /// Deterministic path resolution relative to `cwd`.
    ///
    /// Intermediate symlinks are always followed; the final symlink is
    /// followed only when `follow_last` is true or the path carries a
    /// trailing slash. Returns single concrete errors (`ENOENT`, `ENOTDIR`,
    /// `ELOOP`, `ENAMETOOLONG`), the way a real kernel does.
    pub fn resolve(&self, cwd: Ino, path: &str, follow_last: bool) -> SimRes {
        self.resolve_parsed(cwd, &ParsedPath::parse(path), follow_last, None)
    }

    /// Path resolution over a pre-parsed path, with an optional
    /// search-permission check: `search` is consulted with the metadata of
    /// every directory traversed, and resolution fails with `EACCES` when it
    /// refuses (real kernels check execute permission on every path
    /// component). Shares the model's parse-time `ENAMETOOLONG` enforcement:
    /// the overlong-component index computed when the path was interned is
    /// consulted exactly where a kernel walking the path would notice.
    pub fn resolve_parsed(
        &self,
        cwd: Ino,
        path: &ParsedPath,
        follow_last: bool,
        search: Option<&dyn Fn(&NodeMeta) -> bool>,
    ) -> SimRes {
        if path.is_empty() {
            return SimRes::Error(Errno::ENOENT);
        }
        if path.exceeds_path_max() {
            return SimRes::Error(Errno::ENAMETOOLONG);
        }
        let start = if path.absolute { self.root } else { cwd };
        self.resolve_from(
            start,
            path.components(),
            path.first_overlong(),
            path.trailing_slash,
            follow_last,
            0,
            search,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_from(
        &self,
        start: Ino,
        comps: &[Name],
        overlong_at: Option<usize>,
        trailing: bool,
        follow_last: bool,
        depth: usize,
        search: Option<&dyn Fn(&NodeMeta) -> bool>,
    ) -> SimRes {
        if depth > 40 {
            return SimRes::Error(Errno::ELOOP);
        }
        let mut cur = start;
        let mut idx = 0;
        while idx < comps.len() {
            let comp = comps[idx];
            let is_last = idx + 1 == comps.len();
            if overlong_at == Some(idx) {
                return SimRes::Error(Errno::ENAMETOOLONG);
            }
            if let Some(check) = search {
                if let Some(meta) = self.node(cur).map(|n| n.meta) {
                    if !check(&meta) {
                        return SimRes::Error(Errno::EACCES);
                    }
                }
            }
            if comp == Name::DOT {
                idx += 1;
                continue;
            }
            if comp == Name::DOTDOT {
                if cur == self.root {
                    idx += 1;
                    continue;
                }
                match self.parent_of(cur) {
                    Some(p) => {
                        cur = p;
                        idx += 1;
                        continue;
                    }
                    None => return SimRes::Error(Errno::ENOENT),
                }
            }
            match self.lookup(cur, comp) {
                None => {
                    if is_last {
                        return SimRes::Missing {
                            parent: cur,
                            name: comp,
                            trailing_slash: trailing,
                        };
                    }
                    return SimRes::Error(Errno::ENOENT);
                }
                Some(ino) => {
                    let node = self.node(ino).expect("entry points at a live inode");
                    match &node.kind {
                        NodeKind::Dir { .. } => {
                            if is_last {
                                return SimRes::Dir {
                                    ino,
                                    parent: Some((cur, comp)),
                                };
                            }
                            cur = ino;
                            idx += 1;
                        }
                        NodeKind::Symlink { target } => {
                            let follow = !is_last || follow_last || trailing;
                            if !follow {
                                return SimRes::NonDir {
                                    parent: cur,
                                    name: comp,
                                    ino,
                                    trailing_slash: trailing,
                                };
                            }
                            if target.is_empty() {
                                return SimRes::Error(Errno::ENOENT);
                            }
                            let tstart = if target.absolute { self.root } else { cur };
                            // Shares the model resolver's splice + overlong
                            // re-base, so ENAMETOOLONG placement cannot drift
                            // between sim and model.
                            let (spliced, spliced_overlong, new_trailing) =
                                target.splice_into(comps, idx, overlong_at, trailing);
                            return self.resolve_from(
                                tstart,
                                &spliced,
                                spliced_overlong,
                                new_trailing,
                                follow_last,
                                depth + 1,
                                search,
                            );
                        }
                        NodeKind::File { .. } => {
                            if !is_last {
                                return SimRes::Error(Errno::ENOTDIR);
                            }
                            return SimRes::NonDir {
                                parent: cur,
                                name: comp,
                                ino,
                                trailing_slash: trailing,
                            };
                        }
                    }
                }
            }
        }
        SimRes::Dir { ino: cur, parent: None }
    }
}

impl Default for MemFs {
    fn default() -> Self {
        MemFs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> NodeMeta {
        NodeMeta { mode: 0o755, uid: 0, gid: 0 }
    }

    #[test]
    fn create_lookup_remove_cycle() {
        let mut fs = MemFs::new();
        let root = fs.root();
        let d = fs.create(root, "d", NodeKind::Dir { entries: BTreeMap::new(), parent: None }, meta()).unwrap();
        let f = fs.create(d, "f", NodeKind::File { data: b"abc".to_vec() }, meta()).unwrap();
        assert_eq!(fs.lookup(root, "d"), Some(d));
        assert_eq!(fs.lookup(d, "f"), Some(f));
        assert_eq!(fs.dir_nlink(root), 3);
        assert!(fs.remove_entry(d, "f", true).is_some());
        assert!(fs.lookup(d, "f").is_none());
    }

    #[test]
    fn storage_accounting_tracks_writes_and_unlinks() {
        let mut fs = MemFs::new();
        let root = fs.root();
        let f = fs.create(root, "f", NodeKind::File { data: Vec::new() }, meta()).unwrap();
        assert_eq!(fs.write(f, 0, &[1u8; 100]), 100);
        assert_eq!(fs.bytes_used, 100);
        // Overwrite does not grow the accounting.
        assert_eq!(fs.write(f, 0, &[2u8; 50]), 50);
        assert_eq!(fs.bytes_used, 100);
        fs.remove_entry(root, "f", true);
        assert_eq!(fs.bytes_used, 0);
    }

    #[test]
    fn leaky_remove_keeps_storage_accounted() {
        let mut fs = MemFs::new();
        let root = fs.root();
        let f = fs.create(root, "f", NodeKind::File { data: Vec::new() }, meta()).unwrap();
        fs.write(f, 0, &[1u8; 64]);
        // Simulate the posixovl defect: entry removed without decrementing.
        fs.remove_entry(root, "f", false);
        assert_eq!(fs.bytes_used, 64);
        assert_eq!(fs.node(f).unwrap().nlink, 1);
    }

    #[test]
    fn resolution_modes() {
        let mut fs = MemFs::new();
        let root = fs.root();
        let d = fs.create(root, "d", NodeKind::Dir { entries: BTreeMap::new(), parent: None }, meta()).unwrap();
        let f = fs.create(d, "f", NodeKind::File { data: Vec::new() }, meta()).unwrap();
        fs.create(root, "s", NodeKind::Symlink { target: "d".into() }, meta()).unwrap();
        fs.create(root, "loop", NodeKind::Symlink { target: "loop".into() }, meta()).unwrap();

        assert!(matches!(fs.resolve(root, "/d", true), SimRes::Dir { ino, .. } if ino == d));
        assert!(matches!(fs.resolve(root, "/d/f", true), SimRes::NonDir { ino, .. } if ino == f));
        assert!(matches!(fs.resolve(root, "/d/missing", true), SimRes::Missing { .. }));
        assert_eq!(fs.resolve(root, "/missing/x", true), SimRes::Error(Errno::ENOENT));
        assert_eq!(fs.resolve(root, "/d/f/x", true), SimRes::Error(Errno::ENOTDIR));
        assert!(matches!(fs.resolve(root, "/s", true), SimRes::Dir { ino, .. } if ino == d));
        assert!(matches!(fs.resolve(root, "/s", false), SimRes::NonDir { .. }));
        assert!(matches!(fs.resolve(root, "/s/", false), SimRes::Dir { ino, .. } if ino == d));
        assert_eq!(fs.resolve(root, "/loop", true), SimRes::Error(Errno::ELOOP));
        // Relative resolution from a subdirectory.
        assert!(matches!(fs.resolve(d, "f", true), SimRes::NonDir { .. }));
        assert!(matches!(fs.resolve(d, "..", true), SimRes::Dir { ino, parent: None } if ino == root));
    }

    #[test]
    fn disconnection_is_detected() {
        let mut fs = MemFs::new();
        let root = fs.root();
        let d = fs.create(root, "d", NodeKind::Dir { entries: BTreeMap::new(), parent: None }, meta()).unwrap();
        assert!(fs.is_connected(d));
        fs.remove_entry(root, "d", true);
        assert!(!fs.is_connected(d));
        assert_eq!(fs.parent_of(d), None);
    }
}
