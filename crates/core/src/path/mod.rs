//! The path-resolution module (Fig. 5).
//!
//! Path resolution is kept strictly separate from the per-command semantics:
//! a command such as `rename p1 p2` first resolves its paths to
//! [`ResName`] values, and the file-system module then works entirely over
//! resolved names. All the "tricky details" — trailing slashes, symlink
//! following, `ELOOP`, permission checks during traversal — are confined to
//! this module (§4 "Modules", §5 "Path resolution module").
//!
//! Paths are parsed (and their components interned) **once**, at the point
//! they enter the system — the script parser, the test generator, the FFI
//! boundary — and the resolution loop below works entirely over `u32`
//! [`Name`] symbols: component comparison, `.`/`..` detection, and
//! directory-entry lookup never touch string data. Symlink targets are stored
//! pre-parsed, so splicing a target into the remaining components is a small
//! `memcpy` of symbols, not a re-parse.
//!
//! Short paths avoid the heap entirely: up to [`INLINE_COMPONENTS`]
//! components are stored inline in [`ParsedPath`], and a symlink splice of up
//! to [`INLINE_SPLICE`] combined components lives on the resolver's stack
//! frame ([`SplicedPath`]). The suite is dominated by one- and two-component
//! paths, so the common parse and the common splice both cost zero
//! allocations.

use std::sync::Arc;

use crate::coverage::spec_point;
use crate::errno::Errno;
use crate::intern::Name;
use crate::perms::{access_allowed, Access, Creds};
use crate::state::{DirHeap, DirRef, Entry, FileRef};
use crate::types::{NAME_MAX, PATH_MAX, SYMLOOP_MAX};

/// Number of components a [`ParsedPath`] stores inline without touching the
/// heap. Three covers the overwhelming majority of paths the suite generates
/// (`/a`, `/d1/f1`, `/shared/r2_a`, …); longer paths spill to a shared slice.
pub const INLINE_COMPONENTS: usize = 3;

/// Component storage for [`ParsedPath`]: short lists live inline (clone is a
/// 16-byte copy), longer ones behind an `Arc` (clone is a refcount bump).
#[derive(Clone)]
enum NameList {
    /// `len` live components at the front of the buffer; the tail slots are
    /// padding (`Name::DOT`, never read — `as_slice` stops at `len`).
    Inline(u8, [Name; INLINE_COMPONENTS]),
    /// More than [`INLINE_COMPONENTS`] components, shared on the heap.
    Heap(Arc<[Name]>),
}

impl NameList {
    fn as_slice(&self) -> &[Name] {
        match self {
            NameList::Inline(len, buf) => &buf[..*len as usize],
            NameList::Heap(names) => names,
        }
    }
}

/// A parsed (but not yet resolved) path: the raw text interned as a single
/// symbol plus its interned components.
///
/// Parsing happens once per distinct path string; everything downstream —
/// equality, hashing, resolution, storage in commands and symlink objects —
/// is symbol arithmetic. Up to [`INLINE_COMPONENTS`] components are stored
/// inline; longer lists sit behind an `Arc`. Either way, cloning a command
/// that carries a path never allocates.
///
/// Symbol ids are interning-order-dependent and must never cross the
/// process boundary (DESIGN_INTERN.md, invariant 2): anything leaving the
/// process carries the `as_str()` text and comes back through `parse`.
#[derive(Clone)]
pub struct ParsedPath {
    /// The original string, interned whole (for printing and `readlink`).
    raw: Name,
    /// Byte length of the raw string (cached so `stat` of a symlink never
    /// resolves the symbol).
    raw_len: u32,
    /// Whether the path begins with a slash.
    pub absolute: bool,
    /// Number of leading slashes (POSIX gives `//` implementation-defined
    /// meaning; the test generator uses this property for partitioning).
    pub leading_slashes: usize,
    /// Path components, with empty components removed but `.` and `..` kept.
    components: NameList,
    /// Whether the path ends with a slash.
    pub trailing_slash: bool,
    /// Index of the first component longer than [`NAME_MAX`], computed at
    /// intern time — the single enforcement point for `ENAMETOOLONG` shared
    /// by the model's resolver and the simulated kernel's.
    first_overlong: Option<u32>,
    /// Whether the raw string exceeds [`PATH_MAX`].
    raw_too_long: bool,
}

impl ParsedPath {
    /// Parse a raw path string into interned components.
    pub fn parse(raw: &str) -> ParsedPath {
        let leading_slashes = raw.chars().take_while(|c| *c == '/').count();
        let absolute = leading_slashes > 0;
        let trailing_slash = raw.len() > leading_slashes && raw.ends_with('/');
        // Build into the inline buffer first; only a fourth component forces
        // a heap spill (which then re-homes the inline prefix).
        let mut inline = [Name::DOT; INLINE_COMPONENTS];
        let mut len = 0usize;
        let mut spill: Vec<Name> = Vec::new();
        let mut first_overlong = None;
        for c in raw.split('/').filter(|c| !c.is_empty()) {
            if c.len() > NAME_MAX && first_overlong.is_none() {
                first_overlong = Some(len as u32);
            }
            let name = Name::intern(c);
            if len < INLINE_COMPONENTS {
                inline[len] = name;
            } else {
                if spill.is_empty() {
                    spill.extend_from_slice(&inline);
                }
                spill.push(name);
            }
            len += 1;
        }
        let components = if len <= INLINE_COMPONENTS {
            NameList::Inline(len as u8, inline)
        } else {
            NameList::Heap(spill.into())
        };
        ParsedPath {
            raw: Name::intern(raw),
            raw_len: raw.len() as u32,
            absolute,
            leading_slashes,
            components,
            trailing_slash,
            first_overlong,
            raw_too_long: raw.len() > PATH_MAX,
        }
    }

    /// The original path text.
    pub fn as_str(&self) -> &'static str {
        self.raw.as_str()
    }

    /// The interned symbol of the whole raw path.
    pub fn raw_name(&self) -> Name {
        self.raw
    }

    /// Byte length of the original text.
    pub fn raw_len(&self) -> usize {
        self.raw_len as usize
    }

    /// The interned path components (empty components removed, `.`/`..` kept).
    pub fn components(&self) -> &[Name] {
        self.components.as_slice()
    }

    /// Index of the first component longer than `NAME_MAX`, if any.
    pub fn first_overlong(&self) -> Option<usize> {
        self.first_overlong.map(|i| i as usize)
    }

    /// Whether the raw text exceeds `PATH_MAX`.
    pub fn exceeds_path_max(&self) -> bool {
        self.raw_too_long
    }

    /// Whether the path is the empty string.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The final component, if any.
    pub fn last_component(&self) -> Option<Name> {
        self.components.as_slice().last().copied()
    }

    /// Whether the final component is `.` or `..`.
    pub fn ends_in_dot(&self) -> bool {
        matches!(self.last_component(), Some(Name::DOT) | Some(Name::DOTDOT))
    }

    /// This path with any trailing slash dropped (components shared).
    pub fn without_trailing_slash(&self) -> ParsedPath {
        let mut p = self.clone();
        p.trailing_slash = false;
        p
    }

    /// Splice this path (a symlink target) into a partially-walked component
    /// list: the walker stood at `components[idx]` (the symlink) with
    /// `overlong_at`/`trailing` describing the original path, and resolution
    /// continues with the target's components followed by the remainder.
    ///
    /// Returns `(spliced components, re-based overlong index, new trailing
    /// flag)`. The spliced list is a [`SplicedPath`]: when target + remainder
    /// fit in [`INLINE_SPLICE`] components (the common case), it lives
    /// entirely in the caller's stack frame and the splice allocates nothing.
    ///
    /// This is the one place the subtle overlong-index re-base lives
    /// — the model's resolver and the simulated kernel's both call it, so
    /// their `ENAMETOOLONG` placement cannot drift apart. An overlong
    /// component at or before `idx` is impossible here (the walk would have
    /// failed there), which the `i > idx` filter makes explicit.
    pub fn splice_into(
        &self,
        components: &[Name],
        idx: usize,
        overlong_at: Option<usize>,
        trailing: bool,
    ) -> (SplicedPath, Option<usize>, bool) {
        let rest = &components[idx + 1..];
        let tcomps = self.components();
        let mut spliced = SplicedPath::new();
        spliced.extend_from_slice(tcomps);
        spliced.extend_from_slice(rest);
        let spliced_overlong = self.first_overlong().or_else(|| {
            overlong_at.filter(|&i| i > idx).map(|i| i - (idx + 1) + tcomps.len())
        });
        let new_trailing =
            if rest.is_empty() { trailing || self.trailing_slash } else { trailing };
        (spliced, spliced_overlong, new_trailing)
    }
}

/// Inline capacity of [`SplicedPath`]. Symlink target + path remainder stay
/// under this in every suite-generated script; deeper splices (symlink chains
/// into long tails) fall back to a single heap allocation.
pub const INLINE_SPLICE: usize = 8;

/// The component list produced by [`ParsedPath::splice_into`]: a fixed
/// inline buffer that spills to the heap only past [`INLINE_SPLICE`]
/// components. Lives on the resolver's recursion frame and derefs to
/// `&[Name]`, so the recursive `resolve_from` call borrows it directly.
pub struct SplicedPath {
    /// Total number of components; when `len <= INLINE_SPLICE` the live data
    /// is `inline[..len]`, otherwise it is all of `heap`.
    len: usize,
    /// Inline storage; tail slots past `len` are padding (`Name::DOT`).
    inline: [Name; INLINE_SPLICE],
    /// Spill storage, populated only once `len` exceeds the inline capacity.
    heap: Vec<Name>,
}

impl SplicedPath {
    fn new() -> SplicedPath {
        SplicedPath { len: 0, inline: [Name::DOT; INLINE_SPLICE], heap: Vec::new() }
    }

    fn extend_from_slice(&mut self, names: &[Name]) {
        let total = self.len + names.len();
        if total <= INLINE_SPLICE {
            self.inline[self.len..total].copy_from_slice(names);
        } else {
            if self.len <= INLINE_SPLICE {
                // First spill: re-home the inline prefix, sized once.
                self.heap.reserve(total);
                self.heap.extend_from_slice(&self.inline[..self.len]);
            }
            self.heap.extend_from_slice(names);
        }
        self.len = total;
    }

    /// The spliced components.
    pub fn as_slice(&self) -> &[Name] {
        if self.len <= INLINE_SPLICE {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

impl std::ops::Deref for SplicedPath {
    type Target = [Name];

    fn deref(&self) -> &[Name] {
        self.as_slice()
    }
}

impl PartialEq for ParsedPath {
    fn eq(&self, other: &ParsedPath) -> bool {
        // The raw symbol determines every derived field.
        self.raw == other.raw
    }
}

impl Eq for ParsedPath {}

impl std::hash::Hash for ParsedPath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl PartialOrd for ParsedPath {
    fn partial_cmp(&self, other: &ParsedPath) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ParsedPath {
    fn cmp(&self, other: &ParsedPath) -> std::cmp::Ordering {
        // Lexicographic by raw text: stable across runs (symbol ids are not),
        // and only ever used on cold paths (ordered collections of commands).
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for ParsedPath {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for ParsedPath {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl AsRef<str> for ParsedPath {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for ParsedPath {
    fn from(s: &str) -> ParsedPath {
        ParsedPath::parse(s)
    }
}

impl From<String> for ParsedPath {
    fn from(s: String) -> ParsedPath {
        ParsedPath::parse(&s)
    }
}

impl From<&String> for ParsedPath {
    fn from(s: &String) -> ParsedPath {
        ParsedPath::parse(s)
    }
}

impl std::fmt::Display for ParsedPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Quoted/escaped exactly like the `String` the path was parsed from,
        // so rendered scripts and traces are byte-identical to before.
        write!(f, "{:?}", self.as_str())
    }
}

impl std::fmt::Debug for ParsedPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// The result of path resolution (the `res_name` type of the Lem model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResName {
    /// The path resolved to a directory.
    Dir {
        /// The directory.
        dref: DirRef,
        /// The directory's parent and the name under which it was found, when
        /// the path did not end in `.`, `..` or the root. Needed by commands
        /// such as `rmdir` and `rename` that must modify the parent.
        parent: Option<(DirRef, Name)>,
        /// Whether the path carried a trailing slash.
        trailing_slash: bool,
    },
    /// The path resolved to a non-directory file (regular file or, when the
    /// final symlink was not followed, a symlink).
    File {
        /// The directory containing the entry.
        parent: DirRef,
        /// The entry name within the parent.
        name: Name,
        /// The file object.
        fref: FileRef,
        /// Whether the final component is a symlink that was *not* followed.
        is_symlink: bool,
        /// Whether the path carried a trailing slash (which POSIX intends to
        /// be an error for non-directories, but which real systems treat
        /// inconsistently, §7.3.2).
        trailing_slash: bool,
    },
    /// The path resolved to a non-existent entry in an existing directory
    /// (e.g. the target of `mkdir` or `open(O_CREAT)`).
    None {
        /// The directory that would contain the entry.
        parent: DirRef,
        /// The name of the missing entry.
        name: Name,
        /// Whether the path carried a trailing slash.
        trailing_slash: bool,
    },
    /// Resolution failed.
    Err(Errno),
}

impl ResName {
    /// The errno if resolution failed.
    pub fn errno(&self) -> Option<Errno> {
        match self {
            ResName::Err(e) => Some(*e),
            _ => None,
        }
    }

    /// Whether the path resolved to an existing directory.
    pub fn is_dir(&self) -> bool {
        matches!(self, ResName::Dir { .. })
    }

    /// Whether the path resolved to an existing non-directory file.
    pub fn is_file(&self) -> bool {
        matches!(self, ResName::File { .. })
    }

    /// Whether the path resolved to a missing entry.
    pub fn is_none(&self) -> bool {
        matches!(self, ResName::None { .. })
    }
}

/// Whether the final symlink in a path should be followed, which varies by
/// libc function (§5 "Path resolution module").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowLast {
    /// Follow a symlink in the final component (`stat`, `open` without
    /// `O_NOFOLLOW`, `chdir`, `truncate`, `chmod`, `chown`, `opendir`, …).
    Follow,
    /// Do not follow (`lstat`, `unlink`, `rename`, `readlink`, `symlink`,
    /// `mkdir`, `rmdir`, `link` on Linux, `open` with `O_NOFOLLOW`).
    NoFollow,
}

/// The context needed to resolve a path.
#[derive(Debug, Clone, Copy)]
pub struct ResolveCtx<'a> {
    /// The file-system state.
    pub heap: &'a DirHeap,
    /// The current working directory of the calling process.
    pub cwd: DirRef,
    /// The caller's credentials, or `None` when the permissions trait is off.
    pub creds: Option<&'a Creds>,
}

impl<'a> ResolveCtx<'a> {
    /// Construct a resolution context.
    pub fn new(heap: &'a DirHeap, cwd: DirRef, creds: Option<&'a Creds>) -> ResolveCtx<'a> {
        ResolveCtx { heap, cwd, creds }
    }

    fn search_allowed(&self, d: DirRef) -> bool {
        match self.heap.dir(d) {
            Some(dir) => access_allowed(self.creds, &dir.meta, Access::Exec),
            None => false,
        }
    }
}

/// A record of everything a path resolution *read* from the heap: the
/// directories it traversed (search-permission + parent-pointer reads) and
/// the directory entries it looked up, present or absent.
///
/// Used by the footprint layer (`crate::footprint`) to derive the read set
/// of a command's path arguments for partial-order reduction: a concurrent
/// write that touches none of these resources cannot change the outcome of
/// this resolution. Symlink expansion is covered by the edge read of the
/// symlink itself — symlink *content* is immutable in the model, and a
/// `rename` that moves a symlink (changing what a relative target resolves
/// against) writes the very entries those edge reads record.
#[derive(Debug, Default, Clone)]
pub struct PathObs {
    /// Every directory whose metadata (search permission) or parent pointer
    /// was consulted, in traversal order, duplicates included.
    pub dirs: Vec<DirRef>,
    /// Every `(dir, name)` entry lookup performed — hits *and* misses (a miss
    /// is a read too: creating that entry would change the outcome).
    pub edges: Vec<(DirRef, Name)>,
}

impl PathObs {
    fn note_dir(&mut self, d: DirRef) {
        self.dirs.push(d);
    }

    fn note_edge(&mut self, d: DirRef, n: Name) {
        self.edges.push((d, n));
    }
}

/// Resolve a raw path string relative to the context. Thin wrapper over
/// [`resolve_path`] for callers (tests, examples) holding plain strings; the
/// transition engine resolves pre-parsed [`ParsedPath`]s and never re-parses.
pub fn resolve(ctx: &ResolveCtx<'_>, raw: &str, follow_last: FollowLast) -> ResName {
    resolve_path(ctx, &ParsedPath::parse(raw), follow_last)
}

/// Resolve a pre-parsed path relative to the context, following the final
/// symlink according to `follow_last`. The hot entry point: no string data is
/// touched anywhere below here.
pub fn resolve_path(
    ctx: &ResolveCtx<'_>,
    parsed: &ParsedPath,
    follow_last: FollowLast,
) -> ResName {
    resolve_path_inner(ctx, parsed, follow_last, None)
}

/// [`resolve_path`] variant that records every heap read into `obs`.
///
/// Only the footprint layer uses this; the hot resolve path goes through
/// [`resolve_path`], which passes `None` and pays nothing for the hooks.
pub fn resolve_path_observed(
    ctx: &ResolveCtx<'_>,
    parsed: &ParsedPath,
    follow_last: FollowLast,
    obs: &mut PathObs,
) -> ResName {
    resolve_path_inner(ctx, parsed, follow_last, Some(obs))
}

fn resolve_path_inner(
    ctx: &ResolveCtx<'_>,
    parsed: &ParsedPath,
    follow_last: FollowLast,
    mut obs: Option<&mut PathObs>,
) -> ResName {
    if parsed.is_empty() {
        spec_point("path/empty_path_enoent");
        return ResName::Err(Errno::ENOENT);
    }
    if parsed.exceeds_path_max() {
        spec_point("path/path_too_long");
        return ResName::Err(Errno::ENAMETOOLONG);
    }
    let start = if parsed.absolute { ctx.heap.root() } else { ctx.cwd };
    if let Some(o) = obs.as_deref_mut() {
        o.note_dir(start);
    }
    resolve_from(
        ctx,
        start,
        parsed.components(),
        parsed.first_overlong(),
        parsed.trailing_slash,
        follow_last,
        0,
        obs,
    )
}

/// Resolve a component list starting from `start`.
///
/// `overlong_at` is the index (within `components`) of the first component
/// longer than [`NAME_MAX`], carried from parse time; reaching it yields
/// `ENAMETOOLONG` exactly where a kernel walking the path would notice.
/// `depth` counts the number of symlinks expanded so far; exceeding
/// [`SYMLOOP_MAX`] yields `ELOOP`.
#[allow(clippy::too_many_arguments)]
fn resolve_from(
    ctx: &ResolveCtx<'_>,
    start: DirRef,
    components: &[Name],
    overlong_at: Option<usize>,
    trailing_slash: bool,
    follow_last: FollowLast,
    depth: usize,
    mut obs: Option<&mut PathObs>,
) -> ResName {
    if depth > SYMLOOP_MAX {
        spec_point("path/eloop");
        return ResName::Err(Errno::ELOOP);
    }
    let mut cur = start;
    let mut came_via: Option<(DirRef, Name)> = None;

    let mut idx = 0usize;
    while idx < components.len() {
        let comp = components[idx];
        let is_last = idx + 1 == components.len();

        if overlong_at == Some(idx) {
            spec_point("path/name_too_long");
            return ResName::Err(Errno::ENAMETOOLONG);
        }
        // Search permission is required on every directory traversed.
        if let Some(o) = obs.as_deref_mut() {
            o.note_dir(cur);
        }
        if !ctx.search_allowed(cur) {
            spec_point("path/search_permission_denied");
            return ResName::Err(Errno::EACCES);
        }
        if comp == Name::DOT {
            spec_point("path/dot_component");
            came_via = None;
            idx += 1;
            continue;
        }
        if comp == Name::DOTDOT {
            spec_point("path/dotdot_component");
            // `..` of the root is the root; `..` of a disconnected directory
            // has no parent and resolution fails with ENOENT.
            if cur == ctx.heap.root() {
                // Stay at the root.
            } else {
                match ctx.heap.parent_of(cur) {
                    Some(p) => cur = p,
                    None => {
                        spec_point("path/dotdot_of_disconnected_dir");
                        return ResName::Err(Errno::ENOENT);
                    }
                }
            }
            if let Some(o) = obs.as_deref_mut() {
                o.note_dir(cur);
            }
            came_via = None;
            idx += 1;
            continue;
        }

        if let Some(o) = obs.as_deref_mut() {
            o.note_edge(cur, comp);
        }
        match ctx.heap.lookup(cur, comp) {
            None => {
                if is_last {
                    spec_point("path/last_component_missing");
                    return ResName::None {
                        parent: cur,
                        name: comp,
                        trailing_slash,
                    };
                }
                spec_point("path/intermediate_component_missing");
                return ResName::Err(Errno::ENOENT);
            }
            Some(Entry::Dir(d)) => {
                came_via = Some((cur, comp));
                cur = d;
                idx += 1;
                if is_last {
                    spec_point("path/resolved_to_dir");
                    return ResName::Dir { dref: d, parent: came_via, trailing_slash };
                }
            }
            Some(Entry::File(f)) => {
                let target = ctx.heap.symlink_target_parsed(f);
                if let Some(target) = target {
                    let follow = !is_last
                        || matches!(follow_last, FollowLast::Follow)
                        || trailing_slash;
                    if follow {
                        spec_point("path/symlink_followed");
                        if target.is_empty() {
                            spec_point("path/empty_symlink_target");
                            return ResName::Err(Errno::ENOENT);
                        }
                        let tstart = if target.absolute { ctx.heap.root() } else { cur };
                        // Splice: resolve the (pre-parsed) target, then
                        // continue with the remaining components of the
                        // original path. A memcpy of u32 symbols.
                        let (spliced, spliced_overlong, new_trailing) =
                            target.splice_into(components, idx, overlong_at, trailing_slash);
                        return resolve_from(
                            ctx,
                            tstart,
                            &spliced,
                            spliced_overlong,
                            new_trailing,
                            follow_last,
                            depth + 1,
                            obs,
                        );
                    }
                    // Unfollowed final symlink.
                    spec_point("path/final_symlink_not_followed");
                    return ResName::File {
                        parent: cur,
                        name: comp,
                        fref: f,
                        is_symlink: true,
                        trailing_slash,
                    };
                }
                // Regular file.
                if !is_last {
                    spec_point("path/intermediate_component_not_a_dir");
                    return ResName::Err(Errno::ENOTDIR);
                }
                spec_point("path/resolved_to_file");
                return ResName::File {
                    parent: cur,
                    name: comp,
                    fref: f,
                    is_symlink: false,
                    trailing_slash,
                };
            }
        }
    }

    // No components (the path was "/", ".", "..", or collapsed to nothing).
    spec_point("path/resolved_to_start_dir");
    if let Some(o) = obs {
        o.note_dir(cur);
    }
    ResName::Dir { dref: cur, parent: came_via, trailing_slash }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::FileMode;
    use crate::state::Meta;
    use crate::types::{Gid, Uid};

    fn meta() -> Meta {
        Meta::new(FileMode::new(0o755), Uid(0), Gid(0))
    }

    /// Build the standard fixture:
    /// `/d1` (dir), `/d1/f1` (file), `/s_d1 -> d1`, `/s_f1 -> d1/f1`,
    /// `/broken -> nowhere`, `/loop -> loop`, with ids 1 to 6.
    fn fixture() -> (DirHeap, DirRef) {
        let mut h = DirHeap::empty();
        let root = h.root();
        let d1 = h.create_dir(root, "d1", meta(), 1).unwrap();
        h.create_file(d1, "f1", meta(), 2).unwrap();
        h.create_symlink(root, "s_d1", "d1", meta(), 3).unwrap();
        h.create_symlink(root, "s_f1", "d1/f1", meta(), 4).unwrap();
        h.create_symlink(root, "broken", "nowhere", meta(), 5).unwrap();
        h.create_symlink(root, "loop", "loop", meta(), 6).unwrap();
        (h, root)
    }

    fn ctx<'a>(h: &'a DirHeap, cwd: DirRef) -> ResolveCtx<'a> {
        ResolveCtx::new(h, cwd, None)
    }

    fn comps(p: &ParsedPath) -> Vec<&'static str> {
        p.components().iter().map(|n| n.as_str()).collect()
    }

    #[test]
    fn parse_basic_paths() {
        let p = ParsedPath::parse("/a/b/c");
        assert!(p.absolute);
        assert_eq!(comps(&p), vec!["a", "b", "c"]);
        assert!(!p.trailing_slash);
        assert_eq!(p.as_str(), "/a/b/c");
        assert_eq!(p.raw_len(), 6);

        let p = ParsedPath::parse("a/b/");
        assert!(!p.absolute);
        assert!(p.trailing_slash);

        let p = ParsedPath::parse("///x");
        assert_eq!(p.leading_slashes, 3);
        assert_eq!(comps(&p), vec!["x"]);

        let p = ParsedPath::parse("/");
        assert!(p.absolute);
        assert!(p.components().is_empty());
        assert!(!p.trailing_slash, "a bare slash is not counted as trailing");

        assert!(ParsedPath::parse("").is_empty());
        assert!(ParsedPath::parse("a/..").ends_in_dot());
    }

    #[test]
    fn parse_interns_and_round_trips() {
        let p = ParsedPath::parse("/a/./../b\n/");
        // Parsing is idempotent: same raw string, same symbols.
        let q = ParsedPath::parse("/a/./../b\n/");
        assert_eq!(p, q);
        assert_eq!(p.raw_name(), q.raw_name());
        assert_eq!(p.components(), q.components());
        // `.`/`..` intern to the pre-seeded constants.
        assert_eq!(p.components()[1], Name::DOT);
        assert_eq!(p.components()[2], Name::DOTDOT);
        // The raw text survives exactly (escaping happens only in Display).
        assert_eq!(p.as_str(), "/a/./../b\n/");
        assert_eq!(format!("{p}"), "\"/a/./../b\\n/\"");
    }

    #[test]
    fn parse_marks_overlong_components() {
        let long = "x".repeat(NAME_MAX + 1);
        let p = ParsedPath::parse(&format!("/ok/{long}/tail"));
        assert_eq!(p.first_overlong(), Some(1));
        let p = ParsedPath::parse("/ok/fine");
        assert_eq!(p.first_overlong(), None);
        let edge = "y".repeat(NAME_MAX);
        assert_eq!(ParsedPath::parse(&edge).first_overlong(), None);
    }

    #[test]
    fn inline_and_spilled_components_agree() {
        // Cross the INLINE_COMPONENTS boundary: behavior must be identical on
        // both sides of the inline/heap split.
        for n in 0..(2 * INLINE_COMPONENTS + 1) {
            let joined =
                (0..n).map(|i| format!("c{i}")).collect::<Vec<_>>().join("/");
            let p = ParsedPath::parse(&format!("/{joined}"));
            let got: Vec<&str> = p.components().iter().map(|c| c.as_str()).collect();
            let want: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
            assert_eq!(got, want);
            if n > 0 {
                assert_eq!(
                    p.last_component().map(|c| c.as_str()),
                    Some(want[n - 1].as_str())
                );
            } else {
                assert_eq!(p.last_component(), None);
            }
        }
    }

    #[test]
    fn deep_symlink_splice_spills_and_resolves() {
        let (mut h, root) = fixture();
        // 8 `.` components + `d1` = 9 spliced components, past INLINE_SPLICE,
        // so this exercises the SplicedPath heap-spill path end to end.
        let dots = "./".repeat(INLINE_SPLICE);
        h.create_symlink(root, "deep", format!("{dots}d1").as_str(), meta(), 7).unwrap();
        let c = ctx(&h, root);
        assert!(resolve(&c, "/deep", FollowLast::Follow).is_dir());
        // With a tail after the symlink the splice is even longer.
        assert!(matches!(
            resolve(&c, "/deep/f1", FollowLast::Follow),
            ResName::File { is_symlink: false, .. }
        ));
        assert!(matches!(
            resolve(&c, "/deep/nope", FollowLast::Follow),
            ResName::None { .. }
        ));
    }

    #[test]
    fn empty_path_is_enoent() {
        let (h, root) = fixture();
        assert_eq!(resolve(&ctx(&h, root), "", FollowLast::Follow), ResName::Err(Errno::ENOENT));
    }

    #[test]
    fn resolve_root_and_dot() {
        let (h, root) = fixture();
        let c = ctx(&h, root);
        assert!(matches!(resolve(&c, "/", FollowLast::Follow), ResName::Dir { dref, .. } if dref == root));
        assert!(matches!(resolve(&c, ".", FollowLast::Follow), ResName::Dir { dref, .. } if dref == root));
        assert!(matches!(resolve(&c, "..", FollowLast::Follow), ResName::Dir { dref, .. } if dref == root));
    }

    #[test]
    fn resolve_file_and_missing() {
        let (h, root) = fixture();
        let c = ctx(&h, root);
        assert!(matches!(
            resolve(&c, "/d1/f1", FollowLast::Follow),
            ResName::File { is_symlink: false, .. }
        ));
        assert!(matches!(
            resolve(&c, "/d1/nope", FollowLast::Follow),
            ResName::None { name, .. } if name == "nope"
        ));
        assert_eq!(
            resolve(&c, "/nope/nope2", FollowLast::Follow),
            ResName::Err(Errno::ENOENT)
        );
        assert_eq!(
            resolve(&c, "/d1/f1/x", FollowLast::Follow),
            ResName::Err(Errno::ENOTDIR)
        );
    }

    #[test]
    fn relative_resolution_uses_cwd() {
        let (h, root) = fixture();
        let d1 = match h.lookup(root, "d1") {
            Some(Entry::Dir(d)) => d,
            _ => panic!(),
        };
        let c = ctx(&h, d1);
        assert!(matches!(resolve(&c, "f1", FollowLast::Follow), ResName::File { .. }));
        assert!(matches!(resolve(&c, "../d1/f1", FollowLast::Follow), ResName::File { .. }));
    }

    #[test]
    fn symlink_following_modes() {
        let (h, root) = fixture();
        let c = ctx(&h, root);
        // Followed: resolves to the directory / file target.
        assert!(resolve(&c, "/s_d1", FollowLast::Follow).is_dir());
        assert!(matches!(
            resolve(&c, "/s_f1", FollowLast::Follow),
            ResName::File { is_symlink: false, .. }
        ));
        // Not followed: resolves to the symlink object itself.
        assert!(matches!(
            resolve(&c, "/s_d1", FollowLast::NoFollow),
            ResName::File { is_symlink: true, .. }
        ));
        // Intermediate symlinks are always followed.
        assert!(matches!(
            resolve(&c, "/s_d1/f1", FollowLast::NoFollow),
            ResName::File { is_symlink: false, .. }
        ));
    }

    #[test]
    fn trailing_slash_forces_following() {
        let (h, root) = fixture();
        let c = ctx(&h, root);
        // A trailing slash on a symlink to a directory forces resolution to
        // the directory even under NoFollow.
        assert!(resolve(&c, "/s_d1/", FollowLast::NoFollow).is_dir());
        // Trailing slash on a regular file is reported with the flag set.
        assert!(matches!(
            resolve(&c, "/d1/f1/", FollowLast::Follow),
            ResName::File { trailing_slash: true, .. }
        ));
    }

    #[test]
    fn broken_and_looping_symlinks() {
        let (h, root) = fixture();
        let c = ctx(&h, root);
        assert!(matches!(
            resolve(&c, "/broken", FollowLast::Follow),
            ResName::None { name, .. } if name == "nowhere"
        ));
        assert!(matches!(
            resolve(&c, "/broken", FollowLast::NoFollow),
            ResName::File { is_symlink: true, .. }
        ));
        assert_eq!(resolve(&c, "/loop", FollowLast::Follow), ResName::Err(Errno::ELOOP));
        assert_eq!(resolve(&c, "/loop/x", FollowLast::NoFollow), ResName::Err(Errno::ELOOP));
    }

    #[test]
    fn permission_denied_during_traversal() {
        let (mut h, root) = fixture();
        // Lock down /d1 so a non-root user cannot search it.
        let d1 = match h.lookup(root, "d1") {
            Some(Entry::Dir(d)) => d,
            _ => panic!(),
        };
        h.dir_mut(d1).unwrap().meta.mode = FileMode::new(0o600);
        let creds = Creds::user(Uid(1000), Gid(1000));
        let c = ResolveCtx::new(&h, root, Some(&creds));
        assert_eq!(resolve(&c, "/d1/f1", FollowLast::Follow), ResName::Err(Errno::EACCES));
        // Root is unaffected.
        let root_creds = Creds::root();
        let c = ResolveCtx::new(&h, root, Some(&root_creds));
        assert!(resolve(&c, "/d1/f1", FollowLast::Follow).is_file());
    }

    #[test]
    fn name_and_path_length_limits() {
        let (h, root) = fixture();
        let c = ctx(&h, root);
        let long_name = "x".repeat(NAME_MAX + 1);
        assert_eq!(
            resolve(&c, &format!("/{long_name}"), FollowLast::Follow),
            ResName::Err(Errno::ENAMETOOLONG)
        );
        let long_path = format!("/{}", "a/".repeat(PATH_MAX));
        assert_eq!(
            resolve(&c, &long_path, FollowLast::Follow),
            ResName::Err(Errno::ENAMETOOLONG)
        );
        // An overlong component *behind* a failing prefix is not reached: the
        // prefix error wins, exactly as on a real kernel walking the path.
        assert_eq!(
            resolve(&c, &format!("/nope/{long_name}"), FollowLast::Follow),
            ResName::Err(Errno::ENOENT)
        );
        // A component of exactly NAME_MAX bytes resolves (to a missing entry).
        let edge = "y".repeat(NAME_MAX);
        assert!(matches!(
            resolve(&c, &format!("/{edge}"), FollowLast::Follow),
            ResName::None { .. }
        ));
    }

    #[test]
    fn overlong_component_behind_symlink_splice_is_detected() {
        let (mut h, root) = fixture();
        let long_name = "z".repeat(NAME_MAX + 1);
        h.create_symlink(root, "s_long", format!("d1/{long_name}").as_str(), meta(), 7).unwrap();
        let c = ctx(&h, root);
        // The overlong component lives inside the spliced target.
        assert_eq!(
            resolve(&c, "/s_long", FollowLast::Follow),
            ResName::Err(Errno::ENAMETOOLONG)
        );
        // The overlong component lives in the original tail after the splice.
        assert_eq!(
            resolve(&c, &format!("/s_d1/{long_name}"), FollowLast::Follow),
            ResName::Err(Errno::ENAMETOOLONG)
        );
    }

    #[test]
    fn dotdot_of_disconnected_dir_fails() {
        let (mut h, root) = fixture();
        let d = h.create_dir(root, "gone", meta(), 7).unwrap();
        h.remove_entry(root, "gone");
        let c = ctx(&h, d);
        assert_eq!(resolve(&c, "../anything", FollowLast::Follow), ResName::Err(Errno::ENOENT));
    }
}
