//! The standard fixture state and the path pool used by the combinatorial
//! generator.
//!
//! Equivalence partitioning (§6.1) is over *properties* of paths and of the
//! file-system state they are interpreted in: whether the path is empty, a
//! single slash, has a trailing slash, how many leading slashes it has, what
//! it resolves to (file, directory, symlink, nonexistent entry, resolution
//! error), whether the directory it names is empty, and whether it contains a
//! symlink component. Every generated test first builds one standard fixture
//! containing at least one representative object for each class, then issues
//! the command under test with paths drawn from the pool.

use sibylfs_core::commands::OsCommand;
use sibylfs_core::flags::{FileMode, OpenFlags};
use sibylfs_script::Script;

/// What a pool path resolves to within the standard fixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathClass {
    /// An existing regular file.
    File,
    /// An existing empty directory.
    EmptyDir,
    /// An existing non-empty directory.
    NonEmptyDir,
    /// A symlink to a regular file.
    SymlinkToFile,
    /// A symlink to a directory.
    SymlinkToDir,
    /// A symlink whose target does not exist.
    BrokenSymlink,
    /// A symlink that points at itself.
    SymlinkLoop,
    /// A missing entry in an existing directory.
    Missing,
    /// A path whose resolution fails (missing intermediate, file used as a
    /// directory, …).
    ResolutionError,
    /// The root directory (or `.`/`..` forms of it).
    Root,
    /// The empty string.
    Empty,
}

/// One entry of the path pool: the literal path plus its classification and
/// syntactic properties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPath {
    /// The path as written in generated scripts.
    pub path: &'static str,
    /// What it resolves to in the standard fixture.
    pub class: PathClass,
    /// Whether it ends with a slash.
    pub trailing_slash: bool,
    /// Number of leading slashes.
    pub leading_slashes: usize,
    /// Whether a symlink occurs in a non-final component.
    pub symlink_component: bool,
}

const fn pool(
    path: &'static str,
    class: PathClass,
    trailing_slash: bool,
    leading_slashes: usize,
    symlink_component: bool,
) -> PoolPath {
    PoolPath { path, class, trailing_slash, leading_slashes, symlink_component }
}

/// The standard path pool. Every logically possible combination of the
/// partitioning properties has at least one representative (and the
/// impossible combinations — e.g. an empty path with a trailing slash — have
/// none, by construction).
pub const PATH_POOL: &[PoolPath] = &[
    pool("", PathClass::Empty, false, 0, false),
    pool("/", PathClass::Root, false, 1, false),
    pool(".", PathClass::Root, false, 0, false),
    pool("..", PathClass::Root, false, 0, false),
    pool("f.txt", PathClass::File, false, 0, false),
    pool("/f.txt", PathClass::File, false, 1, false),
    pool("//f.txt", PathClass::File, false, 2, false),
    pool("///f.txt", PathClass::File, false, 3, false),
    pool("f.txt/", PathClass::File, true, 0, false),
    pool("hardlink_f", PathClass::File, false, 0, false),
    pool("nonempty_dir/f1", PathClass::File, false, 0, false),
    pool("empty_dir", PathClass::EmptyDir, false, 0, false),
    pool("empty_dir/", PathClass::EmptyDir, true, 0, false),
    pool("/empty_dir", PathClass::EmptyDir, false, 1, false),
    pool("nonempty_dir", PathClass::NonEmptyDir, false, 0, false),
    pool("nonempty_dir/", PathClass::NonEmptyDir, true, 0, false),
    pool("empty_dir/.", PathClass::Root, false, 0, false),
    pool("nonempty_dir/..", PathClass::Root, false, 0, false),
    pool("s_file", PathClass::SymlinkToFile, false, 0, false),
    pool("s_file/", PathClass::SymlinkToFile, true, 0, false),
    pool("s_dir", PathClass::SymlinkToDir, false, 0, false),
    pool("s_dir/", PathClass::SymlinkToDir, true, 0, false),
    pool("s_dir/f1", PathClass::File, false, 0, true),
    pool("s_broken", PathClass::BrokenSymlink, false, 0, false),
    pool("s_loop", PathClass::SymlinkLoop, false, 0, false),
    pool("s_loop/x", PathClass::ResolutionError, false, 0, true),
    pool("nonexist", PathClass::Missing, false, 0, false),
    pool("nonexist/", PathClass::Missing, true, 0, false),
    pool("/nonexist", PathClass::Missing, false, 1, false),
    pool("empty_dir/nonexist", PathClass::Missing, false, 0, false),
    pool("nonexist_dir/nonexist", PathClass::ResolutionError, false, 0, false),
    pool("f.txt/under_file", PathClass::ResolutionError, false, 0, false),
];

/// The fixture objects referenced by [`PATH_POOL`]. The symlink `s_dir`
/// points at `nonempty_dir` so that `s_dir/f1` resolves through a symlink
/// component.
pub fn fixture_preamble(script: &mut Script) {
    let mode_dir = FileMode::new(0o777);
    let mode_file = FileMode::new(0o644);
    script
        .call(OsCommand::Mkdir("empty_dir".into(), mode_dir))
        .call(OsCommand::Mkdir("nonempty_dir".into(), mode_dir))
        .call(OsCommand::Open(
            "nonempty_dir/f1".into(),
            OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
            Some(mode_file),
        ))
        .call(OsCommand::Open(
            "f.txt".into(),
            OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
            Some(mode_file),
        ))
        .call(OsCommand::Link("f.txt".into(), "hardlink_f".into()))
        .call(OsCommand::Symlink("f.txt".into(), "s_file".into()))
        .call(OsCommand::Symlink("nonempty_dir".into(), "s_dir".into()))
        .call(OsCommand::Symlink("no_such_target".into(), "s_broken".into()))
        .call(OsCommand::Symlink("s_loop".into(), "s_loop".into()));
}

/// A fresh script containing the standard fixture, named
/// `<group>___<case>`.
pub fn script_with_fixture(group: &str, case: &str) -> Script {
    let mut s = Script::new(format!("{group}___{case}"), group);
    fixture_preamble(&mut s);
    s
}

/// Sanitise a path for use inside a script name.
pub fn path_token(p: &str) -> String {
    if p.is_empty() {
        return "EMPTY".to_string();
    }
    p.chars()
        .map(|c| match c {
            '/' => 'S',
            '.' => 'D',
            c if c.is_ascii_alphanumeric() || c == '_' => c,
            _ => 'X',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn pool_paths_are_unique() {
        let set: BTreeSet<&str> = PATH_POOL.iter().map(|p| p.path).collect();
        assert_eq!(set.len(), PATH_POOL.len());
    }

    #[test]
    fn pool_covers_every_class() {
        let classes: BTreeSet<_> = PATH_POOL.iter().map(|p| p.class).collect();
        for c in [
            PathClass::File,
            PathClass::EmptyDir,
            PathClass::NonEmptyDir,
            PathClass::SymlinkToFile,
            PathClass::SymlinkToDir,
            PathClass::BrokenSymlink,
            PathClass::SymlinkLoop,
            PathClass::Missing,
            PathClass::ResolutionError,
            PathClass::Root,
            PathClass::Empty,
        ] {
            assert!(classes.contains(&c), "no pool path of class {c:?}");
        }
    }

    #[test]
    fn pool_covers_syntactic_properties() {
        assert!(PATH_POOL.iter().any(|p| p.trailing_slash));
        assert!(PATH_POOL.iter().any(|p| p.leading_slashes >= 3));
        assert!(PATH_POOL.iter().any(|p| p.symlink_component));
        // The impossible combination "empty path with trailing slash" must not
        // appear.
        assert!(!PATH_POOL.iter().any(|p| p.class == PathClass::Empty && p.trailing_slash));
    }

    #[test]
    fn trailing_slash_flag_matches_path_text() {
        for p in PATH_POOL {
            assert_eq!(p.path.len() > 1 && p.path.ends_with('/'), p.trailing_slash, "{}", p.path);
            assert_eq!(
                p.path.chars().take_while(|c| *c == '/').count(),
                p.leading_slashes,
                "{}",
                p.path
            );
        }
    }

    #[test]
    fn fixture_preamble_is_well_formed() {
        let s = script_with_fixture("stat", "case");
        assert_eq!(s.group, "stat");
        assert!(s.call_count() >= 9);
    }

    #[test]
    fn path_tokens_are_identifier_like() {
        for p in PATH_POOL {
            let t = path_token(p.path);
            assert!(!t.is_empty());
            assert!(t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'), "{t}");
        }
    }
}
