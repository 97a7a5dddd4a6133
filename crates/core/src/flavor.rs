//! Model parameterisation: platform flavours and trait configuration.
//!
//! SibylFS is not a single specification but a family: the POSIX envelope plus
//! per-platform variants (Linux, OS X, FreeBSD) capturing real-world behaviour,
//! and the permissions "trait", which can be mixed in or left out (§1
//! contribution 2, §4 "Traits").

use std::fmt;
use std::str::FromStr;

use crate::errno::Errno;
use crate::flags::FileMode;

/// The platform whose behaviour the model describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Flavor {
    /// The POSIX envelope: the union of behaviour the standard allows.
    Posix,
    /// Linux (VFS + glibc conventions, LSB where it diverges from POSIX).
    Linux,
    /// OS X / Darwin.
    Mac,
    /// FreeBSD.
    FreeBsd,
}

impl Flavor {
    /// All flavours supported by the model.
    pub const ALL: &'static [Flavor] = &[Flavor::Posix, Flavor::Linux, Flavor::Mac, Flavor::FreeBsd];

    /// Short lower-case name, used in command lines and reports.
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Posix => "posix",
            Flavor::Linux => "linux",
            Flavor::Mac => "mac",
            Flavor::FreeBsd => "freebsd",
        }
    }

    /// Whether this flavour is the loose POSIX envelope.
    ///
    /// The POSIX flavour accepts the union of platform behaviours wherever
    /// POSIX leaves the choice unspecified or implementation-defined.
    pub fn is_posix(self) -> bool {
        matches!(self, Flavor::Posix)
    }

    /// The errno(s) allowed when `unlink` is applied to a directory.
    ///
    /// POSIX specifies `EPERM` (and says the call "may" fail with `EISDIR` on
    /// some systems); the LSB and Linux return `EISDIR`; OS X and FreeBSD
    /// follow POSIX and return `EPERM` (§7.3.2 "Error codes").
    pub fn unlink_dir_errors(self) -> &'static [Errno] {
        match self {
            Flavor::Posix => &[Errno::EPERM, Errno::EISDIR],
            Flavor::Linux => &[Errno::EISDIR],
            Flavor::Mac => &[Errno::EPERM],
            Flavor::FreeBsd => &[Errno::EPERM],
        }
    }

    /// The errno(s) allowed when attempting to rename the root directory.
    ///
    /// POSIX allows `EBUSY` or `EINVAL`; OS X returns `EISDIR` instead
    /// (§7.3.2 "Error codes").
    pub fn rename_root_errors(self) -> &'static [Errno] {
        match self {
            Flavor::Posix => &[Errno::EBUSY, Errno::EINVAL],
            Flavor::Linux => &[Errno::EBUSY, Errno::EINVAL],
            Flavor::Mac => &[Errno::EISDIR, Errno::EINVAL, Errno::EBUSY],
            Flavor::FreeBsd => &[Errno::EBUSY, Errno::EINVAL],
        }
    }

    /// The errno(s) allowed when removing the root directory with `rmdir`.
    pub fn rmdir_root_errors(self) -> &'static [Errno] {
        match self {
            Flavor::Posix => &[Errno::EBUSY, Errno::EINVAL, Errno::ENOTEMPTY, Errno::EACCES],
            Flavor::Linux => &[Errno::EBUSY, Errno::ENOTEMPTY],
            Flavor::Mac => &[Errno::EBUSY, Errno::EINVAL],
            Flavor::FreeBsd => &[Errno::EBUSY, Errno::EINVAL],
        }
    }

    /// Errors allowed when a path names an existing non-directory file but
    /// carries a trailing slash (e.g. `link /dir/ /f.txt/`).
    ///
    /// POSIX intends `ENOTDIR`; Linux sometimes resolves such paths and
    /// reports a later error such as `EEXIST` (§7.3.2 "Path resolution").
    pub fn trailing_slash_on_file_errors(self) -> &'static [Errno] {
        match self {
            Flavor::Posix => &[Errno::ENOTDIR],
            Flavor::Linux => &[Errno::ENOTDIR, Errno::EEXIST],
            Flavor::Mac => &[Errno::ENOTDIR],
            Flavor::FreeBsd => &[Errno::ENOTDIR],
        }
    }

    /// Whether `link(2)` follows a symlink given as the source path.
    ///
    /// POSIX makes this implementation-defined. Linux links the symlink
    /// itself; OS X follows the symlink and links its target.
    pub fn link_follows_symlink(self) -> LinkSymlinkBehavior {
        match self {
            Flavor::Posix => LinkSymlinkBehavior::Either,
            Flavor::Linux => LinkSymlinkBehavior::LinkSymlink,
            Flavor::Mac => LinkSymlinkBehavior::FollowSymlink,
            Flavor::FreeBsd => LinkSymlinkBehavior::FollowSymlink,
        }
    }

    /// Whether `pwrite` on a descriptor opened with `O_APPEND` writes at the
    /// supplied offset (POSIX) or appends to the end of the file (a
    /// long-standing Linux convention, §7.3.3).
    pub fn pwrite_append_ignores_offset(self) -> bool {
        matches!(self, Flavor::Linux)
    }

    /// The permission bits reported for symbolic links.
    ///
    /// Symlink permissions are implementation-defined: Linux reports 0o777,
    /// OS X and FreeBSD report 0o755 by default (§7.2 "trace acceptance").
    /// `None` means any mode is accepted (POSIX envelope).
    pub fn symlink_default_mode(self) -> Option<FileMode> {
        match self {
            Flavor::Posix => None,
            Flavor::Linux => Some(FileMode::new(0o777)),
            Flavor::Mac => Some(FileMode::new(0o755)),
            Flavor::FreeBsd => Some(FileMode::new(0o755)),
        }
    }

    /// Whether a `write` of zero bytes on a bad file descriptor may return 0
    /// instead of `EBADF` (implementation-defined; observed on Linux).
    pub fn zero_write_on_bad_fd_may_succeed(self) -> bool {
        matches!(self, Flavor::Posix | Flavor::Linux)
    }

    /// Errors allowed by `open` with `O_CREAT` when the path has a trailing
    /// slash and the final component does not exist.
    pub fn open_creat_trailing_slash_errors(self) -> &'static [Errno] {
        match self {
            Flavor::Posix => &[Errno::EISDIR, Errno::ENOENT, Errno::ENOTDIR],
            Flavor::Linux => &[Errno::EISDIR],
            Flavor::Mac => &[Errno::ENOENT, Errno::EISDIR],
            Flavor::FreeBsd => &[Errno::ENOENT, Errno::EISDIR],
        }
    }
}

/// How `link` treats a symlink source (see [`Flavor::link_follows_symlink`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSymlinkBehavior {
    /// The new name becomes a hard link to the symlink itself (Linux).
    LinkSymlink,
    /// The symlink is followed and the new name links to its target (OS X).
    FollowSymlink,
    /// Either behaviour is allowed (the POSIX envelope).
    Either,
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown flavour name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFlavorError(pub String);

impl fmt::Display for ParseFlavorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown flavor: {} (expected posix|linux|mac|freebsd)", self.0)
    }
}

impl std::error::Error for ParseFlavorError {}

impl FromStr for Flavor {
    type Err = ParseFlavorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "posix" => Ok(Flavor::Posix),
            "linux" => Ok(Flavor::Linux),
            "mac" | "osx" | "os_x" | "darwin" => Ok(Flavor::Mac),
            "freebsd" | "bsd" => Ok(Flavor::FreeBsd),
            other => Err(ParseFlavorError(other.to_string())),
        }
    }
}

/// Complete configuration of the specification used for checking.
///
/// Combines a [`Flavor`] with the optional permissions trait of §4 and the
/// checking parameters described in §2 ("various flags control further
/// checking parameters, such as whether the initial process runs with root
/// privileges").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecConfig {
    /// Which platform variant of the model to use.
    pub flavor: Flavor,
    /// Whether the permissions trait is mixed in. When `false`, all objects
    /// are accessible to all users and permission errors never arise.
    pub permissions: bool,
    /// Whether the initial process runs with root privileges.
    pub root_user: bool,
}

impl SpecConfig {
    /// The configuration used for the bulk of the paper's testing: a given
    /// flavour, permissions on, initial process root.
    pub fn standard(flavor: Flavor) -> SpecConfig {
        SpecConfig {
            flavor,
            permissions: true,
            root_user: true,
        }
    }

    /// "Core without permissions": permission information is ignored and all
    /// files are accessible by all users (§4 "Traits").
    pub fn without_permissions(flavor: Flavor) -> SpecConfig {
        SpecConfig { permissions: false, ..SpecConfig::standard(flavor) }
    }

    /// A configuration whose initial process is an unprivileged user, used by
    /// the permission-focused test groups.
    pub fn unprivileged(flavor: Flavor) -> SpecConfig {
        SpecConfig { root_user: false, ..SpecConfig::standard(flavor) }
    }
}

impl Default for SpecConfig {
    fn default() -> Self {
        SpecConfig::standard(Flavor::Posix)
    }
}

impl fmt::Display for SpecConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            self.flavor,
            if self.permissions { "" } else { ",no-perms" },
            if self.root_user { "" } else { ",non-root" },
        )
    }
}

/// Parse a [`SpecConfig`] from its `Display` syntax: a flavour name followed
/// by comma-separated modifiers (`no-perms`, `non-root`).
pub fn parse_spec_config(s: &str) -> Result<SpecConfig, String> {
    let mut parts = s.split(',');
    let flavor_str = parts.next().unwrap_or("").trim();
    let flavor: Flavor = flavor_str.parse().map_err(|e| format!("{e}"))?;
    let mut cfg = SpecConfig::standard(flavor);
    for part in parts {
        match part.trim() {
            "no-perms" => cfg.permissions = false,
            "non-root" => cfg.root_user = false,
            other => return Err(format!("unknown config modifier: {other:?}")),
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavor_parse_round_trip() {
        for f in Flavor::ALL {
            assert_eq!(f.name().parse::<Flavor>().unwrap(), *f);
        }
        assert_eq!("osx".parse::<Flavor>().unwrap(), Flavor::Mac);
        assert!("plan9".parse::<Flavor>().is_err());
    }

    #[test]
    fn posix_envelope_is_loosest_for_unlink_dir() {
        let posix = Flavor::Posix.unlink_dir_errors();
        for f in [Flavor::Linux, Flavor::Mac, Flavor::FreeBsd] {
            for e in f.unlink_dir_errors() {
                assert!(posix.contains(e), "POSIX envelope must contain {e} from {f}");
            }
        }
    }

    #[test]
    fn linux_pwrite_convention() {
        assert!(Flavor::Linux.pwrite_append_ignores_offset());
        assert!(!Flavor::Posix.pwrite_append_ignores_offset());
        assert!(!Flavor::Mac.pwrite_append_ignores_offset());
    }

    #[test]
    fn standard_config_display() {
        let cfg = SpecConfig::standard(Flavor::Linux);
        assert_eq!(cfg.to_string(), "linux");
        let cfg = SpecConfig::unprivileged(Flavor::Mac);
        assert!(cfg.to_string().contains("non-root"));
    }

    #[test]
    fn symlink_modes() {
        assert_eq!(Flavor::Linux.symlink_default_mode(), Some(FileMode::new(0o777)));
        assert_eq!(Flavor::Mac.symlink_default_mode(), Some(FileMode::new(0o755)));
        assert_eq!(Flavor::Posix.symlink_default_mode(), None);
    }

    #[test]
    fn spec_config_display_round_trip() {
        for cfg in [
            SpecConfig::standard(Flavor::Linux),
            SpecConfig::unprivileged(Flavor::Mac),
            SpecConfig::without_permissions(Flavor::FreeBsd),
        ] {
            let s = cfg.to_string();
            assert_eq!(parse_spec_config(&s).unwrap(), cfg, "round trip of {s:?}");
        }
        assert!(parse_spec_config("plan9").is_err());
        assert!(parse_spec_config("linux,frobnicate").is_err());
        assert!(parse_spec_config("linux,timestamps").is_err());
        assert!(parse_spec_config("linux,no-por").is_err());
    }
}
