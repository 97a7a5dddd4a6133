//! Behaviour profiles for the simulated file systems under test.
//!
//! The paper surveys ~40 real system configurations (combinations of OS,
//! file system, libc, and mount options) whose externally visible behaviour
//! differs in the choice of error codes, platform conventions, and outright
//! defects (§7.3). Because the oracle only ever observes the libc-level trace,
//! a simulated implementation that makes the same concrete choices — and has
//! the same bugs — exercises exactly the same checker code paths. Each
//! [`BehaviorProfile`] captures one configuration's choices.

use sibylfs_core::errno::Errno;
use sibylfs_core::flavor::Flavor;

/// The order in which `readdir` returns directory entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaddirOrder {
    /// Lexicographically sorted (e.g. tmpfs-like behaviour).
    Sorted,
    /// Reverse-sorted (stands in for hash-ordered on-disk layouts).
    Reverse,
    /// Insertion order (stands in for log-structured layouts).
    Insertion,
}

/// The externally visible behaviour of one file-system configuration.
///
/// Fields are grouped as: identity, readdir order, feature limitations,
/// injected defects (each corresponding to a finding in §7.3 of the paper),
/// and mount-option effects. The error codes and conventions that follow
/// the platform alone are methods, derived from [`BehaviorProfile::platform`].
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorProfile {
    /// Configuration name, e.g. `"linux/ext4"`.
    pub name: String,
    /// The operating system the configuration runs on (and hence the flavour
    /// of the specification it is expected to conform to).
    pub platform: Flavor,
    /// Free-text description shown in survey reports.
    pub description: String,

    /// `readdir` ordering.
    pub readdir_order: ReaddirOrder,

    // --- Feature limitations -------------------------------------------------
    /// Whether directory link counts are maintained (`false` for Btrfs,
    /// SSHFS, Linux HFS+ — §7.3.2 "Core behaviour").
    pub supports_dir_nlink: bool,
    /// Whether regular-file link counts are maintained (`false` for
    /// SSHFS/SFTP).
    pub supports_file_nlink: bool,
    /// Whether `chmod` is supported (`false` returns `EOPNOTSUPP`, as in the
    /// Ubuntu "Trusty" Linux HFS+ defect, §7.3.4).
    pub chmod_supported: bool,
    /// Errno returned when creating a hard link to a symlink, if the
    /// configuration refuses (Linux HFS+ returns `EPERM`, §7.3.2).
    pub link_to_symlink_errno: Option<Errno>,

    // --- Injected defects (each reproduces a §7.3 finding) ------------------
    /// OS X VFS `pwrite` integer underflow: a negative offset is interpreted
    /// as a huge positive value and the process is killed by `SIGXFSZ`
    /// instead of receiving `EINVAL` (§7.3.4). Simulated as an `EFBIG` error
    /// return, which the oracle flags because only `EINVAL` is allowed.
    pub pwrite_negative_offset_underflow: bool,
    /// OpenZFS-on-Linux 0.6.3: `O_APPEND` descriptors do not seek to the end
    /// before `write`/`pwrite`, overwriting data (§7.3.4).
    pub o_append_ignored: bool,
    /// posixovl/VFAT: certain `rename` patterns fail to decrement the hard
    /// link count, leaking storage until the volume reports `ENOSPC` even
    /// when empty (§7.3.5).
    pub rename_link_count_leak: bool,
    /// FreeBSD: `open(O_CREAT|O_DIRECTORY|O_EXCL)` on a symlink to a
    /// directory returns `ENOTDIR` *and* replaces the symlink with a new
    /// file, violating the invariant that failing calls leave the state
    /// unchanged (§7.3.2 "Invariants").
    pub creat_excl_symlink_replaces: bool,
    /// OpenZFS on OS X: creating a file inside a deleted working directory
    /// succeeds (and in the real system sends the process into an unkillable
    /// spin, Fig. 8). Simulated as an incorrect success where the oracle
    /// requires `ENOENT`.
    pub create_in_deleted_cwd_succeeds: bool,
    /// SSHFS: renaming over a non-empty directory reports `EPERM` (observed
    /// in the paper's worked example, Fig. 4) instead of
    /// `EEXIST`/`ENOTEMPTY`.
    pub rename_nonempty_eperm: bool,

    // --- Mount-option effects (the SSHFS administrator scenario, §7.3.4) ----
    /// Newly created objects are owned by the mount owner (root) regardless
    /// of the calling process.
    pub creation_owner_root: bool,
    /// Permission bits are not enforced at all (SSHFS `allow_other` without
    /// `default_permissions`).
    pub permissions_not_enforced: bool,
    /// The process umask is bitwise-ORed with this value on every creation
    /// (SSHFS without a `umask` mount option: forced 0o022).
    pub forced_umask_or: Option<u32>,
    /// The process umask is ignored entirely (SSHFS with `umask=0000`).
    pub umask_ignored: bool,

    /// Total storage capacity in bytes, if the configuration models a small
    /// volume (used by the posixovl leak scenario); `None` means unlimited.
    pub capacity_bytes: Option<u64>,
}

impl BehaviorProfile {
    /// A well-behaved baseline for the given platform, from which the named
    /// configurations are derived by overriding individual fields.
    pub fn baseline(name: &str, platform: Flavor) -> BehaviorProfile {
        BehaviorProfile {
            name: name.to_string(),
            platform,
            description: String::new(),
            readdir_order: ReaddirOrder::Sorted,
            supports_dir_nlink: true,
            supports_file_nlink: true,
            chmod_supported: true,
            link_to_symlink_errno: None,
            pwrite_negative_offset_underflow: false,
            o_append_ignored: false,
            rename_link_count_leak: false,
            creat_excl_symlink_replaces: false,
            create_in_deleted_cwd_succeeds: false,
            rename_nonempty_eperm: false,
            creation_owner_root: false,
            permissions_not_enforced: false,
            forced_umask_or: None,
            umask_ignored: false,
            capacity_bytes: None,
        }
    }

    /// Errno returned when `unlink` is applied to a directory.
    pub fn unlink_dir_errno(&self) -> Errno {
        match self.platform {
            Flavor::Linux => Errno::EISDIR,
            _ => Errno::EPERM,
        }
    }

    /// Errno returned when attempting to rename or remove the root directory.
    pub fn rename_root_errno(&self) -> Errno {
        match self.platform {
            Flavor::Mac => Errno::EISDIR,
            _ => Errno::EBUSY,
        }
    }

    /// Errno of `open(O_CREAT)` on a missing name with a trailing slash.
    pub fn open_creat_trailing_slash_errno(&self) -> Errno {
        match self.platform {
            Flavor::Linux => Errno::EISDIR,
            _ => Errno::ENOENT,
        }
    }

    /// Whether `link` follows a symlink source (not on Linux).
    pub fn link_follows_symlink(&self) -> bool {
        self.platform != Flavor::Linux
    }

    /// Whether `pwrite` with `O_APPEND` appends (the Linux convention, §7.3.3).
    pub fn pwrite_append_ignores_offset(&self) -> bool {
        self.platform == Flavor::Linux
    }

    /// The mode bits reported for symlinks.
    pub fn symlink_mode(&self) -> u32 {
        match self.platform {
            Flavor::Linux => 0o777,
            _ => 0o755,
        }
    }

    /// Whether a zero-length `write` on a bad descriptor returns 0, not EBADF.
    pub fn zero_write_bad_fd_returns_zero(&self) -> bool {
        self.platform == Flavor::Linux
    }

    /// Set the human-readable description (builder style).
    pub fn describe(mut self, text: &str) -> BehaviorProfile {
        self.description = text.to_string();
        self
    }

    /// Whether this profile contains any injected defect.
    pub fn has_defect(&self) -> bool {
        self.pwrite_negative_offset_underflow
            || self.o_append_ignored
            || self.rename_link_count_leak
            || self.creat_excl_symlink_replaces
            || self.create_in_deleted_cwd_succeeds
            || self.rename_nonempty_eperm
            || !self.chmod_supported
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_platform_conventions() {
        let linux = BehaviorProfile::baseline("linux/test", Flavor::Linux);
        assert_eq!(linux.unlink_dir_errno(), Errno::EISDIR);
        assert!(linux.pwrite_append_ignores_offset());
        assert_eq!(linux.symlink_mode(), 0o777);
        assert!(!linux.link_follows_symlink());

        let mac = BehaviorProfile::baseline("mac/test", Flavor::Mac);
        assert_eq!(mac.unlink_dir_errno(), Errno::EPERM);
        assert!(!mac.pwrite_append_ignores_offset());
        assert_eq!(mac.rename_root_errno(), Errno::EISDIR);
        assert!(mac.link_follows_symlink());
    }

    #[test]
    fn baseline_has_no_defects() {
        for flavor in [Flavor::Linux, Flavor::Mac, Flavor::FreeBsd] {
            assert!(!BehaviorProfile::baseline("x", flavor).has_defect());
        }
    }
}
