//! The registry of named file-system configurations surveyed by the
//! reproduction.
//!
//! Each configuration corresponds to one of the OS/file-system/mount-option
//! combinations the paper tested (§7); the defective ones reproduce the
//! specific findings of §7.3. The names follow a `platform/filesystem`
//! convention (with a suffix for mount options or distribution versions).

use sibylfs_core::errno::Errno;
use sibylfs_core::flavor::Flavor;

use crate::behavior::{BehaviorProfile, ReaddirOrder};

/// All registered configurations.
pub fn all_configs() -> Vec<BehaviorProfile> {
    let mut v = Vec::new();

    // --- Linux: the "standard" well-behaved family ---------------------------
    for fs in ["ext2", "ext3", "ext4", "tmpfs", "xfs", "f2fs"] {
        v.push(
            BehaviorProfile::baseline(&format!("linux/{fs}"), Flavor::Linux)
                .describe("standard Linux file system (glibc, kernel 3.19)"),
        );
    }
    // A musl-libc variation of ext4 (identical file-system behaviour; present
    // so the survey covers a libc axis as the paper does).
    v.push(
        BehaviorProfile::baseline("linux/ext4-musl", Flavor::Linux)
            .describe("ext4 with the musl libc"),
    );

    // Btrfs: no directory link counts (§7.3.2 "Core behaviour").
    let mut btrfs = BehaviorProfile::baseline("linux/btrfs", Flavor::Linux)
        .describe("Btrfs: directory link counts are not maintained");
    btrfs.supports_dir_nlink = false;
    btrfs.readdir_order = ReaddirOrder::Insertion;
    v.push(btrfs);

    // MINIX / NILFS2: well-behaved but with different readdir ordering.
    let mut minix = BehaviorProfile::baseline("linux/minix", Flavor::Linux)
        .describe("MINIX fs: insertion-ordered directory listings");
    minix.readdir_order = ReaddirOrder::Insertion;
    v.push(minix);
    let mut nilfs = BehaviorProfile::baseline("linux/nilfs2", Flavor::Linux)
        .describe("NILFS2: log-structured, reverse-ordered directory listings");
    nilfs.readdir_order = ReaddirOrder::Reverse;
    v.push(nilfs);

    // NFS over tmpfs: well-behaved for the scope we test.
    v.push(
        BehaviorProfile::baseline("linux/nfsv3-tmpfs", Flavor::Linux)
            .describe("NFSv3 export of tmpfs"),
    );
    v.push(
        BehaviorProfile::baseline("linux/nfsv4-tmpfs", Flavor::Linux)
            .describe("NFSv4 export of tmpfs"),
    );
    v.push(
        BehaviorProfile::baseline("linux/fusexmp-tmpfs", Flavor::Linux)
            .describe("FUSE pass-through (fusexmp) backed by tmpfs"),
    );
    v.push(
        BehaviorProfile::baseline("linux/bind-tmpfs", Flavor::Linux)
            .describe("bind mount of tmpfs"),
    );
    v.push(
        BehaviorProfile::baseline("linux/overlay-tmpfs-ext4", Flavor::Linux)
            .describe("overlayfs with tmpfs upper and ext4 lower"),
    );
    v.push(
        BehaviorProfile::baseline("linux/aufs-tmpfs-ext4", Flavor::Linux)
            .describe("aufs with tmpfs and ext4 branches"),
    );
    v.push(
        BehaviorProfile::baseline("linux/glusterfs-xfs", Flavor::Linux)
            .describe("GlusterFS single-brick volume on XFS"),
    );

    // Linux HFS+: hard links to symlinks refused, no dir link counts.
    let mut hfs_linux = BehaviorProfile::baseline("linux/hfsplus", Flavor::Linux)
        .describe("HFS+ on Linux: EPERM for hard links to symlinks");
    hfs_linux.link_to_symlink_errno = Some(Errno::EPERM);
    hfs_linux.supports_dir_nlink = false;
    v.push(hfs_linux);

    // Linux HFS+ on Ubuntu Trusty 3.13: chmod unsupported (§7.3.4).
    let mut hfs_trusty = BehaviorProfile::baseline("linux/hfsplus-trusty", Flavor::Linux)
        .describe("HFS+ on Ubuntu Trusty 3.13: chmod returns EOPNOTSUPP");
    hfs_trusty.link_to_symlink_errno = Some(Errno::EPERM);
    hfs_trusty.supports_dir_nlink = false;
    hfs_trusty.chmod_supported = false;
    v.push(hfs_trusty);

    // SSHFS over tmpfs: no link counts, EPERM on rename over non-empty dir,
    // root-owned creations, forced umask (§7.3.4).
    let mut sshfs = BehaviorProfile::baseline("linux/sshfs-tmpfs", Flavor::Linux)
        .describe("SSHFS backed by tmpfs: SFTP protocol limitations");
    sshfs.supports_dir_nlink = false;
    sshfs.supports_file_nlink = false;
    sshfs.rename_nonempty_eperm = true;
    sshfs.creation_owner_root = true;
    sshfs.forced_umask_or = Some(0o022);
    v.push(sshfs);

    // SSHFS mount-option variants for the administrator scenario (§7.3.4).
    let mut sshfs_allow = BehaviorProfile::baseline("linux/sshfs-allow-other", Flavor::Linux)
        .describe("SSHFS with allow_other only: permissions not enforced");
    sshfs_allow.supports_dir_nlink = false;
    sshfs_allow.supports_file_nlink = false;
    sshfs_allow.rename_nonempty_eperm = true;
    sshfs_allow.creation_owner_root = true;
    sshfs_allow.permissions_not_enforced = true;
    sshfs_allow.forced_umask_or = Some(0o022);
    v.push(sshfs_allow);

    let mut sshfs_defperm =
        BehaviorProfile::baseline("linux/sshfs-allow-other-default-permissions", Flavor::Linux)
            .describe("SSHFS with allow_other,default_permissions: permissions enforced, root-owned creations");
    sshfs_defperm.supports_dir_nlink = false;
    sshfs_defperm.supports_file_nlink = false;
    sshfs_defperm.rename_nonempty_eperm = true;
    sshfs_defperm.creation_owner_root = true;
    sshfs_defperm.forced_umask_or = Some(0o022);
    v.push(sshfs_defperm);

    let mut sshfs_umask = BehaviorProfile::baseline("linux/sshfs-umask0000", Flavor::Linux)
        .describe("SSHFS with umask=0000: the process umask is ignored entirely");
    sshfs_umask.supports_dir_nlink = false;
    sshfs_umask.supports_file_nlink = false;
    sshfs_umask.rename_nonempty_eperm = true;
    sshfs_umask.creation_owner_root = true;
    sshfs_umask.umask_ignored = true;
    v.push(sshfs_umask);

    // posixovl over VFAT: the storage leak (§7.3.5), on a small volume.
    let mut posixovl = BehaviorProfile::baseline("linux/posixovl-vfat", Flavor::Linux)
        .describe("posixovl over VFAT: rename leaks hard-link counts and storage");
    posixovl.rename_link_count_leak = true;
    posixovl.capacity_bytes = Some(256 * 1024);
    v.push(posixovl);

    // posixovl over NTFS-3G: same overlay, larger volume, no leak observed.
    v.push(
        BehaviorProfile::baseline("linux/posixovl-ntfs3g", Flavor::Linux)
            .describe("posixovl over NTFS-3G"),
    );

    // OpenZFS on Linux, current and the defective 0.6.3 (§7.3.4).
    v.push(
        BehaviorProfile::baseline("linux/openzfs", Flavor::Linux).describe("OpenZFS on Linux"),
    );
    let mut zfs_old = BehaviorProfile::baseline("linux/openzfs-trusty", Flavor::Linux)
        .describe("OpenZFS 0.6.3 on Ubuntu Trusty: O_APPEND does not seek to end of file");
    zfs_old.o_append_ignored = true;
    v.push(zfs_old);

    // --- OS X -----------------------------------------------------------------
    let mut mac_hfs = BehaviorProfile::baseline("mac/hfsplus", Flavor::Mac)
        .describe("OS X 10.9.5 HFS+: VFS pwrite negative-offset underflow");
    mac_hfs.pwrite_negative_offset_underflow = true;
    v.push(mac_hfs);

    v.push(
        BehaviorProfile::baseline("mac/nfsv3-hfsplus", Flavor::Mac)
            .describe("NFSv3 export of HFS+ on OS X"),
    );
    v.push(
        BehaviorProfile::baseline("mac/fusexmp-hfsplus", Flavor::Mac)
            .describe("FUSE pass-through on OS X"),
    );
    let mut mac_sshfs = BehaviorProfile::baseline("mac/sshfs-hfsplus", Flavor::Mac)
        .describe("SSHFS on OS X backed by HFS+");
    mac_sshfs.supports_file_nlink = false;
    mac_sshfs.rename_nonempty_eperm = true;
    v.push(mac_sshfs);
    v.push(
        BehaviorProfile::baseline("mac/fuse-ext2", Flavor::Mac).describe("fuse-ext2 on OS X"),
    );
    v.push(
        BehaviorProfile::baseline("mac/paragon-extfs", Flavor::Mac)
            .describe("Paragon ExtFS on OS X"),
    );

    // OpenZFS on OS X: the disconnected-directory spin (Fig. 8) plus the VFS
    // pwrite underflow it inherits from the OS X VFS layer.
    let mut mac_zfs = BehaviorProfile::baseline("mac/openzfs", Flavor::Mac)
        .describe("OpenZFS 1.3.0 on OS X 10.9.5: unkillable spin in a deleted cwd");
    mac_zfs.create_in_deleted_cwd_succeeds = true;
    mac_zfs.pwrite_negative_offset_underflow = true;
    v.push(mac_zfs);

    // --- FreeBSD ----------------------------------------------------------------
    let mut ufs = BehaviorProfile::baseline("freebsd/ufs", Flavor::FreeBsd)
        .describe("FreeBSD ufs: O_CREAT|O_EXCL on a symlink replaces it and returns ENOTDIR");
    ufs.creat_excl_symlink_replaces = true;
    v.push(ufs);
    let mut bsd_tmpfs = BehaviorProfile::baseline("freebsd/tmpfs", Flavor::FreeBsd)
        .describe("FreeBSD tmpfs");
    bsd_tmpfs.creat_excl_symlink_replaces = true;
    v.push(bsd_tmpfs);

    v
}

/// Look up a configuration by name.
pub fn by_name(name: &str) -> Option<BehaviorProfile> {
    all_configs().into_iter().find(|c| c.name == name)
}

/// The names of all registered configurations.
pub fn config_names() -> Vec<String> {
    all_configs().into_iter().map(|c| c.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_large_and_unique() {
        let names = config_names();
        assert!(names.len() >= 30, "expected a broad survey, got {}", names.len());
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate configuration names");
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for name in config_names() {
            let c = by_name(&name).unwrap();
            assert_eq!(c.name, name);
            assert!(!c.description.is_empty(), "{name} needs a description");
        }
        assert!(by_name("plan9/fossil").is_none());
    }

    #[test]
    fn defective_configs_are_flagged() {
        for name in [
            "linux/posixovl-vfat",
            "linux/openzfs-trusty",
            "linux/hfsplus-trusty",
            "mac/hfsplus",
            "mac/openzfs",
            "freebsd/ufs",
            "linux/sshfs-tmpfs",
        ] {
            assert!(by_name(name).unwrap().has_defect(), "{name} should report a defect");
        }
        assert!(!by_name("linux/ext4").unwrap().has_defect());
    }

    #[test]
    fn platform_distribution_covers_all_three_operating_systems() {
        let configs = all_configs();
        for flavor in [Flavor::Linux, Flavor::Mac, Flavor::FreeBsd] {
            assert!(configs.iter().any(|c| c.platform == flavor), "missing {flavor}");
        }
    }
}
