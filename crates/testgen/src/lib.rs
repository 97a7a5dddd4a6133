//! # SibylFS test-suite generator
//!
//! Generates the test suite of Fig. 1: combinatorially generated single-call
//! scripts (using equivalence partitioning over path and state properties,
//! §6.1), hand-written sequential scripts for descriptor I/O, directory
//! iteration and permissions, defect-scenario scripts targeting the findings
//! of §7.3, and optional seeded random sequences.
//!
//! The full suite contains on the order of ten thousand scripts (dominated,
//! as in the paper, by the `open` flag sweep and the two-path commands); the
//! quick suite keeps a few hundred representative scripts for fast iteration.

pub mod combinatorial;
pub mod contention;
pub mod fixture;
pub mod loadgen;
pub mod random;
pub mod sequences;

use std::collections::BTreeMap;

use sibylfs_script::Script;

pub use fixture::{PathClass, PoolPath, PATH_POOL};
pub use loadgen::{loadgen_scripts, LoadgenOptions};
pub use random::RandomOptions;

/// Which portions of the suite to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteOptions {
    /// Sweep the full `open` flag space (64 flag subsets × 3 access modes per
    /// path) rather than a representative selection.
    pub full_open_sweep: bool,
    /// Include the two-path all-pairs groups (`rename`, `link`, `symlink`).
    pub two_path_pairs: bool,
    /// Number of random sequence scripts to add (0 to disable).
    pub random_scripts: usize,
}

impl SuiteOptions {
    /// The full suite used by the acceptance/coverage/survey experiments.
    pub fn full() -> SuiteOptions {
        SuiteOptions { full_open_sweep: true, two_path_pairs: true, random_scripts: 200 }
    }

    /// A small but representative suite for fast iteration and unit tests.
    pub fn quick() -> SuiteOptions {
        SuiteOptions { full_open_sweep: false, two_path_pairs: false, random_scripts: 0 }
    }
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions::full()
    }
}

/// Generate the test suite.
pub fn generate_suite(opts: SuiteOptions) -> Vec<Script> {
    let mut out = Vec::new();
    out.extend(combinatorial::single_path_scripts());
    if opts.two_path_pairs {
        out.extend(combinatorial::two_path_scripts());
    }
    if opts.full_open_sweep {
        out.extend(combinatorial::open_scripts());
    } else {
        out.extend(combinatorial::open_scripts_quick());
    }
    out.extend(sequences::io_sequence_scripts());
    out.extend(sequences::readdir_scripts());
    out.extend(sequences::permission_scripts());
    out.extend(sequences::defect_scenario_scripts());
    out.extend(sequences::coverage_gap_scripts());
    out.extend(sequences::model_gap_scripts().into_iter().map(|(sc, _)| sc));
    out.extend(contention::contention_scripts(contention::ContentionOptions::new(3, 2)));
    if opts.random_scripts > 0 {
        out.extend(random::random_scripts(RandomOptions {
            scripts: opts.random_scripts,
            ..RandomOptions::default()
        }));
    }
    out
}

/// Per-group counts of a generated suite (the shape the paper reports: e.g.
/// ~2 500 autogenerated scripts for `rename` alone, §6.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuiteSummary {
    /// Total number of scripts.
    pub total: usize,
    /// Total number of libc calls across all scripts.
    pub calls: usize,
    /// Scripts per libc function group.
    pub per_group: BTreeMap<String, usize>,
}

/// Summarise a generated suite.
pub fn summarize_suite(suite: &[Script]) -> SuiteSummary {
    let mut per_group: BTreeMap<String, usize> = BTreeMap::new();
    for s in suite {
        *per_group.entry(s.group.clone()).or_default() += 1;
    }
    SuiteSummary {
        total: suite.len(),
        calls: suite.iter().map(|s| s.call_count()).sum(),
        per_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn quick_suite_is_small_and_diverse() {
        let suite = generate_suite(SuiteOptions::quick());
        let summary = summarize_suite(&suite);
        assert!(summary.total >= 500, "quick suite has {} scripts", summary.total);
        assert!(summary.total <= 2_000);
        // Every libc function group in scope is represented.
        for group in ["open", "rename", "stat", "readdir", "permissions", "pwrite", "unlink"] {
            assert!(summary.per_group.contains_key(group), "missing group {group}");
        }
    }

    #[test]
    fn full_suite_is_an_order_of_magnitude_larger() {
        let full = summarize_suite(&generate_suite(SuiteOptions::full()));
        let quick = summarize_suite(&generate_suite(SuiteOptions::quick()));
        assert!(full.total > 5 * quick.total);
        assert!(full.total > 9_000, "full suite has {} scripts", full.total);
        // open dominates, as in the paper.
        assert!(full.per_group["open"] > full.per_group["stat"]);
        // rename has a large all-pairs group (the paper reports ~2 500).
        assert!(full.per_group["rename"] > 1_000);
    }

    #[test]
    fn script_names_are_unique_across_the_full_suite() {
        let suite = generate_suite(SuiteOptions::full());
        let names: BTreeSet<_> = suite.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_suite(SuiteOptions::full());
        let b = generate_suite(SuiteOptions::full());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }
}
