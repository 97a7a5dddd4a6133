//! Survey: run the quick test suite against a selection of simulated
//! configurations and print the merged acceptance table plus the
//! configuration-specific deviations (a miniature of §7.3's survey and of the
//! `exp_survey` experiment binary).
//!
//! Run with: `cargo run --release --example survey_configs`

use sibylfs::prelude::*;

fn main() {
    let suite = generate_suite(SuiteOptions::quick());
    println!("suite: {} scripts\n", suite.len());

    let selection = [
        "linux/ext4",
        "linux/btrfs",
        "linux/hfsplus-trusty",
        "linux/sshfs-tmpfs",
        "linux/posixovl-vfat",
        "linux/openzfs-trusty",
        "mac/hfsplus",
        "mac/openzfs",
        "freebsd/ufs",
    ];

    let mut summaries = Vec::new();
    for name in selection {
        let profile = configs::by_name(name).expect("registered configuration");
        let sim = SimExecutor::new(profile.clone());
        let traces = execute_suite(&sim, &suite, ExecOptions::default(), 4).unwrap();
        let spec = SpecConfig::standard(profile.platform);
        let (checked, stats) = check_traces_parallel(&spec, &traces, CheckOptions::default(), 4);
        eprintln!(
            "checked {:28} {:>5}/{:<5} accepted in {:.2}s",
            name, stats.accepted, stats.traces, stats.elapsed_secs
        );
        summaries.push(summarize_run(name, profile.platform.name(), &checked));
    }

    let merged = merge_runs(summaries);
    println!("{}", render_merged_markdown(&merged));
}
