//! End-to-end concurrency auditing: a full characterization roster runs
//! through the result cache with the simrace hooks recording, the
//! vector-clock checker must find nothing, and recording must not perturb
//! results bit-for-bit.

use spec2017_workchar::simrace;
use spec2017_workchar::workchar::cache::{encode_record, CacheContext};
use spec2017_workchar::workchar::characterize::{
    characterize_pair, characterize_pairs_with, RunConfig,
};
use spec2017_workchar::workload_synth::cpu2017;
use spec2017_workchar::workload_synth::profile::InputSize;

#[test]
fn full_roster_run_is_race_clean() {
    // The scheduler hands results back through `join` and records nothing;
    // the locks left to audit are the store's index shards (taken on every
    // lookup and insert) and the metrics registry.
    let config = RunConfig::quick();
    let apps = cpu2017::suite();
    let pairs: Vec<_> = apps.iter().flat_map(|a| a.pairs(InputSize::Ref)).collect();
    let dir = std::env::temp_dir().join(format!("workchar-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheContext::open(&dir).expect("temp cache opens");
    let _guard = simrace::test_support::enabled();
    let records =
        characterize_pairs_with(&pairs, &config, Some(&cache)).expect("roster characterizes");
    let events = simrace::drain();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(records.len(), pairs.len());
    assert!(
        events
            .iter()
            .any(|e| e.what.starts_with("store/index-shard:")),
        "the store's index shards must emit sync events while recording is on"
    );
    assert!(
        !events.iter().any(|e| e.what.starts_with("sched/")),
        "the scheduler has no locks left to record"
    );
    let report = simrace::checker::check_events("race/roster", &events);
    assert!(
        report.is_empty(),
        "full-roster run must be race-free:\n{}",
        report.to_table()
    );
}

#[test]
fn recording_does_not_perturb_results() {
    // The hooks observe synchronization; they must never change what the
    // pipeline computes. Same pair, recording off vs on, identical payload
    // bytes through the cache codec.
    let config = RunConfig::quick();
    let app = cpu2017::app("505.mcf_r").expect("known app");
    let pair = &app.pairs(InputSize::Ref)[0];
    let off = characterize_pair(pair, &config).expect("baseline run");
    let on = {
        let _guard = simrace::test_support::enabled();
        let record = characterize_pair(pair, &config).expect("recorded run");
        simrace::drain();
        record
    };
    assert_eq!(
        encode_record(&off),
        encode_record(&on),
        "sync recording changed the characterization payload"
    );
}
