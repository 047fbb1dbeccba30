//! The `simpoint-ref` pass: representative-interval analysis of every
//! CPU2017 `ref` pair with no store.

use std::time::Instant;

use simpoint::{SimpointConfig, SimpointRecord};
use simstore::{Key, Scheduler};
use workchar::characterize::{characterize_pair, prepared_run, RunConfig};
use workchar::simpoints::run_roster;
use workload_synth::profile::{AppInputPair, InputSize};

use crate::digest::simpoint_digest;
use crate::roster::Roster;
use crate::spans::{Recorder, Span};

/// What one pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Pairs attempted.
    pub units: u64,
    /// Pairs that failed.
    pub failed: u64,
    /// Digest of every record's encoding; `None` when a pair failed.
    pub digest: Option<Key>,
    /// The records, with seed-0 ids, when every pair succeeded.
    pub records: Vec<SimpointRecord>,
}

fn finish(
    started: Instant,
    roster: &Roster,
    units: u64,
    result: Result<Vec<SimpointRecord>, u64>,
) -> Pass {
    let wall_s = started.elapsed().as_secs_f64();
    match result {
        Ok(mut records) => {
            for r in &mut records {
                r.id = roster.paper_id(&r.id).to_string();
            }
            Pass {
                wall_s,
                units,
                failed: 0,
                digest: Some(simpoint_digest(&records)),
                records,
            }
        }
        Err(failed) => Pass {
            wall_s,
            units,
            failed,
            digest: None,
            records: Vec::new(),
        },
    }
}

/// One pass through the program's entry point, `simpoints::run_roster`.
pub fn pass(roster: &Roster, config: &RunConfig, sp: &SimpointConfig) -> Pass {
    let started = Instant::now();
    let units = roster.cpu17_pairs(InputSize::Ref).len() as u64;
    let result = run_roster(&roster.cpu17, InputSize::Ref, config, sp, None).map_err(|e| match e {
        workchar::error::Error::Characterization { failures, .. } => failures.len() as u64,
        _ => units,
    });
    finish(started, roster, units, result)
}

/// The same pass one layer down: the scheduler batch is submitted here and
/// each job makes `analyze_pair`'s calls with a span around each.
pub fn traced_pass(
    roster: &Roster,
    config: &RunConfig,
    sp: &SimpointConfig,
    rec: &mut Recorder,
) -> Pass {
    let started = Instant::now();
    let pairs = roster.cpu17_pairs(InputSize::Ref);
    let root = rec.open("bench.pass", None);
    let batch = rec.open("store.batch", Some(root));
    let epoch = rec.epoch();
    let report = Scheduler::available().run(
        pairs.len(),
        |i| pairs[i].id(),
        |i| traced_pair(&pairs[i], config, sp, epoch),
        |_| {},
    );
    rec.close(batch);
    let mut records = Vec::new();
    for (record, spans) in report.results.into_iter().flatten() {
        rec.adopt(spans, batch);
        records.push(record);
    }
    rec.close(root);
    let failed = report.failures.len() as u64;
    let result = if failed == 0 {
        Ok(records)
    } else {
        Err(failed)
    };
    finish(started, roster, pairs.len() as u64, result)
}

/// `analyze_pair`, one layer down.
fn traced_pair(
    pair: &AppInputPair<'_>,
    config: &RunConfig,
    sp: &SimpointConfig,
    epoch: Instant,
) -> (SimpointRecord, Vec<Span>) {
    let mut rec = Recorder::new(epoch);
    let job = rec.open("simpoint.pair", None);
    let (trace, hints) = rec
        .time("workload.prepare", Some(job), || prepared_run(pair, config))
        .unwrap_or_else(|e| panic!("{e}"));
    let analysis = rec
        .time("simpoint.analyze", Some(job), || {
            simpoint::analyze(&config.system, &trace, &hints, sp)
        })
        .unwrap_or_else(|e| panic!("pair {}: {e:?}", pair.id()));
    let record = SimpointRecord::from_analysis(&pair.id(), &analysis);
    rec.close(job);
    (record, rec.into_spans())
}

/// Σ host time of full `characterize_pair` runs over `pairs`, per job,
/// on the same scheduler the campaign uses.
pub fn characterize_thread_s(pairs: &[AppInputPair<'_>], config: &RunConfig) -> f64 {
    let report = Scheduler::available().run(
        pairs.len(),
        |i| pairs[i].id(),
        |i| {
            let t = Instant::now();
            std::hint::black_box(
                characterize_pair(&pairs[i], config).unwrap_or_else(|e| panic!("{e}")),
            );
            t.elapsed().as_secs_f64()
        },
        |_| {},
    );
    report.results.into_iter().flatten().sum()
}
