//! The three workloads: set-up, the timed loop of passes, and the metrics
//! each run reports.
//!
//! Every workload is a closed loop in one process: a campaign pass runs on
//! `Scheduler::available()` workers, and the next pass starts when it
//! ends, until the run's seconds are spent. Process metrics are on as in
//! `reproduce`; tracing, profiling and race auditing are off.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use simpoint::{SimpointConfig, SimpointRecord};
use simstore::StatsSnapshot;
use uarch_sim::counters::PerfSession;
use workchar::cache::CacheContext;
use workchar::characterize::RunConfig;
use workchar::dataset::Dataset;
use workload_synth::profile::InputSize;

use crate::campaign;
use crate::digest::{pinned, Account};
use crate::layers::{self, Values};
use crate::paper;
use crate::roster::Roster;
use crate::simpoint_ref;
use crate::spans::{self, Recorder};
use crate::stats::{median, ratio};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full roster at default scale into an empty result cache.
    FullCold,
    /// The quick-scale roster replayed from a cache set-up filled.
    QuickWarm,
    /// Simpoint analysis of the CPU2017 `ref` pairs, no store.
    SimpointRef,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::FullCold,
        Workload::QuickWarm,
        Workload::SimpointRef,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FullCold => "full-cold",
            Workload::QuickWarm => "quick-warm",
            Workload::SimpointRef => "simpoint-ref",
        }
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed (0 = the paper roster).
    pub seed: u64,
    /// Seconds to keep passes running.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for result stores, removed when the run ends.
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub span_file: PathBuf,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// Correctness account.
    pub account: Account,
    /// Context printed beside the result.
    pub notes: Vec<(&'static str, String)>,
}

/// Set-ups timed per run; `setup_s` is their median. Filling the quick
/// cache is a seconds-long set-up, so `quick-warm` times three.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::QuickWarm => 3,
        _ => 31,
    }
}

/// Set-up times of one run; `setup_s` is their median.
#[derive(Debug, Default)]
struct Setups(Vec<f64>);

impl Setups {
    fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = setup();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }
}

/// Pairs the observability-sink ratio runs on, at quick scale.
const SINK_SLICE: usize = 8;
/// Alternating rounds of the observability-sink ratio.
const SINK_ROUNDS: usize = 8;

fn job_retries() -> u64 {
    simmetrics::counter("simstore_job_retries_total", "").value()
}

/// Checks that a pass returned one record per pair of the paper roster,
/// in its order and under its ids, whatever the seed.
fn check_ids<'a>(
    out: &mut Outcome,
    label: &str,
    got: impl Iterator<Item = &'a str>,
    want: &[String],
) {
    if !got.eq(want.iter().map(String::as_str)) {
        out.account.problem(format!(
            "{label}: record ids differ from the paper roster's"
        ));
    }
}

/// Hits, misses, bytes read and bytes written between two snapshots.
fn store_delta(after: StatsSnapshot, before: StatsSnapshot) -> [u64; 4] {
    [
        after.hits - before.hits,
        after.misses - before.misses,
        after.bytes_read - before.bytes_read,
        after.bytes_written - before.bytes_written,
    ]
}

/// Runs `spec` and returns what it measured.
///
/// # Errors
///
/// Any filesystem error creating or removing a result store or writing
/// the span file.
pub fn run(spec: &RunSpec) -> io::Result<Outcome> {
    simmetrics::enable();
    workchar::telemetry::register_pipeline_metrics();
    match std::fs::remove_dir_all(&spec.work) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => std::fs::create_dir_all(&spec.work)?,
    }
    let mut out = Outcome {
        account: Account::new(pinned(spec.workload.name(), spec.seed)),
        ..Outcome::default()
    };
    let against = if out.account.expected.is_some() {
        "pinned"
    } else {
        "first pass"
    };
    out.notes.push(("digest_checked_against", against.into()));
    let mut rec = Recorder::new(Instant::now());
    let traced_passes = match spec.workload {
        Workload::FullCold | Workload::QuickWarm => run_campaign(spec, &mut out, &mut rec)?,
        Workload::SimpointRef => run_simpoint(spec, &mut out, &mut rec),
    };
    std::fs::remove_dir_all(&spec.work)?;
    if spec.trace {
        let (values, notes) = layers::from_spans(
            rec.spans(),
            traced_passes,
            simstore::Scheduler::available().workers(),
        );
        for (k, v) in values {
            out.values.entry(k).or_insert(v);
        }
        out.notes.push(("slowest_artifact", notes.slowest_artifact));
        out.notes
            .push(("core.pair_tail_percentile", notes.pair_tail_q.to_string()));
        out.notes.push((
            "store.lookup_tail_percentile",
            notes.lookup_tail_q.to_string(),
        ));
        out.notes.push(("spans", rec.spans().len().to_string()));
        let roster = Roster::new(spec.seed);
        let slice: Vec<_> = roster
            .cpu17_pairs(InputSize::Ref)
            .into_iter()
            .take(SINK_SLICE)
            .collect();
        let sinks = campaign::sinks_on_ratio(&slice, &RunConfig::quick(), SINK_ROUNDS);
        out.values.insert("obs.sinks_on_ratio", sinks);
        spans::write_tsv(&spec.span_file, rec.spans())?;
    } else {
        out.values
            .insert("peak_rss_mb", crate::machine::peak_rss_mb());
    }
    if let Some(d) = out.account.expected {
        out.notes.push(("expected_digest", d.to_string()));
    }
    Ok(out)
}

/// Records the end-to-end timing of the untraced passes, or in a traced
/// run the tracing overhead against them.
fn report_walls(
    spec: &RunSpec,
    out: &mut Outcome,
    walls: &[f64],
    traced_walls: &[f64],
    sim_ops: u64,
) {
    let wall = median(walls);
    out.notes.push(("passes", walls.len().to_string()));
    if walls.len() <= 20 {
        let listed: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
        out.notes.push(("pass_walls_s", listed.join(" ")));
    }
    if spec.trace {
        let overhead = 100.0 * ratio(median(traced_walls) - wall, wall);
        out.values.insert("obs.trace_overhead_pct", overhead);
    } else {
        out.values.insert("campaign_s", wall);
        out.values
            .insert("sim_mops_per_s", ratio(sim_ops as f64 / 1e6, wall));
    }
}

/// The simulated CPU2017 `all` averages and µop count, which repeat
/// exactly for a seed and move only when the model changes.
fn simulated_values(out: &mut Outcome, uops: u64, rows: &paper::Rows) {
    let all = paper::row(rows, "CPU17 all").unwrap_or_default();
    for (key, v) in [
        ("uarch.uops", uops as f64),
        ("uarch.ipc", all[0]),
        ("uarch.l1d_miss_pct", all[1]),
        ("uarch.l2_miss_pct", all[2]),
        ("uarch.l3_miss_pct", all[3]),
        ("uarch.mispredict_pct", all[4]),
    ] {
        out.values.insert(key, v);
    }
}

/// `full-cold` and `quick-warm`. Returns the number of traced passes.
fn run_campaign(spec: &RunSpec, out: &mut Outcome, rec: &mut Recorder) -> io::Result<usize> {
    let warm = spec.workload == Workload::QuickWarm;
    let config = if warm {
        RunConfig::quick()
    } else {
        RunConfig::default()
    };

    // Set-up: roster and store, and for the warm workload the cold pass
    // that fills the store, which needs an empty store each time. The cold
    // workload's set-ups open one store, as `reproduce` opens its cache on
    // every run; its passes get empty stores of their own.
    let setup = |i: usize| -> io::Result<_> {
        let roster = Roster::new(spec.seed);
        let dir = if warm {
            format!("setup-{i}")
        } else {
            "setup".into()
        };
        let cache = CacheContext::open(spec.work.join(dir))?;
        let cold = warm.then(|| roster.collect(&config, &cache));
        Ok((roster, cache, cold))
    };
    let mut setups = Setups::default();
    let mut prepared = None;
    for i in 0..setup_reps(spec.workload) {
        let (roster, cache, cold) = setups.time(|| setup(i))?;
        if let Some(Err(e)) = &cold {
            out.account.problem(format!("cold fill failed: {e}"));
        }
        prepared = Some((roster, cache, cold.and_then(Result::ok)));
    }
    out.values.insert("setup_s", median(&setups.0));
    let (roster, warm_cache, cold) = prepared.expect("at least one set-up");

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first: Option<Dataset> = None;
    let mut sim_ops = 0;
    let mut job_failures = 0;
    let (mut store_io, mut retried, mut rendered) = ([0u64; 4], 0, 0);
    let started = Instant::now();
    for i in 0.. {
        for traced in [false, true] {
            if traced && !spec.trace {
                continue;
            }
            // A cold pass gets an empty store of its own; a warm one replays
            // the store set-up filled.
            let own = if warm {
                None
            } else {
                Some(CacheContext::open(
                    spec.work.join(format!("pass-{i}-{traced}")),
                )?)
            };
            let cache = own.as_ref().unwrap_or(&warm_cache);
            let before = cache.stats.snapshot();
            let retries_before = job_retries();
            let pass = if traced {
                campaign::traced_pass(&roster, &config, cache, rec, &mut job_failures)
            } else {
                campaign::pass(&roster, &config, cache)
            };
            let io = store_delta(cache.stats.snapshot(), before);
            let label = format!("{} pass {i}", if traced { "traced" } else { "untraced" });
            out.account
                .pass(&label, pass.units, pass.failed, pass.digest);
            let pairs = pass.units - campaign::ARTIFACTS;
            let expected = if warm { [pairs, 0] } else { [0, pairs] };
            if io[..2] != expected {
                out.account.problem(format!(
                    "{label}: {} cache hits and {} misses, expected {expected:?}",
                    io[0], io[1]
                ));
            }
            if traced {
                traced_walls.push(pass.wall_s);
                retried += job_retries() - retries_before;
                rendered += pass.rendered_bytes;
                for (total, d) in store_io.iter_mut().zip(io) {
                    *total += d;
                }
            } else {
                walls.push(pass.wall_s);
            }
            sim_ops = pass.sim_ops;
            if let (Some(data), None) = (pass.data, &first) {
                let paper = Roster::new(0);
                let want: Vec<String> = InputSize::ALL
                    .iter()
                    .flat_map(|&size| paper.cpu17_pairs(size))
                    .chain(paper.cpu06_pairs())
                    .map(|p| p.id())
                    .collect();
                let got = data.cpu17.iter().chain(&data.cpu06).map(|r| r.id.as_str());
                check_ids(out, &label, got, &want);
                if let Some(cold) = &cold {
                    if (&cold.cpu17, &cold.cpu06) != (&data.cpu17, &data.cpu06) {
                        out.account.problem(format!(
                            "{label}: replayed records differ from the cold fill"
                        ));
                    }
                }
                first = Some(data);
            }
        }
        if started.elapsed().as_secs_f64() >= spec.seconds {
            break;
        }
    }
    report_walls(spec, out, &walls, &traced_walls, sim_ops);
    let rows = first.as_ref().map(paper::dataset_rows).unwrap_or_default();
    let passes = traced_walls.len();
    if spec.trace {
        let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
        let [hits, misses, read, written] = store_io;
        out.values.insert(
            "store.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        out.values.insert("store.bytes_read", per_pass(read));
        out.values.insert("store.bytes_written", per_pass(written));
        out.values.insert("store.job_retries", per_pass(retried));
        out.values
            .insert("store.job_failures", per_pass(job_failures));
        out.values.insert("report.bytes", per_pass(rendered));
        simulated_values(out, sim_ops, &rows);
    } else {
        out.values.insert("paper_err_pct", paper::err_pct(&rows));
    }
    Ok(passes)
}

/// `simpoint-ref`. Returns the number of traced passes.
fn run_simpoint(spec: &RunSpec, out: &mut Outcome, rec: &mut Recorder) -> usize {
    let setup = || {
        (
            Roster::new(spec.seed),
            RunConfig::quick(),
            SimpointConfig::default(),
        )
    };
    let mut setups = Setups::default();
    let mut prepared = None;
    for _ in 0..setup_reps(spec.workload) {
        prepared = Some(setups.time(setup));
    }
    out.values.insert("setup_s", median(&setups.0));
    let (roster, config, sp) = prepared.expect("at least one set-up");
    let pairs = roster.cpu17_pairs(InputSize::Ref);

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first = Vec::new();
    let (mut job_failures, mut retried) = (0, 0);
    let started = Instant::now();
    for i in 0.. {
        let pass = simpoint_ref::pass(&roster, &config, &sp);
        out.account.pass(
            &format!("untraced pass {i}"),
            pass.units,
            pass.failed,
            pass.digest,
        );
        walls.push(pass.wall_s);
        if first.is_empty() {
            let want: Vec<String> = Roster::new(0)
                .cpu17_pairs(InputSize::Ref)
                .iter()
                .map(|p| p.id())
                .collect();
            let got = pass.records.iter().map(|r| r.id.as_str());
            check_ids(out, &format!("untraced pass {i}"), got, &want);
            first = pass.records;
        }
        if spec.trace {
            let retries_before = job_retries();
            let pass = simpoint_ref::traced_pass(&roster, &config, &sp, rec);
            retried += job_retries() - retries_before;
            out.account.pass(
                &format!("traced pass {i}"),
                pass.units,
                pass.failed,
                pass.digest,
            );
            traced_walls.push(pass.wall_s);
            job_failures += pass.failed;
        }
        if started.elapsed().as_secs_f64() >= spec.seconds {
            break;
        }
    }
    let total_ops: u64 = first.iter().map(|r| r.total_ops).sum();
    report_walls(spec, out, &walls, &traced_walls, total_ops);
    // Suite rows of the records' reconstructed or full-detail counters.
    let rows = |pick: fn(&SimpointRecord) -> PerfSession| {
        let items: Vec<_> = first
            .iter()
            .zip(&pairs)
            .map(|(r, p)| (p.app.name.as_str(), p.app.suite.is_int(), pick(r)))
            .collect();
        paper::session_rows(&items)
    };
    let passes = traced_walls.len();
    if spec.trace {
        simulated_values(out, total_ops, &rows(SimpointRecord::reference_session));
        let simulated: u64 = first.iter().map(|r| r.simulated_ops).sum();
        out.values.insert(
            "simpoint.detailed_op_ratio",
            ratio(total_ops as f64, simulated as f64),
        );
        let max_err = first
            .iter()
            .map(|r| r.max_headline_error())
            .fold(0.0, f64::max);
        out.values.insert("simpoint.max_err_pct", 100.0 * max_err);
        out.values.insert(
            "store.job_failures",
            job_failures as f64 / passes.max(1) as f64,
        );
        out.values
            .insert("store.job_retries", retried as f64 / passes.max(1) as f64);
        // Host time of the full-detail run of the same pairs against the
        // sampled analysis, both summed over jobs.
        let sampled: f64 = rec
            .spans()
            .iter()
            .filter(|s| s.name == "simpoint.pair")
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum::<f64>()
            / passes.max(1) as f64;
        let full = simpoint_ref::characterize_thread_s(&pairs, &config);
        out.values
            .insert("simpoint.wall_speedup", ratio(full, sampled));
    } else {
        let err = paper::err_pct(&rows(SimpointRecord::estimate_session));
        out.values.insert("paper_err_pct", err);
    }
    passes
}
