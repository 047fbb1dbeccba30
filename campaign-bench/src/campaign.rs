//! One characterization campaign pass, as `reproduce` runs it: collect the
//! dataset (cache-first) and analyse and render all twenty artifacts in
//! memory. The untraced pass calls the program's top-level entry points;
//! the traced pass makes the same calls one layer down, with a span around
//! each, and must produce the same output.

use std::time::Instant;

use simstore::{Key, Scheduler, StableHasher};
use uarch_sim::counters::Event;
use uarch_sim::engine::Engine;
use uarch_sim::exec::{ExecPlan, UopBatch, UopSource};
use workchar::cache::{pair_key, CacheContext};
use workchar::characterize::{prepared_run, CharRecord, RunConfig};
use workchar::dataset::Dataset;
use workchar::error::{Error, Result};
use workchar::experiments::{self, ExperimentId};
use workload_synth::footprint::{GrowthCurve, MemoryMap, PsSampler};
use workload_synth::profile::{AppInputPair, InputSize};

use crate::digest::hash_records;
use crate::roster::Roster;
use crate::spans::{Recorder, Span};

/// Artifacts analysed and rendered per pass.
pub const ARTIFACTS: u64 = ExperimentId::ALL.len() as u64;

/// What one pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Σ `sim_ops` of the records produced.
    pub sim_ops: u64,
    /// Pairs and artifacts attempted.
    pub units: u64,
    /// Pairs and artifacts that failed.
    pub failed: u64,
    /// Digest of every record's id, µop count and counters plus every
    /// rendered artifact; `None` when collection failed.
    pub digest: Option<Key>,
    /// The collected dataset, when collection succeeded.
    pub data: Option<Dataset>,
    /// Bytes of rendered artifacts.
    pub rendered_bytes: u64,
}

fn pair_count(roster: &Roster) -> u64 {
    let cpu17: usize = InputSize::ALL
        .iter()
        .map(|&s| roster.cpu17_pairs(s).len())
        .sum();
    (cpu17 + roster.cpu06_pairs().len()) as u64
}

/// Runs all twenty experiments on `data` and renders each artifact the way
/// `reproduce` writes it (text, CSV, one SVG per figure). Returns the
/// renderings and the number of experiments that failed.
fn analyze(data: &Dataset, mut rec: Option<(&mut Recorder, usize)>) -> (Vec<String>, u64) {
    let mut out = Vec::new();
    let mut failed = 0;
    for id in ExperimentId::ALL {
        let run = || experiments::run(id, data);
        let artifact = match &mut rec {
            Some((r, parent)) => r.time("core.experiment", Some(*parent), run),
            None => run(),
        };
        let Ok(artifact) = artifact else {
            failed += 1;
            out.push(format!("failed {}", id.slug()));
            continue;
        };
        let render = || {
            let mut texts = vec![artifact.render(), artifact.render_csv()];
            texts.extend(artifact.figures.iter().map(|f| f.render_svg(900, 420)));
            texts
        };
        out.extend(match &mut rec {
            Some((r, parent)) => r.time("report.render", Some(*parent), render),
            None => render(),
        });
    }
    (out, failed)
}

/// Finishes a pass: digests records and renderings (after the timed
/// section ends) and counts failures.
fn finish(
    started: Instant,
    roster: &Roster,
    collected: Result<Dataset>,
    rendered: (Vec<String>, u64),
) -> Pass {
    let wall_s = started.elapsed().as_secs_f64();
    let units = pair_count(roster) + ARTIFACTS;
    let Ok(data) = collected else {
        let failed = match &collected {
            Err(Error::Characterization { failures, .. }) => failures.len() as u64,
            _ => pair_count(roster),
        };
        return Pass {
            wall_s,
            sim_ops: 0,
            units,
            failed: failed + ARTIFACTS,
            digest: None,
            data: None,
            rendered_bytes: 0,
        };
    };
    let (texts, art_failed) = rendered;
    let mut h = StableHasher::new();
    hash_records(&mut h, &data.cpu17);
    hash_records(&mut h, &data.cpu06);
    for t in &texts {
        h.write_str(t);
    }
    Pass {
        wall_s,
        sim_ops: data
            .cpu17
            .iter()
            .chain(&data.cpu06)
            .map(|r| r.sim_ops)
            .sum(),
        units,
        failed: art_failed,
        digest: Some(h.finish()),
        rendered_bytes: texts.iter().map(|t| t.len() as u64).sum(),
        data: Some(data),
    }
}

/// One campaign pass through the program's top-level entry points:
/// `Dataset::collect_apps_with` (see [`Roster::collect`]) then
/// `experiments::run` and rendering for every artifact.
pub fn pass(roster: &Roster, config: &RunConfig, cache: &CacheContext) -> Pass {
    let started = Instant::now();
    let collected = roster.collect(config, cache);
    let rendered = match &collected {
        Ok(data) => analyze(data, None),
        Err(_) => (Vec::new(), 0),
    };
    finish(started, roster, collected, rendered)
}

/// The same pass one layer down: `collect`'s four per-size scheduler
/// batches are submitted here, and each job makes the calls
/// `characterize_pair_cached` and `characterize_pair` make, with a span
/// around each. Spans land in `rec` under a `bench.pass` root.
pub fn traced_pass(
    roster: &Roster,
    config: &RunConfig,
    cache: &CacheContext,
    rec: &mut Recorder,
    job_failures: &mut u64,
) -> Pass {
    let started = Instant::now();
    let root = rec.open("bench.pass", None);
    let collect = rec.open("core.collect", Some(root));
    let mut batches: Vec<Vec<AppInputPair<'_>>> = InputSize::ALL
        .iter()
        .map(|&s| roster.cpu17_pairs(s))
        .collect();
    batches.push(roster.cpu06_pairs());
    let mut records: Vec<Vec<CharRecord>> = Vec::new();
    let mut failures = Vec::new();
    for pairs in &batches {
        let batch = rec.open("store.batch", Some(collect));
        let epoch = rec.epoch();
        let report = Scheduler::available().run(
            pairs.len(),
            |i| pairs[i].id(),
            |i| traced_pair(&pairs[i], config, cache, epoch),
            |_| {},
        );
        rec.close(batch);
        let mut out = Vec::new();
        for (record, spans) in report.results.into_iter().flatten() {
            rec.adopt(spans, batch);
            out.push(record);
        }
        records.push(out);
        failures.extend(report.failures);
    }
    rec.close(collect);
    *job_failures += failures.len() as u64;
    let collected = if failures.is_empty() {
        let cpu06 = records.pop().unwrap_or_default();
        let mut data = Dataset {
            config: config.clone(),
            cpu17: records.concat(),
            cpu06,
        };
        roster.restore(&mut data);
        Ok(data)
    } else {
        Err(Error::Characterization {
            total: pair_count(roster) as usize,
            failures,
        })
    };
    let rendered = match &collected {
        Ok(data) => analyze(data, Some((&mut *rec, root))),
        Err(_) => (Vec::new(), 0),
    };
    rec.close(root);
    finish(started, roster, collected, rendered)
}

/// `characterize_pair_cached`, one layer down.
fn traced_pair(
    pair: &AppInputPair<'_>,
    config: &RunConfig,
    cache: &CacheContext,
    epoch: Instant,
) -> (CharRecord, Vec<Span>) {
    let mut rec = Recorder::new(epoch);
    let job = rec.open("core.pair", None);
    let key = pair_key(pair, config);
    let hit = rec.time("store.lookup", Some(job), || cache.lookup(key));
    let record = match hit {
        Some(record) => record,
        None => {
            let started = Instant::now();
            let record =
                characterize(pair, config, &mut rec, job).unwrap_or_else(|e| panic!("{e}"));
            cache.stats.record_miss(started.elapsed());
            rec.time("store.insert", Some(job), || cache.insert(key, &record));
            record
        }
    };
    rec.close(job);
    (record, rec.into_spans())
}

/// A generator wrapper timing each `fill` call: one clock pair per engine
/// batch, not per µop.
struct TimedFill<S> {
    inner: S,
    /// Nanoseconds spent inside `fill` so far.
    ns: u64,
}

impl<S> TimedFill<S> {
    fn new(inner: S) -> Self {
        TimedFill { inner, ns: 0 }
    }
}

impl<S: UopSource> UopSource for TimedFill<S> {
    fn fill(&mut self, batch: &mut UopBatch, max: usize) -> usize {
        let t = Instant::now();
        let n = self.inner.fill(batch, max);
        self.ns += t.elapsed().as_nanos() as u64;
        n
    }
}

/// `characterize_pair`, one layer down: the same calls in the same order,
/// each inside a span, with the generator's `fill` time split out of
/// `Engine::execute`.
fn characterize(
    pair: &AppInputPair<'_>,
    config: &RunConfig,
    rec: &mut Recorder,
    parent: usize,
) -> Result<CharRecord> {
    let behavior = &pair.input.behavior;
    let (trace, hints) = rec.time("workload.prepare", Some(parent), || {
        prepared_run(pair, config)
    })?;
    let sim_ops = trace.remaining();
    let warmup = sim_ops / 3;
    let mut plan = ExecPlan::new().hints(hints).warmup(warmup);
    plan.sampler = config.sampler;
    let mut engine = rec.time("uarch.engine_new", Some(parent), || {
        Engine::new(&config.system)
    });
    let exec = rec.open("uarch.execute", Some(parent));
    let mut source = TimedFill::new(trace);
    let session = engine.execute(&mut source, &plan);
    rec.close_nested(exec, "workload", source.ns);
    rec.set_count(exec, sim_ops);
    let sim_seconds = engine.seconds(&session);
    let counted = session.count(Event::InstRetiredAny).max(1) as f64;
    let breakdown = engine.last_breakdown().expect("run just completed");
    let per_inst = |cycles: f64| cycles / counted;

    let growth = if behavior.store_pct > 10.0 {
        GrowthCurve::Immediate
    } else {
        GrowthCurve::Saturating
    };
    let sampler = rec.time("workload.footprint", Some(parent), || {
        let map = MemoryMap::from_behavior(behavior, growth);
        let mut sampler = PsSampler::new();
        sampler.sample_run(&map, 60);
        sampler
    });

    let gib = |bytes: u64| bytes as f64 / (1u64 << 30) as f64;
    let ipc = session.ipc();
    let clock_hz = config.system.clock_ghz * 1e9;
    let projected_seconds = if ipc > 0.0 {
        behavior.instructions_billions * 1e9 / (ipc * clock_hz * behavior.threads.max(1) as f64)
    } else {
        0.0
    };
    Ok(CharRecord {
        id: pair.id(),
        app: pair.app.name.clone(),
        input: pair.input.name.clone(),
        suite: pair.app.suite,
        size: pair.size,
        sim_ops,
        instructions_billions: behavior.instructions_billions,
        ipc,
        load_pct: session.load_fraction() * 100.0,
        store_pct: session.store_fraction() * 100.0,
        branch_pct: session.branch_fraction() * 100.0,
        l1_miss_pct: session.l1_miss_rate() * 100.0,
        l2_miss_pct: session.l2_miss_rate() * 100.0,
        l3_miss_pct: session.l3_miss_rate() * 100.0,
        mispredict_pct: session.mispredict_rate() * 100.0,
        rss_gib: gib(sampler.max_rss_bytes()),
        vsz_gib: gib(sampler.max_vsz_bytes()),
        cpi_base: per_inst(breakdown.base),
        cpi_branch: per_inst(breakdown.branch),
        cpi_memory: per_inst(breakdown.memory),
        cpi_frontend: per_inst(breakdown.frontend),
        sim_seconds,
        projected_seconds,
        session,
    })
}

/// Engine time of `pairs` with the program's observability sinks
/// (simtrace spans and the simprof sampler) on, divided by the same with
/// them off. The two settings alternate within each round, first one
/// then the other, so drift on the host falls on both; the median of the
/// per-round ratios is returned.
pub fn sinks_on_ratio(pairs: &[AppInputPair<'_>], config: &RunConfig, rounds: usize) -> f64 {
    let engine_time = |pairs: &[AppInputPair<'_>]| -> f64 {
        pairs
            .iter()
            .filter_map(|pair| {
                let (trace, hints) = prepared_run(pair, config).ok()?;
                let plan = ExecPlan::new().hints(hints).warmup(trace.remaining() / 3);
                let mut engine = Engine::new(&config.system);
                let t = Instant::now();
                std::hint::black_box(engine.execute(trace, &plan));
                Some(t.elapsed().as_secs_f64())
            })
            .sum()
    };
    let mut ratios = Vec::new();
    for round in 0..rounds {
        let mut on = 0.0;
        let mut off = 0.0;
        for sinks in [round % 2 == 0, round % 2 == 1] {
            if sinks {
                simtrace::enable();
                simprof::enable();
                let root = simtrace::root("bench/sinks");
                on = engine_time(pairs);
                drop(root);
                simprof::disable();
                simtrace::disable();
                simtrace::drain();
                simprof::drain();
            } else {
                off = engine_time(pairs);
            }
        }
        ratios.push(crate::stats::ratio(on, off));
    }
    crate::stats::median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(tag: &str) -> (std::path::PathBuf, CacheContext) {
        let dir = std::env::temp_dir().join(format!("campaign-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = CacheContext::open(&dir).expect("temp store opens");
        (dir, ctx)
    }

    #[test]
    fn traced_pass_reproduces_the_untraced_digest_cold_and_warm() {
        for seed in [0, 3] {
            let roster = Roster::only(seed, &["505.mcf_r", "603.bwaves_s", "429.mcf"]);
            let config = RunConfig::quick();
            let (dir_a, a) = cache("untraced");
            let (dir_b, b) = cache("traced");
            let plain = pass(&roster, &config, &a);
            let mut rec = Recorder::new(Instant::now());
            let mut job_failures = 0;
            let traced = traced_pass(&roster, &config, &b, &mut rec, &mut job_failures);
            assert_eq!(plain.failed + traced.failed, 0);
            assert!(plain.digest.is_some());
            assert_eq!(plain.digest, traced.digest, "seed {seed}");
            let warm = traced_pass(&roster, &config, &b, &mut rec, &mut job_failures);
            assert_eq!(job_failures, 0);
            assert_eq!(warm.digest, plain.digest, "replay from the traced store");
            let ids: Vec<&str> = plain
                .data
                .as_ref()
                .unwrap()
                .cpu17
                .iter()
                .map(|r| r.id.as_str())
                .collect();
            assert!(ids.contains(&"603.bwaves_s-in1"), "{ids:?}");
            let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
            for name in [
                "core.pair",
                "store.lookup",
                "uarch.execute",
                "store.insert",
                "report.render",
            ] {
                assert!(names.contains(&name), "{name} recorded");
            }
            let _ = std::fs::remove_dir_all(dir_a);
            let _ = std::fs::remove_dir_all(dir_b);
        }
    }

    /// Seed 0 of `full-cold` measures the real program: its records and
    /// renderings are what `reproduce --no-cache` writes, and the
    /// committed `results/` were written that way. Default scale, so run
    /// it in release: `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn seed0_full_cold_matches_reproduce_output() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let read =
            |name: &str| std::fs::read_to_string(results.join(name)).expect("committed result");
        let p = pass(
            &Roster::new(0),
            &RunConfig::default(),
            &CacheContext::disabled(),
        );
        let data = p.data.expect("campaign succeeds");
        let csv = workchar::characterize::records_csv;
        assert_eq!(csv(&data.cpu17), read("records_cpu2017.csv"));
        assert_eq!(csv(&data.cpu06), read("records_cpu2006.csv"));
        let (texts, failed) = analyze(&data, None);
        assert_eq!(failed, 0);
        for id in ExperimentId::ALL {
            for ext in ["txt", "csv"] {
                let want = read(&format!("{}.{ext}", id.slug()));
                assert!(texts.contains(&want), "{}.{ext} differs", id.slug());
            }
        }
    }
}
