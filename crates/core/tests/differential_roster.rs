//! Roster-wide differential suite for the engine's execution paths.
//!
//! `Engine::execute` is checked against the scalar reference loop
//! `Engine::run_reference` across **all 64 CPU2017 ref
//! application–input pairs**, over both ways a source can feed the engine:
//! the generator's own `drive` (each µop handed straight to the engine's
//! sink as it is drawn) and a fill-only wrapper that takes the default
//! `drive` (fill the engine's batch arena, then replay it). Sessions must
//! be bit-identical, including sampled timelines, at several batch sizes,
//! and the comparison runs with the sampler, process metrics, and causal
//! tracing all enabled, because those paths share the segment loop with
//! the plain run.

use uarch_sim::config::SystemConfig;
use uarch_sim::counters::{Event, PerfSession};
use uarch_sim::engine::{Engine, WorkloadHints};
use uarch_sim::exec::{ExecPlan, UopBatch, UopSource};
use uarch_sim::timeline::SamplerConfig;
use workload_synth::cpu2017;
use workload_synth::generator::{TraceGenerator, TraceScale};
use workload_synth::profile::{AppInputPair, AppProfile, InputSize};

/// Debug-build-friendly per-pair budget: enough to cross the warmup edge
/// and several sampler intervals while keeping the sweep quick.
const OPS: u64 = 4_000;
const WARMUP: u64 = 1_000;
/// Deliberately not a divisor of the counted span, so every pair also
/// exercises the partial final timeline interval.
const INTERVAL: u64 = 900;
/// One op per drive, an odd size that misaligns with every edge, and the
/// default.
const BATCH_OPS: [usize; 3] = [1, 7, 4096];

/// The canonical (generator, hints) pair for one roster entry, mirroring
/// `workchar::characterize::prepared_run` at quick scale.
fn prepared(pair: &AppInputPair<'_>, config: &SystemConfig) -> (TraceGenerator, WorkloadHints) {
    let gen = TraceGenerator::from_pair(pair, config, &TraceScale::quick())
        .expect("roster behaviours validate");
    let mut hints = pair.input.behavior.hints(config);
    hints.l2_bypass_range = Some(gen.l2_bypass_range());
    (gen, hints)
}

fn ref_pairs(suite: &[AppProfile]) -> Vec<AppInputPair<'_>> {
    let pairs: Vec<AppInputPair<'_>> = suite
        .iter()
        .flat_map(|app| app.pairs(InputSize::Ref))
        .collect();
    assert_eq!(pairs.len(), 64, "the paper's ref roster is 64 pairs");
    pairs
}

/// A source that implements only `fill`, like a timing wrapper around the
/// generator, so the engine takes the default fill-and-replay `drive`.
struct FillOnly<S>(S);

impl<S: UopSource> UopSource for FillOnly<S> {
    fn fill(&mut self, batch: &mut UopBatch, max: usize) -> usize {
        self.0.fill(batch, max)
    }
}

#[test]
fn every_drive_path_matches_scalar_reference_on_every_ref_pair() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    let suite = cpu2017::suite();
    // Metrics and tracing stay on for the whole sweep: their hooks must
    // not perturb a single counter on any path.
    simmetrics::enable();
    simtrace::enable();
    for pair in &ref_pairs(&suite) {
        let span = simtrace::root("test/differential-roster");
        let (gen, hints) = prepared(pair, &config);
        let base = ExecPlan::new()
            .hints(hints)
            .warmup(WARMUP)
            .sampler(SamplerConfig::every(INTERVAL));
        let want = Engine::new(&config).run_reference(gen.clone().take(OPS as usize), &base);

        for batch_ops in BATCH_OPS {
            let plan = base.batch_ops(batch_ops);
            let driven = Engine::new(&config).execute(gen.clone().take_ops(OPS), &plan);
            assert_eq!(
                want,
                driven,
                "driven path diverged on {} at batch_ops={batch_ops}",
                pair.id()
            );
            let filled = Engine::new(&config).execute(FillOnly(gen.clone()).take_ops(OPS), &plan);
            assert_eq!(
                want,
                filled,
                "fill-and-replay path diverged on {} at batch_ops={batch_ops}",
                pair.id()
            );
        }

        // The timeline must be a decomposition of the session, not an
        // approximation: interval deltas telescope to the exact totals.
        let timeline = want.timeline().expect("sampler was configured");
        let summed = timeline.total();
        for ev in Event::ALL {
            assert_eq!(
                summed.count(ev),
                want.count(ev),
                "timeline sum diverged for {ev} on {}",
                pair.id()
            );
        }
        drop(span);
        simtrace::drain();
    }
    simtrace::disable();
    simmetrics::disable();
}

#[test]
fn warm_then_execute_matches_a_chunked_run_on_every_ref_pair() {
    // Simpoint's sparse replay: `take_ops` chunks off one shared
    // generator, gaps warmed and medoid intervals executed. Each executed
    // chunk must equal the same chunk of a fully executed chunked run (and
    // of the scalar reference run chunk by chunk), on the driven and the
    // fill-and-replay paths alike.
    const CHUNK: u64 = 1_000;
    const WARMED: [bool; 4] = [true, false, true, false];
    let config = SystemConfig::haswell_e5_2650l_v3();
    let suite = cpu2017::suite();
    for pair in &ref_pairs(&suite) {
        let (gen, hints) = prepared(pair, &config);
        let plan = ExecPlan::new().hints(hints);

        let mut chunked = Engine::new(&config);
        let mut g = gen.clone();
        let want: Vec<PerfSession> = WARMED
            .iter()
            .map(|_| chunked.execute((&mut g).take_ops(CHUNK), &plan))
            .collect();

        let mut scalar = Engine::new(&config);
        let mut it = gen.clone();
        for (i, want) in want.iter().enumerate() {
            let got = scalar.run_reference((&mut it).take(CHUNK as usize), &plan);
            assert_eq!(
                *want,
                got,
                "chunk {i} diverged from the reference on {}",
                pair.id()
            );
        }

        let mut driven = (Engine::new(&config), gen.clone());
        let mut filled = (Engine::new(&config), FillOnly(gen.clone()));
        for (i, &warmed) in WARMED.iter().enumerate() {
            if warmed {
                assert_eq!(
                    driven.0.warm((&mut driven.1).take_ops(CHUNK), &hints),
                    CHUNK
                );
                assert_eq!(
                    filled.0.warm((&mut filled.1).take_ops(CHUNK), &hints),
                    CHUNK
                );
                continue;
            }
            let got = driven.0.execute((&mut driven.1).take_ops(CHUNK), &plan);
            assert_eq!(want[i], got, "driven chunk {i} diverged on {}", pair.id());
            let got = filled.0.execute((&mut filled.1).take_ops(CHUNK), &plan);
            assert_eq!(
                want[i],
                got,
                "fill-and-replay chunk {i} diverged on {}",
                pair.id()
            );
        }
    }
}

#[test]
fn simpoint_full_replay_reconstructs_exactly_across_suites() {
    // k = n leaves no gaps: under Skip the sparse replay becomes a full
    // chunked run on a second engine, which must telescope to the exact
    // profiled counters; under Warm the estimate is the sum of the
    // profiled sessions. One representative per suite quadrant keeps the
    // debug-build runtime in check.
    let config = SystemConfig::haswell_e5_2650l_v3();
    for name in ["505.mcf_r", "508.namd_r", "602.gcc_s", "654.roms_s"] {
        let app = cpu2017::app(name).expect("roster app");
        let pairs = app.pairs(InputSize::Ref);
        let pair = &pairs[0];
        let (gen, hints) = prepared(pair, &config);
        // Every interval a medoid: the scale-adjusted budget varies per
        // pair, so derive the interval size from the actual op count.
        let intervals = 8u64;
        let interval_ops = gen.remaining().div_ceil(intervals);
        let expected = gen.remaining().div_ceil(interval_ops) as usize;
        for gap_mode in [simpoint::GapMode::Warm, simpoint::GapMode::Skip] {
            let sp = simpoint::SimpointConfig {
                interval_ops,
                force_k: Some(expected),
                gap_mode,
                ..simpoint::SimpointConfig::default()
            };
            let analysis = simpoint::analyze(&config, &gen, &hints, &sp).expect("analyzable trace");
            assert_eq!(analysis.n_intervals(), expected, "{name}");
            assert_eq!(analysis.k(), expected, "{name}");
            assert_eq!(
                analysis.estimate, analysis.reference,
                "k = n reconstruction must be bit-identical on {name} under {gap_mode:?}"
            );
            assert_eq!(analysis.max_headline_error(), 0.0, "{name}");
        }
    }
}
