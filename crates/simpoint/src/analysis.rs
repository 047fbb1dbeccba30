//! The representative-interval pipeline: profile → cluster →
//! reconstruct, with a sparse replay only when gaps are skipped.
//!
//! [`profile`] drives one engine over a clone of the pristine generator in
//! interval-sized chunks; its per-chunk sessions are the interval deltas.
//! Under [`GapMode::Warm`] a sparse replay would warm every gap op
//! (`Engine::warm` makes the same state transitions as a counted run) in
//! the same chunks, so it would reproduce every medoid's profiled session
//! bit for bit: [`analyze`] therefore reconstructs straight from the
//! profiled sessions and runs one pass. Only [`GapMode::Skip`], where a
//! fast-forwarded gap leaves different machine state, runs [`replay`].
//! The replay-identity test in the workspace suite drives [`replay`] under
//! `Warm` and pins it to the profiled sessions and to the estimate.

use stat_analysis::distance::Metric;
use stat_analysis::kmedoids::{k_medoids, KMedoids};
use stat_analysis::matrix::Matrix;
use stat_analysis::silhouette::mean_silhouette;
use stat_analysis::standardize::Standardizer;
use stat_analysis::StatsError;
use uarch_sim::config::SystemConfig;
use uarch_sim::counters::{Event, PerfSession};
use uarch_sim::engine::{Engine, WorkloadHints};
use uarch_sim::exec::{ExecPlan, UopSource};
use uarch_sim::timeline::IntervalSample;
use workload_synth::generator::TraceGenerator;

/// What the sparse replay does with the intervals between simulation
/// points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GapMode {
    /// Functionally warm the gap: every micro-op still updates caches and
    /// the branch predictor (state transitions bit-identical to a counted
    /// run, see `Engine::warm`), but nothing is counted or priced.
    /// Each medoid interval therefore starts from the exact state a full
    /// run would have given it, and the reconstruction error is purely
    /// the clustering approximation. Such a replay reproduces the profiled
    /// medoid sessions exactly, so [`analyze`] skips it and reconstructs
    /// from the profiling pass.
    #[default]
    Warm,
    /// Fast-forward the generator RNG-exactly and skip the engine
    /// entirely. Maximal speed, but medoid intervals run against stale
    /// (or cold) microarchitectural state; long-reuse-distance behaviour
    /// (L2/L3 hit rates) is not recoverable, so reconstruction errors are
    /// substantially larger. `warmup_intervals` lead-ins soften the
    /// short-distance part only.
    Skip,
}

/// Tuning knobs of one simpoint analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpointConfig {
    /// Desired number of profiling intervals when `interval_ops` is 0:
    /// the interval size becomes `total_ops / target_intervals`.
    pub target_intervals: usize,
    /// Explicit interval size in counted micro-ops; 0 derives it from
    /// `target_intervals`.
    pub interval_ops: u64,
    /// Largest k tried during accuracy-guided selection.
    pub max_k: usize,
    /// Selection target: the smallest k whose predicted headline
    /// reconstruction error (computed from the profiled interval counters,
    /// exact under [`GapMode::Warm`]) is at or below this budget wins. If
    /// no k within `max_k` meets it, the minimum-error candidate is used.
    pub error_budget: f64,
    /// Gap handling of the sparse replay (see [`GapMode`]).
    pub gap_mode: GapMode,
    /// In [`GapMode::Skip`], intervals functionally warmed immediately
    /// before each medoid to soften the cold-state transient after a
    /// fast-forward gap. Ignored under [`GapMode::Warm`], where every gap
    /// already warms.
    pub warmup_intervals: usize,
    /// Bypasses silhouette selection and clusters with exactly this k
    /// (clamped to the interval count). `Some(n)` makes every interval a
    /// medoid — the exactness regression path.
    pub force_k: Option<usize>,
}

impl Default for SimpointConfig {
    fn default() -> Self {
        SimpointConfig {
            target_intervals: 60,
            interval_ops: 0,
            max_k: 12,
            error_budget: 0.05,
            gap_mode: GapMode::Warm,
            warmup_intervals: 1,
            force_k: None,
        }
    }
}

/// Why an analysis could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimpointError {
    /// The generator had no micro-ops left to profile.
    EmptyTrace,
    /// The clustering layer rejected its input.
    Stats(StatsError),
}

impl std::fmt::Display for SimpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimpointError::EmptyTrace => f.write_str("trace generator has no micro-ops"),
            SimpointError::Stats(e) => write!(f, "clustering failed: {e}"),
        }
    }
}

impl std::error::Error for SimpointError {}

impl From<StatsError> for SimpointError {
    fn from(e: StatsError) -> Self {
        SimpointError::Stats(e)
    }
}

/// The result of one representative-interval analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpointAnalysis {
    /// Counted micro-ops per profiling interval (the last interval may be
    /// shorter).
    pub interval_ops: u64,
    /// Micro-ops in the full run.
    pub total_ops: u64,
    /// Micro-ops a sampled simulation runs in detail: the summed lengths
    /// of the medoid intervals.
    pub simulated_ops: u64,
    /// Micro-ops a sampled simulation functionally warms (state updates,
    /// nothing counted): every other op under [`GapMode::Warm`], the
    /// lead-in intervals under [`GapMode::Skip`].
    pub warmed_ops: u64,
    /// Micro-ops fast-forwarded past without touching the engine (0 under
    /// [`GapMode::Warm`]).
    pub skipped_ops: u64,
    /// Mean silhouette of the chosen clustering (0.0 when k = 1, where it
    /// is undefined).
    pub silhouette: f64,
    /// Interval indices chosen as simulation points, ascending.
    pub medoids: Vec<usize>,
    /// Per-interval cluster assignment (indices into `medoids`).
    pub labels: Vec<usize>,
    /// Fraction of intervals each cluster owns; sums to 1.
    pub weights: Vec<f64>,
    /// Ground truth: the merged counters of the full profiling run.
    pub reference: PerfSession,
    /// The reconstruction: cluster-size-scaled sum of medoid counters.
    pub estimate: PerfSession,
}

impl SimpointAnalysis {
    /// Number of clusters (= number of simulation points).
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// Number of profiling intervals.
    pub fn n_intervals(&self) -> usize {
        self.labels.len()
    }

    /// Reduction in detailed-simulated micro-ops:
    /// `total_ops / simulated_ops`. Under [`GapMode::Warm`] gap ops still
    /// execute the (cheaper) warming path; under [`GapMode::Skip`] they
    /// cost nothing at all.
    pub fn speedup(&self) -> f64 {
        self.total_ops as f64 / self.simulated_ops.max(1) as f64
    }

    /// Relative reconstruction error of one raw counter.
    pub fn counter_error(&self, event: Event) -> f64 {
        rel_error(
            self.reference.count(event) as f64,
            self.estimate.count(event) as f64,
        )
    }

    /// Relative error of the reconstructed IPC.
    pub fn ipc_error(&self) -> f64 {
        rel_error(self.reference.ipc(), self.estimate.ipc())
    }

    /// Relative error of a reconstructed misses-per-kilo-instruction rate.
    pub fn mpki_error(&self, miss_event: Event) -> f64 {
        rel_error(
            mpki(&self.reference, miss_event),
            mpki(&self.estimate, miss_event),
        )
    }

    /// Relative error of the reconstructed branch mispredict rate.
    pub fn mispredict_error(&self) -> f64 {
        rel_error(
            self.reference.mispredict_rate(),
            self.estimate.mispredict_rate(),
        )
    }

    /// The headline acceptance metric: the worst of the IPC error and the
    /// three per-level MPKI errors.
    pub fn max_headline_error(&self) -> f64 {
        headline_error(&self.reference, &self.estimate)
    }
}

/// Worst of the IPC error and the three per-level MPKI errors between two
/// counter files — the figure k-selection budgets and CI gates on.
fn headline_error(reference: &PerfSession, estimate: &PerfSession) -> f64 {
    let mut worst = rel_error(reference.ipc(), estimate.ipc());
    for ev in [
        Event::MemLoadUopsRetiredL1Miss,
        Event::MemLoadUopsRetiredL2Miss,
        Event::MemLoadUopsRetiredL3Miss,
    ] {
        worst = worst.max(rel_error(mpki(reference, ev), mpki(estimate, ev)));
    }
    worst
}

/// The counter file a clustering would reconstruct, computed from the
/// profiled interval sessions. Under [`GapMode::Warm`] a sparse replay
/// reproduces these sessions bit-identically, so this prediction *is* the
/// final estimate; under [`GapMode::Skip`] it is optimistic.
fn predicted_estimate(
    samples: &[IntervalSample],
    medoids: &[usize],
    labels: &[usize],
) -> PerfSession {
    reconstruct(medoids.iter().map(|&m| &samples[m].deltas), labels)
}

/// Relative error of `estimate` against `reference`, with the degenerate
/// denominators pinned: both zero is a perfect 0.0, a zero reference with a
/// non-zero estimate is a full 1.0.
pub fn rel_error(reference: f64, estimate: f64) -> f64 {
    if reference.abs() < 1e-12 {
        if estimate.abs() < 1e-12 {
            0.0
        } else {
            1.0
        }
    } else {
        (estimate - reference).abs() / reference.abs()
    }
}

/// Misses per kilo-instruction of one event within a session.
fn mpki(session: &PerfSession, miss_event: Event) -> f64 {
    let inst = session.count(Event::InstRetiredAny);
    if inst == 0 {
        0.0
    } else {
        session.count(miss_event) as f64 * 1000.0 / inst as f64
    }
}

/// The profiling pass over one run: per-interval counter deltas and their
/// merge.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Counted micro-ops per interval (the last interval may be shorter).
    pub interval_ops: u64,
    /// Micro-ops in the full run.
    pub total_ops: u64,
    /// One sample per interval, in trace order.
    pub samples: Vec<IntervalSample>,
    /// Ground truth: the merged counters of every interval.
    pub reference: PerfSession,
}

/// Profiles a clone of `generator` on one engine, one chunked run per
/// interval. The per-chunk sessions *are* the interval deltas (state
/// carries across chunks on the engine), and their merge is the reference
/// counter file. The interval size is `config.interval_ops`, or
/// `total_ops / config.target_intervals` when that is 0.
///
/// # Errors
///
/// [`SimpointError::EmptyTrace`] when the generator is exhausted.
pub fn profile(
    system: &SystemConfig,
    generator: &TraceGenerator,
    hints: &WorkloadHints,
    config: &SimpointConfig,
) -> Result<Profile, SimpointError> {
    let total_ops = generator.remaining();
    if total_ops == 0 {
        return Err(SimpointError::EmptyTrace);
    }
    let interval_ops = if config.interval_ops > 0 {
        config.interval_ops
    } else {
        (total_ops / config.target_intervals.max(1) as u64).max(1)
    };
    let plan = ExecPlan::new().hints(*hints);
    let mut engine = Engine::new(system);
    let mut gen = generator.clone();
    let mut samples = Vec::with_capacity(total_ops.div_ceil(interval_ops) as usize);
    let mut reference = PerfSession::new();
    let mut start = 0u64;
    while gen.remaining() > 0 {
        let take = interval_ops.min(gen.remaining());
        let session = engine.execute((&mut gen).take_ops(take), &plan);
        reference.merge(&session);
        samples.push(IntervalSample {
            start_op: start,
            end_op: start + take,
            deltas: session,
        });
        start += take;
    }
    Ok(Profile {
        interval_ops,
        total_ops,
        samples,
        reference,
    })
}

/// The outcome of a sparse replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The counted session of each medoid interval, in `medoids` order.
    pub sessions: Vec<PerfSession>,
    /// Micro-ops simulated in detail (the medoid intervals).
    pub simulated_ops: u64,
    /// Micro-ops functionally warmed.
    pub warmed_ops: u64,
    /// Micro-ops fast-forwarded past without touching the engine.
    pub skipped_ops: u64,
}

/// Replays a clone of `generator` on a fresh engine in the profiling
/// pass's interval chunks: detailed counted simulation for the `medoids`
/// intervals only, gaps functionally warmed or skipped per `gap_mode`.
/// Under [`GapMode::Skip`], the `warmup_intervals` intervals before each
/// medoid are warmed rather than skipped.
///
/// Chunk boundaries match [`profile`] one-for-one, so under
/// [`GapMode::Warm`] every medoid session comes out bit-identical to its
/// profiled interval — which is why [`analyze`] only replays under
/// [`GapMode::Skip`], where a skipped gap leaves different machine state.
pub fn replay(
    system: &SystemConfig,
    generator: &TraceGenerator,
    hints: &WorkloadHints,
    interval_ops: u64,
    medoids: &[usize],
    gap_mode: GapMode,
    warmup_intervals: usize,
) -> Replay {
    #[derive(Clone, Copy, PartialEq)]
    enum Step {
        Detail,
        Warm,
        Skip,
    }
    let n = generator.remaining().div_ceil(interval_ops) as usize;
    let gap_step = match gap_mode {
        GapMode::Warm => Step::Warm,
        GapMode::Skip => Step::Skip,
    };
    let mut steps = vec![gap_step; n];
    if gap_mode == GapMode::Skip {
        for &m in medoids {
            steps[m - warmup_intervals.min(m)..m].fill(Step::Warm);
        }
    }
    for &m in medoids {
        steps[m] = Step::Detail;
    }
    let plan = ExecPlan::new().hints(*hints);
    let mut engine = Engine::new(system);
    let mut gen = generator.clone();
    let (mut simulated_ops, mut warmed_ops, mut skipped_ops) = (0u64, 0u64, 0u64);
    let mut sessions: Vec<Option<PerfSession>> = vec![None; n];
    for (i, step) in steps.iter().enumerate() {
        let len = interval_ops.min(gen.remaining());
        match step {
            Step::Detail => {
                sessions[i] = Some(engine.execute((&mut gen).take_ops(len), &plan));
                simulated_ops += len;
            }
            Step::Warm => {
                engine.warm((&mut gen).take_ops(len), hints);
                warmed_ops += len;
            }
            Step::Skip => {
                gen.fast_forward(len);
                skipped_ops += len;
            }
        }
    }
    Replay {
        sessions: medoids
            .iter()
            .map(|&m| sessions[m].take().expect("medoid interval was simulated"))
            .collect(),
        simulated_ops,
        warmed_ops,
        skipped_ops,
    }
}

/// Intervals per cluster.
fn cluster_sizes(labels: &[usize], k: usize) -> Vec<u64> {
    let mut counts = vec![0u64; k];
    for &label in labels {
        counts[label] += 1;
    }
    counts
}

/// Reconstructs whole-run counters: each medoid session (in cluster order)
/// stands for every interval of its cluster, so it is scaled by the
/// cluster's interval count. Integer arithmetic end to end — at k = n this
/// telescopes back to the reference exactly.
pub fn reconstruct<'a>(
    medoid_sessions: impl ExactSizeIterator<Item = &'a PerfSession>,
    labels: &[usize],
) -> PerfSession {
    let counts = cluster_sizes(labels, medoid_sessions.len());
    let mut estimate = PerfSession::new();
    for (session, &count) in medoid_sessions.zip(&counts) {
        for ev in Event::ALL {
            estimate.add(ev, session.count(ev).saturating_mul(count));
        }
    }
    estimate
}

/// Runs the full pipeline against a pristine generator.
///
/// The generator is cloned for the profiling pass (and, under
/// [`GapMode::Skip`], once more for the sparse replay); the caller's
/// instance is left untouched. `hints` should be the same workload hints a
/// full characterization run would use (in particular the generator's
/// `l2_bypass_range`).
///
/// Under [`GapMode::Warm`] the analysis is a single pass: a warm replay
/// would reproduce every medoid's profiled session bit for bit, so the
/// estimate is reconstructed from the profiled sessions directly and the
/// op accounting is the plan's (medoid interval lengths detailed,
/// everything else warmed).
///
/// # Errors
///
/// [`SimpointError::EmptyTrace`] when the generator is exhausted;
/// [`SimpointError::Stats`] when clustering rejects the feature matrix.
pub fn analyze(
    system: &SystemConfig,
    generator: &TraceGenerator,
    hints: &WorkloadHints,
    config: &SimpointConfig,
) -> Result<SimpointAnalysis, SimpointError> {
    let Profile {
        interval_ops,
        total_ops,
        samples,
        reference,
    } = profile(system, generator, hints, config)?;
    let n = samples.len();

    // Feature matrix: standardized so the mix fractions (≤ 1) and the MPKI
    // columns (tens) weigh equally in the distance.
    let rows: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| s.feature_vector().to_vec())
        .collect();
    let rows = standardize(&rows)?;
    let (clustering, silhouette, predicted) = choose_k(&rows, &samples, &reference, config)?;
    let medoids = clustering.medoids;
    let labels = clustering.labels;
    let weights: Vec<f64> = cluster_sizes(&labels, medoids.len())
        .iter()
        .map(|&c| c as f64 / n as f64)
        .collect();

    let (estimate, simulated_ops, warmed_ops, skipped_ops) = match config.gap_mode {
        GapMode::Warm => {
            let simulated_ops: u64 = medoids
                .iter()
                .map(|&m| samples[m].end_op - samples[m].start_op)
                .sum();
            (predicted, simulated_ops, total_ops - simulated_ops, 0)
        }
        GapMode::Skip => {
            let r = replay(
                system,
                generator,
                hints,
                interval_ops,
                &medoids,
                GapMode::Skip,
                config.warmup_intervals,
            );
            let estimate = reconstruct(r.sessions.iter(), &labels);
            (estimate, r.simulated_ops, r.warmed_ops, r.skipped_ops)
        }
    };

    Ok(SimpointAnalysis {
        interval_ops,
        total_ops,
        simulated_ops,
        warmed_ops,
        skipped_ops,
        silhouette,
        medoids,
        labels,
        weights,
        reference,
        estimate,
    })
}

/// Standardizes the feature rows column-wise (identity for a single row,
/// where scale is undefined).
fn standardize(rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, StatsError> {
    if rows.len() < 2 {
        return Ok(rows.to_vec());
    }
    let z = Standardizer::fit_transform(&Matrix::from_rows(rows)?)?;
    Ok(z.iter_rows().map(|r| r.to_vec()).collect())
}

/// Picks k and clusters: the smallest k in `1..=max_k` whose predicted
/// reconstruction error meets `error_budget` (maximal speedup among the
/// acceptable clusterings), the minimum-error candidate if none does, or
/// exactly `force_k`. Returns the winner with its mean silhouette (the
/// phase-separation confidence score) and its predicted estimate.
///
/// Silhouette alone is deliberately not the selector: it measures how
/// geometrically separated the phases are, and a run whose phases sit close
/// in feature space (low silhouette) can still need k > 1 to reconstruct
/// its counters — collapsing such a run to one medoid is exactly the
/// failure mode that blows up tail-counter errors (e.g. a compulsory-miss
/// fill phase whose L3 traffic a steady-state medoid cannot represent).
fn choose_k(
    rows: &[Vec<f64>],
    samples: &[IntervalSample],
    reference: &PerfSession,
    config: &SimpointConfig,
) -> Result<(KMedoids, f64, PerfSession), SimpointError> {
    let n = rows.len();
    let silhouette_of = |clustering: &KMedoids| {
        if clustering.medoids.len() < 2 {
            0.0
        } else {
            mean_silhouette(rows, &clustering.labels, Metric::Euclidean).unwrap_or(0.0)
        }
    };
    if let Some(forced) = config.force_k {
        let clustering = k_medoids(rows, forced.clamp(1, n), Metric::Euclidean)?;
        let silhouette = silhouette_of(&clustering);
        let estimate = predicted_estimate(samples, &clustering.medoids, &clustering.labels);
        return Ok((clustering, silhouette, estimate));
    }
    let mut fallback: Option<(KMedoids, f64, PerfSession, f64)> = None;
    for k in 1..=config.max_k.min(n) {
        let clustering = k_medoids(rows, k, Metric::Euclidean)?;
        let estimate = predicted_estimate(samples, &clustering.medoids, &clustering.labels);
        let error = headline_error(reference, &estimate);
        if error <= config.error_budget {
            let silhouette = silhouette_of(&clustering);
            return Ok((clustering, silhouette, estimate));
        }
        if fallback.as_ref().is_none_or(|&(_, _, _, e)| error < e) {
            let silhouette = silhouette_of(&clustering);
            fallback = Some((clustering, silhouette, estimate, error));
        }
    }
    let (clustering, silhouette, estimate, _) = fallback.expect("max_k >= 1 candidate evaluated");
    Ok((clustering, silhouette, estimate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_synth::generator::TraceScale;
    use workload_synth::profile::Behavior;

    fn system() -> SystemConfig {
        SystemConfig::haswell_e5_2650l_v3()
    }

    fn generator(ops: u64) -> TraceGenerator {
        TraceGenerator::new(&Behavior::default(), &system(), 7, ops).unwrap()
    }

    fn hints_for(gen: &TraceGenerator) -> WorkloadHints {
        WorkloadHints {
            l2_bypass_range: Some(gen.l2_bypass_range()),
            ..WorkloadHints::default()
        }
    }

    #[test]
    fn empty_generator_is_rejected() {
        let gen = generator(0);
        let hints = hints_for(&gen);
        let err = analyze(&system(), &gen, &hints, &SimpointConfig::default()).unwrap_err();
        assert_eq!(err, SimpointError::EmptyTrace);
    }

    #[test]
    fn force_k_equal_to_intervals_is_bit_exact() {
        let gen = generator(60_000);
        let hints = hints_for(&gen);
        let config = SimpointConfig {
            interval_ops: 5_000,
            force_k: Some(12),
            ..SimpointConfig::default()
        };
        let a = analyze(&system(), &gen, &hints, &config).unwrap();
        assert_eq!(a.n_intervals(), 12);
        assert_eq!(a.k(), 12);
        assert_eq!(a.simulated_ops, a.total_ops);
        assert_eq!(
            a.estimate, a.reference,
            "k = n reconstruction must be bit-identical"
        );
        assert_eq!(a.max_headline_error(), 0.0);
        for ev in Event::ALL {
            assert_eq!(a.counter_error(ev), 0.0, "{ev}");
        }
    }

    #[test]
    fn default_selection_cuts_simulated_ops_within_error_budget() {
        let gen = generator(300_000);
        let hints = hints_for(&gen);
        let a = analyze(&system(), &gen, &hints, &SimpointConfig::default()).unwrap();
        assert_eq!(a.total_ops, 300_000);
        assert_eq!(a.n_intervals(), 60);
        assert!(a.k() >= 1 && a.k() <= 12);
        assert!(
            a.speedup() >= 5.0,
            "speedup {:.1}x below the acceptance floor",
            a.speedup()
        );
        assert!(
            a.max_headline_error() <= 0.05,
            "headline error {:.2}% above 5%",
            a.max_headline_error() * 100.0
        );
        // Invariants the lint family assumes.
        let weight_sum: f64 = a.weights.iter().sum();
        assert!((weight_sum - 1.0).abs() < 1e-9);
        assert!(a.medoids.windows(2).all(|w| w[0] < w[1]));
        assert!(a.labels.iter().all(|&l| l < a.k()));
        assert_eq!(a.reference.count(Event::InstRetiredAny), a.total_ops);
    }

    #[test]
    fn analysis_is_deterministic() {
        let gen = generator(100_000);
        let hints = hints_for(&gen);
        let config = SimpointConfig::default();
        let a = analyze(&system(), &gen, &hints, &config).unwrap();
        let b = analyze(&system(), &gen, &hints, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn caller_generator_is_untouched() {
        let gen = generator(50_000);
        let hints = hints_for(&gen);
        analyze(&system(), &gen, &hints, &SimpointConfig::default()).unwrap();
        assert_eq!(gen.remaining(), 50_000);
    }

    #[test]
    fn interval_size_derives_from_target() {
        let gen = generator(120_000);
        let hints = hints_for(&gen);
        let config = SimpointConfig {
            target_intervals: 30,
            ..SimpointConfig::default()
        };
        let a = analyze(&system(), &gen, &hints, &config).unwrap();
        assert_eq!(a.interval_ops, 4_000);
        assert_eq!(a.n_intervals(), 30);
    }

    #[test]
    fn quick_scale_pair_meets_acceptance_floor() {
        // The same path the reproduce binary's --simpoint mode takes, on a
        // real roster profile at quick scale.
        let apps = workload_synth::cpu2017::suite();
        let app = apps.iter().find(|a| a.name == "505.mcf_r").unwrap();
        let pair = &app.pairs(workload_synth::profile::InputSize::Ref)[0];
        let system = system();
        let gen = TraceGenerator::from_pair(pair, &system, &TraceScale::quick()).unwrap();
        let hints = hints_for(&gen);
        let a = analyze(&system, &gen, &hints, &SimpointConfig::default()).unwrap();
        assert!(a.speedup() >= 5.0, "speedup {:.1}x", a.speedup());
        assert!(
            a.max_headline_error() <= 0.05,
            "error {:.2}%",
            a.max_headline_error() * 100.0
        );
    }

    #[test]
    fn rel_error_degenerate_cases() {
        assert_eq!(rel_error(0.0, 0.0), 0.0);
        assert_eq!(rel_error(0.0, 3.0), 1.0);
        assert!((rel_error(2.0, 1.0) - 0.5).abs() < 1e-12);
        assert!((rel_error(2.0, 3.0) - 0.5).abs() < 1e-12);
    }
}
