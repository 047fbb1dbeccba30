//! End-to-end properties of the simpoint subsystem, pinned at the
//! workspace level: the exactness anchors (k = n reconstructs the reference
//! bit-identically, and a warm sparse replay of a real plan reproduces the
//! single-pass estimate bit for bit), the acceptance floor (≥ 5x fewer detailed ops at
//! ≤ 5% headline counter error on real roster pairs), and off-path purity
//! (running a simpoint analysis perturbs nothing the characterization
//! pipeline measures).

use spec2017_workchar::simpoint::{analyze, profile, reconstruct, replay, GapMode, SimpointConfig};
use spec2017_workchar::uarch_sim::counters::Event;
use spec2017_workchar::workchar::characterize::{characterize_pair, prepared_run, RunConfig};
use spec2017_workchar::workload_synth::cpu2017;
use spec2017_workchar::workload_synth::profile::InputSize;

fn quick() -> RunConfig {
    RunConfig::quick()
}

/// With every interval its own cluster there are no gaps to approximate,
/// so reconstruction must be *bit-identical* to the reference in both gap
/// modes: under `Warm` it sums the profiled sessions, under `Skip` the
/// sparse replay degenerates to a full chunked run.
#[test]
fn k_equal_to_n_reconstructs_bit_identically() {
    let run = quick();
    let app = cpu2017::app("505.mcf_r").unwrap();
    let pair = &app.pairs(InputSize::Ref)[0];
    let (trace, hints) = prepared_run(pair, &run).unwrap();
    let interval_ops = 10_000u64;
    let n = trace.remaining().div_ceil(interval_ops) as usize;
    for gap_mode in [GapMode::Warm, GapMode::Skip] {
        let config = SimpointConfig {
            interval_ops,
            force_k: Some(n),
            gap_mode,
            ..SimpointConfig::default()
        };
        let a = analyze(&run.system, &trace, &hints, &config).unwrap();
        assert_eq!(a.k(), n);
        assert_eq!(a.simulated_ops, a.total_ops);
        assert_eq!(
            a.estimate, a.reference,
            "k = n must be bit-identical under {gap_mode:?}"
        );
        for ev in Event::ALL {
            assert_eq!(a.counter_error(ev), 0.0, "{ev} under {gap_mode:?}");
        }
    }
}

/// The proof behind the single-pass warm analysis: on real plans (k < n,
/// so gaps are really warmed), a `Warm` sparse replay over the chosen
/// medoids reproduces every profiled medoid session bit for bit, and
/// reconstructing from the replayed sessions gives exactly the estimate
/// `analyze` built from the profiling pass. Covers the behaviour range of
/// the acceptance-floor pairs plus one representative per suite quadrant.
#[test]
fn warm_replay_reproduces_the_single_pass_estimate() {
    let run = quick();
    let config = SimpointConfig::default();
    for name in [
        "505.mcf_r",
        "520.omnetpp_r",
        "525.x264_r",
        "619.lbm_s",
        "508.namd_r",
        "602.gcc_s",
        "654.roms_s",
    ] {
        let app = cpu2017::app(name).unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let (trace, hints) = prepared_run(pair, &run).unwrap();
        let a = analyze(&run.system, &trace, &hints, &config).unwrap();
        assert!(a.k() < a.n_intervals(), "{name}: the plan must leave gaps");
        let profiled = profile(&run.system, &trace, &hints, &config).unwrap();
        assert_eq!(profiled.reference, a.reference, "{name}");
        let r = replay(
            &run.system,
            &trace,
            &hints,
            a.interval_ops,
            &a.medoids,
            GapMode::Warm,
            config.warmup_intervals,
        );
        assert!(r.warmed_ops > 0, "{name}: no gap op was warmed");
        for (session, &m) in r.sessions.iter().zip(&a.medoids) {
            assert_eq!(
                session, &profiled.samples[m].deltas,
                "{name}: replayed medoid {m} diverged from its profiled session"
            );
        }
        assert_eq!(
            reconstruct(r.sessions.iter(), &a.labels),
            a.estimate,
            "{name}: replayed reconstruction diverged from the single-pass estimate"
        );
        assert_eq!(
            (r.simulated_ops, r.warmed_ops, r.skipped_ops),
            (a.simulated_ops, a.warmed_ops, a.skipped_ops),
            "{name}: op accounting"
        );
    }
}

/// The ISSUE acceptance floor, on real roster pairs spanning the suite's
/// behaviour range: memory-bound int (mcf), pointer-chasing int (omnetpp),
/// cache-friendly int (x264), and memory-streaming fp (lbm).
#[test]
fn roster_pairs_meet_speedup_and_error_floor() {
    let run = quick();
    for name in ["505.mcf_r", "520.omnetpp_r", "525.x264_r", "619.lbm_s"] {
        let app = cpu2017::app(name).unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let (trace, hints) = prepared_run(pair, &run).unwrap();
        let a = analyze(&run.system, &trace, &hints, &SimpointConfig::default()).unwrap();
        assert!(
            a.speedup() >= 5.0,
            "{name}: speedup {:.1}x below the 5x floor",
            a.speedup()
        );
        assert!(
            a.max_headline_error() <= 0.05,
            "{name}: headline error {:.2}% above 5%",
            a.max_headline_error() * 100.0
        );
        // Under the default warm mode every op either counts or warms.
        assert_eq!(a.simulated_ops + a.warmed_ops, a.total_ops, "{name}");
        assert_eq!(a.skipped_ops, 0, "{name}");
    }
}

/// Running a simpoint analysis must not perturb anything the ordinary
/// characterization pipeline measures: the analysis clones its generator
/// and builds its own engine, so a characterization made after an
/// analysis is bit-identical to one made before.
#[test]
fn simpoint_analysis_leaves_characterization_untouched() {
    let run = quick();
    let app = cpu2017::app("541.leela_r").unwrap();
    let pair = &app.pairs(InputSize::Ref)[0];
    let before = characterize_pair(pair, &run).unwrap();
    let (trace, hints) = prepared_run(pair, &run).unwrap();
    let remaining = trace.remaining();
    analyze(&run.system, &trace, &hints, &SimpointConfig::default()).unwrap();
    assert_eq!(trace.remaining(), remaining, "caller's generator untouched");
    let after = characterize_pair(pair, &run).unwrap();
    assert_eq!(before, after, "characterization must be unaffected");
}
