//! Op accounting of the trace generator on every path that consumes it.
//!
//! `workload_uops_generated_total` must rise by exactly the ops handed out
//! — whether the engine drives the generator's sink directly, a caller
//! fills batches, or it is iterated — and `workload_uops_fastforwarded_total`
//! by exactly the ops skipped. The counters are process-wide, so this file
//! holds a single test: no other test in this binary generates ops while
//! it reads the deltas.

use uarch_sim::config::SystemConfig;
use uarch_sim::engine::Engine;
use uarch_sim::exec::{ExecPlan, UopBatch, UopSource};
use workload_synth::generator::TraceGenerator;
use workload_synth::profile::Behavior;

fn generated() -> u64 {
    simmetrics::counter(
        "workload_uops_generated_total",
        "Micro-ops produced by trace generators across the process.",
    )
    .value()
}

fn fastforwarded() -> u64 {
    simmetrics::counter(
        "workload_uops_fastforwarded_total",
        "Micro-ops skipped by generator fast-forward across the process.",
    )
    .value()
}

/// Runs `f` on a fresh 10 000-op generator, drops it (which flushes its
/// tally), and returns the (generated, fast-forwarded) counter deltas.
fn deltas(f: impl FnOnce(&mut TraceGenerator)) -> (u64, u64) {
    let config = SystemConfig::haswell_e5_2650l_v3();
    let mut gen = TraceGenerator::new(&Behavior::default(), &config, 3, 10_000).unwrap();
    let (g0, f0) = (generated(), fastforwarded());
    f(&mut gen);
    drop(gen);
    (generated() - g0, fastforwarded() - f0)
}

#[test]
fn generated_and_fastforwarded_counts_are_exact_on_every_path() {
    simmetrics::enable();
    let config = SystemConfig::haswell_e5_2650l_v3();
    let plan = ExecPlan::new().batch_ops(777);

    // Drive: the engine calls the generator's `drive` with its sink.
    let driven = deltas(|g| {
        Engine::new(&config).execute(g.take_ops(6_000), &plan);
    });
    assert_eq!(driven, (6_000, 0), "drive path");

    // Fill: batches filled by hand.
    let filled = deltas(|g| {
        let mut batch = UopBatch::new();
        assert_eq!(g.fill(&mut batch, 2_500), 2_500);
        assert_eq!(g.fill(&mut batch, 500), 500);
    });
    assert_eq!(filled, (3_000, 0), "fill path");

    // Skip, then drive and warm the rest to exhaustion.
    let skipped = deltas(|g| {
        assert_eq!(g.fast_forward(1_234), 1_234);
        let mut engine = Engine::new(&config);
        engine.warm(g.take_ops(766), &Default::default());
        engine.execute(g, &plan);
    });
    assert_eq!(skipped, (10_000 - 1_234, 1_234), "fast-forward path");

    // Iteration: one op per `next`, and `None` past the end adds nothing.
    let iterated = deltas(|g| {
        assert_eq!(g.take(4_321).count(), 4_321);
        assert_eq!(g.fast_forward(u64::MAX), 10_000 - 4_321);
        assert_eq!(g.next(), None);
    });
    assert_eq!(iterated, (4_321, 10_000 - 4_321), "iterator path");
    simmetrics::disable();
}
