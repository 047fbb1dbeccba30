//! Per-layer metrics derived from the traced passes' spans.

use std::collections::BTreeMap;

use workchar::experiments::ExperimentId;

use crate::spans::{batch_tail_ns, children, layer_self_ns, Span};
use crate::stats::{median, ratio, tail};

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The layers self time is reported for, with the metric it lands in.
const SELF_TIMES: [(&str, &str); 6] = [
    ("workload", "workload.self_s"),
    ("uarch", "uarch.self_s"),
    ("store", "store.self_s"),
    ("core", "core.self_s"),
    ("report", "report.self_s"),
    ("simpoint", "simpoint.self_s"),
];

/// What the spans say beyond the metrics: the slowest artifact and the
/// percentiles the tails were taken at.
#[derive(Debug, Default)]
pub struct Notes {
    /// Slug of the artifact whose analysis took longest on average.
    pub slowest_artifact: String,
    /// Percentile `core.pair_tail_ms` is reported at.
    pub pair_tail_q: u32,
    /// Percentile `store.lookup_us_tail` is reported at.
    pub lookup_tail_q: u32,
}

fn durations(spans: &[Span], name: &str, scale: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * scale)
        .collect()
}

fn total_ns(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .sum()
}

/// Timing metrics of `passes` traced passes whose batches ran on
/// `workers` threads. Totals are per pass; percentiles pool every sample.
pub fn from_spans(spans: &[Span], passes: usize, workers: usize) -> (Values, Notes) {
    let per_pass = 1.0 / passes.max(1) as f64;
    let mut v = Values::new();
    let mut notes = Notes::default();
    let (s, ms, us) = (1e-9, 1e-6, 1e-3);

    // The engine: fill time is the nested aggregate of each execute span.
    let engines: Vec<&Span> = spans.iter().filter(|s| s.name == "uarch.execute").collect();
    let fill_ns: f64 = engines
        .iter()
        .filter_map(|e| e.nested)
        .map(|(_, ns)| ns as f64)
        .sum();
    let exec_total_ns: f64 = engines.iter().map(|e| e.dur_ns() as f64).sum();
    let exec_ns = exec_total_ns - fill_ns;
    let ops: f64 = engines.iter().map(|e| e.count as f64).sum();
    v.insert("workload.fill_s", fill_ns * s * per_pass);
    v.insert("workload.fill_ns_per_op", ratio(fill_ns, ops));
    v.insert(
        "workload.prepare_ms",
        total_ns(spans, "workload.prepare") * ms * per_pass,
    );
    v.insert(
        "workload.footprint_ms",
        total_ns(spans, "workload.footprint") * ms * per_pass,
    );
    v.insert("uarch.exec_s", exec_ns * s * per_pass);
    v.insert("uarch.exec_ns_per_op", ratio(exec_ns, ops));
    v.insert(
        "uarch.engine_new_ms",
        total_ns(spans, "uarch.engine_new") * ms * per_pass,
    );
    let job_ns = total_ns(spans, "core.pair") + total_ns(spans, "simpoint.pair");
    v.insert("uarch.engine_share", ratio(exec_total_ns, job_ns));

    // The scheduler: one batch span per `Scheduler::run`, jobs below it.
    let kids = children(spans);
    let (mut batches, mut batch_ns, mut tail_ns, mut busy_ns) = (0.0, 0.0, 0.0, 0.0);
    for (i, b) in spans
        .iter()
        .enumerate()
        .filter(|(_, b)| b.name == "store.batch")
    {
        batches += 1.0;
        batch_ns += b.dur_ns() as f64;
        tail_ns += batch_tail_ns(spans, &kids[i], b) as f64;
        busy_ns += kids[i]
            .iter()
            .map(|&k| spans[k].dur_ns() as f64)
            .sum::<f64>();
    }
    v.insert("store.sched_batches", batches * per_pass);
    v.insert("store.sched_tail_s", tail_ns * s * per_pass);
    v.insert(
        "store.sched_occupancy",
        ratio(busy_ns, workers as f64 * batch_ns),
    );
    let lookups = durations(spans, "store.lookup", us);
    let (q, lookup_tail) = tail(&lookups).unwrap_or((0, 0.0));
    notes.lookup_tail_q = q;
    v.insert("store.lookup_us_p50", median(&lookups));
    v.insert("store.lookup_us_tail", lookup_tail);
    v.insert("store.lookup_samples", lookups.len() as f64);
    v.insert(
        "store.insert_us_p50",
        median(&durations(spans, "store.insert", us)),
    );

    // The pipeline: per-pair jobs, collection, and analysis per artifact.
    let pairs = durations(spans, "core.pair", ms);
    let (q, pair_tail) = tail(&pairs).unwrap_or((0, 0.0));
    notes.pair_tail_q = q;
    v.insert("core.pair_p50_ms", median(&pairs));
    v.insert("core.pair_tail_ms", pair_tail);
    v.insert("core.pair_samples", pairs.len() as f64);
    v.insert(
        "core.collect_s",
        total_ns(spans, "core.collect") * s * per_pass,
    );
    let experiments = durations(spans, "core.experiment", ms);
    v.insert(
        "core.experiments_ms",
        experiments.iter().sum::<f64>() * per_pass,
    );
    let n = ExperimentId::ALL.len();
    let mut per_artifact = vec![0.0; n];
    for (i, d) in experiments.iter().enumerate() {
        per_artifact[i % n] += d * per_pass;
    }
    let slowest = (0..n).max_by(|&a, &b| per_artifact[a].total_cmp(&per_artifact[b]));
    if let Some(i) = slowest.filter(|_| !experiments.is_empty()) {
        notes.slowest_artifact = ExperimentId::ALL[i].slug().to_string();
        v.insert("core.experiment_max_ms", per_artifact[i]);
    } else {
        v.insert("core.experiment_max_ms", 0.0);
    }
    v.insert(
        "report.render_ms",
        total_ns(spans, "report.render") * ms * per_pass,
    );

    v.insert(
        "simpoint.analyze_s",
        total_ns(spans, "simpoint.analyze") * s * per_pass,
    );
    v.insert(
        "simpoint.pair_p50_ms",
        median(&durations(spans, "simpoint.pair", ms)),
    );

    // Self time per layer; the benchmark's own root span is what no layer
    // accounts for.
    let selfs = layer_self_ns(spans);
    for (layer, key) in SELF_TIMES {
        v.insert(
            key,
            selfs.get(layer).copied().unwrap_or(0) as f64 * s * per_pass,
        );
    }
    let all: u64 = selfs.values().sum();
    let unattributed = selfs.get("bench").copied().unwrap_or(0);
    v.insert(
        "obs.attributed_frac",
        ratio((all - unattributed) as f64, all as f64),
    );
    (v, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        thread: u32,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            thread,
            nested: None,
            count: 0,
        }
    }

    #[test]
    fn fill_and_exec_split_the_engine_span() {
        let mut spans = vec![
            span("bench.pass", 0, 10_000, None, 0),
            span("store.batch", 0, 10_000, Some(0), 0),
            span("core.pair", 0, 9_000, Some(1), 1),
            span("uarch.execute", 1_000, 9_000, Some(2), 1),
            span("core.pair", 0, 10_000, Some(1), 2),
        ];
        spans[3].nested = Some(("workload", 3_000));
        spans[3].count = 1_000;
        let (v, _) = from_spans(&spans, 1, 2);
        assert_eq!(v["workload.fill_ns_per_op"], 3.0);
        assert_eq!(v["uarch.exec_ns_per_op"], 5.0);
        let engine_ns = (v["workload.fill_s"] + v["uarch.exec_s"]) * 1e9;
        assert!(
            (engine_ns - 8_000.0).abs() < 1e-6,
            "fill + exec is the whole engine span"
        );
        assert_eq!(v["uarch.engine_share"], 8_000.0 / 19_000.0);
        assert_eq!(v["store.sched_occupancy"], 19_000.0 / 20_000.0);
        assert!((v["store.sched_tail_s"] * 1e9 - 1_000.0).abs() < 1e-6);
        assert_eq!(v["obs.attributed_frac"], 1.0);
    }
}
