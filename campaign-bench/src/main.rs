//! Campaign benchmark: end-to-end and per-layer host time of the
//! characterization pipeline.
//!
//! ```text
//! campaign-bench --workload <full-cold|quick-warm|simpoint-ref>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path campaign-bench/Cargo.toml -- ...`.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. An untraced run (`--trace 0`)
//! reports the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics from spans the benchmark records around its calls
//! into each layer. The line before it stamps the machine and names the
//! digest the outputs were checked against. A traced run also writes its
//! spans to `campaign-bench/.work/spans-<workload>-<seed>.tsv`.

mod campaign;
mod digest;
mod layers;
mod machine;
mod paper;
mod roster;
mod simpoint_ref;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{RunSpec, Workload};

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("campaign_s", "s"),
    ("sim_mops_per_s", "Mop/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("paper_err_pct", "%"),
];

/// Per-layer metrics: name, unit, and the end-to-end metric and workload
/// it should move. A layer a workload does not run reports 0.
const PER_LAYER: [(&str, &str, &str); 48] = [
    (
        "workload.fill_s",
        "s",
        "campaign_s on full-cold; no change on quick-warm",
    ),
    (
        "workload.fill_ns_per_op",
        "ns/op",
        "campaign_s on full-cold; no change on quick-warm",
    ),
    ("workload.prepare_ms", "ms", "campaign_s on full-cold"),
    ("workload.footprint_ms", "ms", "campaign_s on full-cold"),
    ("workload.self_s", "s", "campaign_s on full-cold"),
    (
        "uarch.exec_s",
        "s",
        "campaign_s on full-cold and simpoint-ref",
    ),
    (
        "uarch.exec_ns_per_op",
        "ns/op",
        "campaign_s on full-cold and simpoint-ref",
    ),
    (
        "uarch.engine_new_ms",
        "ms",
        "campaign_s on full-cold and simpoint-ref",
    ),
    ("uarch.engine_share", "ratio", "campaign_s on full-cold"),
    ("uarch.self_s", "s", "campaign_s on full-cold"),
    (
        "uarch.uops",
        "count",
        "paper_err_pct; never under a speed-only change",
    ),
    (
        "uarch.ipc",
        "ratio",
        "paper_err_pct; never under a speed-only change",
    ),
    (
        "uarch.l1d_miss_pct",
        "%",
        "paper_err_pct; never under a speed-only change",
    ),
    (
        "uarch.l2_miss_pct",
        "%",
        "paper_err_pct; never under a speed-only change",
    ),
    (
        "uarch.l3_miss_pct",
        "%",
        "paper_err_pct; never under a speed-only change",
    ),
    (
        "uarch.mispredict_pct",
        "%",
        "paper_err_pct; never under a speed-only change",
    ),
    ("store.sched_occupancy", "ratio", "campaign_s on full-cold"),
    ("store.sched_tail_s", "s", "campaign_s on full-cold"),
    ("store.sched_batches", "count", "campaign_s on full-cold"),
    ("store.job_retries", "count", "campaign_s on full-cold"),
    ("store.job_failures", "count", "campaign_s on full-cold"),
    ("store.lookup_us_p50", "us", "campaign_s on quick-warm"),
    ("store.lookup_us_tail", "us", "campaign_s on quick-warm"),
    (
        "store.lookup_samples",
        "count",
        "sample count of the lookup timings",
    ),
    ("store.cache_hit_ratio", "ratio", "campaign_s on quick-warm"),
    ("store.bytes_read", "bytes", "campaign_s on quick-warm"),
    ("store.insert_us_p50", "us", "campaign_s on full-cold"),
    ("store.bytes_written", "bytes", "campaign_s on full-cold"),
    ("store.self_s", "s", "campaign_s on quick-warm"),
    ("core.pair_p50_ms", "ms", "campaign_s on full-cold"),
    ("core.pair_tail_ms", "ms", "campaign_s on full-cold"),
    (
        "core.pair_samples",
        "count",
        "sample count of the pair timings",
    ),
    ("core.collect_s", "s", "campaign_s on full-cold"),
    (
        "core.experiments_ms",
        "ms",
        "campaign_s on quick-warm; no change on full-cold",
    ),
    (
        "core.experiment_max_ms",
        "ms",
        "campaign_s on quick-warm; no change on full-cold",
    ),
    ("core.self_s", "s", "campaign_s on quick-warm"),
    ("report.render_ms", "ms", "campaign_s on quick-warm"),
    ("report.bytes", "bytes", "campaign_s on quick-warm"),
    ("report.self_s", "s", "campaign_s on quick-warm"),
    ("simpoint.analyze_s", "s", "campaign_s on simpoint-ref"),
    ("simpoint.pair_p50_ms", "ms", "campaign_s on simpoint-ref"),
    (
        "simpoint.detailed_op_ratio",
        "ratio",
        "campaign_s on simpoint-ref",
    ),
    (
        "simpoint.wall_speedup",
        "ratio",
        "campaign_s on simpoint-ref",
    ),
    ("simpoint.max_err_pct", "%", "paper_err_pct on simpoint-ref"),
    ("simpoint.self_s", "s", "campaign_s on simpoint-ref"),
    (
        "obs.sinks_on_ratio",
        "ratio",
        "campaign_s on full-cold when sinks are on",
    ),
    (
        "obs.trace_overhead_pct",
        "%",
        "none; the cost of this benchmark's tracing",
    ),
    (
        "obs.attributed_frac",
        "ratio",
        "none; share of traced time the layers cover",
    ),
];

fn parse_args() -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("full-cold, quick-warm or simpoint-ref"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("positive seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    Ok(RunSpec {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work: base.join(format!("run-{}", std::process::id())),
        span_file: base.join(format!("spans-{}-{seed}.tsv", workload.name())),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let spec = match parse_args() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: campaign-bench --workload <full-cold|quick-warm|simpoint-ref> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(&spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.account.problems {
        eprintln!("check failed: {p}");
    }

    let mut info: Vec<(&str, String)> = machine::fingerprint();
    info.push(("workload", spec.workload.name().into()));
    info.push(("seed", spec.seed.to_string()));
    info.extend(outcome.notes.iter().cloned());
    let members: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"run\": {{{}}}}}", members.join(", "));

    let declared: Vec<(&str, &str)> = if spec.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            let v = outcome.values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.account.correct(),
        outcome.account.attempted,
        outcome.account.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let flat: String = json.split_whitespace().collect();
        let all = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        let mut declared = 0;
        for (name, unit) in all {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&entry), "{entry} missing from BENCHMARK.json");
            declared += 1;
        }
        let workloads = Workload::ALL.len();
        assert_eq!(flat.matches("\"name\":").count(), declared + workloads);
        for w in Workload::ALL {
            assert!(flat.contains(&format!("\"name\":\"{}\",\"why\"", w.name())));
        }
    }

    #[test]
    fn span_metrics_are_all_declared() {
        let (values, _) = layers::from_spans(&[], 1, 2);
        for name in values.keys() {
            assert!(PER_LAYER.iter().any(|p| p.0 == *name), "{name} undeclared");
        }
    }
}
