//! Design-space sensitivity studies over the characterized suite.
//!
//! The paper positions CPU2017 as the workload set for "simulation-based
//! design and optimization research for next-generation processors \[and\]
//! memory subsystems". This module runs that use case end to end: sweep one
//! architectural parameter, run a set of applications at each point, and
//! tabulate how the suite responds — the what-if analysis a
//! processor architect would perform with the reproduced infrastructure.
//! Sweeps are trace-driven on the campaign path: each (variant, pair) point
//! is one scheduler job that generates the pair's trace for the baseline
//! machine and streams it through a fresh engine for the variant, so every
//! variant sees the identical micro-op stream and no trace is stored.

use simreport::figure::{Figure, Kind, Series};
use simreport::table::{num, Table};
use uarch_sim::config::SystemConfig;
use workload_synth::profile::{AppInputPair, AppProfile, InputSize};

use crate::characterize::{characterize_trace, prepared_run, schedule_all, CharRecord, RunConfig};
use crate::error::Result;

/// One swept configuration point with its suite-average outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Label of the configuration (e.g. `"15 MiB"`).
    pub label: String,
    /// Mean IPC across the swept applications.
    pub mean_ipc: f64,
    /// Mean local L2 miss rate (percent).
    pub mean_l2_miss_pct: f64,
    /// Mean local L3 miss rate (percent).
    pub mean_l3_miss_pct: f64,
    /// Mean projected execution seconds.
    pub mean_seconds: f64,
}

/// Result of a parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// What was swept (for titles).
    pub parameter: &'static str,
    /// The per-configuration outcomes, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!("Sensitivity: suite response to {}", self.parameter),
            &[
                self.parameter,
                "Mean IPC",
                "L2 miss %",
                "L3 miss %",
                "Mean time (s)",
            ],
        );
        t.numeric();
        for p in &self.points {
            t.row(vec![
                p.label.clone(),
                num(p.mean_ipc, 3),
                num(p.mean_l2_miss_pct, 2),
                num(p.mean_l3_miss_pct, 2),
                num(p.mean_seconds, 1),
            ]);
        }
        t
    }

    /// Renders the sweep's IPC response as a line figure.
    pub fn figure(&self) -> Figure {
        let mut f = Figure::new(&format!("Suite mean IPC vs {}", self.parameter), Kind::Line);
        let labels: Vec<&str> = self.points.iter().map(|p| p.label.as_str()).collect();
        let x: Vec<f64> = (0..self.points.len()).map(|i| i as f64).collect();
        let y: Vec<f64> = self.points.iter().map(|p| p.mean_ipc).collect();
        f.push(Series::points("mean IPC", &labels, &x, &y));
        f
    }
}

/// The suite-average outcome of one point over its per-pair records, summed
/// in pair order.
fn mean_point<'a>(label: String, records: impl IntoIterator<Item = &'a CharRecord>) -> SweepPoint {
    let (mut ipc, mut m2, mut m3, mut secs) = (0.0, 0.0, 0.0, 0.0);
    let mut n = 0usize;
    for r in records {
        ipc += r.ipc;
        m2 += r.l2_miss_pct;
        m3 += r.l3_miss_pct;
        secs += r.projected_seconds;
        n += 1;
    }
    let n = n.max(1) as f64;
    SweepPoint {
        label,
        mean_ipc: ipc / n,
        mean_l2_miss_pct: m2 / n,
        mean_l3_miss_pct: m3 / n,
        mean_seconds: secs / n,
    }
}

fn sweep_over(
    parameter: &'static str,
    apps: &[AppProfile],
    base: &RunConfig,
    configs: Vec<(String, SystemConfig)>,
    baseline: Option<&[CharRecord]>,
) -> Result<Sweep> {
    let pairs: Vec<AppInputPair<'_>> = apps
        .iter()
        .flat_map(|app| app.pairs(InputSize::Ref))
        .collect();
    // The unmodified point: a characterization campaign (possibly
    // cache-served) already measured it on the identical trace, warmup and
    // engine, so its `ref` records serve it when they cover every pair.
    let served: Vec<Option<Vec<&CharRecord>>> = configs
        .iter()
        .map(|(_, system)| {
            let records = baseline.filter(|_| *system == base.system)?;
            pairs
                .iter()
                .map(|pair| {
                    let id = pair.id();
                    records
                        .iter()
                        .find(|r| r.size == InputSize::Ref && r.id == id)
                })
                .collect()
        })
        .collect();

    // Every other (variant, pair) point is one scheduler job. The workload
    // adapts its working sets to whatever machine it is generated for (that
    // is how miss-rate targets are hit), so the trace is generated for the
    // baseline machine and streamed unchanged through the variant.
    let jobs: Vec<(usize, usize)> = served
        .iter()
        .enumerate()
        .filter(|(_, records)| records.is_none())
        .flat_map(|(c, _)| (0..pairs.len()).map(move |p| (c, p)))
        .collect();
    let simulated = schedule_all(
        jobs.len(),
        |j| format!("{}:{}", configs[jobs[j].0].0, pairs[jobs[j].1].id()),
        |j| {
            let (c, p) = jobs[j];
            let variant = RunConfig {
                system: configs[c].1.clone(),
                scale: base.scale,
                sampler: None,
            };
            let (trace, hints) = prepared_run(&pairs[p], base)?;
            Ok(characterize_trace(&pairs[p], trace, hints, &variant))
        },
    )?;

    let mut simulated = simulated.iter();
    let points = configs
        .into_iter()
        .zip(served)
        .map(|((label, _), records)| match records {
            Some(records) => mean_point(label, records),
            None => mean_point(label, simulated.by_ref().take(pairs.len())),
        })
        .collect();
    Ok(Sweep { parameter, points })
}

/// Sweeps main-memory latency over `cycle_points` — the strongest lever on
/// the memory-bound applications the paper highlights. `baseline` records
/// serve any point whose system equals the baseline system.
///
/// # Errors
///
/// [`crate::error::Error::Characterization`] naming every `variant:pair`
/// job that failed.
pub fn memory_latency_sweep(
    apps: &[AppProfile],
    base: &RunConfig,
    cycle_points: &[u64],
    baseline: Option<&[CharRecord]>,
) -> Result<Sweep> {
    let configs = cycle_points
        .iter()
        .map(|&cycles| {
            let mut system = base.system.clone();
            system.memory_latency = cycles;
            (format!("{cycles} cyc"), system)
        })
        .collect();
    sweep_over("DRAM latency", apps, base, configs, baseline)
}

/// Sweeps the core issue width over `width_points` — compute-bound
/// applications respond, memory-bound ones barely move (the classic
/// balance-of-machine picture). `baseline` records serve the base point.
///
/// # Errors
///
/// [`crate::error::Error::Characterization`] naming every `variant:pair`
/// job that failed.
pub fn issue_width_sweep(
    apps: &[AppProfile],
    base: &RunConfig,
    width_points: &[usize],
    baseline: Option<&[CharRecord]>,
) -> Result<Sweep> {
    let configs = width_points
        .iter()
        .map(|&width| {
            let mut system = base.system.clone();
            system.issue_width = width;
            (format!("{width}-wide"), system)
        })
        .collect();
    sweep_over("issue width", apps, base, configs, baseline)
}

/// Sweeps the shared L3 capacity over `mib_points`. `baseline` records
/// serve the base point.
///
/// Note: at the default trace scale the per-application L3 working sets are
/// far smaller than any realistic L3 point, so this sweep is flat unless
/// `base.scale` is raised substantially — it exists for full-fidelity runs
/// and is not featured in the `extensions` binary's default report.
///
/// # Errors
///
/// [`crate::error::Error::Characterization`] naming every `variant:pair`
/// job that failed.
pub fn l3_capacity_sweep(
    apps: &[AppProfile],
    base: &RunConfig,
    mib_points: &[usize],
    baseline: Option<&[CharRecord]>,
) -> Result<Sweep> {
    let configs = mib_points
        .iter()
        .map(|&mib| {
            (
                format!("{mib} MiB"),
                base.system.clone().with_l3_size(mib * 1024 * 1024),
            )
        })
        .collect();
    sweep_over("L3 capacity", apps, base, configs, baseline)
}

/// Sweeps the per-core L2 capacity over `kib_points`. `baseline` records
/// serve the base point.
///
/// # Errors
///
/// [`crate::error::Error::Characterization`] naming every `variant:pair`
/// job that failed.
pub fn l2_capacity_sweep(
    apps: &[AppProfile],
    base: &RunConfig,
    kib_points: &[usize],
    baseline: Option<&[CharRecord]>,
) -> Result<Sweep> {
    let configs = kib_points
        .iter()
        .map(|&kib| {
            (
                format!("{kib} KiB"),
                base.system.clone().with_l2_size(kib * 1024),
            )
        })
        .collect();
    sweep_over("L2 capacity", apps, base, configs, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_synth::cpu2017;

    fn memory_bound_apps() -> Vec<AppProfile> {
        vec![
            cpu2017::app("505.mcf_r").unwrap(),
            cpu2017::app("549.fotonik3d_r").unwrap(),
        ]
    }

    #[test]
    fn larger_l3_never_hurts_ipc() {
        let sweep = l3_capacity_sweep(
            &memory_bound_apps(),
            &RunConfig::quick(),
            &[4, 30, 120],
            None,
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 3);
        let ipc: Vec<f64> = sweep.points.iter().map(|p| p.mean_ipc).collect();
        assert!(
            ipc.windows(2).all(|w| w[1] >= w[0] - 0.02),
            "IPC must not degrade with more L3: {ipc:?}"
        );
    }

    #[test]
    fn slower_memory_hurts_memory_bound_apps() {
        let sweep = memory_latency_sweep(
            &memory_bound_apps(),
            &RunConfig::quick(),
            &[100, 220, 500],
            None,
        )
        .unwrap();
        let ipc: Vec<f64> = sweep.points.iter().map(|p| p.mean_ipc).collect();
        assert!(
            ipc.windows(2).all(|w| w[1] < w[0]),
            "IPC must fall as DRAM slows: {ipc:?}"
        );
        assert!(ipc[0] > ipc[2] * 1.08, "response must be material: {ipc:?}");
    }

    #[test]
    fn wider_issue_helps_compute_bound_apps() {
        let apps = vec![cpu2017::app("525.x264_r").unwrap()];
        let sweep = issue_width_sweep(&apps, &RunConfig::quick(), &[1, 2, 4], None).unwrap();
        let ipc: Vec<f64> = sweep.points.iter().map(|p| p.mean_ipc).collect();
        assert!(ipc[2] > ipc[0] * 1.5, "x264 must scale with width: {ipc:?}");
    }

    #[test]
    fn larger_l2_reduces_l2_miss_rate() {
        let sweep = l2_capacity_sweep(
            &memory_bound_apps(),
            &RunConfig::quick(),
            &[128, 256, 1024],
            None,
        )
        .unwrap();
        let m2: Vec<f64> = sweep.points.iter().map(|p| p.mean_l2_miss_pct).collect();
        assert!(
            m2.first().unwrap() >= m2.last().unwrap(),
            "bigger L2 must lower the local L2 miss rate: {m2:?}"
        );
    }

    #[test]
    fn baseline_records_reproduce_the_base_point_exactly() {
        let apps = memory_bound_apps();
        let base = RunConfig::quick();
        let latency = base.system.memory_latency;
        let replayed = memory_latency_sweep(&apps, &base, &[latency, 500], None).unwrap();
        let records =
            crate::characterize::characterize_suite(&apps, InputSize::Ref, &base).unwrap();
        let served = memory_latency_sweep(&apps, &base, &[latency, 500], Some(&records)).unwrap();
        assert_eq!(
            replayed, served,
            "record-served base point must match a replay"
        );
    }

    #[test]
    fn incomplete_baseline_falls_back_to_replay() {
        let apps = memory_bound_apps();
        let base = RunConfig::quick();
        let latency = base.system.memory_latency;
        // Records covering only one of the two apps cannot serve the point.
        let partial =
            crate::characterize::characterize_suite(&apps[..1], InputSize::Ref, &base).unwrap();
        let replayed = memory_latency_sweep(&apps, &base, &[latency], None).unwrap();
        let served = memory_latency_sweep(&apps, &base, &[latency], Some(&partial)).unwrap();
        assert_eq!(replayed, served);
    }

    #[test]
    fn broken_profile_fails_its_variant_jobs_not_the_process() {
        let apps = crate::characterize::poisoned_apps();
        let err = memory_latency_sweep(&apps, &RunConfig::quick(), &[120, 500], None).unwrap_err();
        match &err {
            crate::error::Error::Characterization { failures, total } => {
                assert_eq!(*total, 2 * 3, "one job per (variant, pair) point");
                let labels: Vec<&str> = failures.iter().map(|f| f.label.as_str()).collect();
                assert_eq!(labels, ["120 cyc:999.broken_r", "500 cyc:999.broken_r"]);
            }
            other => panic!("expected Characterization, got {other:?}"),
        }
        assert!(err.to_string().contains("120 cyc:999.broken_r"), "{err}");
    }

    #[test]
    fn rendering_works() {
        let sweep =
            l3_capacity_sweep(&memory_bound_apps(), &RunConfig::quick(), &[8, 30], None).unwrap();
        let table = sweep.table();
        assert_eq!(table.n_rows(), 2);
        assert!(table.render_ascii().contains("30 MiB"));
        let figure = sweep.figure();
        assert_eq!(figure.series()[0].len(), 2);
        assert!(!figure.render_svg(400, 200).is_empty());
    }
}
