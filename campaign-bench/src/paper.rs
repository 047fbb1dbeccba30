//! The paper's quoted suite averages, for `paper_err_pct`.
//!
//! These are the emergent values the simulator measures (IPC, cache miss
//! rates, branch mispredict rates), with the paper's figures as quoted in
//! the paper columns of EXPERIMENTS.md. The workload profiles were
//! calibrated against these same figures and the repository holds no
//! held-out measurement, so the error is agreement with the paper, not a
//! validation of the model.

use uarch_sim::counters::PerfSession;
use workchar::characterize::CharRecord;
use workchar::compare::{compare_rows, Metric};
use workchar::dataset::Dataset;
use workload_synth::profile::InputSize;

/// A quoted value: table, row label, metric column, paper value.
pub type Quote = (&'static str, &'static str, Column, f64);

/// A metric column of Tables III, VI and VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// Table III IPC average.
    Ipc,
    /// Table VI L1D load miss rate average (%).
    L1Miss,
    /// Table VI L2 load miss rate average (%).
    L2Miss,
    /// Table VI L3 load miss rate average (%).
    L3Miss,
    /// Table VII branch mispredict rate average (%).
    Mispredict,
}

impl Column {
    const ALL: [Column; 5] = [
        Column::Ipc,
        Column::L1Miss,
        Column::L2Miss,
        Column::L3Miss,
        Column::Mispredict,
    ];

    fn of_session(self, s: &PerfSession) -> f64 {
        match self {
            Column::Ipc => s.ipc(),
            Column::L1Miss => s.l1_miss_rate() * 100.0,
            Column::L2Miss => s.l2_miss_rate() * 100.0,
            Column::L3Miss => s.l3_miss_rate() * 100.0,
            Column::Mispredict => s.mispredict_rate() * 100.0,
        }
    }
}

/// Every quoted value used.
pub const QUOTES: [Quote; 26] = [
    ("Table III", "CPU06 int", Column::Ipc, 1.762),
    ("Table III", "CPU17 int", Column::Ipc, 1.679),
    ("Table III", "CPU06 fp", Column::Ipc, 1.815),
    ("Table III", "CPU17 fp", Column::Ipc, 1.255),
    ("Table III", "CPU06 all", Column::Ipc, 1.784),
    ("Table III", "CPU17 all", Column::Ipc, 1.457),
    ("Table VI", "CPU06 int", Column::L1Miss, 4.13),
    ("Table VI", "CPU06 int", Column::L2Miss, 40.9),
    ("Table VI", "CPU06 int", Column::L3Miss, 12.2),
    ("Table VI", "CPU17 int", Column::L1Miss, 3.87),
    ("Table VI", "CPU17 int", Column::L2Miss, 38.6),
    ("Table VI", "CPU17 int", Column::L3Miss, 15.3),
    ("Table VI", "CPU06 fp", Column::L1Miss, 2.53),
    ("Table VI", "CPU06 fp", Column::L2Miss, 31.9),
    ("Table VI", "CPU06 fp", Column::L3Miss, 14.0),
    ("Table VI", "CPU17 fp", Column::L1Miss, 3.02),
    ("Table VI", "CPU17 fp", Column::L2Miss, 27.0),
    ("Table VI", "CPU17 fp", Column::L3Miss, 13.1),
    ("Table VI", "CPU17 all", Column::L1Miss, 3.42),
    ("Table VI", "CPU17 all", Column::L2Miss, 32.5),
    ("Table VI", "CPU17 all", Column::L3Miss, 14.2),
    ("Table VII", "CPU06 int", Column::Mispredict, 2.39),
    ("Table VII", "CPU17 int", Column::Mispredict, 3.31),
    ("Table VII", "CPU06 fp", Column::Mispredict, 1.97),
    ("Table VII", "CPU17 fp", Column::Mispredict, 1.19),
    ("Table VII", "CPU17 all", Column::Mispredict, 2.20),
];

fn record_value(column: Column, r: &CharRecord) -> f64 {
    match column {
        Column::Ipc => r.ipc,
        Column::L1Miss => r.l1_miss_pct,
        Column::L2Miss => r.l2_miss_pct,
        Column::L3Miss => r.l3_miss_pct,
        Column::Mispredict => r.mispredict_pct,
    }
}

/// Suite-average rows (`CPU17 all` and the like), one value per
/// [`Column`].
pub type Rows = Vec<(String, [f64; 5])>;

/// The dataset's Table III/VI/VII averages: the CPU2006 and CPU2017-`ref`
/// rows the tables print, computed by the program's own `compare_rows`.
pub fn dataset_rows(data: &Dataset) -> Rows {
    let extract = Column::ALL.map(|c| move |r: &CharRecord| record_value(c, r));
    let metrics: Vec<Metric<'_>> = extract.iter().map(|f| ("", f as _)).collect();
    let cpu17_ref: Vec<CharRecord> = data.cpu17_at(InputSize::Ref).into_iter().cloned().collect();
    compare_rows(&data.cpu06, &cpu17_ref, &metrics)
        .iter()
        .map(|row| (row.label(), std::array::from_fn(|i| row.cells[i].mean)))
        .collect()
}

/// CPU2017 `int`, `fp` and `all` rows of per-pair counter files, averaged
/// per application first and then over the applications of each class, as
/// the tables average. Each item is (application, integer?, counters).
pub fn session_rows(items: &[(&str, bool, PerfSession)]) -> Rows {
    let mut per_app: Vec<(&str, bool, Vec<[f64; 5]>)> = Vec::new();
    for (app, int, s) in items {
        let v = Column::ALL.map(|c| c.of_session(s));
        match per_app.iter_mut().find(|(a, _, _)| a == app) {
            Some((_, _, vs)) => vs.push(v),
            None => per_app.push((app, *int, vec![v])),
        }
    }
    let app_means: Vec<(bool, [f64; 5])> = per_app
        .iter()
        .map(|(_, int, vs)| {
            let n = vs.len() as f64;
            (
                *int,
                std::array::from_fn(|i| vs.iter().map(|v| v[i]).sum::<f64>() / n),
            )
        })
        .collect();
    ["int", "fp", "all"]
        .into_iter()
        .map(|class| {
            let members: Vec<&[f64; 5]> = app_means
                .iter()
                .filter(|(int, _)| class == "all" || (class == "int") == *int)
                .map(|(_, v)| v)
                .collect();
            let n = members.len().max(1) as f64;
            let means = std::array::from_fn(|i| members.iter().map(|v| v[i]).sum::<f64>() / n);
            (format!("CPU17 {class}"), means)
        })
        .collect()
}

/// The row labelled `label`, if present.
pub fn row(rows: &Rows, label: &str) -> Option<[f64; 5]> {
    rows.iter().find(|(l, _)| l == label).map(|(_, v)| *v)
}

/// Mean relative error (%) of `rows` against every quoted value whose row
/// they contain.
pub fn err_pct(rows: &Rows) -> f64 {
    let errs: Vec<f64> = QUOTES
        .iter()
        .filter_map(|&(_, label, col, paper)| {
            let i = Column::ALL.iter().position(|&c| c == col)?;
            row(rows, label).map(|v| (v[i] - paper).abs() / paper)
        })
        .collect();
    100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_are_positive_and_unique() {
        for (i, a) in QUOTES.iter().enumerate() {
            assert!(a.3 > 0.0);
            for b in &QUOTES[i + 1..] {
                assert!((a.0, a.1, a.2) != (b.0, b.1, b.2), "{a:?} twice");
            }
        }
    }

    #[test]
    fn demo_dataset_error_is_finite_and_positive() {
        let rows = dataset_rows(&Dataset::demo());
        assert_eq!(rows.len(), 6);
        let err = err_pct(&rows);
        assert!(err.is_finite() && err > 0.0, "{err}");
    }

    #[test]
    fn session_rows_average_per_application_first() {
        let session = |cycles: u64| {
            let mut s = PerfSession::new();
            s.set(uarch_sim::counters::Event::InstRetiredAny, 100);
            s.set(uarch_sim::counters::Event::CpuClkUnhaltedRefTsc, cycles);
            s
        };
        // Two inputs of one int app (IPC 1 and 2 average to 1.5) and one
        // fp app (IPC 0.5): `all` is the mean of the app means, 1.0.
        let rows = session_rows(&[
            ("a", true, session(100)),
            ("a", true, session(50)),
            ("b", false, session(200)),
        ]);
        let ipc = |label| row(&rows, label).unwrap()[0];
        assert_eq!(ipc("CPU17 int"), 1.5);
        assert_eq!(ipc("CPU17 fp"), 0.5);
        assert_eq!(ipc("CPU17 all"), 1.0);
    }
}
