//! Reader for the append-only `results/bench_history.jsonl`.
//!
//! The in-tree bench harness appends one line per `Runner::finish` —
//! `{"schema":1,"unix_ms":…,"suite":"…","benchmarks":{name:median_ns}}`
//! — so successive `cargo bench` runs accumulate a trend the dashboard
//! can sparkline. The writer lives in `bench-suite`; this reader is
//! deliberately lenient (foreign or truncated lines are skipped) because
//! the file is append-only and a crashed bench run may leave a torn tail.

use std::path::Path;

use simcheck::json::{self, Value};

/// One bench run's medians.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryPoint {
    /// When the run finished, Unix milliseconds.
    pub unix_ms: u64,
    /// Suite the line came from (`substrates`, `engine`, …).
    pub suite: String,
    /// Benchmark name → median ns/iter, file order.
    pub benchmarks: Vec<(String, u64)>,
}

/// Parses a bench-history document (one JSON object per line). Lines
/// that do not parse as schema-1 history records are skipped. A missing
/// file is an empty history.
pub fn read_history(path: &Path) -> Vec<HistoryPoint> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    parse_history(&text)
}

/// The parsing core, shared with tests.
pub fn parse_history(text: &str) -> Vec<HistoryPoint> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(doc) = json::parse(line) else {
            continue;
        };
        if doc.get("schema").and_then(Value::as_u64) != Some(1) {
            continue;
        }
        let Some(unix_ms) = doc.get("unix_ms").and_then(Value::as_u64) else {
            continue;
        };
        let Some(entries) = doc.get("benchmarks").and_then(Value::as_object) else {
            continue;
        };
        let mut benchmarks = Vec::new();
        for (name, v) in entries {
            if let Some(median_ns) = v.as_u64() {
                benchmarks.push((name.clone(), median_ns));
            }
        }
        out.push(HistoryPoint {
            unix_ms,
            suite: doc
                .get("suite")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            benchmarks,
        });
    }
    out.sort_by_key(|p| p.unix_ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_parses_and_sorts_skipping_torn_lines() {
        let text = "\
            {\"schema\":1,\"unix_ms\":200,\"suite\":\"substrates\",\"benchmarks\":{\"a\":5}}\n\
            {\"schema\":1,\"unix_ms\":100,\"suite\":\"substrates\",\"benchmarks\":{\"a\":7,\"b\":9}}\n\
            {\"schema\":9,\"unix_ms\":1,\"benchmarks\":{}}\n\
            {\"schema\":1,\"unix_ms\":300,\"suite\n";
        let points = parse_history(text);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].unix_ms, 100);
        assert_eq!(points[0].benchmarks, vec![("a".into(), 7), ("b".into(), 9)]);
        assert_eq!(points[1].benchmarks, vec![("a".into(), 5)]);
    }
}
