//! Structured observability for the characterization pipeline.
//!
//! The paper's workflow is a long batch pipeline (generate traces →
//! simulate → aggregate → analyze); when a reproduction run is slow or
//! wrong, the first question is always *where the time went*. This crate
//! provides the span/event layer the ROADMAP's observability item calls
//! for:
//!
//! - [`Recorder`] — a cheap, clonable, thread-safe handle. Disabled
//!   recorders are no-ops; enabled ones collect in-memory
//!   [`SpanSummary`] rows (for the end-of-run table) and optionally
//!   append JSON Lines to a sink file.
//! - [`Span`] — a scope guard measuring wall time for one pipeline stage,
//!   with free-form key/value fields (`ops simulated`, `cache hits`, …)
//!   and the process memory high-water mark attached at finish.
//! - [`validate_events`] / the `events-validate` binary — strict schema
//!   checking of an emitted JSONL file, used by CI's smoke job.
//!
//! # Event schema (version [`SCHEMA`])
//!
//! Every line is one JSON object:
//!
//! ```json
//! {"schema":1,"kind":"span","name":"collect/cpu2017","wall_ms":12.345,
//!  "mem_hwm_bytes":104857600,"fields":{"records":47,"sim_ops":8800000}}
//! ```
//!
//! - `schema` (required, number): the schema version, currently `1`.
//! - `kind` (required): `"span"` (timed stage) or `"event"` (instant).
//! - `name` (required, string): stage name, `/`-separated hierarchy.
//! - `wall_ms` (spans only, number ≥ 0): stage wall-clock duration.
//! - `mem_hwm_bytes` (optional, number): process peak RSS at finish.
//! - `fields` (optional, object): stage-specific scalars/strings.

use simcheck::json;
use std::fmt;
use std::fs::File;
use std::io::{self, LineWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version of the JSONL event schema this crate emits and validates.
pub const SCHEMA: u32 = 1;

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, bytes, ops).
    U64(u64),
    /// A float (rates, ratios, milliseconds).
    F64(f64),
    /// A string (pair ids, paths, outcomes).
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

impl FieldValue {
    fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::F64(v) if v.is_finite() => format!("{v}"),
            FieldValue::F64(_) => "null".to_string(),
            FieldValue::Str(s) => format!("\"{}\"", json::escape(s)),
            FieldValue::Bool(b) => b.to_string(),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.2}"),
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// The completed record of one [`Span`], kept in memory for the
/// end-of-run summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Stage name.
    pub name: String,
    /// Wall-clock duration in milliseconds; `None` for stat rows
    /// ([`Recorder::stat`]), which have no duration of their own.
    pub wall_ms: Option<f64>,
    /// Process peak RSS when the span finished, if known.
    pub mem_hwm_bytes: Option<u64>,
    /// Stage-specific fields, in insertion order.
    pub fields: Vec<(String, FieldValue)>,
}

struct Inner {
    summaries: Mutex<Vec<SpanSummary>>,
    sink: Option<Mutex<LineWriter<File>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // The last recorder handle going away is the stream's only close
        // point: push the LineWriter's partial buffer out and fsync, so a
        // run that crashes right after dropping its recorder still leaves
        // every record it logged parseable on disk.
        if let Some(sink) = &self.sink {
            if let Ok(mut w) = sink.lock() {
                let _ = w.flush();
                let _ = w.get_ref().sync_all();
            }
        }
    }
}

/// A clonable, thread-safe handle for recording spans and events.
///
/// All clones share the same summary list and sink. A recorder built with
/// [`Recorder::disabled`] records nothing and costs nothing.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field(
                "sink",
                &self.inner.as_ref().is_some_and(|i| i.sink.is_some()),
            )
            .finish()
    }
}

impl Recorder {
    /// A recorder that records nothing (the default for library callers).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder collecting in-memory summaries only (no sink file).
    pub fn in_memory() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                summaries: Mutex::new(Vec::new()),
                sink: None,
            })),
        }
    }

    /// A recorder collecting summaries *and* appending JSONL to `path`
    /// (truncating any existing file; parent directories are created).
    pub fn to_path(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(Recorder {
            inner: Some(Arc::new(Inner {
                summaries: Mutex::new(Vec::new()),
                sink: Some(Mutex::new(LineWriter::new(file))),
            })),
        })
    }

    /// Whether this recorder records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a timed span. Finish it explicitly with [`Span::finish`] or
    /// let it record on drop.
    pub fn span(&self, name: &str) -> Span {
        Span {
            recorder: self.clone(),
            name: name.to_string(),
            start: Instant::now(),
            fields: Vec::new(),
            finished: false,
        }
    }

    /// Records an instantaneous event with the given fields.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        if self.inner.is_none() {
            return;
        }
        let owned: Vec<(String, FieldValue)> = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        self.write_line("event", name, None, None, &owned);
    }

    /// Records an end-of-run statistic row: it appears in the summary
    /// table with no wall time (rendered as `-`) and streams to the sink
    /// as an `event` record, which legally carries no `wall_ms`.
    pub fn stat(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        let owned: Vec<(String, FieldValue)> = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        inner
            .summaries
            .lock()
            .expect("summary lock")
            .push(SpanSummary {
                name: name.to_string(),
                wall_ms: None,
                mem_hwm_bytes: None,
                fields: owned.clone(),
            });
        self.write_line("event", name, None, None, &owned);
    }

    /// Snapshot of all finished span summaries, in completion order.
    pub fn summaries(&self) -> Vec<SpanSummary> {
        match &self.inner {
            Some(inner) => inner.summaries.lock().expect("summary lock").clone(),
            None => Vec::new(),
        }
    }

    /// Renders the finished spans as an aligned text table — the
    /// end-of-run summary the binaries print.
    pub fn render_summary(&self) -> String {
        let summaries = self.summaries();
        if summaries.is_empty() {
            return String::new();
        }
        let name_w = summaries
            .iter()
            .map(|s| s.name.len())
            .chain(["stage".len()])
            .max()
            .unwrap_or(5);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>12}  {:>12}  details\n",
            "stage", "wall_ms", "peak_rss_mb"
        ));
        for s in &summaries {
            let wall = match s.wall_ms {
                Some(ms) => format!("{ms:.3}"),
                None => "-".to_string(),
            };
            let mem = match s.mem_hwm_bytes {
                Some(b) => format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
                None => "-".to_string(),
            };
            let details = s
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<name_w$}  {:>12}  {:>12}  {}\n",
                s.name, wall, mem, details
            ));
        }
        out
    }

    fn record_span(
        &self,
        name: &str,
        wall_ms: f64,
        mem_hwm_bytes: Option<u64>,
        fields: &[(String, FieldValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        inner
            .summaries
            .lock()
            .expect("summary lock")
            .push(SpanSummary {
                name: name.to_string(),
                wall_ms: Some(wall_ms),
                mem_hwm_bytes,
                fields: fields.to_vec(),
            });
        self.write_line("span", name, Some(wall_ms), mem_hwm_bytes, fields);
    }

    fn write_line(
        &self,
        kind: &str,
        name: &str,
        wall_ms: Option<f64>,
        mem_hwm_bytes: Option<u64>,
        fields: &[(String, FieldValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        let Some(sink) = &inner.sink else { return };
        let mut line = format!(
            "{{\"schema\":{SCHEMA},\"kind\":\"{kind}\",\"name\":\"{}\"",
            json::escape(name)
        );
        if let Some(ms) = wall_ms {
            line.push_str(&format!(",\"wall_ms\":{:.3}", ms.max(0.0)));
        }
        if let Some(bytes) = mem_hwm_bytes {
            line.push_str(&format!(",\"mem_hwm_bytes\":{bytes}"));
        }
        if !fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("\"{}\":{}", json::escape(k), v.to_json()));
            }
            line.push('}');
        }
        line.push('}');
        // Logging failures must never take down a simulation run.
        let mut w = sink.lock().expect("sink lock");
        let _ = writeln!(w, "{line}");
    }
}

/// A scope guard timing one pipeline stage.
///
/// Records on [`Span::finish`] or on drop, whichever comes first.
#[derive(Debug)]
pub struct Span {
    recorder: Recorder,
    name: String,
    start: Instant,
    fields: Vec<(String, FieldValue)>,
    finished: bool,
}

impl Span {
    /// Attaches a field (throughput, counts, outcome, …) to the span.
    pub fn record(&mut self, key: &str, value: impl Into<FieldValue>) {
        if self.recorder.is_enabled() {
            self.fields.push((key.to_string(), value.into()));
        }
    }

    /// Elapsed wall time so far, in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Finishes the span now and returns its wall time in milliseconds.
    pub fn finish(mut self) -> f64 {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> f64 {
        let wall_ms = self.elapsed_ms();
        if !self.finished {
            self.finished = true;
            if self.recorder.is_enabled() {
                self.recorder.record_span(
                    &self.name,
                    wall_ms,
                    mem_high_water_bytes(),
                    &self.fields,
                );
            }
        }
        wall_ms
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// The process's peak resident set size in bytes, if the platform exposes
/// it (`VmHWM` in `/proc/self/status` on Linux).
pub fn mem_high_water_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Counts of the records in a validated events file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventsSummary {
    /// `kind == "span"` records.
    pub spans: usize,
    /// `kind == "event"` records.
    pub events: usize,
}

impl EventsSummary {
    /// Total records of any kind.
    pub fn total(&self) -> usize {
        self.spans + self.events
    }
}

/// Validates JSONL event text with coded diagnostics (rules E001–E012),
/// collecting *every* violation instead of stopping at the first.
///
/// `object` names the stream in spans (usually the file path); each
/// diagnostic's span is `"{object}:{line}"` plus the offending member.
/// Beyond the per-line schema checks that [`validate_events`] performs,
/// this audit treats an empty stream (E010) and a truncated final line
/// (E011) as errors — an events file CI never wrote should fail its gate,
/// not vacuously pass it.
pub fn check_events(object: &str, input: &str) -> (EventsSummary, simcheck::Report) {
    use simcheck::{codes, Diagnostic, Report, Span};
    let mut summary = EventsSummary::default();
    let mut report = Report::new();
    let mut non_blank = 0usize;
    let mut last_lineno = 0usize;
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        last_lineno = lineno;
        if line.trim().is_empty() {
            continue;
        }
        non_blank += 1;
        let at = format!("{object}:{lineno}");
        let before = report.len();
        let value = match json::parse(line) {
            Ok(value) => value,
            Err(e) => {
                report.push(Diagnostic::new(
                    &codes::E001,
                    Span::object(at),
                    e.to_string(),
                ));
                continue;
            }
        };
        if value.as_object().is_none() {
            report.push(Diagnostic::new(
                &codes::E002,
                Span::object(at),
                "record is not a JSON object",
            ));
            continue;
        }
        match value.get("schema").map(json::Value::as_u64) {
            None | Some(None) => {
                report.push(Diagnostic::new(
                    &codes::E003,
                    Span::field(&at, "schema"),
                    "missing numeric \"schema\"",
                ));
            }
            Some(Some(schema)) if schema > SCHEMA as u64 => {
                report.push(Diagnostic::new(
                    &codes::E012,
                    Span::field(&at, "schema"),
                    format!(
                        "schema version {schema} is newer than supported {SCHEMA}; \
                         upgrade the reader"
                    ),
                ));
            }
            Some(Some(schema)) if schema != SCHEMA as u64 => {
                report.push(Diagnostic::new(
                    &codes::E004,
                    Span::field(&at, "schema"),
                    format!("schema version {schema} (expected {SCHEMA})"),
                ));
            }
            Some(Some(_)) => {}
        }
        let kind = value.get("kind").and_then(json::Value::as_str);
        let name = value.get("name").and_then(json::Value::as_str);
        if kind.is_none() {
            report.push(Diagnostic::new(
                &codes::E005,
                Span::field(&at, "kind"),
                "missing string \"kind\"",
            ));
        }
        match name {
            None => report.push(Diagnostic::new(
                &codes::E005,
                Span::field(&at, "name"),
                "missing string \"name\"",
            )),
            Some("") => report.push(Diagnostic::new(
                &codes::E005,
                Span::field(&at, "name"),
                "empty \"name\"",
            )),
            Some(_) => {}
        }
        let mut counted_kind = None;
        match kind {
            Some("span") => {
                match value.get("wall_ms").and_then(json::Value::as_f64) {
                    Some(wall) if !wall.is_nan() && wall >= 0.0 => {}
                    Some(wall) => report.push(Diagnostic::new(
                        &codes::E006,
                        Span::field(&at, "wall_ms"),
                        format!("invalid wall_ms {wall}"),
                    )),
                    None => report.push(Diagnostic::new(
                        &codes::E006,
                        Span::field(&at, "wall_ms"),
                        "span without numeric \"wall_ms\"",
                    )),
                }
                counted_kind = Some("span");
            }
            Some("event") => counted_kind = Some("event"),
            Some(other) => report.push(Diagnostic::new(
                &codes::E007,
                Span::field(&at, "kind"),
                format!("unknown kind \"{other}\""),
            )),
            None => {}
        }
        if let Some(mem) = value.get("mem_hwm_bytes") {
            if mem.as_u64().is_none() {
                report.push(Diagnostic::new(
                    &codes::E008,
                    Span::field(&at, "mem_hwm_bytes"),
                    "mem_hwm_bytes is not a non-negative whole number",
                ));
            }
        }
        if let Some(fields) = value.get("fields") {
            if fields.as_object().is_none() {
                report.push(Diagnostic::new(
                    &codes::E009,
                    Span::field(&at, "fields"),
                    "\"fields\" is not an object",
                ));
            }
        }
        if report.len() == before {
            match counted_kind {
                Some("span") => summary.spans += 1,
                Some("event") => summary.events += 1,
                _ => {}
            }
        }
    }
    if non_blank == 0 {
        report.push(Diagnostic::new(
            &codes::E010,
            Span::object(object),
            "event stream contains no records",
        ));
    }
    if !input.is_empty() && !input.ends_with('\n') {
        report.push(Diagnostic::new(
            &codes::E011,
            Span::object(format!("{object}:{last_lineno}")),
            "final line is truncated (no trailing newline)",
        ));
    }
    (summary, report)
}

/// A failure from [`validate_events`], typed so callers can distinguish a
/// malformed stream from one written by a *newer* producer.
///
/// Both variants render as `line {n}: …` (the historical string format), so
/// message-based consumers keep working; exit-code consumers match on the
/// variant instead (`events-validate` exits 2 on [`SchemaTooNew`],
/// 1 on [`Malformed`]).
///
/// [`SchemaTooNew`]: ValidateError::SchemaTooNew
/// [`Malformed`]: ValidateError::Malformed
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A line violating the schema it declares.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong with the line.
        message: String,
    },
    /// A line declaring a schema version above [`SCHEMA`]: the file comes
    /// from a newer binary, and "valid" cannot be decided by this reader.
    SchemaTooNew {
        /// 1-based line number.
        line: usize,
        /// The version the line declares.
        found: u64,
        /// The newest version this reader understands ([`SCHEMA`]).
        supported: u32,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Malformed { line, message } => write!(f, "line {line}: {message}"),
            ValidateError::SchemaTooNew {
                line,
                found,
                supported,
            } => write!(
                f,
                "line {line}: schema version {found} is newer than supported {supported}; \
                 upgrade the reader"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validates JSONL event text against the versioned schema (see the
/// crate-level docs). Returns per-kind record counts, or a typed
/// [`ValidateError`] naming the first offending line.
///
/// This is the legacy first-failure API; [`check_events`] performs the same
/// per-line checks with coded diagnostics, collects every violation, and
/// additionally rejects empty and truncated streams.
pub fn validate_events(input: &str) -> Result<EventsSummary, ValidateError> {
    let malformed = |line: usize, message: String| ValidateError::Malformed { line, message };
    let mut summary = EventsSummary::default();
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| malformed(lineno, e.to_string()))?;
        if value.as_object().is_none() {
            return Err(malformed(lineno, "record is not a JSON object".to_string()));
        }
        let schema = value
            .get("schema")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| malformed(lineno, "missing numeric \"schema\"".to_string()))?;
        if schema > SCHEMA as u64 {
            return Err(ValidateError::SchemaTooNew {
                line: lineno,
                found: schema,
                supported: SCHEMA,
            });
        }
        if schema != SCHEMA as u64 {
            return Err(malformed(
                lineno,
                format!("schema version {schema} (expected {SCHEMA})"),
            ));
        }
        let kind = value
            .get("kind")
            .and_then(json::Value::as_str)
            .ok_or_else(|| malformed(lineno, "missing string \"kind\"".to_string()))?;
        let name = value
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| malformed(lineno, "missing string \"name\"".to_string()))?;
        if name.is_empty() {
            return Err(malformed(lineno, "empty \"name\"".to_string()));
        }
        match kind {
            "span" => {
                let wall = value
                    .get("wall_ms")
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| {
                        malformed(lineno, "span without numeric \"wall_ms\"".to_string())
                    })?;
                if wall.is_nan() || wall < 0.0 {
                    return Err(malformed(lineno, format!("invalid wall_ms {wall}")));
                }
                summary.spans += 1;
            }
            "event" => summary.events += 1,
            other => return Err(malformed(lineno, format!("unknown kind \"{other}\""))),
        }
        if let Some(mem) = value.get("mem_hwm_bytes") {
            if mem.as_u64().is_none() {
                return Err(malformed(
                    lineno,
                    "mem_hwm_bytes is not a whole number".to_string(),
                ));
            }
        }
        if let Some(fields) = value.get("fields") {
            if fields.as_object().is_none() {
                return Err(malformed(lineno, "\"fields\" is not an object".to_string()));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfmon-test-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let mut span = r.span("noop");
        span.record("x", 1u64);
        span.finish();
        r.event("e", &[("k", FieldValue::Bool(true))]);
        assert!(r.summaries().is_empty());
        assert!(r.render_summary().is_empty());
    }

    #[test]
    fn in_memory_recorder_collects_summaries() {
        let r = Recorder::in_memory();
        let mut span = r.span("stage/one");
        span.record("records", 12usize);
        span.record("rate", 1.5f64);
        span.finish();
        {
            let _auto = r.span("stage/two"); // records via Drop
        }
        let summaries = r.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].name, "stage/one");
        assert_eq!(
            summaries[0].fields[0],
            ("records".to_string(), FieldValue::U64(12))
        );
        assert!(summaries[0].wall_ms.expect("span has wall time") >= 0.0);
        let table = r.render_summary();
        assert!(table.contains("stage/one"));
        assert!(table.contains("stage/two"));
        assert!(table.contains("records=12"));
    }

    #[test]
    fn stat_rows_render_without_wall_time() {
        let r = Recorder::in_memory();
        r.span("collect").finish();
        r.stat(
            "cache",
            &[("hits", FieldValue::U64(9)), ("misses", FieldValue::U64(1))],
        );
        let summaries = r.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[1].name, "cache");
        assert_eq!(summaries[1].wall_ms, None);
        assert_eq!(summaries[1].mem_hwm_bytes, None);
        let table = r.render_summary();
        let cache_row = table
            .lines()
            .find(|l| l.starts_with("cache"))
            .expect("stat row in table");
        assert!(cache_row.contains('-'), "no wall time: {cache_row}");
        assert!(cache_row.contains("hits=9"));
    }

    #[test]
    fn stat_rows_stream_as_schema_valid_events() {
        let path = temp_path("stat");
        {
            let r = Recorder::to_path(&path).unwrap();
            r.span("collect").finish();
            r.stat("cache", &[("hits", FieldValue::U64(3))]);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let summary = validate_events(&text).expect("stat line is schema-valid");
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.events, 1);
    }

    #[test]
    fn sink_emits_schema_valid_jsonl() {
        let path = temp_path("sink");
        {
            let r = Recorder::to_path(&path).unwrap();
            let mut span = r.span("collect");
            span.record("pair", "600.perlbench_s/refspeed");
            span.record("ops", 123_456u64);
            span.finish();
            r.event("cache", &[("hits", FieldValue::U64(3))]);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let summary = validate_events(&text).expect("emitted lines must validate");
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.events, 1);
        // Round-trip the first line and check the fields survived.
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            first
                .get("fields")
                .and_then(|f| f.get("ops"))
                .and_then(json::Value::as_u64),
            Some(123_456)
        );
    }

    #[test]
    fn tricky_strings_survive_the_sink() {
        let path = temp_path("escape");
        {
            let r = Recorder::to_path(&path).unwrap();
            let mut span = r.span("weird \"name\"\nwith\tcontrol\u{1}chars");
            span.record("note", "back\\slash é 😀");
            span.finish();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 1, "escaped newline keeps one line");
        validate_events(&text).expect("escaped content must validate");
    }

    #[test]
    fn dropping_the_last_recorder_flushes_the_sink_mid_stream() {
        let path = temp_path("drop-flush");
        let r = Recorder::to_path(&path).unwrap();
        let clone = r.clone();
        r.span("stage/early").finish();
        drop(r); // a surviving clone keeps the sink open
        clone.event("mid-stream", &[("seq", FieldValue::U64(2))]);
        drop(clone); // last handle: flush + fsync
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let summary = validate_events(&text).expect("flushed stream must re-parse");
        assert_eq!((summary.spans, summary.events), (1, 1));
    }

    #[test]
    fn validator_rejects_bad_records() {
        assert!(validate_events("not json").is_err());
        assert!(validate_events("[1,2]").is_err());
        assert!(validate_events("{\"schema\":1,\"kind\":\"nope\",\"name\":\"x\"}").is_err());
        assert!(validate_events("{\"schema\":1,\"kind\":\"span\",\"name\":\"x\"}").is_err());
        assert!(validate_events("{\"schema\":1,\"kind\":\"event\"}").is_err());
        let err =
            validate_events("{\"schema\":1,\"kind\":\"event\",\"name\":\"ok\"}\n{\"schema\":1}\n")
                .unwrap_err();
        let rendered = err.to_string();
        assert!(
            rendered.starts_with("line 2:"),
            "error names the line: {rendered}"
        );
        assert!(matches!(err, ValidateError::Malformed { line: 2, .. }));
    }

    #[test]
    fn validator_distinguishes_newer_schemas_from_malformed_ones() {
        // A version *above* SCHEMA means "upgrade the reader", not "bad
        // file" — the typed variant carries both versions for the caller.
        let err = validate_events("{\"schema\":99,\"kind\":\"span\",\"name\":\"x\",\"wall_ms\":1}")
            .unwrap_err();
        assert_eq!(
            err,
            ValidateError::SchemaTooNew {
                line: 1,
                found: 99,
                supported: SCHEMA,
            }
        );
        assert!(err.to_string().starts_with("line 1: schema version 99"));
        // A version *below* SCHEMA is an ordinary mismatch.
        let err = validate_events("{\"schema\":0,\"kind\":\"event\",\"name\":\"x\"}").unwrap_err();
        assert!(matches!(err, ValidateError::Malformed { line: 1, .. }));
    }

    #[test]
    fn validator_accepts_empty_and_blank_lines() {
        assert_eq!(validate_events("").unwrap().total(), 0);
        assert_eq!(
            validate_events("\n{\"schema\":1,\"kind\":\"event\",\"name\":\"x\"}\n\n")
                .unwrap()
                .total(),
            1
        );
    }

    fn fired(report: &simcheck::Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code.code).collect()
    }

    #[test]
    fn check_events_accepts_a_clean_stream() {
        let text = "{\"schema\":1,\"kind\":\"span\",\"name\":\"a\",\"wall_ms\":1.0}\n\
                    {\"schema\":1,\"kind\":\"event\",\"name\":\"b\"}\n";
        let (summary, report) = check_events("events.jsonl", text);
        assert!(report.is_empty(), "{}", report.to_table());
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.events, 1);
    }

    #[test]
    fn check_events_collects_every_violation_with_lines() {
        let text = "not json\n\
                    {\"schema\":1,\"kind\":\"event\",\"name\":\"ok\"}\n\
                    {\"schema\":9,\"kind\":\"nope\",\"name\":\"\",\"mem_hwm_bytes\":-1}\n\
                    {\"schema\":0,\"kind\":\"event\",\"name\":\"old\"}\n";
        let (summary, report) = check_events("events.jsonl", text);
        let codes = fired(&report);
        for code in ["E001", "E004", "E005", "E007", "E008", "E012"] {
            assert!(codes.contains(&code), "expected {code} in {codes:?}");
        }
        assert_eq!(summary.total(), 1, "the clean second line still counts");
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.span.object == "events.jsonl:3"));
    }

    #[test]
    fn check_events_rejects_empty_and_truncated_streams() {
        let (_, report) = check_events("events.jsonl", "");
        assert_eq!(fired(&report), ["E010"]);
        let (_, report) = check_events("events.jsonl", "\n\n");
        assert_eq!(fired(&report), ["E010"]);
        let truncated = "{\"schema\":1,\"kind\":\"event\",\"name\":\"x\"}";
        let (summary, report) = check_events("events.jsonl", truncated);
        assert_eq!(fired(&report), ["E011"]);
        assert_eq!(summary.events, 1);
        assert!(report.failed(false), "E011 is an error");
    }

    #[test]
    fn check_events_agrees_with_legacy_validator_on_content_checks() {
        // Every line the legacy validator rejects must produce at least one
        // error diagnostic from the coded audit.
        for bad in [
            "not json",
            "[1,2]",
            "{\"schema\":99,\"kind\":\"span\",\"name\":\"x\",\"wall_ms\":1}",
            "{\"schema\":1,\"kind\":\"nope\",\"name\":\"x\"}",
            "{\"schema\":1,\"kind\":\"span\",\"name\":\"x\"}",
            "{\"schema\":1,\"kind\":\"event\"}",
        ] {
            assert!(validate_events(bad).is_err());
            let (_, report) = check_events("t", &format!("{bad}\n"));
            assert!(report.has_errors(), "coded audit missed: {bad}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mem_high_water_is_positive_on_linux() {
        let hwm = mem_high_water_bytes().expect("/proc/self/status has VmHWM");
        assert!(hwm > 0);
    }
}
