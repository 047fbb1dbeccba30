//! The traced run's own spans: recorded around the benchmark's calls into
//! each layer, kept in memory, and written out when the run ends.
//!
//! A span's layer is its name up to the first `.` (`store.lookup` belongs
//! to `store`). Worker threads record into their own [`Recorder`] against
//! the shared epoch and hand their spans back with the job's result, so
//! recording takes no lock.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Small per-process thread number (0 for the first thread to record).
    pub thread: u32,
    /// Time inside this span spent in another layer that is timed by an
    /// aggregate timer rather than child spans: the generator's `fill`,
    /// timed once per engine batch. Charged to that layer, not this one.
    pub nested: Option<(&'static str, u64)>,
    /// Work the span did, as a count (µops for an engine run).
    pub count: u64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn thread_no() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NO: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NO.with(|n| *n)
}

/// Spans recorded by one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder on the calling thread, timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            thread: thread_no(),
            spans: Vec::new(),
        }
    }

    /// The shared time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            thread: self.thread,
            nested: None,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes span `id`, charging `ns` of it to `layer`.
    pub fn close_nested(&mut self, id: usize, layer: &'static str, ns: u64) {
        self.close(id);
        self.spans[id].nested = Some((layer, ns));
    }

    /// Records the work span `id` did.
    pub fn set_count(&mut self, id: usize, count: u64) {
        self.spans[id].count = count;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends spans recorded by another thread; their root spans become
    /// children of `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: usize) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Indices of each span's children.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            out[p].push(i);
        }
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children running at the same time on several
/// threads count once) and minus its nested aggregate time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, ks)| {
            let intervals = ks
                .iter()
                .map(|&k| (spans[k].start_ns, spans[k].end_ns))
                .collect();
            let nested = s.nested.map_or(0, |(_, ns)| ns);
            s.dur_ns()
                .saturating_sub(covered(intervals, s.start_ns, s.end_ns))
                .saturating_sub(nested)
        })
        .collect()
}

/// Self time summed per layer, nested aggregate time included under its
/// own layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
        if let Some((layer, ns)) = s.nested {
            *out.entry(layer).or_insert(0) += ns;
        }
    }
    out
}

/// Scheduler tail of one batch span: from the moment the first worker
/// ran out of jobs (its last job ended) to the end of the batch.
pub fn batch_tail_ns(spans: &[Span], kids: &[usize], batch: &Span) -> u64 {
    let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
    for &k in kids {
        let e = last_end.entry(spans[k].thread).or_insert(0);
        *e = (*e).max(spans[k].end_ns);
    }
    last_end
        .values()
        .min()
        .map_or(0, |&first_idle| batch.end_ns.saturating_sub(first_idle))
}

/// Writes spans as tab-separated lines: name, start, end, parent (-1 for
/// none), thread, nested layer and nanoseconds, count.
pub fn write_tsv(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "name\tstart_ns\tend_ns\tparent\tthread\tnested_layer\tnested_ns\tcount"
    )?;
    for s in spans {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let (layer, ns) = s.nested.unwrap_or(("-", 0));
        writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{}\t{layer}\t{ns}\t{}",
            s.name, s.start_ns, s.end_ns, s.thread, s.count
        )?;
    }
    out.flush()
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
    fn self_time_counts_overlapping_children_once() {
        // A batch [0, 100) whose jobs on two threads overlap each other:
        // [10, 60) and [30, 90) cover [10, 90), so the batch's own time is
        // 20, not 100 - 50 - 60 < 0.
        let spans = vec![
            span("store.batch", 0, 100, None, 0),
            span("core.pair", 10, 60, Some(0), 1),
            span("core.pair", 30, 90, Some(0), 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 60]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_subtracts_nested_time() {
        let mut spans = vec![
            span("uarch.execute", 100, 200, None, 0),
            // Starts before the parent (clock skew across threads).
            span("store.lookup", 90, 120, Some(0), 0),
            span("store.insert", 150, 160, Some(0), 0),
        ];
        spans[0].nested = Some(("workload", 30));
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10 - 30);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["uarch"], 40);
        assert_eq!(layers["workload"], 30);
        assert_eq!(layers["store"], 30 + 10);
    }

    #[test]
    fn layer_self_times_sum_to_the_root_span_on_one_thread() {
        let spans = vec![
            span("bench.pass", 0, 1000, None, 0),
            span("core.collect", 0, 700, Some(0), 0),
            span("core.experiment", 700, 900, Some(0), 0),
            span("report.render", 900, 990, Some(0), 0),
        ];
        let total: u64 = layer_self_ns(&spans).values().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn tail_runs_from_first_idle_worker_to_batch_end() {
        let spans = vec![
            span("store.batch", 0, 100, None, 0),
            span("core.pair", 0, 40, Some(0), 1),
            span("core.pair", 40, 70, Some(0), 1),
            span("core.pair", 0, 95, Some(0), 2),
        ];
        assert_eq!(batch_tail_ns(&spans, &[1, 2, 3], &spans[0]), 30);
    }

    #[test]
    fn adopted_spans_hang_under_the_given_parent() {
        let mut main = Recorder::new(Instant::now());
        let root = main.open("bench.pass", None);
        let worker = vec![
            span("core.pair", 1, 5, None, 7),
            span("store.lookup", 1, 2, Some(0), 7),
        ];
        main.adopt(worker, root);
        main.close(root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(1));
    }
}
