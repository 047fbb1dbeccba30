//! The vector-clock happens-before checker.
//!
//! [`check_events`] replays a recorded event stream (one valid
//! linearization — the collector appends at occurrence time) through
//! per-thread vector clocks and reports execution-order violations as
//! simcheck diagnostics in the `X` family:
//!
//! - **X001** — two accesses to one named resource, at least one a write,
//!   on different threads, with no happens-before path between them.
//! - **X002** — a cycle in the lock-order graph (thread A holds L1 while
//!   taking L2, thread B holds L2 while taking L1).
//! - **X003** — a fork token that was never joined.
//! - **X004** — a release with no matching acquire by the same thread.
//!
//! Happens-before edges come from four sources: program order within a
//! thread; fork/begin and end/join token rendezvous; lock release →
//! subsequent acquire of the same lock; channel send → the FIFO-matched
//! recv. Lock clocks *accumulate* on release (component-wise join rather
//! than overwrite) so concurrent `RwLock` readers do not erase each
//! other's ordering; the read side keeps its own accumulator and only the
//! next exclusive acquire joins it, mirroring writer-waits-for-readers
//! semantics.
//!
//! The checker is epoch-based on the access side (FastTrack-style): per
//! resource it keeps the last write as a single `(thread, clock, seq)`
//! epoch plus one read epoch per thread since that write, so checking is
//! O(events × threads) without storing whole clocks per access.

use std::collections::HashMap;

use simcheck::{codes, Diagnostic, Report, Span};

use crate::event::{Event, EventKind};
use crate::vclock::VClock;

/// One recorded access, summarized as an epoch.
#[derive(Debug, Clone, Copy)]
struct Access {
    /// Dense thread slot of the accessor.
    thread: usize,
    /// The accessor's own clock component at access time.
    clock: u32,
    /// Index of the event in the input stream (for messages).
    seq: usize,
}

/// Per-resource access state.
#[derive(Debug, Default)]
struct Resource {
    last_write: Option<Access>,
    /// Reads since the last write, at most one (the latest) per thread.
    reads: Vec<Access>,
}

/// Per-lock happens-before state.
#[derive(Debug, Default)]
struct Lock {
    /// Accumulated clocks of exclusive releases.
    write_release: VClock,
    /// Accumulated clocks of shared releases since tracking began.
    read_release: VClock,
}

/// A held-lock stack entry.
#[derive(Debug, Clone)]
struct Held {
    name: String,
    shared: bool,
}

/// Replays `events` and reports every X-rule violation found. `object` is
/// the span identity findings are filed under (e.g. `"run/reproduce"`).
pub fn check_events(object: &str, events: &[Event]) -> Report {
    let mut report = Report::new();

    // Dense thread slots, in order of first appearance.
    let mut slots: HashMap<u32, usize> = HashMap::new();
    let mut slot_names: Vec<u32> = Vec::new();
    let slot_of = |tid: u32, names: &mut Vec<u32>, map: &mut HashMap<u32, usize>| -> usize {
        *map.entry(tid).or_insert_with(|| {
            names.push(tid);
            names.len() - 1
        })
    };

    let mut clocks: Vec<VClock> = Vec::new();
    let mut held: Vec<Vec<Held>> = Vec::new();
    let mut locks: HashMap<String, Lock> = HashMap::new();
    let mut channels: HashMap<String, std::collections::VecDeque<VClock>> = HashMap::new();
    let mut resources: HashMap<String, Resource> = HashMap::new();
    // token -> (forker's published clock, forker tid, fork seq, joined?)
    let mut forks: HashMap<u64, (VClock, u32, usize, bool)> = HashMap::new();
    // token -> clock published by End.
    let mut ends: HashMap<u64, VClock> = HashMap::new();
    // Directed lock-order edges: (from, to) -> example (holder event seq).
    let mut lock_edges: HashMap<(String, String), usize> = HashMap::new();
    // X001 dedup: one finding per (resource, thread pair, kind pair).
    let mut reported_races: std::collections::HashSet<(String, u32, u32, bool, bool)> =
        std::collections::HashSet::new();

    for (seq, event) in events.iter().enumerate() {
        let t = slot_of(event.thread, &mut slot_names, &mut slots);
        if clocks.len() <= t {
            let mut c = VClock::new();
            c.set(t, 1);
            clocks.push(c);
            held.push(Vec::new());
        }

        match event.kind {
            EventKind::Fork { token } => {
                forks.insert(token, (clocks[t].clone(), event.thread, seq, false));
            }
            EventKind::Begin { token } => {
                if let Some((published, _, _, _)) = forks.get(&token) {
                    let published = published.clone();
                    clocks[t].join(&published);
                }
            }
            EventKind::End { token } => {
                ends.insert(token, clocks[t].clone());
            }
            EventKind::Join { token } => {
                if let Some(published) = ends.get(&token) {
                    let published = published.clone();
                    clocks[t].join(&published);
                }
                if let Some(entry) = forks.get_mut(&token) {
                    entry.3 = true;
                }
            }
            EventKind::Acquire | EventKind::AcquireRead => {
                let shared = matches!(event.kind, EventKind::AcquireRead);
                for h in &held[t] {
                    if h.name != event.what {
                        lock_edges
                            .entry((h.name.clone(), event.what.clone()))
                            .or_insert(seq);
                    }
                }
                let lock = locks.entry(event.what.clone()).or_default();
                let joined = lock.write_release.clone();
                clocks[t].join(&joined);
                if !shared {
                    // A writer also waits for every prior reader.
                    let readers = lock.read_release.clone();
                    clocks[t].join(&readers);
                }
                held[t].push(Held {
                    name: event.what.clone(),
                    shared,
                });
            }
            EventKind::Release | EventKind::ReleaseRead => {
                let shared = matches!(event.kind, EventKind::ReleaseRead);
                let pos = held[t]
                    .iter()
                    .rposition(|h| h.name == event.what && h.shared == shared);
                match pos {
                    Some(pos) => {
                        held[t].remove(pos);
                        let lock = locks.entry(event.what.clone()).or_default();
                        if shared {
                            lock.read_release.join(&clocks[t]);
                        } else {
                            lock.write_release.join(&clocks[t]);
                        }
                    }
                    None => {
                        report.push(Diagnostic::new(
                            &codes::X004,
                            Span::field(object, event.what.clone()),
                            format!(
                                "t{} {} lock '{}' at event {seq} without holding a matching \
                                 {} acquisition",
                                event.thread,
                                if shared { "read-released" } else { "released" },
                                event.what,
                                if shared { "shared" } else { "exclusive" },
                            ),
                        ));
                    }
                }
            }
            EventKind::Send => {
                channels
                    .entry(event.what.clone())
                    .or_default()
                    .push_back(clocks[t].clone());
            }
            EventKind::Recv => {
                if let Some(sender) = channels.entry(event.what.clone()).or_default().pop_front() {
                    clocks[t].join(&sender);
                }
            }
            EventKind::Read | EventKind::Write => {
                let is_write = matches!(event.kind, EventKind::Write);
                let me = Access {
                    thread: t,
                    clock: clocks[t].get(t),
                    seq,
                };
                let resource = resources.entry(event.what.clone()).or_default();
                let ordered = |a: &Access, clock: &VClock| clock.get(a.thread) >= a.clock;

                let mut conflicts: Vec<(Access, bool)> = Vec::new();
                if let Some(w) = &resource.last_write {
                    if w.thread != t && !ordered(w, &clocks[t]) {
                        conflicts.push((*w, true));
                    }
                }
                if is_write {
                    for r in &resource.reads {
                        if r.thread != t && !ordered(r, &clocks[t]) {
                            conflicts.push((*r, false));
                        }
                    }
                }
                for (other, other_is_write) in conflicts {
                    let (a, b) = (slot_names[other.thread], event.thread);
                    let key = (
                        event.what.clone(),
                        a.min(b),
                        a.max(b),
                        other_is_write || is_write,
                        other_is_write && is_write,
                    );
                    if reported_races.insert(key) {
                        report.push(Diagnostic::new(
                            &codes::X001,
                            Span::field(object, event.what.clone()),
                            format!(
                                "t{} {} of '{}' at event {seq} is unordered with t{} {} at \
                                 event {}: no fork/join, lock, or channel edge connects them",
                                event.thread,
                                if is_write { "write" } else { "read" },
                                event.what,
                                slot_names[other.thread],
                                if other_is_write { "write" } else { "read" },
                                other.seq,
                            ),
                        ));
                    }
                }

                if is_write {
                    resource.last_write = Some(me);
                    resource.reads.clear();
                } else {
                    match resource.reads.iter_mut().find(|r| r.thread == t) {
                        Some(mine) => *mine = me,
                        None => resource.reads.push(me),
                    }
                }
            }
        }
        clocks[t].bump(t);
    }

    // X003: forked but never joined.
    let mut unjoined: Vec<(u64, u32, usize)> = forks
        .iter()
        .filter(|(_, (_, _, _, joined))| !joined)
        .map(|(&token, &(_, tid, seq, _))| (token, tid, seq))
        .collect();
    unjoined.sort_unstable();
    for (token, tid, seq) in unjoined {
        report.push(Diagnostic::new(
            &codes::X003,
            Span::field(object, format!("token:{token}")),
            format!(
                "t{tid} forked token {token} at event {seq} but no thread ever joined it; \
                 nothing orders the spawned thread's writes before their readers"
            ),
        ));
    }

    // X002: cycles in the lock-order graph.
    for cycle in lock_cycles(&lock_edges) {
        let examples: Vec<String> = cycle
            .iter()
            .flat_map(|a| {
                let edges = &lock_edges;
                cycle.iter().filter_map(move |b| {
                    edges
                        .get(&(a.clone(), b.clone()))
                        .map(|&seq| format!("'{a}' held while acquiring '{b}' (event {seq})"))
                })
            })
            .collect();
        report.push(Diagnostic::new(
            &codes::X002,
            Span::field(object, "lock-order"),
            format!(
                "lock-order cycle among {{{}}}: {}",
                cycle.join(", "),
                examples.join("; ")
            ),
        ));
    }

    report
}

/// Every elementary cycle's node set in the lock-order graph, reported as
/// strongly connected components with ≥ 2 nodes (single locks re-acquired
/// are filtered at edge-recording time). Nodes within a component and the
/// components themselves come out sorted for deterministic reports.
fn lock_cycles(edges: &HashMap<(String, String), usize>) -> Vec<Vec<String>> {
    // Collect nodes and adjacency deterministically.
    let mut nodes: Vec<&str> = edges
        .keys()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let index: HashMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        adj[index[a.as_str()]].push(index[b.as_str()]);
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }

    // Iterative Tarjan SCC.
    #[derive(Clone, Copy)]
    struct Meta {
        index: u32,
        lowlink: u32,
        on_stack: bool,
        visited: bool,
    }
    let mut meta = vec![
        Meta {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        nodes.len()
    ];
    let mut counter = 0u32;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..nodes.len() {
        if meta[start].visited {
            continue;
        }
        // (node, next child position) call-stack frames.
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                meta[v].visited = true;
                meta[v].index = counter;
                meta[v].lowlink = counter;
                counter += 1;
                meta[v].on_stack = true;
                stack.push(v);
            }
            if let Some(&w) = adj[v].get(*child) {
                *child += 1;
                if !meta[w].visited {
                    frames.push((w, 0));
                } else if meta[w].on_stack {
                    meta[v].lowlink = meta[v].lowlink.min(meta[w].index);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    meta[parent].lowlink = meta[parent].lowlink.min(meta[v].lowlink);
                }
                if meta[v].lowlink == meta[v].index {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        meta[w].on_stack = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if component.len() >= 2 {
                        sccs.push(component);
                    }
                }
            }
        }
    }

    let mut cycles: Vec<Vec<String>> = sccs
        .into_iter()
        .map(|mut component| {
            component.sort_unstable();
            component
                .into_iter()
                .map(|i| nodes[i].to_string())
                .collect()
        })
        .collect();
    cycles.sort();
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event as E, EventKind as K};

    fn codes_of(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code.code).collect()
    }

    #[test]
    fn unordered_write_write_is_x001() {
        let events = vec![E::new(1, K::Write, "slot"), E::new(2, K::Write, "slot")];
        let report = check_events("t", &events);
        assert_eq!(codes_of(&report), ["X001"]);
        assert!(report.diagnostics()[0].message.contains("'slot'"));
    }

    #[test]
    fn unordered_read_after_write_is_x001_once_per_pair() {
        let events = vec![
            E::new(1, K::Write, "slot"),
            E::new(2, K::Read, "slot"),
            E::new(2, K::Read, "slot"),
        ];
        let report = check_events("t", &events);
        assert_eq!(codes_of(&report), ["X001"], "deduped per pair+kind");
    }

    #[test]
    fn reads_alone_never_conflict() {
        let events = vec![E::new(1, K::Read, "r"), E::new(2, K::Read, "r")];
        assert!(check_events("t", &events).is_empty());
    }

    #[test]
    fn fork_join_orders_accesses() {
        let events = vec![
            E::new(1, K::Write, "slot"),
            E::new(1, K::Fork { token: 9 }, ""),
            E::new(2, K::Begin { token: 9 }, ""),
            E::new(2, K::Write, "slot"),
            E::new(2, K::End { token: 9 }, ""),
            E::new(1, K::Join { token: 9 }, ""),
            E::new(1, K::Read, "slot"),
        ];
        assert!(check_events("t", &events).is_empty());
    }

    #[test]
    fn lock_protected_accesses_are_ordered() {
        let events = vec![
            E::new(1, K::Acquire, "m"),
            E::new(1, K::Write, "x"),
            E::new(1, K::Release, "m"),
            E::new(2, K::Acquire, "m"),
            E::new(2, K::Write, "x"),
            E::new(2, K::Release, "m"),
        ];
        assert!(check_events("t", &events).is_empty());
    }

    #[test]
    fn channel_send_recv_orders_accesses() {
        let events = vec![
            E::new(1, K::Write, "payload"),
            E::new(1, K::Send, "ch"),
            E::new(2, K::Recv, "ch"),
            E::new(2, K::Read, "payload"),
        ];
        assert!(check_events("t", &events).is_empty());
    }

    #[test]
    fn concurrent_rwlock_readers_do_not_erase_each_other() {
        // Writer publishes under the write lock; two readers hold the read
        // lock concurrently (overlapping acquire-read windows), then the
        // writer writes again after both released. The accumulating
        // read-release clock must order the second write after BOTH reads.
        let events = vec![
            E::new(1, K::Acquire, "rw"),
            E::new(1, K::Write, "x"),
            E::new(1, K::Release, "rw"),
            E::new(2, K::AcquireRead, "rw"),
            E::new(3, K::AcquireRead, "rw"),
            E::new(2, K::Read, "x"),
            E::new(3, K::Read, "x"),
            E::new(2, K::ReleaseRead, "rw"),
            E::new(3, K::ReleaseRead, "rw"),
            E::new(1, K::Acquire, "rw"),
            E::new(1, K::Write, "x"),
            E::new(1, K::Release, "rw"),
        ];
        assert!(check_events("t", &events).is_empty());
    }

    #[test]
    fn read_lock_does_not_order_two_writers() {
        // A shared lock is not exclusion: two writers that only ever take
        // the read side stay unordered.
        let events = vec![
            E::new(1, K::AcquireRead, "rw"),
            E::new(1, K::Write, "x"),
            E::new(1, K::ReleaseRead, "rw"),
            E::new(2, K::AcquireRead, "rw"),
            E::new(2, K::Write, "x"),
            E::new(2, K::ReleaseRead, "rw"),
        ];
        let report = check_events("t", &events);
        assert_eq!(codes_of(&report), ["X001"]);
    }

    #[test]
    fn lock_order_inversion_is_x002() {
        let events = vec![
            E::new(1, K::Acquire, "a"),
            E::new(1, K::Acquire, "b"),
            E::new(1, K::Release, "b"),
            E::new(1, K::Release, "a"),
            E::new(2, K::Acquire, "b"),
            E::new(2, K::Acquire, "a"),
            E::new(2, K::Release, "a"),
            E::new(2, K::Release, "b"),
        ];
        let report = check_events("t", &events);
        assert_eq!(codes_of(&report), ["X002"]);
        let message = &report.diagnostics()[0].message;
        assert!(
            message.contains("'a' held while acquiring 'b'"),
            "{message}"
        );
        assert!(
            message.contains("'b' held while acquiring 'a'"),
            "{message}"
        );
    }

    #[test]
    fn consistent_nesting_is_not_x002() {
        let events = vec![
            E::new(1, K::Acquire, "a"),
            E::new(1, K::Acquire, "b"),
            E::new(1, K::Release, "b"),
            E::new(1, K::Release, "a"),
            E::new(2, K::Acquire, "a"),
            E::new(2, K::Acquire, "b"),
            E::new(2, K::Release, "b"),
            E::new(2, K::Release, "a"),
        ];
        assert!(check_events("t", &events).is_empty());
    }

    #[test]
    fn joinless_fork_is_x003_warning() {
        let events = vec![
            E::new(1, K::Fork { token: 5 }, ""),
            E::new(2, K::Begin { token: 5 }, ""),
            E::new(2, K::End { token: 5 }, ""),
        ];
        let report = check_events("t", &events);
        assert_eq!(codes_of(&report), ["X003"]);
        assert_eq!(
            report.diagnostics()[0].severity,
            simcheck::Severity::Warning
        );
        assert!(!report.failed(false), "warning only");
    }

    #[test]
    fn stray_release_is_x004() {
        let events = vec![E::new(1, K::Release, "m")];
        let report = check_events("t", &events);
        assert_eq!(codes_of(&report), ["X004"]);
    }

    #[test]
    fn shared_release_of_exclusive_hold_is_x004() {
        let events = vec![E::new(1, K::Acquire, "m"), E::new(1, K::ReleaseRead, "m")];
        let report = check_events("t", &events);
        assert_eq!(codes_of(&report), ["X004"]);
    }

    #[test]
    fn empty_stream_is_clean() {
        assert!(check_events("t", &[]).is_empty());
    }

    #[test]
    fn three_lock_cycle_is_one_x002() {
        let events = vec![
            E::new(1, K::Acquire, "a"),
            E::new(1, K::Acquire, "b"),
            E::new(1, K::Release, "b"),
            E::new(1, K::Release, "a"),
            E::new(2, K::Acquire, "b"),
            E::new(2, K::Acquire, "c"),
            E::new(2, K::Release, "c"),
            E::new(2, K::Release, "b"),
            E::new(3, K::Acquire, "c"),
            E::new(3, K::Acquire, "a"),
            E::new(3, K::Release, "a"),
            E::new(3, K::Release, "c"),
        ];
        let report = check_events("t", &events);
        assert_eq!(codes_of(&report), ["X002"]);
        let message = &report.diagnostics()[0].message;
        for lock in ["'a'", "'b'", "'c'"] {
            assert!(message.contains(lock), "{message}");
        }
    }
}
