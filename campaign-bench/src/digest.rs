//! Output digests, the pinned values they are checked against, and the
//! failure accounting a mismatch feeds.

use simpoint::SimpointRecord;
use simstore::{Key, StableHasher};
use uarch_sim::counters::Event;
use workchar::characterize::CharRecord;

/// Digests pinned per workload and seed: `<workload> <seed> <hex>` lines.
const PINNED: &str = include_str!("../digests.txt");

/// The pinned digest of `workload` at `seed`, when one is shipped.
pub fn pinned(workload: &str, seed: u64) -> Option<Key> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, hex) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse() == Ok(seed))
            .then(|| Key::from_hex(hex))
            .flatten()
    })
}

/// Feeds every record's id, µop count and full counter file into `h`.
pub fn hash_records(h: &mut StableHasher, records: &[CharRecord]) {
    for r in records {
        h.write_str(&r.id);
        h.write_u64(r.sim_ops);
        for event in Event::ALL {
            h.write_u64(r.session.count(event));
        }
    }
}

/// The digest of a simpoint campaign: every record's persisted encoding.
pub fn simpoint_digest(records: &[SimpointRecord]) -> Key {
    let mut h = StableHasher::new();
    for r in records {
        h.write_bytes(&r.encode());
    }
    h.finish()
}

/// Running correctness account of one benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Account {
    /// Pairs and artifacts attempted, over every pass.
    pub attempted: u64,
    /// Pairs and artifacts that failed, or belonged to a pass whose digest
    /// did not match.
    pub failed: u64,
    /// The digest every pass must reproduce: the pinned one, else the
    /// first pass's.
    pub expected: Option<Key>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Account {
    /// An account checking against `pinned` when given.
    pub fn new(pinned: Option<Key>) -> Self {
        Account {
            expected: pinned,
            ..Account::default()
        }
    }

    /// Records one pass of `units` pairs and artifacts, `failed` of which
    /// failed outright, with its output digest (`None` when the pass
    /// produced no output to digest). A digest that differs from the
    /// expected one fails every unit of the pass.
    pub fn pass(&mut self, label: &str, units: u64, failed: u64, digest: Option<Key>) {
        self.attempted += units;
        let mut failed = failed.min(units);
        if failed > 0 {
            self.problems
                .push(format!("{label}: {failed} of {units} failed"));
        }
        match (digest, self.expected) {
            (Some(d), Some(e)) if d != e => {
                self.problems
                    .push(format!("{label}: digest {d} differs from expected {e}"));
                failed = units;
            }
            (Some(d), None) => self.expected = Some(d),
            _ => {}
        }
        self.failed += failed;
    }

    /// Records a failed check that is not tied to a pass's units.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// True when nothing failed and every check held.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> Key {
        Key { hi: n, lo: !n }
    }

    #[test]
    fn digest_mismatch_fails_every_unit_of_the_pass() {
        let mut a = Account::new(Some(key(1)));
        a.pass("pass 1", 243, 0, Some(key(1)));
        assert!(a.correct());
        a.pass("pass 2", 243, 0, Some(key(2)));
        assert_eq!((a.attempted, a.failed), (486, 243));
        assert!(!a.correct());
        assert!(a.problems[0].contains("differs"), "{:?}", a.problems);
    }

    #[test]
    fn unpinned_runs_check_every_pass_against_the_first() {
        let mut a = Account::new(None);
        a.pass("pass 1", 10, 0, Some(key(5)));
        a.pass("pass 2", 10, 0, Some(key(5)));
        assert!(a.correct());
        a.pass("pass 3", 10, 0, Some(key(6)));
        assert_eq!(a.failed, 10);
        assert!(!a.correct());
    }

    #[test]
    fn failed_units_count_without_a_digest() {
        let mut a = Account::new(None);
        a.pass("pass 1", 243, 3, None);
        assert_eq!((a.attempted, a.failed), (243, 3));
        assert!(!a.correct());
        assert!(
            !Account::new(None).correct(),
            "nothing attempted is not correct"
        );
    }

    #[test]
    fn pinned_lookup_matches_workload_and_seed() {
        for line in PINNED.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "{line}");
            let key = pinned(f[0], f[1].parse().unwrap()).expect("parses");
            assert_eq!(key.to_string(), f[2]);
        }
        assert_eq!(pinned("full-cold", u64::MAX), None);
    }

    #[test]
    fn record_digest_covers_counters() {
        let data = workchar::dataset::Dataset::demo();
        let digest = |records: &[CharRecord]| {
            let mut h = StableHasher::new();
            hash_records(&mut h, records);
            h.finish()
        };
        let base = digest(&data.cpu17);
        let mut changed = data.cpu17.clone();
        let n = changed[3].session.count(Event::CpuClkUnhaltedRefTsc);
        changed[3].session.set(Event::CpuClkUnhaltedRefTsc, n + 1);
        assert_ne!(digest(&changed), base);
        assert_eq!(digest(&data.cpu17), base);
    }
}
