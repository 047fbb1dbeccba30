//! Seeded campaign inputs.
//!
//! Seed 0 is the paper roster exactly as `reproduce` builds it. Any other
//! seed gives every pair a fresh µop stream with an unchanged behaviour
//! profile: a pair's generator seed hashes the application, input and
//! size names, so the benchmark appends `~s<seed>` to every input name it
//! hands the program, and strips it from the ids that come back. For an
//! application with one input the id is the application name and never
//! changes; for the others the suffix ends the id, so stripping it restores
//! the ids the experiments look up (Table IX's `603.bwaves_s-in1`).

use workchar::cache::CacheContext;
use workchar::characterize::RunConfig;
use workchar::dataset::Dataset;
use workchar::error::Result;
use workload_synth::profile::{AppInputPair, AppProfile, InputSize};
use workload_synth::{cpu2006, cpu2017};

/// The CPU2017 and CPU2006 application lists of one seed.
#[derive(Debug, Clone)]
pub struct Roster {
    /// CPU2017 applications (every input size).
    pub cpu17: Vec<AppProfile>,
    /// CPU2006 applications (`ref` inputs are used).
    pub cpu06: Vec<AppProfile>,
    suffix: String,
}

fn reseed(apps: &mut [AppProfile], suffix: &str) {
    for app in apps {
        for inputs in [&mut app.test, &mut app.train, &mut app.reference] {
            for input in inputs.iter_mut() {
                input.name.push_str(suffix);
            }
        }
    }
}

impl Roster {
    /// The roster for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut cpu17 = cpu2017::suite();
        let mut cpu06 = cpu2006::suite();
        let suffix = if seed == 0 {
            String::new()
        } else {
            format!("~s{seed}")
        };
        reseed(&mut cpu17, &suffix);
        reseed(&mut cpu06, &suffix);
        Roster {
            cpu17,
            cpu06,
            suffix,
        }
    }

    /// The roster for `seed` cut to the named applications.
    #[cfg(test)]
    pub fn only(seed: u64, apps: &[&str]) -> Self {
        let mut r = Roster::new(seed);
        r.cpu17.retain(|a| apps.contains(&a.name.as_str()));
        r.cpu06.retain(|a| apps.contains(&a.name.as_str()));
        r
    }

    /// The CPU2017 pairs at `size`, in roster order.
    pub fn cpu17_pairs(&self, size: InputSize) -> Vec<AppInputPair<'_>> {
        self.cpu17.iter().flat_map(|a| a.pairs(size)).collect()
    }

    /// The CPU2006 `ref` pairs, in roster order.
    pub fn cpu06_pairs(&self) -> Vec<AppInputPair<'_>> {
        self.cpu06
            .iter()
            .flat_map(|a| a.pairs(InputSize::Ref))
            .collect()
    }

    /// The id `id` has in the seed-0 roster.
    pub fn paper_id<'a>(&self, id: &'a str) -> &'a str {
        if self.suffix.is_empty() {
            id
        } else {
            id.strip_suffix(self.suffix.as_str()).unwrap_or(id)
        }
    }

    /// `Dataset::collect_apps_with` on this roster — what
    /// `Dataset::collect_with` runs on the paper roster — with seed-0 ids.
    ///
    /// # Errors
    ///
    /// The program's error when any pair fails.
    pub fn collect(&self, config: &RunConfig, cache: &CacheContext) -> Result<Dataset> {
        let mut data =
            Dataset::collect_apps_with(config.clone(), &self.cpu17, &self.cpu06, Some(cache))?;
        self.restore(&mut data);
        Ok(data)
    }

    /// Gives the records of a dataset collected from this roster their
    /// seed-0 ids and input names.
    pub fn restore(&self, data: &mut Dataset) {
        if self.suffix.is_empty() {
            return;
        }
        for r in data.cpu17.iter_mut().chain(&mut data.cpu06) {
            r.id = self.paper_id(&r.id).to_string();
            r.input = self.paper_id(&r.input).to_string();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_roster() {
        let r = Roster::new(0);
        assert_eq!(r.cpu17, cpu2017::suite());
        assert_eq!(r.cpu06, cpu2006::suite());
    }

    #[test]
    fn other_seeds_change_every_stream_but_no_behaviour_or_paper_id() {
        let paper = Roster::new(0);
        let seeded = Roster::new(7);
        for size in InputSize::ALL {
            let (a, b) = (paper.cpu17_pairs(size), seeded.cpu17_pairs(size));
            assert_eq!(a.len(), b.len());
            for (p, s) in a.iter().zip(&b) {
                assert_ne!(p.seed(), s.seed(), "{}", p.id());
                assert_eq!(p.input.behavior, s.input.behavior);
                assert_eq!(seeded.paper_id(&s.id()), p.id());
            }
        }
        let ids: Vec<String> = seeded
            .cpu17_pairs(InputSize::Ref)
            .iter()
            .map(|p| seeded.paper_id(&p.id()).to_string())
            .collect();
        for wanted in ["603.bwaves_s-in1", "603.bwaves_s-in2", "607.cactuBSSN_s"] {
            assert!(ids.iter().any(|id| id == wanted), "{wanted}");
        }
        assert_ne!(
            Roster::new(8).cpu17_pairs(InputSize::Ref)[0].seed(),
            seeded.cpu17_pairs(InputSize::Ref)[0].seed()
        );
    }
}
