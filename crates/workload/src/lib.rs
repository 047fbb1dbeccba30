//! Synthetic SPEC-CPU-like workload substrate.
//!
//! SPEC CPU2017 and CPU2006 are proprietary, so this reproduction replaces
//! their binaries with *behaviour profiles*: for every application–input
//! pair, a compact parameterization of the properties the paper's analysis
//! actually observes — instruction mix, branch-type mix and predictability,
//! reuse-distance locality, memory footprint, inherent ILP/MLP, and thread
//! count. A seeded [`generator::TraceGenerator`] expands a profile into a
//! deterministic dynamic micro-op stream that the `uarch-sim` engine
//! executes; miss rates, mispredict rates, and IPC then *emerge* from the
//! simulated hardware rather than being echoed from the paper.
//!
//! Modules:
//!
//! - [`profile`] — [`profile::AppProfile`] / [`profile::InputProfile`] types
//!   and the stall-budget calibration that turns paper-reported targets into
//!   generator parameters.
//! - [`reuse`] — the four-working-set locality model.
//! - [`branchmodel`] — biased / patterned / random branch-site population.
//! - [`generator`] — the micro-op stream iterator.
//! - [`footprint`] — OS-level memory map (RSS/VSZ) model and `ps`-style
//!   sampler.
//! - [`cpu2017`] — the full 43-application CPU2017 roster
//!   (194 application–input pairs across test/train/ref).
//! - [`cpu2006`] — the CPU2006 roster used for the comparison tables.
//! - [`phases`] — multi-phase workloads for the phase-behaviour extension.
//! - [`rng`] — the in-tree seeded PRNG (SplitMix64 + xoshiro256**) every
//!   stochastic model draws from.
//! - [`stablehash`] — process-stable content hashing of profiles and trace
//!   scales, feeding the `simstore` result cache's keys.
//!
//! # Example
//!
//! ```
//! use workload_synth::cpu2017;
//! use workload_synth::profile::InputSize;
//!
//! let suite = cpu2017::suite();
//! assert_eq!(suite.len(), 43);
//! let pairs: usize = suite.iter().map(|a| a.pairs(InputSize::Ref).len()).sum();
//! assert_eq!(pairs, 64); // the paper's 64 distinct ref pairs
//! ```

pub mod branchmodel;
pub mod cpu2006;
pub mod cpu2017;
pub mod footprint;
pub mod generator;
pub mod lint;
pub mod metrics;
pub mod phases;
pub mod profile;
pub mod reuse;
pub mod rng;
pub mod stablehash;
