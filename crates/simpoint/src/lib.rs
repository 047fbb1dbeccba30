//! SimPoint-style representative-interval simulation.
//!
//! The paper subsets *applications* to cut CPU2017's redundancy; this crate
//! applies the same clustering argument one level down, to the *execution
//! intervals* of a single run (Sherwood et al.'s SimPoint methodology).
//! A run is profiled once in fixed-size micro-op intervals, each interval is
//! summarized by a feature vector (µop-mix fractions plus IPC / MPKI /
//! mispredict deltas — a basic-block-vector stand-in, see
//! [`uarch_sim::timeline::IntervalSample::feature_vector`]), the vectors are
//! standardized and clustered with k-medoids (k chosen as the smallest
//! value whose predicted reconstruction error meets the configured budget,
//! with the mean silhouette reported as a phase-separation confidence
//! score), and only the medoid interval of each cluster stands for its
//! cluster. Whole-run counters are reconstructed as the cluster-size-scaled
//! sum of medoid counters, and the crate reports the achieved speedup
//! (total / detailed ops) alongside the per-counter relative error of the
//! reconstruction.
//!
//! What a sampled simulation does between simulation points is the
//! [`analysis::GapMode`]. By default the gaps are functionally warmed —
//! state transitions bit-identical to a counted run, nothing priced
//! ([`analysis::GapMode::Warm`]) — so every medoid interval sees exactly
//! the session the profiling pass already measured, and the analysis is a
//! single pass that reconstructs from the profiled sessions. In the
//! maximum-speed mode ([`analysis::GapMode::Skip`]) the generator is
//! RNG-exactly fast-forwarded past the gaps
//! ([`workload_synth::generator::TraceGenerator::fast_forward`]); the
//! medoids then run against stale state, so a sparse replay
//! ([`analysis::replay`]) measures them.
//!
//! Three layers:
//!
//! - [`analysis`] — the end-to-end pipeline: profile, cluster,
//!   reconstruct, plus the sparse replay under `Skip`
//!   ([`analysis::analyze`]).
//! - [`artifact`] — the schema-versioned binary [`artifact::SimpointRecord`]
//!   persisted through the content-addressed store under
//!   `results/simpoints/`.
//! - [`lint`] — the simcheck S-rule family over stored records
//!   (`lint --simpoint`).
//!
//! The key exactness properties, pinned by tests here and in the workspace
//! suite: a `Warm` replay of any plan reproduces each profiled medoid
//! session bit for bit, so the single-pass estimate equals the replayed
//! one; and with `force_k` equal to the number of intervals (every
//! interval its own cluster) the reconstructed counters are
//! **bit-identical** to the reference in both gap modes.

pub mod analysis;
pub mod artifact;
pub mod lint;

pub use analysis::{
    analyze, profile, reconstruct, rel_error, replay, GapMode, Profile, Replay, SimpointAnalysis,
    SimpointConfig, SimpointError,
};
pub use artifact::{SimpointRecord, SIMPOINT_SCHEMA_VERSION};
