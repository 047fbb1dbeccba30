//! The execution API: the per-op [`UopSink`] the engine executes into,
//! the [`UopSource`]s that drive it, the flat SoA [`UopBatch`] they can
//! also fill, and the [`ExecPlan`] describing one run.
//!
//! A source hands µops to the engine by calling a sink once per op:
//! [`UopSource::drive`] pushes up to `max` µops straight into the engine's
//! execution body, so a generator that already knows an op's class (it
//! just drew it) calls `load`/`store`/`alu` directly and the op is never
//! encoded, stored or re-classified. Sources that only know how to fill a
//! [`UopBatch`] — a structure-of-arrays of kind bytes and operands — get
//! the default `drive`, which fills the engine's reusable batch arena and
//! replays it into the sink. Counters are bit-identical either way and to
//! the scalar reference path (pinned by the differential tests); only the
//! cost per µop changes.
//!
//! ```
//! use uarch_sim::config::SystemConfig;
//! use uarch_sim::counters::Event;
//! use uarch_sim::engine::Engine;
//! use uarch_sim::exec::{from_iter, ExecPlan};
//! use uarch_sim::microop::MicroOp;
//!
//! let mut engine = Engine::new(&SystemConfig::tiny_test());
//! let ops = (0..1000u64).map(|i| MicroOp::load(i * 64));
//! let session = engine.execute(from_iter(ops), &ExecPlan::new());
//! assert_eq!(session.count(Event::InstRetiredAny), 1000);
//! ```

use crate::branch::PredictorKind;
use crate::engine::WorkloadHints;
use crate::microop::{BranchKind, MicroOp};
use crate::timeline::SamplerConfig;

/// Kind byte for an ALU µop.
const KIND_ALU: u8 = 0;
/// Kind byte for a load µop (address in the parallel `addrs` lane).
const KIND_LOAD: u8 = 1;
/// Kind byte for a store µop (address in the parallel `addrs` lane).
const KIND_STORE: u8 = 2;
/// First branch kind byte; branches encode as
/// `KIND_BRANCH_BASE + 2 * kind_index + taken` with `kind_index` the
/// position of the [`BranchKind`] in [`BranchKind::ALL`], so the taken bit
/// and the class both decode with shifts instead of an enum match.
const KIND_BRANCH_BASE: u8 = 3;

/// Default number of µops the engine asks a source for per drive. Sized so
/// a fill-only source's batch lanes stay L1/L2-resident while still
/// amortizing per-segment overhead over thousands of ops.
pub const DEFAULT_BATCH_OPS: usize = 4096;

/// The consumer side of execution: one call per µop, in stream order.
///
/// The engine's execution body is a `UopSink`; so is [`UopBatch`], which
/// records the calls into its lanes. A source that has just classified an
/// op calls the matching method directly (`load`, `store`, `alu`); `op`
/// takes any µop in enum form and is the entry point for branches.
pub trait UopSink {
    /// Consumes an ALU µop.
    fn alu(&mut self);

    /// Consumes a load of `addr`.
    fn load(&mut self, addr: u64);

    /// Consumes a store to `addr`.
    fn store(&mut self, addr: u64);

    /// Consumes any µop.
    fn op(&mut self, op: MicroOp);

    /// Lends the batch the default [`UopSource::drive`] fills before
    /// replaying it into this sink. The default allocates an empty one; a
    /// sink driven many times (the engine) lends a reusable arena and takes
    /// it back in [`UopSink::return_batch`], so steady-state execution does
    /// not allocate.
    fn lend_batch(&mut self) -> UopBatch {
        UopBatch::new()
    }

    /// Takes back the batch handed out by [`UopSink::lend_batch`].
    fn return_batch(&mut self, _batch: UopBatch) {}
}

#[inline]
fn encode_branch(kind: BranchKind, taken: bool) -> u8 {
    let kind_index = match kind {
        BranchKind::Conditional => 0u8,
        BranchKind::DirectJump => 1,
        BranchKind::DirectNearCall => 2,
        BranchKind::IndirectJumpNonCallRet => 3,
        BranchKind::IndirectNearReturn => 4,
    };
    KIND_BRANCH_BASE + 2 * kind_index + taken as u8
}

/// A flat structure-of-arrays batch of decoded µops.
///
/// Two parallel lanes: a kind byte per op and a 64-bit operand per op (the
/// data address for loads/stores, the branch pc for branches, unused for
/// ALU). The engine owns one as a reusable arena, so steady-state execution
/// allocates nothing per batch.
#[derive(Debug, Clone, Default)]
pub struct UopBatch {
    pub(crate) kinds: Vec<u8>,
    pub(crate) addrs: Vec<u64>,
}

impl UopBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UopBatch::default()
    }

    /// An empty batch with room for `cap` µops before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        UopBatch {
            kinds: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
        }
    }

    /// Number of µops currently in the batch.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when the batch holds no µops.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Clears the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.addrs.clear();
    }

    /// Appends an ALU µop.
    #[inline]
    pub fn push_alu(&mut self) {
        self.kinds.push(KIND_ALU);
        self.addrs.push(0);
    }

    /// Appends a load of `addr`.
    #[inline]
    pub fn push_load(&mut self, addr: u64) {
        self.kinds.push(KIND_LOAD);
        self.addrs.push(addr);
    }

    /// Appends a store to `addr`.
    #[inline]
    pub fn push_store(&mut self, addr: u64) {
        self.kinds.push(KIND_STORE);
        self.addrs.push(addr);
    }

    /// Appends a branch at `pc`.
    #[inline]
    pub fn push_branch(&mut self, pc: u64, kind: BranchKind, taken: bool) {
        self.kinds.push(encode_branch(kind, taken));
        self.addrs.push(pc);
    }

    /// Appends any µop, dispatching on the enum once at decode time.
    #[inline]
    pub fn push(&mut self, op: MicroOp) {
        match op {
            MicroOp::Alu => self.push_alu(),
            MicroOp::Load { addr } => self.push_load(addr),
            MicroOp::Store { addr } => self.push_store(addr),
            MicroOp::Branch { pc, kind, taken } => self.push_branch(pc, kind, taken),
        }
    }

    /// Decodes the µop at `index` back into its enum form (test/debug aid;
    /// the engine never round-trips through this).
    pub fn get(&self, index: usize) -> Option<MicroOp> {
        let k = *self.kinds.get(index)?;
        Some(decode(k, self.addrs[index]))
    }

    /// Replays the batch into `sink` in order, dispatching the three
    /// common classes on the kind byte without building an enum.
    fn replay<K: UopSink>(&self, sink: &mut K) {
        for (&k, &operand) in self.kinds.iter().zip(&self.addrs) {
            match k {
                KIND_ALU => sink.alu(),
                KIND_LOAD => sink.load(operand),
                KIND_STORE => sink.store(operand),
                _ => sink.op(decode(k, operand)),
            }
        }
    }
}

#[inline]
fn decode(k: u8, operand: u64) -> MicroOp {
    match k {
        KIND_ALU => MicroOp::Alu,
        KIND_LOAD => MicroOp::Load { addr: operand },
        KIND_STORE => MicroOp::Store { addr: operand },
        _ => MicroOp::Branch {
            pc: operand,
            kind: BranchKind::ALL[((k - KIND_BRANCH_BASE) >> 1) as usize],
            taken: (k - KIND_BRANCH_BASE) & 1 == 1,
        },
    }
}

impl UopSink for UopBatch {
    #[inline]
    fn alu(&mut self) {
        self.push_alu();
    }

    #[inline]
    fn load(&mut self, addr: u64) {
        self.push_load(addr);
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        self.push_store(addr);
    }

    #[inline]
    fn op(&mut self, op: MicroOp) {
        self.push(op);
    }
}

/// A producer of µops: the front end of the engine.
///
/// `fill` appends up to `max` µops to `batch` and returns how many were
/// appended; returning 0 ends the stream. The engine itself calls
/// [`UopSource::drive`], whose default fills a batch and replays it; a
/// source that generates ops one at a time (the workload generator)
/// overrides `drive` to call the sink directly and implements `fill` as
/// "drive into the batch", so it keeps one generation loop.
pub trait UopSource {
    /// Appends up to `max` µops to `batch`; returns the count appended
    /// (0 = exhausted).
    fn fill(&mut self, batch: &mut UopBatch, max: usize) -> usize;

    /// Hands up to `max` µops to `sink`, one call per op in stream order;
    /// returns the count handed over (0 = exhausted).
    ///
    /// The default fills the batch the sink lends (see
    /// [`UopSink::lend_batch`]) and replays it.
    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize {
        let mut batch = sink.lend_batch();
        batch.clear();
        self.fill(&mut batch, max);
        let n = batch.len();
        batch.replay(sink);
        sink.return_batch(batch);
        n
    }

    /// Caps this source at `n` more µops — the batched analogue of
    /// `Iterator::take`, used by chunked callers (simpoint profiling and
    /// replay) to run one interval at a time off a shared source.
    fn take_ops(self, n: u64) -> TakeOps<Self>
    where
        Self: Sized,
    {
        TakeOps {
            source: self,
            remaining: n,
        }
    }
}

impl<S: UopSource + ?Sized> UopSource for &mut S {
    fn fill(&mut self, batch: &mut UopBatch, max: usize) -> usize {
        (**self).fill(batch, max)
    }

    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize {
        (**self).drive(sink, max)
    }
}

/// Adapts any µop iterator into a [`UopSource`].
///
/// It drives the engine directly, one `next` per op, without a batch; the
/// path for streams that already exist as µops (tests, hand-built traces).
#[derive(Debug, Clone)]
pub struct IterSource<I> {
    iter: I,
}

/// Wraps an iterator of µops as a [`UopSource`].
pub fn from_iter<I>(ops: I) -> IterSource<I::IntoIter>
where
    I: IntoIterator<Item = MicroOp>,
{
    IterSource {
        iter: ops.into_iter(),
    }
}

impl<I: Iterator<Item = MicroOp>> UopSource for IterSource<I> {
    fn fill(&mut self, batch: &mut UopBatch, max: usize) -> usize {
        self.drive(batch, max)
    }

    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.iter.next() {
                Some(op) => {
                    sink.op(op);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// A [`UopSource`] capped at a fixed number of µops (see
/// [`UopSource::take_ops`]).
#[derive(Debug)]
pub struct TakeOps<S> {
    source: S,
    remaining: u64,
}

impl<S: UopSource> UopSource for TakeOps<S> {
    fn fill(&mut self, batch: &mut UopBatch, max: usize) -> usize {
        let cap = self.remaining.min(max as u64) as usize;
        if cap == 0 {
            return 0;
        }
        let n = self.source.fill(batch, cap);
        self.remaining -= n as u64;
        n
    }

    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize {
        let cap = self.remaining.min(max as u64) as usize;
        if cap == 0 {
            return 0;
        }
        let n = self.source.drive(sink, cap);
        self.remaining -= n as u64;
        n
    }
}

/// Everything one run needs: hints, warmup, predictor selection, sampling,
/// and batch sizing.
///
/// ```
/// use uarch_sim::branch::PredictorKind;
/// use uarch_sim::exec::ExecPlan;
/// use uarch_sim::timeline::SamplerConfig;
///
/// let plan = ExecPlan::new()
///     .warmup(10_000)
///     .predictor(PredictorKind::GShare)
///     .sampler(SamplerConfig::every(5_000));
/// assert_eq!(plan.warmup_ops, 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPlan {
    /// Workload-level execution hints (see [`WorkloadHints`]).
    pub hints: WorkloadHints,
    /// Micro-ops that warm caches and predictor without being counted.
    pub warmup_ops: u64,
    /// Branch predictor to run with. `None` keeps the engine's current
    /// predictor (including its trained state); `Some(kind)` switches to
    /// `kind`, rebuilding it fresh if it differs from the current one.
    pub predictor: Option<PredictorKind>,
    /// Interval sampler configuration. `None` (the default) disables
    /// sampling: the run takes the identical hot path and the returned
    /// session carries no timeline.
    pub sampler: Option<SamplerConfig>,
    /// µops requested from the source per drive (min 1; defaults to
    /// [`DEFAULT_BATCH_OPS`]). Tuning knob only — results are identical at
    /// any batch size.
    pub batch_ops: usize,
}

impl Default for ExecPlan {
    fn default() -> Self {
        ExecPlan {
            hints: WorkloadHints::default(),
            warmup_ops: 0,
            predictor: None,
            sampler: None,
            batch_ops: DEFAULT_BATCH_OPS,
        }
    }
}

impl ExecPlan {
    /// Default plan: default hints, no warmup, current predictor, sampling
    /// off.
    pub fn new() -> Self {
        ExecPlan::default()
    }

    /// Sets the workload hints.
    pub fn hints(mut self, hints: WorkloadHints) -> Self {
        self.hints = hints;
        self
    }

    /// Sets the number of uncounted warmup micro-ops.
    pub fn warmup(mut self, ops: u64) -> Self {
        self.warmup_ops = ops;
        self
    }

    /// Selects the branch predictor for this run.
    pub fn predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = Some(kind);
        self
    }

    /// Enables interval sampling with the given configuration.
    pub fn sampler(mut self, config: SamplerConfig) -> Self {
        self.sampler = Some(config);
        self
    }

    /// Sets the per-batch µop count.
    pub fn batch_ops(mut self, ops: usize) -> Self {
        self.batch_ops = ops.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrips_every_kind() {
        let mut b = UopBatch::new();
        let ops = [
            MicroOp::Alu,
            MicroOp::load(0x1234),
            MicroOp::store(0x5678),
            MicroOp::Branch {
                pc: 0x40,
                kind: BranchKind::Conditional,
                taken: true,
            },
            MicroOp::Branch {
                pc: 0x44,
                kind: BranchKind::Conditional,
                taken: false,
            },
            MicroOp::Branch {
                pc: 0x48,
                kind: BranchKind::DirectJump,
                taken: true,
            },
            MicroOp::Branch {
                pc: 0x4c,
                kind: BranchKind::DirectNearCall,
                taken: true,
            },
            MicroOp::Branch {
                pc: 0x50,
                kind: BranchKind::IndirectJumpNonCallRet,
                taken: true,
            },
            MicroOp::Branch {
                pc: 0x54,
                kind: BranchKind::IndirectNearReturn,
                taken: true,
            },
        ];
        for op in ops {
            b.push(op);
        }
        assert_eq!(b.len(), ops.len());
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(b.get(i), Some(*op), "op {i} must round-trip");
        }
        assert_eq!(b.get(ops.len()), None);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn iter_source_fills_in_chunks() {
        let ops: Vec<MicroOp> = (0..10u64).map(|i| MicroOp::load(i * 64)).collect();
        let mut src = from_iter(ops.iter().copied());
        let mut b = UopBatch::new();
        assert_eq!(src.fill(&mut b, 4), 4);
        assert_eq!(src.fill(&mut b, 4), 4);
        assert_eq!(src.fill(&mut b, 4), 2);
        assert_eq!(src.fill(&mut b, 4), 0);
        assert_eq!(b.len(), 10);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(b.get(i), Some(*op));
        }
    }

    #[test]
    fn take_ops_caps_a_shared_source() {
        let ops: Vec<MicroOp> = (0..10u64).map(|i| MicroOp::load(i * 64)).collect();
        let mut src = from_iter(ops.iter().copied());
        let mut b = UopBatch::new();
        let mut head = (&mut src).take_ops(3);
        assert_eq!(head.fill(&mut b, 100), 3);
        assert_eq!(head.fill(&mut b, 100), 0, "cap reached");
        // The underlying source resumes where the cap left off.
        let mut rest = src.take_ops(100);
        assert_eq!(rest.fill(&mut b, 100), 7);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn default_drive_replays_fill_in_order() {
        // A source with only `fill` takes the default `drive`: fill the
        // lent batch, replay it. Through `take_ops` the cap still holds.
        struct FillOnly<S>(S);
        impl<S: UopSource> UopSource for FillOnly<S> {
            fn fill(&mut self, batch: &mut UopBatch, max: usize) -> usize {
                self.0.fill(batch, max)
            }
        }
        let mut b = UopBatch::new();
        let ops: Vec<MicroOp> = (0..10u64)
            .map(|i| MicroOp::Branch {
                pc: i * 4,
                kind: BranchKind::ALL[i as usize % 5],
                taken: i % 3 == 0,
            })
            .chain([MicroOp::Alu, MicroOp::load(0x40), MicroOp::store(0x80)])
            .collect();
        let mut src = FillOnly(from_iter(ops.iter().copied()));
        assert_eq!(src.drive(&mut b, 4), 4);
        assert_eq!((&mut src).take_ops(5).drive(&mut b, 100), 5);
        assert_eq!(src.drive(&mut b, 100), 4);
        assert_eq!(src.drive(&mut b, 100), 0);
        let got: Vec<MicroOp> = (0..b.len()).map(|i| b.get(i).unwrap()).collect();
        assert_eq!(got, ops);
    }

    #[test]
    fn plan_builder_clamps_batch_ops() {
        let plan = ExecPlan::new().warmup(5).batch_ops(0);
        assert_eq!(plan.batch_ops, 1, "batch_ops clamps to at least 1");
        assert_eq!(plan.warmup_ops, 5);
        assert!(plan.predictor.is_none());
        assert!(plan.sampler.is_none());
    }
}
