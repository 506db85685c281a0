//! The unified execution-surface API.
//!
//! Every rung of the workspace's execution ladder — checked interpreter,
//! validated-program evaluator, compiled closures, decision-table set,
//! threaded code, sharded value-numbered set, geometric (tuple-space)
//! classifier, and (feature `jit`) the template JIT — answers the same
//! question: *which filter, if any, accepts this packet?* [`FilterEngine`]
//! makes that the whole API, so differential suites and bench ladders
//! iterate a `Vec<Box<dyn FilterEngine>>` instead of hand-written
//! per-engine match arms, and a new surface registers by adding one impl
//! to [`singleton_engines`].
//!
//! [`DemuxSet`] is the kernel-facing half: a priority-ordered set of
//! filters compiled as one unit, which the packet-filter device holds as
//! its single compiled demultiplexer. The decision table, the sharded
//! value-numbered set, the geometric classifier and the per-filter JIT
//! member list implement it; any of them serves the ladder through the
//! one generic [`FilterEngine`] adapter.

use crate::exec::IrFilter;
use crate::geom::GeomSet;
use crate::set::{JitSet, ShardedVnSet};
use pf_filter::compile::CompiledFilter;
use pf_filter::dtree::{FilterId, FilterSet};
use pf_filter::interp::{CheckedInterpreter, InterpConfig};
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;
use std::borrow::Cow;

/// Counters from one whole-set evaluation of one packet. Counters a set
/// does not maintain read zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetStats {
    /// Members whose programs (or checked fallbacks) were evaluated.
    pub filters_evaluated: u32,
    /// Members the set's index proved irrelevant without touching them.
    pub filters_skipped: u32,
    /// Interned tests evaluated fresh against the packet.
    pub tests_evaluated: u32,
    /// Interned tests answered from the per-packet memo.
    pub tests_memoized: u32,
    /// Tuple sub-structures probed (one literal map or one range tree).
    pub tuples_probed: u32,
    /// Index nodes visited across all probes (one per literal-map lookup,
    /// one per segment-tree level) — the geometric classifier's
    /// sublinearity witness: it grows with tuple count and log of the
    /// domain, never with member count.
    pub nodes_visited: u32,
    /// Threaded-code (or fallback interpreter) instructions executed,
    /// including one per fresh interned test; memoized tests are free.
    pub ops_executed: u32,
}

/// A snapshot of a compiled set's structure. Counters a set does not
/// maintain read zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetCounts {
    /// Decision-table shapes (hash probes per packet).
    pub shapes: usize,
    /// Shards in the sharded set's guard-keyed index (distinct
    /// discriminating-word literals).
    pub shards: usize,
    /// Value-numbered tests shared between sharded-set members.
    pub shared_tests: usize,
    /// `(word, range-class)` tuples in the geometric index.
    pub tuples: usize,
    /// Geometric-index members with no provable interval constraint,
    /// walked on every packet.
    pub residue: usize,
    /// Same-word interval overlaps the geometric index detected across
    /// insertions.
    pub overlaps: u64,
    /// Shadowing conflicts the geometric index detected across insertions
    /// (a member whose indexed interval is contained in an
    /// equal-or-higher-priority member's).
    pub shadows: u64,
    /// Geometric candidates pruned by the per-packet candidate cap.
    pub candidates_capped: u64,
    /// JIT members running native code (always zero without the `jit`
    /// feature or on targets the emitter does not support).
    pub native: usize,
    /// JIT members serving the threaded-code fallback.
    pub fallback: usize,
}

/// A priority-ordered set of filters compiled as one unit: the kernel's
/// compiled demultiplexer.
///
/// Matches come back in match order — priority descending, insertion
/// order within a priority — exactly as the sequential loop of figure 4-1
/// would deliver them.
pub trait DemuxSet: std::fmt::Debug {
    /// Ids of every filter accepting `packet`, in match order, with the
    /// walk's counters. Sets with a reused scratch buffer lend it, so the
    /// per-packet path allocates nothing.
    fn matches(&mut self, packet: PacketView<'_>) -> (Cow<'_, [FilterId]>, SetStats);

    /// [`DemuxSet::matches`] over a batch: element `i` of each list is
    /// identical to `matches(packets[i])`. Sets override it to amortize
    /// index work across the batch.
    fn matches_batch(&mut self, packets: &[PacketView<'_>]) -> (Vec<Vec<FilterId>>, Vec<SetStats>) {
        packets
            .iter()
            .map(|&p| {
                let (ids, stats) = self.matches(p);
                (ids.into_owned(), stats)
            })
            .unzip()
    }

    /// Index probes the cost model charges per packet: decision-table
    /// shapes or geometric tuples. Zero for sets without such an index.
    fn probes(&self) -> usize {
        0
    }

    /// A snapshot of the set's structure.
    fn counts(&self) -> SetCounts;
}

impl DemuxSet for FilterSet {
    fn matches(&mut self, packet: PacketView<'_>) -> (Cow<'_, [FilterId]>, SetStats) {
        (FilterSet::matches(self, packet).into(), SetStats::default())
    }
    fn matches_batch(&mut self, packets: &[PacketView<'_>]) -> (Vec<Vec<FilterId>>, Vec<SetStats>) {
        let ids = FilterSet::matches_batch(self, packets);
        let stats = vec![SetStats::default(); ids.len()];
        (ids, stats)
    }
    fn probes(&self) -> usize {
        self.shape_count()
    }
    fn counts(&self) -> SetCounts {
        SetCounts {
            shapes: self.shape_count(),
            ..SetCounts::default()
        }
    }
}

impl DemuxSet for ShardedVnSet {
    fn matches(&mut self, packet: PacketView<'_>) -> (Cow<'_, [FilterId]>, SetStats) {
        let (ids, stats) = self.matches_with_stats(packet);
        (ids.into(), stats)
    }
    fn matches_batch(&mut self, packets: &[PacketView<'_>]) -> (Vec<Vec<FilterId>>, Vec<SetStats>) {
        self.matches_batch_with_stats(packets)
    }
    fn counts(&self) -> SetCounts {
        SetCounts {
            shards: self.shard_count(),
            shared_tests: self.shared_tests(),
            ..SetCounts::default()
        }
    }
}

impl DemuxSet for GeomSet {
    fn matches(&mut self, packet: PacketView<'_>) -> (Cow<'_, [FilterId]>, SetStats) {
        let (ids, stats) = self.matches_with_stats(packet);
        (ids.into(), stats)
    }
    fn matches_batch(&mut self, packets: &[PacketView<'_>]) -> (Vec<Vec<FilterId>>, Vec<SetStats>) {
        self.matches_batch_with_stats(packets)
    }
    fn probes(&self) -> usize {
        self.tuple_count()
    }
    fn counts(&self) -> SetCounts {
        SetCounts {
            tuples: self.tuple_count(),
            residue: self.residue_len(),
            overlaps: self.overlap_count(),
            shadows: self.shadow_count(),
            candidates_capped: self.candidates_capped(),
            ..SetCounts::default()
        }
    }
}

impl DemuxSet for JitSet {
    fn matches(&mut self, packet: PacketView<'_>) -> (Cow<'_, [FilterId]>, SetStats) {
        let (ids, stats) = JitSet::matches(self, packet);
        (ids.into(), stats)
    }
    fn counts(&self) -> SetCounts {
        let native = self.native();
        SetCounts {
            native,
            fallback: self.len() - native,
            ..SetCounts::default()
        }
    }
}

/// One execution surface holding one or more compiled filters.
///
/// `matches` returns the id of the highest-priority accepting filter
/// (engines built by [`singleton_engines`] hold a single filter with
/// id 0). Implementations take `&mut self` because the set engines keep
/// per-packet memoization scratch.
pub trait FilterEngine {
    /// Stable engine label, used in reports and test diagnostics.
    fn name(&self) -> &'static str;
    /// Id of the first (highest-priority) filter accepting `packet`.
    fn matches(&mut self, packet: &[u8]) -> Option<u16>;
    /// Per-packet verdicts for a batch of frames, element `i` equal to
    /// what `matches(packets[i])` would return.
    ///
    /// The default loops `matches`; set engines override it with batch
    /// walks that amortize dispatch and shard-lookup work across the
    /// frames. Overrides must stay verdict-identical to the loop — the
    /// differential suite holds every engine to that.
    fn eval_batch(&mut self, packets: &[&[u8]]) -> Vec<Option<u16>> {
        packets.iter().map(|p| self.matches(p)).collect()
    }
}

/// Every surface that can bind `program` under `config`, in ladder order.
///
/// Always includes the checked interpreter (the reference semantics) and
/// the set engines that serve even validation-rejected programs through
/// their checked fallback. The compiled surfaces (validated, compiled,
/// ir, jit) appear only when the program validates; the decision-table
/// set only under the default configuration (it has no config knob).
///
/// The length is therefore: 4 surfaces for an invalid program under the
/// default config (3 otherwise), and 7 — 8 with the `jit` feature — for
/// a valid one under the default config (6/7 otherwise).
pub fn singleton_engines(
    program: &FilterProgram,
    config: InterpConfig,
) -> Vec<Box<dyn FilterEngine>> {
    let mut engines: Vec<Box<dyn FilterEngine>> = vec![Box::new(CheckedEngine {
        program: program.clone(),
        config,
    })];
    let validated = ValidatedProgram::with_config(program.clone(), config).ok();
    if let Some(v) = &validated {
        engines.push(Box::new(ValidatedEngine(v.clone())));
        engines.push(Box::new(CompiledEngine(CompiledFilter::from_validated(
            v.clone(),
        ))));
    }
    if config == InterpConfig::default() {
        let mut dtree = FilterSet::new();
        dtree.insert(0, program.clone());
        engines.push(Box::new(SetEngine("dtree", dtree)));
    }
    if let Some(v) = &validated {
        engines.push(Box::new(IrEngine(IrFilter::from_validated(v))));
    }
    let mut sharded = ShardedVnSet::with_config(config);
    sharded.insert(0, program.clone());
    engines.push(Box::new(SetEngine("sharded", sharded)));
    let mut geom = GeomSet::with_config(config);
    geom.insert(0, program.clone());
    engines.push(Box::new(SetEngine("geom", geom)));
    #[cfg(feature = "jit")]
    if let Some(v) = &validated {
        engines.push(Box::new(JitEngine(crate::jit::JitFilter::from_validated(
            v,
        ))));
    }
    engines
}

/// Number of surfaces [`singleton_engines`] yields for a valid program.
pub fn singleton_surface_count(config: InterpConfig) -> usize {
    let base = if config == InterpConfig::default() {
        7
    } else {
        6
    };
    base + usize::from(crate::JIT_BUILT)
}

struct CheckedEngine {
    program: FilterProgram,
    config: InterpConfig,
}

impl FilterEngine for CheckedEngine {
    fn name(&self) -> &'static str {
        "checked"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        CheckedInterpreter::new(self.config)
            .eval(&self.program, PacketView::new(packet))
            .then_some(0)
    }
}

struct ValidatedEngine(ValidatedProgram);

impl FilterEngine for ValidatedEngine {
    fn name(&self) -> &'static str {
        "validated"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        self.0.eval(PacketView::new(packet)).then_some(0)
    }
}

struct CompiledEngine(CompiledFilter);

impl FilterEngine for CompiledEngine {
    fn name(&self) -> &'static str {
        "compiled"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        self.0.eval(PacketView::new(packet)).then_some(0)
    }
}

struct IrEngine(IrFilter);

impl FilterEngine for IrEngine {
    fn name(&self) -> &'static str {
        "ir"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        self.0.eval(PacketView::new(packet)).then_some(0)
    }
}

/// Any [`DemuxSet`] holding the filter under test as set member 0.
struct SetEngine<S>(&'static str, S);

impl<S: DemuxSet> FilterEngine for SetEngine<S> {
    fn name(&self) -> &'static str {
        self.0
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        first(&self.1.matches(PacketView::new(packet)).0)
    }
    fn eval_batch(&mut self, packets: &[&[u8]]) -> Vec<Option<u16>> {
        let views: Vec<PacketView<'_>> = packets.iter().map(|p| PacketView::new(p)).collect();
        self.1
            .matches_batch(&views)
            .0
            .iter()
            .map(|ids| first(ids))
            .collect()
    }
}

fn first(ids: &[FilterId]) -> Option<u16> {
    ids.first().map(|&id| u16::try_from(id).unwrap_or(u16::MAX))
}

#[cfg(feature = "jit")]
struct JitEngine(crate::jit::JitFilter);

#[cfg(feature = "jit")]
impl FilterEngine for JitEngine {
    fn name(&self) -> &'static str {
        "jit"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        self.0.eval(PacketView::new(packet)).then_some(0)
    }
    fn eval_batch(&mut self, packets: &[&[u8]]) -> Vec<Option<u16>> {
        // One virtual dispatch for the whole batch; the template code is
        // then invoked back-to-back, keeping its instruction stream hot.
        let filter = &self.0;
        packets
            .iter()
            .map(|p| filter.eval(PacketView::new(p)).then_some(0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::samples;

    #[test]
    fn ladder_order_and_count_for_a_valid_program() {
        let prog = samples::fig_3_9_pup_socket_35();
        let engines = singleton_engines(&prog, InterpConfig::default());
        assert_eq!(
            engines.len(),
            singleton_surface_count(InterpConfig::default())
        );
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(&names[..3], &["checked", "validated", "compiled"]);
        assert!(names.contains(&"dtree"));
        assert!(names.contains(&"sharded"));
        assert_eq!(names.contains(&"jit"), crate::JIT_BUILT);
    }

    #[test]
    fn all_surfaces_agree_on_a_sample() {
        let prog = samples::fig_3_9_pup_socket_35();
        let hit = samples::pup_packet_3mb(2, 0, 35, 1);
        let miss = samples::pup_packet_3mb(2, 0, 36, 1);
        for engine in &mut singleton_engines(&prog, InterpConfig::default()) {
            assert_eq!(engine.matches(&hit), Some(0), "{}", engine.name());
            assert_eq!(engine.matches(&miss), None, "{}", engine.name());
        }
    }

    #[test]
    fn eval_batch_agrees_with_matches_on_every_surface() {
        let prog = samples::fig_3_9_pup_socket_35();
        let hit = samples::pup_packet_3mb(2, 0, 35, 1);
        let miss = samples::pup_packet_3mb(2, 0, 36, 1);
        let truncated = &hit[..5];
        let frames: Vec<&[u8]> = vec![&hit, &miss, truncated, &[], &hit];
        for engine in &mut singleton_engines(&prog, InterpConfig::default()) {
            let batched = engine.eval_batch(&frames);
            let scalar: Vec<Option<u16>> = frames.iter().map(|p| engine.matches(p)).collect();
            assert_eq!(batched, scalar, "{}", engine.name());
        }
    }

    #[test]
    fn invalid_program_still_gets_fallback_surfaces() {
        // An unbalanced stack program the validator rejects; the checked
        // interpreter and the fallback-capable sets still serve it.
        let prog = pf_filter::program::Assembler::new(0)
            .op(pf_filter::word::BinaryOp::Eq)
            .finish();
        assert!(ValidatedProgram::new(prog.clone()).is_err());
        let engines = singleton_engines(&prog, InterpConfig::default());
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["checked", "dtree", "sharded", "geom"]);
    }
}
