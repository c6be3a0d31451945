/**
 * @file
 * Multi-chip sharded co-simulation: a layer over the single-chip
 * runner.
 *
 * scaleout::runInference executes one inference across the chips of an
 * EngineTopology:
 *
 *  1. The workload is lowered once, exactly as for one chip
 *     (gcn::buildPhasePlan). haloPoints (scaleout/halo.hpp) derives
 *     where the halo exchanges sit: one per layer, ahead of the
 *     layer's first adjacency-streaming step.
 *  2. A ChipShardPlan assigns the partitioner's clusters to chips
 *     (cut-arc-minimising, balance-capped), and every plan step is
 *     row-sliced to each chip's owned clusters: the sliced operands
 *     keep global column IDs, so the relabeled layout, per-cluster HDN
 *     lists and the engines' cluster round-robin apply unchanged.
 *  3. Each chip's slice runs through the unchanged single-chip
 *     executor (gcn::executePlan) -- chips are hermetic between halo
 *     points.
 *  4. The halo exchanges are co-simulated against one InterchipLink
 *     per chip through the generalized accel::EpochArbiter (links are
 *     the resources, receiving chips the lanes), so link contention
 *     resolves at deterministic epoch boundaries: results are
 *     bit-identical for every `threads=` value.
 *  5. The merge builds one whole-topology phase per plan step
 *     (per-phase max cycles across chips, everything else summed),
 *     inserts a HaloExchange phase at every halo point, and folds them
 *     through the single-chip fold (gcn::InferenceResult::addPhase).
 *     A chips=1 topology therefore reproduces gcn::runInference
 *     exactly; tests/scaleout checks it for every engine key.
 *
 * See DESIGN.md "Multi-chip scale-out".
 */
#pragma once

#include <vector>

#include "gcn/runner.hpp"
#include "scaleout/halo.hpp"
#include "scaleout/shard.hpp"
#include "scaleout/topology.hpp"

namespace grow::scaleout {

/** Bytes/transfers one directed link pair carried (exact by
 *  construction: boundary vertices x feature bytes, see HaloPlan). */
struct LinkPairTraffic
{
    uint32_t src = 0;
    uint32_t dst = 0;
    Bytes bytes = 0;
    uint64_t transfers = 0;
};

/** Per-link accounting of one scale-out run. */
struct LinkMetrics
{
    /** Directed pairs (src != dst), ascending (src, dst). */
    std::vector<LinkPairTraffic> pairs;
    /** Canonical egress-device byte counters, one per source chip
     *  (equal to the pair sums -- the conservation invariant). */
    std::vector<Bytes> egressBytes;
    /** Cycles each egress link spent transferring. */
    std::vector<Cycle> egressBusyCycles;
    Bytes totalBytes = 0;
    uint64_t totalTransfers = 0;
};

/** Outcome of one sharded inference. */
struct ScaleoutResult
{
    /**
     * Whole-topology aggregate: per-phase max cycles across chips
     * (summed over phases, halo steps included), summed traffic /
     * MACs / energy / cache statistics, folded exactly as the
     * single-chip runner folds its phases. For chips == 1 this equals
     * the gcn::runInference result.
     */
    gcn::InferenceResult merged;
    /** Per-chip single-chip results, chip order. */
    std::vector<gcn::InferenceResult> perChip;
    ChipShardPlan shard;
    HaloPlan halo;
    LinkMetrics links;
    /** Total feature bytes moved by all halo steps. */
    Bytes haloBytes = 0;
    /** Cycles spent in halo steps (also merged.haloCycles). */
    Cycle haloCycles = 0;
};

/**
 * Run one inference of @p workload on @p topology under @p options
 * (options.usePartitioning is overridden by the topology's engine).
 * Deterministic: bit-identical for every options.sim.threads value.
 */
ScaleoutResult runInference(const EngineTopology &topology,
                            const gcn::GcnWorkload &workload,
                            const gcn::RunOptions &options);

} // namespace grow::scaleout
