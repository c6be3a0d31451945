/**
 * @file
 * GNN model zoo: which layer types lower onto the GROW pipeline, and
 * what each lowers *to*.
 *
 * The paper evaluates vanilla GCN, but Sec. VIII analyses how the
 * advanced aggregation functions of SAGEConv, GIN and GAT map onto the
 * same row-stationary SpDeGEMM pipeline. This module turns that
 * analysis into executable lowerings: a ModelKind names the layer
 * type, and gcn::buildPhasePlan expands every layer of a workload into
 * the per-kind op sequence described here (see DESIGN.md "Model
 * lowering"):
 *
 *  - Gcn:      [Combination, Aggregation] -- the paper's evaluation,
 *              A*(X*W) over the normalized adjacency (Sec. II-B).
 *  - SageMean: [Combination, Aggregation] over the *sampled* adjacency
 *              (fanout-k uniform neighbour sampling, mean-normalized;
 *              graph::sampleNeighborAdjacency). Runs on the MAC array
 *              as-is (Sec. VIII).
 *  - SagePool: same lowering as SageMean, but the max-pool reduction
 *              exercises a vector comparator array beside the MACs
 *              (+1.4% chip area, Sec. VIII); the aggregation phases
 *              carry that extra unit's energy.
 *  - Gin:      [Combination, Aggregation, Combination] -- the
 *              aggregation streams GIN's sum operand A + (1+eps)I
 *              (the learnable central-node weight on the diagonal),
 *              and the MLP refactors into consecutive W phases (as in
 *              GCNAX, Sec. VIII -- no new hardware): the trailing
 *              combination is the second MLP stage applied to the
 *              aggregated output.
 *  - Gat:      [Combination, AttentionScore, Aggregation] -- per-edge
 *              attention scores lower as an SDDMM-shaped SpDeGEMM over
 *              the adjacency non-zeros, with the table-based softmax
 *              folded into the score phase (~16% of the MAC array,
 *              ~1.7% chip-wide, Sec. VIII).
 */
#pragma once

#include <string>
#include <vector>

#include "gcn/aggregators.hpp"

namespace grow::gcn {

/** GNN layer types lowered onto the PhasePlan abstraction. */
enum class ModelKind {
    Gcn,      ///< vanilla GCN (the paper's evaluation)
    SageMean, ///< SAGEConv, mean over sampled neighbours
    SagePool, ///< SAGEConv, max-pool over sampled neighbours
    Gin,      ///< GIN, epsilon folded into consecutive W phases
    Gat       ///< GAT, SDDMM attention scores + softmax-folded phase
};

/**
 * What one SpDeGEMM step of a plan computes at the model level. The
 * engines never interpret this -- they see only the problem shape --
 * but the runner's cycle/energy accounting and functional-output
 * threading are keyed on it.
 */
enum class PhaseOp {
    Combination,   ///< X * W, dense W resident on-chip
    Aggregation,   ///< A * (XW): weighted-sum / mean / pool reduction
    AttentionScore, ///< SDDMM-shaped per-edge score pass, softmax folded
    /**
     * Multi-chip boundary-feature exchange (src/scaleout/): before a
     * layer's adjacency-streaming steps can run, every chip pulls the
     * combination outputs of its remote boundary vertices across the
     * inter-chip links. Phase plans never carry this op: only the
     * scale-out runner's merged results do (scaleout::haloPoints places
     * it, the link co-simulation prices it).
     */
    HaloExchange
};

/** Canonical CLI token of @p kind ("gcn", "sage-mean", ...). */
const char *modelKindName(ModelKind kind);

/** Short phase-op token for labels/diagnostics. */
const char *phaseOpName(PhaseOp op);

/** Parse a model token (case-insensitive); fatal() naming the known
 *  tokens when unknown. */
ModelKind modelKindFromString(const std::string &s);

/** Every ModelKind, in declaration order (the model-zoo sweep set). */
const std::vector<ModelKind> &allModelKinds();

/** The Sec. VIII aggregator family @p kind maps to (area/energy
 *  overhead provenance: aggregatorSupport(modelAggregator(kind))). */
Aggregator modelAggregator(ModelKind kind);

/** Whether @p kind aggregates over a sampled adjacency (SAGEConv's
 *  fanout-k operand) instead of the full normalized adjacency. */
bool modelUsesSampling(ModelKind kind);

/** SpDeGEMM steps per layer of @p kind (2 or 3). */
uint32_t modelPhasesPerLayer(ModelKind kind);

/**
 * MAC-array area fraction of the extra functional unit a phase of
 * (@p kind, @p op) exercises, 0 when the op runs on the stock MAC
 * array. Feeds energy::auxiliaryUnitPj: the softmax unit is exercised
 * by GAT's AttentionScore phases, the comparator array by SagePool's
 * Aggregation phases.
 */
double modelAuxUnitMacFraction(ModelKind kind, PhaseOp op);

} // namespace grow::gcn
