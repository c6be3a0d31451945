/**
 * @file
 * Halo-exchange planning: which features cross which link.
 *
 * Before a layer's aggregation can run on chip d, the combination
 * outputs of every *boundary vertex* -- a vertex owned by another chip
 * s that some row of d's adjacency slice references -- must arrive
 * over s's egress link. The HaloPlan enumerates those boundary-vertex
 * sets once per shard plan (they are a pure function of the adjacency
 * structure); each layer then moves |boundary(d, s)| * outDim *
 * kValueBytes bytes over link s -> d, each remote row fetched exactly
 * once per layer (the chip-local halo buffer deduplicates the
 * cut-edge endpoints, mirroring how the HDN cache deduplicates
 * on-chip row reuse).
 *
 * Where those exchanges sit in an inference is also decided here
 * (haloPoints): the single-chip phase plan never contains one, and the
 * runner, its link co-simulation and costmodel::estimateLinkTraffic
 * all read the positions from the same helper.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gcn/runner.hpp"
#include "scaleout/shard.hpp"
#include "sim/types.hpp"

namespace grow::scaleout {

/** Boundary-vertex sets of one shard plan. */
struct HaloPlan
{
    uint32_t chips = 1;
    /**
     * boundary[dst][src] = sorted distinct (relabeled) vertices owned
     * by chip src that chip dst's adjacency rows reference
     * (boundary[d][d] is always empty).
     */
    std::vector<std::vector<std::vector<NodeId>>> boundary;

    /** Boundary vertices pulled by @p dst from @p src. */
    uint64_t boundaryVertices(uint32_t dst, uint32_t src) const
    {
        return boundary[dst][src].size();
    }

    /** Total boundary vertices across all directed chip pairs. */
    uint64_t totalBoundaryVertices() const;

    /** Bytes link src -> dst carries for one layer of @p rhs_cols
     *  features. */
    Bytes pairPhaseBytes(uint32_t dst, uint32_t src,
                         uint32_t rhs_cols) const
    {
        return boundaryVertices(dst, src) *
               static_cast<Bytes>(rhs_cols) * kValueBytes;
    }

    /** Bytes all links carry for one layer of @p rhs_cols features. */
    Bytes phaseBytes(uint32_t rhs_cols) const
    {
        return totalBoundaryVertices() *
               static_cast<Bytes>(rhs_cols) * kValueBytes;
    }
};

/**
 * Enumerate the boundary-vertex sets of @p shard over @p adjacency
 * (the relabeled operand the aggregation streams). Deterministic and
 * independent of thread count.
 */
HaloPlan buildHaloPlan(const sparse::CsrMatrix &adjacency,
                       const ChipShardPlan &shard);

/**
 * The halo exchanges of @p plan sharded across @p chips chips, as
 * indices into @p plan of the steps they run immediately before: one
 * per layer, ahead of the layer's first non-combination step. That
 * step's rhsCols is the exchanged feature width and its lhs the
 * adjacency whose cut the exchange crosses. Empty for chips == 1.
 */
std::vector<size_t> haloPoints(const gcn::PhasePlan &plan,
                               uint32_t chips);

} // namespace grow::scaleout
