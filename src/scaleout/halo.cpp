#include "scaleout/halo.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace grow::scaleout {

uint64_t
HaloPlan::totalBoundaryVertices() const
{
    uint64_t total = 0;
    for (const auto &perSrc : boundary)
        for (const auto &verts : perSrc)
            total += verts.size();
    return total;
}

HaloPlan
buildHaloPlan(const sparse::CsrMatrix &adjacency,
              const ChipShardPlan &shard)
{
    GROW_ASSERT(shard.nodeToChip.size() == adjacency.rows(),
                "shard plan does not cover the adjacency rows");
    HaloPlan plan;
    plan.chips = shard.chips;
    plan.boundary.assign(shard.chips,
                         std::vector<std::vector<NodeId>>(shard.chips));
    for (uint32_t v = 0; v < adjacency.rows(); ++v) {
        const uint32_t dst = shard.nodeToChip[v];
        for (NodeId nb : adjacency.rowCols(v)) {
            const uint32_t src = shard.nodeToChip[nb];
            if (src != dst)
                plan.boundary[dst][src].push_back(nb);
        }
    }
    for (auto &perSrc : plan.boundary) {
        for (auto &verts : perSrc) {
            std::sort(verts.begin(), verts.end());
            verts.erase(std::unique(verts.begin(), verts.end()),
                        verts.end());
        }
    }
    return plan;
}

std::vector<size_t>
haloPoints(const gcn::PhasePlan &plan, uint32_t chips)
{
    std::vector<size_t> points;
    if (chips <= 1)
        return points;
    for (size_t i = 0; i < plan.size(); ++i) {
        const bool layerHasHalo =
            !points.empty() && plan[points.back()].layer == plan[i].layer;
        if (plan[i].op != gcn::PhaseOp::Combination && !layerHasHalo)
            points.push_back(i);
    }
    return points;
}

} // namespace grow::scaleout
