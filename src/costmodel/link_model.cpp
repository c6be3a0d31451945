#include "costmodel/link_model.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/bitutil.hpp"

namespace grow::costmodel {

LinkEstimate
estimateLinkTraffic(const gcn::PhasePlan &plan,
                    const scaleout::ChipShardPlan &shard,
                    const scaleout::HaloPlan &halo,
                    const scaleout::LinkSpec &link)
{
    GROW_ASSERT(halo.chips == shard.chips,
                "halo plan and shard plan disagree on the chip count");
    LinkEstimate est;
    const uint32_t chips = shard.chips;
    est.pairBytes.assign(chips, std::vector<Bytes>(chips, 0));
    est.egressBytes.assign(chips, 0);

    const double bpc = link.bytesPerCycle();
    GROW_ASSERT(bpc > 0, "link bandwidth must be positive");

    for (size_t point : scaleout::haloPoints(plan, chips)) {
        LinkPhaseEstimate pe;
        pe.layer = plan[point].layer;
        const uint32_t cols = plan[point].problem.rhsCols;
        // The busiest serial agent bounds the step: each source chip's
        // egress link serialises everything it sends, and each
        // destination chip pulls its ingress serially (the co-sim's
        // lanes). Bytes per pair are exact -- same HaloPlan the
        // runner's link counters are checked against.
        std::vector<Bytes> egress(chips, 0), ingress(chips, 0);
        std::vector<uint64_t> egressChunks(chips, 0),
            ingressChunks(chips, 0);
        for (uint32_t dst = 0; dst < chips; ++dst) {
            for (uint32_t src = 0; src < chips; ++src) {
                if (src == dst)
                    continue;
                const Bytes bytes = halo.pairPhaseBytes(dst, src, cols);
                if (bytes == 0)
                    continue;
                const Bytes rowBytes =
                    static_cast<Bytes>(cols) * kValueBytes;
                const uint64_t rows = bytes / rowBytes;
                const uint64_t chunks =
                    rows * ceilDiv(rowBytes, link.chunkBytes);
                est.pairBytes[src][dst] += bytes;
                est.egressBytes[src] += bytes;
                est.totalBytes += bytes;
                egress[src] += bytes;
                ingress[dst] += bytes;
                egressChunks[src] += chunks;
                ingressChunks[dst] += chunks;
                pe.totalBytes += bytes;
            }
        }
        Bytes critBytes = 0;
        uint64_t critChunks = 0;
        for (uint32_t c = 0; c < chips; ++c) {
            if (egress[c] > critBytes) {
                critBytes = egress[c];
                critChunks = egressChunks[c];
            }
            if (ingress[c] > critBytes) {
                critBytes = ingress[c];
                critChunks = ingressChunks[c];
            }
        }
        if (pe.totalBytes > 0)
            pe.cycles = link.latencyCycles() +
                        static_cast<Cycle>(
                            static_cast<double>(critBytes) / bpc) +
                        critChunks;
        est.haloCycles += pe.cycles;
        est.phases.push_back(pe);
    }
    return est;
}

} // namespace grow::costmodel
