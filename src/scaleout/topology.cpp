#include "scaleout/topology.hpp"

#include "util/logging.hpp"

namespace grow::scaleout {

void
EngineTopology::validate() const
{
    if (engine.empty())
        fatal("EngineTopology: engine key is empty");
    if (chips < 1 || chips > kMaxChips)
        fatal("EngineTopology: chips must be in [1, " +
              std::to_string(kMaxChips) + "], got " +
              std::to_string(chips));
    if (growConfig && engine.rfind("grow", 0) != 0)
        fatal("EngineTopology: a GrowConfig override needs a "
              "grow-family engine key, got '" + engine + "'");
    if (!(link.bandwidthGBps > 0.0))
        fatal("EngineTopology: link bandwidth must be > 0 GB/s");
    if (link.latencyNs < 0.0)
        fatal("EngineTopology: link latency must be >= 0 ns");
    if (link.chunkBytes == 0)
        fatal("EngineTopology: link chunk size must be > 0 bytes");
    if (!(link.clockGHz > 0.0))
        fatal("EngineTopology: link clock must be > 0 GHz");
}

std::vector<uint32_t>
parseChipCounts(const std::vector<std::string> &values)
{
    if (values.empty())
        fatal("chips= needs at least one chip count");
    std::vector<uint32_t> counts;
    for (const std::string &c : values) {
        const bool digits =
            !c.empty() && c.size() <= 9 &&
            c.find_first_not_of("0123456789") == std::string::npos;
        const uint64_t n = digits ? std::stoull(c) : 0;
        if (n < 1 || n > kMaxChips)
            fatal("chips= takes chip counts in [1, " +
                  std::to_string(kMaxChips) + "], got '" + c + "'");
        counts.push_back(static_cast<uint32_t>(n));
    }
    return counts;
}

} // namespace grow::scaleout
