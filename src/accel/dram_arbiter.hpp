/**
 * @file
 * Deterministic epoch-based arbitration of shared memory-like devices.
 *
 * The cluster-parallel co-simulation (core::GrowSim with
 * SimOptions::epochCycles > 0) runs one lane per processing engine,
 * each lane executing its share of the graph clusters concurrently.
 * The lanes share one DRAM device -- exactly the coupling that makes
 * naive parallel simulation non-deterministic: the interleaving of
 * read()/write() calls would depend on OS scheduling. The multi-chip
 * scale-out co-simulation (src/scaleout/) has the same structure one
 * level up: receiving chips (lanes) pull halo rows through shared
 * egress links (resources), so the identical protocol arbitrates
 * inter-chip link ports too.
 *
 * EpochArbiter removes the scheduling dependence with a bulk-
 * synchronous protocol over any set of mem::DramModel-shaped shared
 * resources (DRAM channels, inter-chip links):
 *
 *  1. beginEpoch() snapshots every canonical device's timing state
 *     into one private replica per (resource, lane) port
 *     (DramModel::cloneTimingState).
 *  2. During the epoch each lane talks only to its LaneDramPorts: the
 *     response comes from the port's replica (snapshot + the lane's
 *     own earlier requests of this epoch on that resource), and the
 *     request is recorded with its canonical key (epoch, resourceId,
 *     clusterId, laneId, requestSeq). Lanes never touch shared mutable
 *     state, so they may run on any number of worker threads in any
 *     order.
 *  3. commitEpoch() sorts the recorded requests by the canonical key
 *     and replays them through their canonical devices, which
 *     accumulate the official traffic accounting and the channel
 *     backlog that the next epoch's snapshots observe.
 *
 * Determinism: every response and the canonical replay order are pure
 * functions of the simulation state at the epoch boundary -- thread
 * count and scheduling cannot change a single bit. Fidelity: a lane
 * observes other lanes' channel pressure with one-epoch delay
 * (contention within an epoch window of E cycles is resolved at the
 * boundary), which is the standard relaxed-synchronization trade-off
 * of parallel architecture simulators; epochCycles == 0 disables the
 * arbiter entirely and keeps the exact serial interleaving. See
 * DESIGN.md "Parallel co-simulation & DRAM arbitration".
 *
 * core::GrowSim's epoch mode arbitrates a single resource (its one
 * DRAM channel, resourceId 0) across per-PE lanes.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/dram.hpp"
#include "sim/types.hpp"

namespace grow::accel {

class EpochArbiter;

/** One recorded memory request with its canonical ordering key. */
struct DramRequest
{
    uint64_t epoch = 0;
    /** Canonical resource (DRAM channel / link) the request targets. */
    uint32_t resourceId = 0;
    /** Graph cluster the owning lane was executing (falls back to the
     *  lane id before the first cluster transition). Clusters are
     *  owned by exactly one lane, so (epoch, resourceId, clusterId,
     *  seq) is unique; laneId breaks ties defensively. */
    uint32_t clusterId = 0;
    uint32_t laneId = 0;
    /** Port-local issue index (program order within the lane). */
    uint64_t seq = 0;

    bool isWrite = false;
    Cycle now = 0;
    uint64_t addr = 0;
    Bytes bytes = 0;
    mem::TrafficClass cls = mem::TrafficClass::DenseRow;
};

/**
 * Per-(resource, lane) port: a DramModel whose responses are computed
 * against the lane's private replica of that canonical device. Engines
 * use it as a drop-in DRAM; the arbiter owns it.
 */
class LaneDramPort : public mem::DramModel
{
  public:
    LaneDramPort(EpochArbiter &arbiter, uint32_t resource_id,
                 uint32_t lane_id);

    /** Stamp subsequent requests as belonging to @p cluster_id
     *  (wired to RowEngine's cluster transitions). */
    void setCluster(uint32_t cluster_id) { cluster_ = cluster_id; }

    Cycle read(Cycle now, uint64_t addr, Bytes bytes,
               mem::TrafficClass cls) override;
    Cycle write(Cycle now, uint64_t addr, Bytes bytes,
                mem::TrafficClass cls) override;
    std::unique_ptr<mem::DramModel> cloneTimingState() const override;

  private:
    friend class EpochArbiter;

    Cycle record(bool is_write, Cycle now, uint64_t addr, Bytes bytes,
                 mem::TrafficClass cls);

    EpochArbiter &arbiter_;
    uint32_t resource_;
    uint32_t lane_;
    uint32_t cluster_;
    uint64_t seq_ = 0;
    /** Snapshot of the canonical device + this port's epoch requests. */
    std::unique_ptr<mem::DramModel> replica_;
    std::vector<DramRequest> pending_;
};

/**
 * The epoch coordinator over a set of shared resources. Owns the
 * (resource x lane) ports; the canonical devices are borrowed and must
 * outlive the arbiter.
 */
class EpochArbiter
{
  public:
    EpochArbiter(std::vector<mem::DramModel *> resources,
                 uint32_t num_lanes);

    uint32_t numResources() const
    {
        return static_cast<uint32_t>(resources_.size());
    }
    uint32_t numLanes() const { return numLanes_; }

    /** Lane @p lane's private port onto resource @p resource. */
    LaneDramPort &port(uint32_t resource, uint32_t lane)
    {
        return *ports_.at(static_cast<size_t>(resource) * numLanes_ +
                          lane);
    }

    /** Current epoch index (first beginEpoch() starts epoch 1). */
    uint64_t epoch() const { return epoch_; }

    /** Total requests replayed through the canonical devices so far. */
    uint64_t committedRequests() const { return committed_; }

    /** Open the next epoch: re-snapshot every port's replica from its
     *  canonical device. */
    void beginEpoch();

    /**
     * Close the epoch: gather every port's recorded requests, order
     * them by the canonical (epoch, resourceId, clusterId, laneId,
     * seq) key and replay them through their canonical devices.
     * Responses of the replay are discarded -- lanes already consumed
     * their replica responses; the replay exists to accumulate the
     * official traffic and carry the channel backlog into the next
     * epoch.
     */
    void commitEpoch();

  private:
    friend class LaneDramPort;

    std::vector<mem::DramModel *> resources_;
    uint32_t numLanes_ = 0;
    std::vector<std::unique_ptr<LaneDramPort>> ports_;
    uint64_t epoch_ = 0;
    uint64_t committed_ = 0;
};

} // namespace grow::accel
