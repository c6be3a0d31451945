#include "scaleout/runner.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include "accel/dram_arbiter.hpp"
#include "driver/engine_factory.hpp"
#include "scaleout/link.hpp"
#include "util/logging.hpp"
#include "util/wallclock.hpp"
#include "util/work_pool.hpp"

namespace grow::scaleout {

namespace {

/** Contiguous global row ranges [first, last) of one chip's slice:
 *  the owned clusters' node ranges, ascending, adjacent ones merged. */
std::vector<std::pair<uint32_t, uint32_t>>
chipRowRanges(const ChipShardPlan &shard,
              const partition::Clustering &clustering, uint32_t chip)
{
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    for (uint32_t c : shard.chipClusters[chip]) {
        const uint32_t lo = clustering.clusterStart[c];
        const uint32_t hi = clustering.clusterStart[c + 1];
        if (!ranges.empty() && ranges.back().second == lo)
            ranges.back().second = hi;
        else
            ranges.emplace_back(lo, hi);
    }
    return ranges;
}

/** Row-slice @p m to @p ranges (columns stay global). */
sparse::CsrMatrix
sliceRows(const sparse::CsrMatrix &m,
          const std::vector<std::pair<uint32_t, uint32_t>> &ranges)
{
    uint32_t rows = 0;
    uint64_t nnz = 0;
    for (const auto &[lo, hi] : ranges) {
        rows += hi - lo;
        nnz += m.rowPtr()[hi] - m.rowPtr()[lo];
    }
    std::vector<uint64_t> rowPtr;
    rowPtr.reserve(rows + 1);
    rowPtr.push_back(0);
    std::vector<NodeId> colIdx;
    colIdx.reserve(nnz);
    std::vector<double> values;
    values.reserve(nnz);
    for (const auto &[lo, hi] : ranges) {
        for (uint32_t r = lo; r < hi; ++r) {
            const auto cols = m.rowCols(r);
            const auto vals = m.rowVals(r);
            colIdx.insert(colIdx.end(), cols.begin(), cols.end());
            values.insert(values.end(), vals.begin(), vals.end());
            rowPtr.push_back(colIdx.size());
        }
    }
    return sparse::CsrMatrix::fromRaw(rows, m.cols(), std::move(rowPtr),
                                      std::move(colIdx),
                                      std::move(values));
}

/** One chip's private operand storage; the per-chip plan borrows from
 *  it, so it must outlive the chip's execution. */
struct ChipSlice
{
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    /** Global operand -> this chip's row slice. */
    std::map<const sparse::CsrMatrix *,
             std::unique_ptr<sparse::CsrMatrix>>
        sliced;
    partition::Clustering clustering;
    std::vector<std::vector<NodeId>> hdnLists;
    gcn::PhasePlan plan;

    const sparse::CsrMatrix &slice(const sparse::CsrMatrix &global)
    {
        auto it = sliced.find(&global);
        if (it == sliced.end()) {
            it = sliced
                     .emplace(&global,
                              std::make_unique<sparse::CsrMatrix>(
                                  sliceRows(global, ranges)))
                     .first;
        }
        return *it->second;
    }
};

/** One chunked link transfer of a halo step. */
struct LinkTransfer
{
    uint32_t src = 0;
    uint64_t addr = 0;
    Bytes bytes = 0;
};

/**
 * Co-simulate the halo steps of @p plan (at @p points, see haloPoints)
 * over one egress link per chip. Receiving chips are the arbiter
 * lanes, egress links the resources; each lane's DMA engine pipelines
 * its pulls (serialization chains on the link channel, the
 * per-transfer latency overlaps), and cross-lane link contention
 * resolves at epoch boundaries -- deterministic for every worker
 * count. Returns per-step cycle counts in the order of @p points.
 */
std::vector<Cycle>
simulateHalo(const gcn::PhasePlan &plan,
             const std::vector<size_t> &points, const HaloPlan &halo,
             const EngineTopology &topo,
             std::vector<std::unique_ptr<InterchipLink>> &links,
             const gcn::RunOptions &options)
{
    const uint32_t chips = topo.chips;
    std::vector<mem::DramModel *> resources;
    resources.reserve(chips);
    for (auto &link : links)
        resources.push_back(link.get());
    accel::EpochArbiter arbiter(resources, chips);

    const Cycle window =
        options.sim.epochCycles > 0 ? options.sim.epochCycles : 4096;
    const Cycle latency = topo.link.latencyCycles();
    const uint32_t threads = std::max(1u, options.sim.threads);

    std::vector<Cycle> stepCycles;
    Cycle clock = 0;
    for (size_t point : points) {
        const Bytes rowBytes =
            static_cast<Bytes>(plan[point].problem.rhsCols) * kValueBytes;

        // Per-lane transfer lists: every remote boundary vertex's
        // feature row, chunked to the link DMA granularity, sources in
        // ascending chip order.
        std::vector<std::vector<LinkTransfer>> lane(chips);
        for (uint32_t dst = 0; dst < chips; ++dst) {
            for (uint32_t src = 0; src < chips; ++src) {
                for (NodeId v : halo.boundary[dst][src]) {
                    Bytes left = rowBytes;
                    uint64_t addr =
                        static_cast<uint64_t>(v) * rowBytes;
                    while (left > 0) {
                        const Bytes piece =
                            std::min<Bytes>(left, topo.link.chunkBytes);
                        lane[dst].push_back({src, addr, piece});
                        addr += piece;
                        left -= piece;
                    }
                }
            }
        }

        const Cycle stepStart = clock;
        std::vector<size_t> pos(chips, 0);
        std::vector<Cycle> laneFree(chips, stepStart);
        std::vector<Cycle> laneLast(chips, stepStart);
        Cycle windowEnd = stepStart + window;
        for (;;) {
            bool pending = false;
            for (uint32_t d = 0; d < chips; ++d)
                pending = pending || pos[d] < lane[d].size();
            if (!pending)
                break;
            arbiter.beginEpoch();
            std::vector<std::function<void()>> tasks;
            tasks.reserve(chips);
            for (uint32_t d = 0; d < chips; ++d) {
                tasks.emplace_back([&, d] {
                    while (pos[d] < lane[d].size() &&
                           laneFree[d] < windowEnd) {
                        const LinkTransfer &tr = lane[d][pos[d]];
                        const Cycle done =
                            arbiter.port(tr.src, d)
                                .read(laneFree[d], tr.addr, tr.bytes,
                                      mem::TrafficClass::DenseRow);
                        // Pipelined DMA: the next pull starts once the
                        // link channel frees up; the fixed latency
                        // overlaps across in-flight transfers.
                        laneFree[d] = std::max<Cycle>(
                            laneFree[d] + 1,
                            done > latency ? done - latency
                                           : laneFree[d] + 1);
                        laneLast[d] = std::max(laneLast[d], done);
                        ++pos[d];
                    }
                });
            }
            util::rethrowFirstError(
                util::WorkPool::shared().runAll(std::move(tasks),
                                                threads));
            arbiter.commitEpoch();
            windowEnd += window;
        }
        Cycle stepEnd = stepStart;
        for (uint32_t d = 0; d < chips; ++d)
            stepEnd = std::max(stepEnd, laneLast[d]);
        stepCycles.push_back(stepEnd - stepStart);
        clock = stepEnd;
    }
    return stepCycles;
}

/**
 * Whole-topology phase for plan step @p step: per-phase max cycles
 * across chips (they run concurrently), everything else summed.
 */
gcn::PhaseMetrics
mergeChipPhase(const std::vector<gcn::InferenceResult> &perChip,
               size_t step)
{
    const gcn::PhaseMetrics &first = perChip.front().phases.at(step);
    gcn::PhaseMetrics pm;
    pm.layer = first.layer;
    pm.op = first.op;
    pm.result.engine = first.result.engine;
    pm.result.phase = first.result.phase;
    pm.result.label = first.result.label;
    for (const gcn::InferenceResult &chip : perChip) {
        const gcn::PhaseMetrics &cpm = chip.phases.at(step);
        pm.result.cycles = std::max(pm.result.cycles, cpm.result.cycles);
        pm.result.macOps += cpm.result.macOps;
        pm.result.cacheHits += cpm.result.cacheHits;
        pm.result.cacheMisses += cpm.result.cacheMisses;
        pm.result.traffic += cpm.result.traffic;
        pm.energy += cpm.energy;
        pm.hostMillis += cpm.hostMillis;
    }
    return pm;
}

} // namespace

ScaleoutResult
runInference(const EngineTopology &topology,
             const gcn::GcnWorkload &workload,
             const gcn::RunOptions &options)
{
    util::WallClock runClock;
    topology.validate();
    const uint32_t chips = topology.chips;
    driver::EngineSpec spec = driver::engineForTopology(topology);

    gcn::RunOptions opts = options;
    opts.usePartitioning = spec.usePartitioning;
    GROW_ASSERT(!opts.sim.functional || chips == 1,
                "multi-chip topologies have no functional mode");

    const gcn::PhasePlan plan = gcn::buildPhasePlan(workload, opts);
    const std::vector<size_t> points = haloPoints(plan, chips);

    ScaleoutResult out;
    if (chips > 1) {
        // The shard objective is the adjacency the halo exchanges
        // cross (the relabeled operand the aggregation streams).
        const sparse::CsrMatrix &adjacency =
            *plan[points.front()].problem.lhs;
        out.shard = buildShardPlan(adjacency,
                                   workload.relabel().clustering, chips);
        out.halo = buildHaloPlan(adjacency, out.shard);
    } else {
        const uint32_t nodes = workload.nodes();
        out.shard.chips = 1;
        out.shard.chipNodes = {nodes};
        out.shard.nodeToChip.assign(nodes, 0);
        if (opts.usePartitioning) {
            const auto &clustering = workload.relabel().clustering;
            out.shard.clusterToChip.assign(clustering.numClusters(), 0);
            out.shard.chipClusters.resize(1);
            for (uint32_t c = 0; c < clustering.numClusters(); ++c)
                out.shard.chipClusters[0].push_back(c);
        } else {
            out.shard.clusterToChip = {0};
            out.shard.chipClusters = {{0}};
        }
        out.halo.chips = 1;
        out.halo.boundary.assign(1, {{}});
    }

    // ---- Per-chip slices and plans ----------------------------------
    std::vector<ChipSlice> slices(chips);
    for (uint32_t c = 0; c < chips; ++c) {
        ChipSlice &slice = slices[c];
        if (opts.usePartitioning) {
            const auto &clustering = workload.relabel().clustering;
            slice.ranges = chipRowRanges(out.shard, clustering, c);
            slice.clustering.clusterStart.push_back(0);
            for (uint32_t cl : out.shard.chipClusters[c]) {
                slice.clustering.clusterStart.push_back(
                    slice.clustering.clusterStart.back() +
                    clustering.clusterSize(cl));
                if (cl < workload.hdnLists().size())
                    slice.hdnLists.push_back(workload.hdnLists()[cl]);
            }
        } else {
            slice.ranges = {{0u, workload.nodes()}};
        }
        for (const gcn::PlannedPhase &ph : plan) {
            gcn::PlannedPhase chipPh = ph;
            chipPh.problem.lhs = &slice.slice(*ph.problem.lhs);
            if (ph.problem.clustering != nullptr) {
                chipPh.problem.clustering = &slice.clustering;
                chipPh.problem.hdnLists = &slice.hdnLists;
            }
            slice.plan.push_back(std::move(chipPh));
        }
    }

    // ---- Execute every chip through the single-chip executor --------
    out.perChip.reserve(chips);
    for (uint32_t c = 0; c < chips; ++c) {
        auto engine = spec.make();
        out.perChip.push_back(
            gcn::executePlan(*engine, slices[c].plan, opts));
    }

    // ---- Co-simulate the halo steps over the links ------------------
    std::vector<std::unique_ptr<InterchipLink>> links;
    std::vector<Cycle> haloStepCycles;
    if (chips > 1) {
        links.reserve(chips);
        for (uint32_t s = 0; s < chips; ++s)
            links.push_back(
                std::make_unique<InterchipLink>(s, topology.link));
        haloStepCycles =
            simulateHalo(plan, points, out.halo, topology, links, opts);
    }

    // ---- Link accounting (exact by construction) --------------------
    out.links.egressBytes.assign(chips, 0);
    out.links.egressBusyCycles.assign(chips, 0);
    for (uint32_t src = 0; src < chips; ++src) {
        for (uint32_t dst = 0; dst < chips; ++dst) {
            if (src == dst)
                continue;
            LinkPairTraffic pair;
            pair.src = src;
            pair.dst = dst;
            for (size_t point : points) {
                const uint32_t cols = plan[point].problem.rhsCols;
                pair.bytes += out.halo.pairPhaseBytes(dst, src, cols);
                const Bytes rowBytes =
                    static_cast<Bytes>(cols) * kValueBytes;
                const uint64_t chunks =
                    rowBytes == 0
                        ? 0
                        : (rowBytes + topology.link.chunkBytes - 1) /
                              topology.link.chunkBytes;
                pair.transfers +=
                    out.halo.boundaryVertices(dst, src) * chunks;
            }
            out.links.pairs.push_back(pair);
            out.links.totalBytes += pair.bytes;
            out.links.totalTransfers += pair.transfers;
        }
    }
    if (chips > 1) {
        for (uint32_t src = 0; src < chips; ++src) {
            out.links.egressBytes[src] = links[src]->traffic().total();
            out.links.egressBusyCycles[src] = links[src]->busyCycles();
        }
        // Conservation: the canonical egress devices must have carried
        // exactly the boundary-feature payload.
        for (uint32_t src = 0; src < chips; ++src) {
            Bytes expected = 0;
            for (const auto &pair : out.links.pairs)
                if (pair.src == src)
                    expected += pair.bytes;
            GROW_ASSERT(out.links.egressBytes[src] == expected,
                        "link byte conservation violated on chip " +
                            std::to_string(src));
        }
    }
    out.haloBytes = out.links.totalBytes;

    // ---- Merge: the single-chip fold over whole-topology phases -----
    gcn::InferenceResult &merged = out.merged;
    merged.engine = out.perChip.front().engine;
    merged.model = out.perChip.front().model;
    merged.modelAreaOverhead = out.perChip.front().modelAreaOverhead;
    size_t haloStep = 0;
    for (size_t i = 0; i < plan.size(); ++i) {
        if (haloStep < points.size() && points[haloStep] == i) {
            gcn::PhaseMetrics pm;
            pm.layer = plan[i].layer;
            pm.op = gcn::PhaseOp::HaloExchange;
            pm.result.cycles = haloStepCycles[haloStep++];
            pm.result.label =
                std::string(gcn::modelKindName(plan[i].model)) + " " +
                gcn::phaseOpName(pm.op) + " layer " +
                std::to_string(pm.layer);
            merged.addPhase(std::move(pm));
        }
        merged.addPhase(mergeChipPhase(out.perChip, i));
    }
    for (const auto &chipRes : out.perChip) {
        merged.simRows += chipRes.simRows;
        merged.hostMillis += chipRes.hostMillis;
    }
    out.haloCycles = merged.haloCycles;
    merged.hostMillis = std::max(merged.hostMillis,
                                 runClock.elapsedMs());
    return out;
}

} // namespace grow::scaleout
