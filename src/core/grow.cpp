#include "core/grow.hpp"

#include <algorithm>
#include <functional>

#include "accel/dram_arbiter.hpp"
#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace grow::core {

namespace {

/**
 * Cluster-parallel co-simulation (SimOptions::epochCycles > 0): bulk-
 * synchronous rounds over the engine lanes. Each round opens a DRAM
 * epoch, lets every lane whose clock lies inside the round's window
 * [tmin, tmin + epochCycles) process rows until it leaves the window
 * (against its private channel replica -- see accel/dram_arbiter.hpp),
 * then commits the recorded requests in canonical order. Membership,
 * the per-lane row work and the commit order are all pure functions of
 * simulation state, so the outcome is bit-identical for every thread
 * count; the worker pool only decides who computes which lane.
 */
void
runEpochRounds(std::vector<std::unique_ptr<RowEngine>> &engines,
               accel::EpochArbiter &arbiter,
               const mem::DramModel &channel,
               const accel::SimOptions &options)
{
    // epoch=auto window adaptation (SimOptions::epochAuto): bounds and
    // thresholds of the utilisation controller. All inputs are
    // simulated state, so the trajectory is deterministic.
    constexpr Cycle kAutoSeedWindow = 4096;
    constexpr Cycle kAutoMinWindow = 256;
    constexpr Cycle kAutoMaxWindow = 1u << 20;
    constexpr double kAutoLowUtil = 0.25;
    constexpr double kAutoHighUtil = 0.75;

    Cycle window = options.epochCycles > 0 ? options.epochCycles
                   : options.epochAuto    ? kAutoSeedWindow
                                          : 0;
    Cycle prevBusy = channel.busyCycles();
    const uint32_t threads = std::max(1u, options.threads);
    while (true) {
        bool any = false;
        Cycle tmin = 0;
        for (auto &e : engines) {
            if (!e->rowsRemaining())
                continue;
            if (!any || e->clock() < tmin)
                tmin = e->clock();
            any = true;
        }
        if (!any)
            break;
        const Cycle windowEnd = tmin + window;
        std::vector<RowEngine *> members;
        for (auto &e : engines) {
            if (e->rowsRemaining() && e->clock() < windowEnd)
                members.push_back(e.get());
        }
        arbiter.beginEpoch();
        auto step = [windowEnd](RowEngine *e) {
            while (e->rowsRemaining() && e->clock() < windowEnd)
                e->processNextRow();
        };
        if (threads <= 1 || members.size() <= 1) {
            for (auto *m : members)
                step(m);
        } else {
            std::vector<std::function<void()>> tasks;
            tasks.reserve(members.size());
            for (auto *m : members)
                tasks.emplace_back([m, step] { step(m); });
            util::rethrowFirstError(util::WorkPool::shared().runAll(
                std::move(tasks), threads));
        }
        arbiter.commitEpoch();
        if (options.epochAuto) {
            // A saturated channel means cross-lane contention is being
            // resolved too coarsely (lanes see it one epoch late):
            // halve the window. A mostly idle channel means the lanes
            // barely interact and the rounds are pure overhead: double
            // it.
            const Cycle busy = channel.busyCycles();
            const double util = static_cast<double>(busy - prevBusy) /
                                static_cast<double>(window);
            prevBusy = busy;
            if (util > kAutoHighUtil)
                window = std::max(kAutoMinWindow, window / 2);
            else if (util < kAutoLowUtil)
                window = std::min(kAutoMaxWindow, window * 2);
        }
    }
}

} // namespace

GrowSim::GrowSim(GrowConfig config) : config_(std::move(config))
{
    GROW_ASSERT(config_.numPes >= 1, "need at least one PE");
    GROW_ASSERT(config_.numMacs >= 1, "GROW needs at least one MAC");
    GROW_ASSERT(config_.ldnEntries >= 1,
                "GROW needs at least one LDN table entry");
    GROW_ASSERT(config_.lhsIdEntries >= 1,
                "GROW needs at least one LHS ID table entry");
}

mapping::EngineMapping
GrowSim::mapping() const
{
    using namespace grow::mapping;
    EngineMapping em;
    em.engine = "grow";
    em.consumesPartitioning = true;
    em.dramBytesPerCycle = config_.dram.bytesPerCycle();
    em.dramAccessLatency = config_.dram.accessLatency;
    em.numPes = config_.numPes;

    // Row-stationary Gustavson nest (Fig. 8/15): a runahead window of
    // LHS rows is temporally resident, each non-zero issues one
    // RHS-row product, and the MAC array spatially spans the output
    // row.
    MappingSpec agg;
    agg.phaseClass = PhaseClass::SparseStreaming;
    agg.stationarity = Stationarity::Row;
    agg.rhsFormat = OperandFormat::DenseRows;
    agg.outFormat = OperandFormat::DenseRows;
    agg.loops = {{Dim::M, MapKind::Temporal, config_.runaheadDegree},
                 {Dim::K, MapKind::Temporal, 1},
                 {Dim::N, MapKind::Spatial, config_.numMacs}};
    agg.spatialLanes = config_.numMacs;
    agg.rowWindow = config_.runaheadDegree;
    agg.missConcurrency = config_.ldnEntries;
    agg.streamChunkBytes = config_.dmaChunkBytes;
    agg.denseReuse = !config_.hdnCacheEnabled ? DenseReuse::None
                     : config_.hdnPolicy == HdnPolicy::Lru
                         ? DenseReuse::LruCache
                         : DenseReuse::PinnedCache;
    agg.pinnedIdEntries =
        config_.hdnCacheEnabled ? config_.hdn.camEntries : 0;
    agg.buffers = {{BufferRole::SparseInput, config_.iBufSparseBytes},
                   {BufferRole::Output, config_.oBufDenseBytes}};
    if (config_.hdnCacheEnabled)
        agg.buffers.push_back(
            {BufferRole::RowCache, config_.hdn.capacityBytes});

    // Combination keeps the whole weight matrix in the repurposed HDN
    // data array (Sec. V-B): same nest, dense operand fully resident.
    MappingSpec comb = agg;
    comb.phaseClass = PhaseClass::DenseResident;
    comb.denseReuse = DenseReuse::Resident;
    comb.pinnedIdEntries = 0;
    comb.buffers = {{BufferRole::SparseInput, config_.iBufSparseBytes},
                    {BufferRole::Output, config_.oBufDenseBytes},
                    {BufferRole::DenseInput, config_.hdn.capacityBytes}};

    em.combination = std::move(comb);
    em.aggregation = std::move(agg);
    mapping::validate(em);
    return em;
}

std::vector<NodeId>
topReferencedColumns(const sparse::CsrMatrix &lhs, uint32_t top_n)
{
    std::vector<uint32_t> freq(lhs.cols(), 0);
    for (NodeId c : lhs.colIdx())
        freq[c] += 1;
    std::vector<NodeId> ids(lhs.cols());
    for (NodeId i = 0; i < lhs.cols(); ++i)
        ids[i] = i;
    // Only the top-N ranks matter; a full sort of every column is
    // wasted work when top_n << cols (the common case: 4096 CAM
    // entries vs millions of columns).
    auto cmp = [&freq](NodeId a, NodeId b) {
        if (freq[a] != freq[b])
            return freq[a] > freq[b];
        return a < b;
    };
    if (ids.size() > top_n) {
        std::partial_sort(ids.begin(), ids.begin() + top_n, ids.end(),
                          cmp);
        ids.resize(top_n);
    } else {
        std::sort(ids.begin(), ids.end(), cmp);
    }
    return ids;
}

accel::PhaseResult
GrowSim::run(const accel::SpDeGemmProblem &problem,
             const accel::SimOptions &options)
{
    GROW_ASSERT(problem.lhs != nullptr, "missing LHS");
    const auto &S = *problem.lhs;
    const uint32_t M = S.rows();
    const uint32_t N = problem.rhsCols;

    // Preprocessing artefacts: when none are supplied, fall back to one
    // equal row range per PE (so combination and unpartitioned
    // aggregation still parallelise) with a global HDN list per PE.
    partition::Clustering defaultClustering;
    {
        uint32_t chunks = std::max(1u, config_.numPes);
        defaultClustering.clusterStart.resize(chunks + 1);
        for (uint32_t c = 0; c <= chunks; ++c)
            defaultClustering.clusterStart[c] = static_cast<uint32_t>(
                static_cast<uint64_t>(M) * c / chunks);
    }
    const partition::Clustering *clustering =
        problem.clustering != nullptr ? problem.clustering
                                      : &defaultClustering;

    // Fallback global HDN list ("GROW w/o G.P"): ranked once per
    // problem and shared by every cluster, not copied per cluster.
    std::vector<NodeId> globalHdnList;
    if (problem.hdnLists == nullptr && config_.hdnCacheEnabled &&
        !problem.rhsOnChip)
        globalHdnList = topReferencedColumns(S, config_.hdn.camEntries);

    // Shared DRAM channel; bandwidth scales with PE count (Sec. VII-F).
    mem::DramConfig dramCfg = config_.dram;
    dramCfg.bandwidthGBps *= config_.numPes;
    auto dram = mem::makeDram(options.dramKind, dramCfg);

    // Epoch mode: engines talk to per-lane arbiter ports instead of
    // the device itself, so lanes can co-simulate on worker threads
    // deterministically. epochCycles == 0 (default) keeps the exact
    // serial interleaving below.
    const bool epochMode = options.epochCycles > 0 || options.epochAuto;
    std::unique_ptr<accel::EpochArbiter> arbiter;
    if (epochMode) {
        arbiter = std::make_unique<accel::EpochArbiter>(
            std::vector<mem::DramModel *>{dram.get()}, config_.numPes);
    }

    // Interleave clusters across PEs.
    std::vector<std::vector<uint32_t>> ownership(config_.numPes);
    for (uint32_t c = 0; c < clustering->numClusters(); ++c)
        ownership[c % config_.numPes].push_back(c);

    sparse::DenseMatrix out;
    if (options.functional) {
        GROW_ASSERT(problem.rhs != nullptr,
                    "functional mode requires RHS values");
        out = sparse::DenseMatrix(M, N);
    }

    RowEngineProblem ep;
    ep.lhs = problem.lhs;
    ep.rhsCols = N;
    ep.rhsValues = problem.rhs;
    ep.rhsOnChip = problem.rhsOnChip;
    ep.clustering = clustering;
    ep.hdnLists = problem.hdnLists;
    ep.globalHdnList = globalHdnList.empty() ? nullptr : &globalHdnList;

    // Engine construction issues the cluster/weight preloads, so in
    // epoch mode it already runs inside an open epoch. Construction
    // stays serial in PE order either way (deterministic).
    std::vector<std::unique_ptr<RowEngine>> engines;
    engines.reserve(config_.numPes);
    if (epochMode)
        arbiter->beginEpoch();
    for (uint32_t pe = 0; pe < config_.numPes; ++pe) {
        mem::DramModel *channel = dram.get();
        RowEngineProblem pep = ep;
        if (epochMode) {
            accel::LaneDramPort *port = &arbiter->port(0, pe);
            pep.onClusterStart = [port](uint32_t c) {
                port->setCluster(c);
            };
            channel = port;
        }
        engines.push_back(std::make_unique<RowEngine>(
            config_, pep, *channel, pe, std::move(ownership[pe]),
            options.functional ? &out : nullptr));
    }
    if (epochMode)
        arbiter->commitEpoch();

    if (epochMode) {
        runEpochRounds(engines, *arbiter, *dram, options);
    } else {
        // Co-simulate: always step the engine with the smallest local
        // clock so shared-DRAM requests issue in (approximately)
        // global order.
        while (true) {
            RowEngine *next = nullptr;
            for (auto &e : engines) {
                if (!e->rowsRemaining())
                    continue;
                if (next == nullptr || e->clock() < next->clock())
                    next = e.get();
            }
            if (next == nullptr)
                break;
            next->processNextRow();
        }
    }

    // Drain the windows (output writes). In epoch mode this is the
    // final epoch; lanes finalize independently against their
    // replicas, so the drain parallelises like any round.
    if (epochMode)
        arbiter->beginEpoch();
    Cycle end = 0;
    std::vector<Cycle> completions(engines.size(), 0);
    if (epochMode && std::max(1u, options.threads) > 1 &&
        engines.size() > 1) {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(engines.size());
        for (size_t i = 0; i < engines.size(); ++i) {
            RowEngine *e = engines[i].get();
            Cycle *slot = &completions[i];
            tasks.emplace_back([e, slot] { *slot = e->finalize(); });
        }
        util::rethrowFirstError(util::WorkPool::shared().runAll(
            std::move(tasks), options.threads));
    } else {
        for (size_t i = 0; i < engines.size(); ++i)
            completions[i] = engines[i]->finalize();
    }
    for (Cycle c : completions)
        end = std::max(end, c);
    if (epochMode)
        arbiter->commitEpoch();

    // --- Assemble the result -----------------------------------------
    accel::PhaseResult res;
    res.engine = name();
    res.phase = problem.phase;
    res.label = problem.label;
    res.cycles = end;
    res.traffic = dram->traffic();

    lastEngineStats_.clear();
    uint64_t iBufAccess = 0, oBufAccess = 0, wBufAccess = 0;
    uint64_t hdnDataAccess = 0, camLookups = 0;
    for (auto &e : engines) {
        const auto &s = e->stats();
        lastEngineStats_.push_back(s);
        res.macOps += s.macOps;
        res.effectualSparseBytes += s.effectualSparseBytes;
        res.fetchedSparseBytes += s.fetchedSparseBytes;
        res.cacheHits += e->cacheHits();
        res.cacheMisses += e->cacheMisses();
        auto words = [](const mem::SramBuffer &b) {
            return (b.bytesRead() + b.bytesWritten()) / kValueBytes;
        };
        iBufAccess += words(e->iBufSparse());
        oBufAccess += words(e->oBufDense());
        wBufAccess += words(e->wBuf());
        hdnDataAccess += words(e->hdnCache().dataArray());
        camLookups += e->hdnCache().camArray().accesses();
    }

    res.activity.macOps = res.macOps;
    res.activity.dramBytes = res.traffic.total();
    res.activity.cycles = res.cycles;
    res.activity.onChipSramBytes =
        config_.onChipSramBytes() * config_.numPes;
    res.activity.sram.push_back(
        {config_.iBufSparseBytes, iBufAccess, false});
    res.activity.sram.push_back(
        {config_.oBufDenseBytes, oBufAccess, false});
    if (problem.rhsOnChip) {
        res.activity.sram.push_back(
            {config_.hdn.capacityBytes, wBufAccess, false});
    } else if (config_.hdnCacheEnabled) {
        res.activity.sram.push_back(
            {config_.hdn.capacityBytes, hdnDataAccess, false});
        res.activity.sram.push_back(
            {static_cast<Bytes>(config_.hdn.camEntries) * kHdnIdBytes,
             camLookups, true});
    }

    if (options.functional) {
        res.output = std::move(out);
        res.hasOutput = true;
    }
    return res;
}

} // namespace grow::core
