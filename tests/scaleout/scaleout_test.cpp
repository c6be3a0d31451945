/**
 * @file
 * Multi-chip scale-out invariants: chips=1 reproduces the single-chip
 * runner bit-for-bit for every engine, sharded runs place one halo
 * exchange per layer ahead of its adjacency steps and are
 * deterministic for every worker count, the link byte counters obey conservation (sent == received ==
 * cut-edge halo feature bytes), and the closed-form link estimate
 * prices the co-simulation within its documented envelope.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "costmodel/link_model.hpp"
#include "driver/engine_factory.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "scaleout/runner.hpp"

namespace grow::scaleout {
namespace {

/** Unit-tier workloads with clusters small enough to shard 8 ways. */
const gcn::GcnWorkload &
workloadOf(const std::string &name,
           gcn::ModelKind model = gcn::ModelKind::Gcn)
{
    static std::map<std::pair<std::string, gcn::ModelKind>,
                    gcn::GcnWorkload>
        cache;
    auto it = cache.find({name, model});
    if (it == cache.end()) {
        gcn::WorkloadConfig c;
        c.tier = graph::ScaleTier::Unit;
        c.model = model;
        c.targetClusterSize = 64;
        it = cache
                 .emplace(std::pair{name, model},
                          gcn::buildWorkload(graph::datasetByName(name),
                                             c))
                 .first;
    }
    return it->second;
}

/** Field-by-field equality of everything the reports consume. */
void
expectSameResult(const gcn::InferenceResult &a,
                 const gcn::InferenceResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.combinationCycles, b.combinationCycles);
    EXPECT_EQ(a.aggregationCycles, b.aggregationCycles);
    EXPECT_EQ(a.attentionCycles, b.attentionCycles);
    EXPECT_EQ(a.haloCycles, b.haloCycles);
    EXPECT_EQ(a.macOps, b.macOps);
    EXPECT_EQ(a.traffic.readBytes, b.traffic.readBytes);
    EXPECT_EQ(a.traffic.writeBytes, b.traffic.writeBytes);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.simRows, b.simRows);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        const auto &pa = a.phases[i];
        const auto &pb = b.phases[i];
        EXPECT_EQ(pa.op, pb.op) << "phase " << i;
        EXPECT_EQ(pa.layer, pb.layer) << "phase " << i;
        EXPECT_EQ(pa.result.label, pb.result.label) << "phase " << i;
        EXPECT_EQ(pa.result.cycles, pb.result.cycles) << "phase " << i;
        EXPECT_EQ(pa.result.cacheHits, pb.result.cacheHits)
            << "phase " << i;
        EXPECT_EQ(pa.result.cacheMisses, pb.result.cacheMisses)
            << "phase " << i;
        EXPECT_EQ(pa.result.traffic.readBytes, pb.result.traffic.readBytes)
            << "phase " << i;
        EXPECT_EQ(pa.result.traffic.writeBytes,
                  pb.result.traffic.writeBytes)
            << "phase " << i;
        EXPECT_EQ(pa.energy.total(), pb.energy.total()) << "phase " << i;
    }
}

TEST(Scaleout, OneChipTopologyReproducesSingleChipRunner)
{
    const auto &w = workloadOf("cora");
    for (const std::string &key : driver::knownEngineKeys()) {
        for (uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(key + " threads=" + std::to_string(threads));
            const auto topo = EngineTopology(key).withChips(1);
            gcn::RunOptions opts;
            opts.sim.threads = threads;
            const auto sharded = runInference(topo, w, opts);

            auto spec = driver::engineForTopology(topo);
            gcn::RunOptions single = opts;
            single.usePartitioning = spec.usePartitioning;
            auto engine = spec.make();
            const auto direct = gcn::runInference(*engine, w, single);

            expectSameResult(sharded.merged, direct);
            EXPECT_EQ(sharded.haloBytes, 0u);
            EXPECT_EQ(sharded.haloCycles, 0u);
            EXPECT_EQ(sharded.shard.cutArcs, 0u);
        }
    }
}

TEST(Scaleout, OneHaloExchangePerLayerAheadOfTheAdjacencySteps)
{
    for (gcn::ModelKind model :
         {gcn::ModelKind::Gcn, gcn::ModelKind::Gat, gcn::ModelKind::Gin}) {
        SCOPED_TRACE(gcn::modelKindName(model));
        const auto &w = workloadOf("cora", model);
        gcn::RunOptions opts;
        opts.sim.threads = 2;
        const auto r =
            runInference(EngineTopology("grow").withChips(2), w, opts);

        const auto &phases = r.merged.phases;
        ASSERT_EQ(phases.size(), (gcn::modelPhasesPerLayer(model) + 1) *
                                     w.numLayers());
        std::vector<uint32_t> haloLayers;
        Bytes haloBytes = 0;
        Cycle haloCycles = 0;
        for (size_t i = 0; i < phases.size(); ++i) {
            if (phases[i].op != gcn::PhaseOp::HaloExchange)
                continue;
            const uint32_t layer = phases[i].layer;
            haloLayers.push_back(layer);
            haloBytes += r.halo.phaseBytes(w.layer(layer).outDim);
            haloCycles += phases[i].result.cycles;
            // Immediately before the layer's first adjacency step:
            // everything of the layer ahead of it is a combination.
            ASSERT_LT(i + 1, phases.size());
            EXPECT_EQ(phases[i + 1].layer, layer);
            EXPECT_NE(phases[i + 1].op, gcn::PhaseOp::Combination);
            for (size_t j = 0; j < i; ++j) {
                if (phases[j].layer == layer) {
                    EXPECT_EQ(phases[j].op, gcn::PhaseOp::Combination);
                }
            }
        }
        std::vector<uint32_t> everyLayer(w.numLayers());
        for (uint32_t l = 0; l < w.numLayers(); ++l)
            everyLayer[l] = l;
        EXPECT_EQ(haloLayers, everyLayer);
        EXPECT_GT(r.haloBytes, 0u);
        EXPECT_EQ(haloBytes, r.haloBytes);
        EXPECT_EQ(haloCycles, r.haloCycles);
        EXPECT_EQ(r.merged.haloCycles, r.haloCycles);
    }
}

TEST(Scaleout, ShardedRunIsThreadCountInvariant)
{
    const auto &w = workloadOf("citeseer");
    const auto topo = EngineTopology("grow").withChips(4);

    gcn::RunOptions serial;
    serial.sim.threads = 1;
    const auto a = runInference(topo, w, serial);

    gcn::RunOptions parallel;
    parallel.sim.threads = 4;
    const auto b = runInference(topo, w, parallel);

    expectSameResult(a.merged, b.merged);
    EXPECT_EQ(a.haloBytes, b.haloBytes);
    ASSERT_EQ(a.links.egressBytes.size(), b.links.egressBytes.size());
    for (size_t i = 0; i < a.links.egressBytes.size(); ++i)
        EXPECT_EQ(a.links.egressBytes[i], b.links.egressBytes[i]);
}

TEST(Scaleout, EpochWindowDoesNotChangeResults)
{
    const auto &w = workloadOf("cora");
    const auto topo = EngineTopology("grow").withChips(2);

    gcn::RunOptions a;
    a.sim.threads = 1;
    a.sim.epochCycles = 256;
    gcn::RunOptions b;
    b.sim.threads = 3;
    b.sim.epochCycles = 256;
    expectSameResult(runInference(topo, w, a).merged,
                     runInference(topo, w, b).merged);
}

TEST(Scaleout, LinkByteConservation)
{
    const auto &w = workloadOf("pubmed");
    for (uint32_t chips : {2u, 4u, 8u}) {
        const auto topo = EngineTopology("grow").withChips(chips);
        gcn::RunOptions opts;
        opts.sim.threads = 2;
        const auto r = runInference(topo, w, opts);

        // Sent == received == the halo plan's cut-edge feature bytes.
        std::vector<Bytes> sent(chips, 0), received(chips, 0);
        Bytes pairTotal = 0;
        for (const auto &pair : r.links.pairs) {
            sent[pair.src] += pair.bytes;
            received[pair.dst] += pair.bytes;
            pairTotal += pair.bytes;
        }
        for (uint32_t c = 0; c < chips; ++c)
            EXPECT_EQ(r.links.egressBytes[c], sent[c])
                << "chips=" << chips << " link " << c;
        EXPECT_EQ(pairTotal, r.haloBytes) << "chips=" << chips;

        // Independently recompute the expected halo payload from the
        // halo plan: boundary vertices x per-layer feature bytes.
        Bytes expected = 0;
        for (uint32_t layer = 0; layer < w.numLayers(); ++layer)
            for (uint32_t dst = 0; dst < chips; ++dst)
                for (uint32_t src = 0; src < chips; ++src)
                    expected += r.halo.pairPhaseBytes(
                        dst, src, w.layer(layer).outDim);
        EXPECT_EQ(expected, r.haloBytes) << "chips=" << chips;
        EXPECT_GT(r.haloBytes, 0u) << "chips=" << chips;
    }
}

TEST(Scaleout, LinkEstimateMatchesSimulatedBytesExactly)
{
    const auto &w = workloadOf("pubmed");
    const uint32_t chips = 4;
    const auto topo = EngineTopology("grow").withChips(chips);
    gcn::RunOptions opts;
    opts.sim.threads = 2;
    const auto r = runInference(topo, w, opts);

    gcn::RunOptions planOpts;
    planOpts.usePartitioning = true;
    const auto plan = gcn::buildPhasePlan(w, planOpts);
    const auto est = costmodel::estimateLinkTraffic(plan, r.shard,
                                                    r.halo, topo.link);

    // Bytes are exact by construction: estimator and runner read the
    // same halo plan.
    EXPECT_EQ(est.totalBytes, r.haloBytes);
    for (uint32_t c = 0; c < chips; ++c)
        EXPECT_EQ(est.egressBytes[c], r.links.egressBytes[c])
            << "link " << c;

    // Cycles are a roofline under the co-simulation: the sim adds
    // epoch-window quantisation and per-transfer issue effects on top
    // of latency + serialization, and overlap can shave the latency
    // leg. Documented envelope: within [0.5x, 2x].
    EXPECT_GT(est.haloCycles, 0u);
    EXPECT_GE(r.haloCycles * 2, est.haloCycles);
    EXPECT_LE(r.haloCycles, est.haloCycles * 2);
}

TEST(Scaleout, NonPartitioningEngineRejectsSharding)
{
    const auto topo = EngineTopology("gcnax").withChips(2);
    EXPECT_THROW(driver::engineForTopology(topo), std::runtime_error);
}

TEST(Scaleout, ChipListParsingRejectsOutOfRangeCountsNamingTheKey)
{
    EXPECT_EQ(parseChipCounts({"1", "4", "64"}),
              (std::vector<uint32_t>{1, 4, 64}));
    for (const std::vector<std::string> bad :
         {std::vector<std::string>{"0", "2"}, {"65"}, {"-1"}, {"two"},
          {"99999999999999999999"}, {}}) {
        try {
            parseChipCounts(bad);
            ADD_FAILURE() << "accepted " << bad.size() << " entries";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("chips="),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Scaleout, TopologyValidationRejectsNonsense)
{
    EXPECT_THROW(EngineTopology("grow").withChips(0).validate(),
                 std::runtime_error);
    EXPECT_THROW(EngineTopology("grow").withChips(65).validate(),
                 std::runtime_error);
    EXPECT_THROW(EngineTopology("grow").withLinkGbps(0.0).validate(),
                 std::runtime_error);
    EXPECT_THROW(
        EngineTopology("gcnax")
            .withGrowConfig(core::GrowConfig{})
            .validate(),
        std::runtime_error);
    EXPECT_NO_THROW(
        EngineTopology("grow").withChips(8).withLinkGbps(32).validate());
}

} // namespace
} // namespace grow::scaleout
