/**
 * @file
 * Cluster-parallel co-simulation (epoch mode): thread-count invariance
 * down to the bit, functional correctness, and the relationship to the
 * exact serial schedule (epoch=0).
 */
#include <gtest/gtest.h>

#include "accel/accelerator.hpp"
#include "core/grow.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "partition/hdn_select.hpp"
#include "partition/multilevel.hpp"
#include "sparse/convert.hpp"
#include "sparse/reference_gemm.hpp"
#include "util/random.hpp"

namespace grow::core {
namespace {

struct ClusteredProblem
{
    sparse::CsrMatrix adjacency;
    partition::RelabelResult relabel;
    std::vector<std::vector<NodeId>> hdnLists;
    sparse::DenseMatrix rhs;
};

ClusteredProblem
makeClusteredProblem(uint32_t nodes, uint32_t clusters, uint32_t rhs_cols)
{
    graph::DcSbmParams gp;
    gp.nodes = nodes;
    gp.avgDegree = 12.0;
    gp.communities = clusters;
    gp.seed = 77;
    auto g = graph::generateDcSbm(gp);

    partition::PartitionConfig pc;
    pc.numParts = clusters;
    auto parts = partition::MultilevelPartitioner(pc).partition(g);
    ClusteredProblem out;
    out.relabel = partition::relabelByPartition(nodes, parts);
    auto rg = g.relabeled(out.relabel.newToOld);
    out.adjacency = graph::normalizedAdjacency(rg, true);
    out.hdnLists = partition::selectHdnPerCluster(
        rg, out.relabel.clustering, 4096);
    Rng rng(9);
    out.rhs = sparse::randomDense(nodes, rhs_cols, rng);
    return out;
}

accel::SpDeGemmProblem
problemFor(const ClusteredProblem &cp, uint32_t rhs_cols)
{
    accel::SpDeGemmProblem p;
    p.lhs = &cp.adjacency;
    p.rhsCols = rhs_cols;
    p.clustering = &cp.relabel.clustering;
    p.hdnLists = &cp.hdnLists;
    p.label = "parallel-cosim-test";
    return p;
}

/** Assert two phase results are bit-identical in every counted field. */
void
expectBitIdentical(const accel::PhaseResult &a, const accel::PhaseResult &b,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.macOps, b.macOps);
    for (size_t i = 0; i < mem::kNumTrafficClasses; ++i) {
        EXPECT_EQ(a.traffic.readBytes[i], b.traffic.readBytes[i]) << i;
        EXPECT_EQ(a.traffic.writeBytes[i], b.traffic.writeBytes[i]) << i;
    }
    EXPECT_EQ(a.effectualSparseBytes, b.effectualSparseBytes);
    EXPECT_EQ(a.fetchedSparseBytes, b.fetchedSparseBytes);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.activity.macOps, b.activity.macOps);
    EXPECT_EQ(a.activity.dramBytes, b.activity.dramBytes);
    EXPECT_EQ(a.activity.cycles, b.activity.cycles);
    EXPECT_EQ(a.activity.onChipSramBytes, b.activity.onChipSramBytes);
    ASSERT_EQ(a.activity.sram.size(), b.activity.sram.size());
    for (size_t i = 0; i < a.activity.sram.size(); ++i) {
        EXPECT_EQ(a.activity.sram[i].capacity,
                  b.activity.sram[i].capacity);
        EXPECT_EQ(a.activity.sram[i].accesses,
                  b.activity.sram[i].accesses);
    }
}

TEST(ParallelCosim, EpochModeIsBitIdenticalAcrossThreadCounts)
{
    auto cp = makeClusteredProblem(900, 8, 32);
    auto p = problemFor(cp, 32);
    GrowConfig cfg;
    cfg.numPes = 4;

    accel::SimOptions base;
    base.epochCycles = 256;

    accel::SimOptions t1 = base;
    t1.threads = 1;
    auto r1 = GrowSim(cfg).run(p, t1);

    for (uint32_t threads : {2u, 8u}) {
        accel::SimOptions tn = base;
        tn.threads = threads;
        auto rn = GrowSim(cfg).run(p, tn);
        expectBitIdentical(r1, rn,
                           "threads=" + std::to_string(threads));
    }
}

TEST(ParallelCosim, EpochModeIsRepeatable)
{
    auto cp = makeClusteredProblem(500, 4, 16);
    auto p = problemFor(cp, 16);
    GrowConfig cfg;
    cfg.numPes = 4;
    accel::SimOptions opt;
    opt.epochCycles = 128;
    opt.threads = 8;
    auto a = GrowSim(cfg).run(p, opt);
    auto b = GrowSim(cfg).run(p, opt);
    expectBitIdentical(a, b, "repeat");
}

TEST(ParallelCosim, EpochZeroKeepsTheExactSerialSchedule)
{
    // epochCycles == 0 is the serial engine interleaving regardless of
    // the thread budget (worker parallelism then lives at the phase
    // level); any threads value must reproduce it bit for bit.
    auto cp = makeClusteredProblem(500, 4, 16);
    auto p = problemFor(cp, 16);
    GrowConfig cfg;
    cfg.numPes = 4;
    accel::SimOptions serial; // defaults: threads=1, epochCycles=0
    auto r1 = GrowSim(cfg).run(p, serial);
    accel::SimOptions wide = serial;
    wide.threads = 8;
    auto r8 = GrowSim(cfg).run(p, wide);
    expectBitIdentical(r1, r8, "epoch=0 threads=8");
}

TEST(ParallelCosim, EpochModeStaysFaithfulToTheSerialSchedule)
{
    // The epoch window only relaxes *when* cross-lane contention is
    // observed; the order-independent counters must match the serial
    // schedule exactly and cycles must stay in the same regime.
    auto cp = makeClusteredProblem(900, 8, 32);
    auto p = problemFor(cp, 32);
    GrowConfig cfg;
    cfg.numPes = 4;
    auto serial = GrowSim(cfg).run(p, accel::SimOptions{});
    accel::SimOptions opt;
    opt.epochCycles = 256;
    opt.threads = 8;
    auto epoch = GrowSim(cfg).run(p, opt);

    EXPECT_EQ(serial.macOps, epoch.macOps);
    EXPECT_EQ(serial.cacheHits, epoch.cacheHits);
    EXPECT_EQ(serial.cacheMisses, epoch.cacheMisses);
    EXPECT_EQ(serial.effectualSparseBytes, epoch.effectualSparseBytes);
    EXPECT_EQ(serial.fetchedSparseBytes, epoch.fetchedSparseBytes);
    double ratio = static_cast<double>(epoch.cycles) /
                   static_cast<double>(serial.cycles);
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(ParallelCosim, EpochModeFunctionalOutputMatchesReference)
{
    auto cp = makeClusteredProblem(400, 4, 16);
    auto p = problemFor(cp, 16);
    p.rhs = &cp.rhs;
    GrowConfig cfg;
    cfg.numPes = 4;
    accel::SimOptions opt;
    opt.functional = true;
    opt.epochCycles = 64;
    opt.threads = 8;
    auto r = GrowSim(cfg).run(p, opt);
    ASSERT_TRUE(r.hasOutput);
    auto golden = sparse::referenceSpMM(cp.adjacency, cp.rhs);
    EXPECT_LT(sparse::DenseMatrix::maxAbsDiff(golden, r.output), 1e-12);
}

TEST(ParallelCosim, EpochModeWorksOnTheBankedDramModel)
{
    auto cp = makeClusteredProblem(500, 4, 16);
    auto p = problemFor(cp, 16);
    GrowConfig cfg;
    cfg.numPes = 4;
    accel::SimOptions opt;
    opt.dramKind = "banked";
    opt.epochCycles = 256;
    opt.threads = 2;
    auto a = GrowSim(cfg).run(p, opt);
    opt.threads = 8;
    auto b = GrowSim(cfg).run(p, opt);
    expectBitIdentical(a, b, "banked epoch mode");
}

} // namespace
} // namespace grow::core
