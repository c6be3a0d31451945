/**
 * @file
 * Epoch-based DRAM arbitration: replica responses, canonical replay
 * order, traffic preservation and schedule-independence (the property
 * the cluster-parallel co-simulation's determinism rests on).
 */
#include <gtest/gtest.h>

#include "accel/dram_arbiter.hpp"
#include "mem/dram.hpp"

namespace grow::accel {
namespace {

using mem::TrafficClass;

mem::DramConfig
testConfig()
{
    mem::DramConfig cfg;
    cfg.bandwidthGBps = 100.0; // non-integral bytes/cycle: residual active
    return cfg;
}

/** Line-rounding helper mirroring DramModel::lineAligned. */
Bytes
roundedTraffic(Bytes b)
{
    return ((b + kDramLineBytes - 1) / kDramLineBytes) * kDramLineBytes;
}

TEST(DramModelClone, SimpleDramCloneAnswersLikeTheOriginal)
{
    mem::SimpleDram a(testConfig());
    // Accumulate some channel state (incl. a fractional residual).
    a.read(0, 0, 100, TrafficClass::SparseStream);
    a.write(5, 64, 200, TrafficClass::OutputWrite);

    auto b = a.cloneTimingState();
    // Fresh traffic accounting on the clone, same timing behaviour.
    EXPECT_EQ(b->traffic().total(), 0u);
    for (Cycle t : {Cycle{7}, Cycle{8}, Cycle{100}}) {
        EXPECT_EQ(a.read(t, 0, 96, TrafficClass::DenseRow),
                  b->read(t, 0, 96, TrafficClass::DenseRow));
    }
}

TEST(DramModelClone, BankedDramCloneAnswersLikeTheOriginal)
{
    mem::BankedDram a(testConfig(), mem::BankTiming{});
    a.read(0, 0, 4096, TrafficClass::DenseRow);
    a.read(10, 1 << 20, 128, TrafficClass::SparseStream);
    auto b = a.cloneTimingState();
    EXPECT_EQ(a.read(20, 512, 256, TrafficClass::DenseRow),
              b->read(20, 512, 256, TrafficClass::DenseRow));
    EXPECT_EQ(a.write(30, 4096, 64, TrafficClass::OutputWrite),
              b->write(30, 4096, 64, TrafficClass::OutputWrite));
}

TEST(EpochArbiter, SingleLaneSingleEpochMatchesDirectDevice)
{
    // One lane, requests committed per epoch: the replica starts from
    // the canonical state each epoch and folds the lane's own calls,
    // so responses equal the unarbitrated device exactly.
    mem::SimpleDram direct(testConfig());
    mem::SimpleDram canonical(testConfig());
    EpochArbiter arbiter({&canonical}, 1);

    Cycle t = 0;
    for (int i = 0; i < 20; ++i) {
        arbiter.beginEpoch();
        Cycle d = direct.read(t, 64 * i, 100 + 13 * i,
                              TrafficClass::DenseRow);
        Cycle p = arbiter.port(0, 0).read(t, 64 * i, 100 + 13 * i,
                                       TrafficClass::DenseRow);
        EXPECT_EQ(d, p) << "request " << i;
        arbiter.commitEpoch();
        t = d; // issue chain like an engine would
    }
    EXPECT_EQ(direct.traffic().total(), canonical.traffic().total());
    EXPECT_EQ(direct.busyCycles(), canonical.busyCycles());
    EXPECT_EQ(arbiter.committedRequests(), 20u);
}

TEST(EpochArbiter, IssueOrderWithinAnEpochDoesNotMatter)
{
    // Two lanes issue the same per-lane request streams; between the
    // two arbiters the lanes take turns in opposite order. Responses
    // and the canonical device state must be bit-identical -- this is
    // exactly why worker scheduling cannot perturb the simulation.
    auto runInterleaved = [](bool lane0_first, mem::SimpleDram &canonical,
                             std::vector<Cycle> &responses) {
        EpochArbiter arbiter({&canonical}, 2);
        for (int epoch = 0; epoch < 5; ++epoch) {
            arbiter.beginEpoch();
            arbiter.port(0, 0).setCluster(0);
            arbiter.port(0, 1).setCluster(1);
            auto issueLane = [&](uint32_t lane) {
                for (int i = 0; i < 4; ++i) {
                    responses.push_back(arbiter.port(0, lane).read(
                        epoch * 100 + i, lane * 4096 + 64 * i,
                        90 + 10 * lane + i, TrafficClass::DenseRow));
                }
            };
            if (lane0_first) {
                issueLane(0);
                issueLane(1);
            } else {
                issueLane(1);
                issueLane(0);
            }
            arbiter.commitEpoch();
        }
    };

    mem::SimpleDram canonA(testConfig());
    mem::SimpleDram canonB(testConfig());
    std::vector<Cycle> respA, respB;
    runInterleaved(true, canonA, respA);
    runInterleaved(false, canonB, respB);

    // Sort per call site: respB interleaves lanes differently, so
    // compare per-lane subsequences. Lane 0's responses are at fixed
    // positions in each variant; reconstruct and compare.
    ASSERT_EQ(respA.size(), respB.size());
    std::vector<Cycle> lane0A, lane1A, lane0B, lane1B;
    for (size_t e = 0; e < 5; ++e) {
        for (size_t i = 0; i < 4; ++i) {
            lane0A.push_back(respA[e * 8 + i]);
            lane1A.push_back(respA[e * 8 + 4 + i]);
            lane1B.push_back(respB[e * 8 + i]);
            lane0B.push_back(respB[e * 8 + 4 + i]);
        }
    }
    EXPECT_EQ(lane0A, lane0B);
    EXPECT_EQ(lane1A, lane1B);
    EXPECT_EQ(canonA.traffic().total(), canonB.traffic().total());
    EXPECT_EQ(canonA.busyCycles(), canonB.busyCycles());
}

TEST(EpochArbiter, CommitReplaysEveryRecordedByte)
{
    mem::SimpleDram canonical(testConfig());
    EpochArbiter arbiter({&canonical}, 3);
    arbiter.beginEpoch();
    Bytes lineSum = 0;
    for (uint32_t lane = 0; lane < 3; ++lane) {
        arbiter.port(0, lane).setCluster(10 + lane);
        for (int i = 0; i < 3; ++i) {
            Bytes b = 30 + 64 * lane + i;
            arbiter.port(0, lane).read(i, 0, b, TrafficClass::DenseRow);
            lineSum += roundedTraffic(b);
        }
    }
    // Nothing reaches the canonical device before the commit.
    EXPECT_EQ(canonical.traffic().total(), 0u);
    arbiter.commitEpoch();
    EXPECT_EQ(canonical.traffic().total(), lineSum);
    EXPECT_EQ(arbiter.committedRequests(), 9u);
}

TEST(EpochArbiter, CrossLaneBacklogArrivesAtTheNextEpoch)
{
    // A saturating burst from lane 0 in epoch 1 must delay lane 1's
    // responses in epoch 2 (the replicas snapshot the post-commit
    // canonical state), but not within epoch 1.
    mem::SimpleDram canonical(testConfig());
    EpochArbiter arbiter({&canonical}, 2);

    arbiter.beginEpoch();
    Cycle lone = arbiter.port(0, 1).read(0, 0, 64, TrafficClass::DenseRow);
    arbiter.port(0, 0).read(0, 0, 1 << 20, TrafficClass::HdnPreload);
    arbiter.commitEpoch();

    arbiter.beginEpoch();
    Cycle delayed = arbiter.port(0, 1).read(0, 0, 64,
                                         TrafficClass::DenseRow);
    arbiter.commitEpoch();
    EXPECT_GT(delayed, lone);
}

TEST(EpochArbiter, UsageErrorsPanic)
{
    mem::SimpleDram canonical(testConfig());
    EpochArbiter arbiter({&canonical}, 1);
    // Request outside an open epoch.
    EXPECT_THROW(arbiter.port(0, 0).read(0, 0, 64, TrafficClass::DenseRow),
                 std::logic_error);
    arbiter.beginEpoch();
    arbiter.port(0, 0).read(0, 0, 64, TrafficClass::DenseRow);
    // beginEpoch with uncommitted requests.
    EXPECT_THROW(arbiter.beginEpoch(), std::logic_error);
}

} // namespace
} // namespace grow::accel
