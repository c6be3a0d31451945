#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "core/mac_scheduler.hpp"
#include "util/random.hpp"

namespace grow::core {
namespace {

TEST(MacScheduler, BackToBackProducts)
{
    MacScheduler m;
    m.addInOrder(0, 1, 4);
    m.addInOrder(0, 2, 4);
    auto a = m.drainOne();
    auto b = m.drainOne();
    EXPECT_EQ(a.rowToken, 1u);
    EXPECT_EQ(a.finish, 4u);
    EXPECT_EQ(b.rowToken, 2u);
    EXPECT_EQ(b.finish, 8u);
    EXPECT_EQ(m.busyCycles(), 8u);
}

TEST(MacScheduler, ReadyOrderNotInsertionOrder)
{
    MacScheduler m;
    m.addMissFill(100, 1, 4); // a late miss product
    m.addInOrder(0, 2, 4);    // an early hit product
    auto first = m.drainOne();
    EXPECT_EQ(first.rowToken, 2u); // the hit goes first
    EXPECT_EQ(first.finish, 4u);
    auto second = m.drainOne();
    EXPECT_EQ(second.rowToken, 1u);
    EXPECT_EQ(second.finish, 104u); // waits for the data
}

TEST(MacScheduler, IdleGapsNotBilled)
{
    MacScheduler m;
    m.addInOrder(0, 1, 2);
    m.addInOrder(50, 2, 2);
    m.drainOne();
    auto b = m.drainOne();
    EXPECT_EQ(b.finish, 52u);
    EXPECT_EQ(m.busyCycles(), 4u); // idle 2..50 not counted busy
}

TEST(MacScheduler, TieBreakDeterministic)
{
    // Equal ready times drain in issue order across both queues.
    MacScheduler m;
    m.addMissFill(5, 10, 1);
    m.addInOrder(5, 20, 1);
    m.addMissFill(5, 30, 1);
    EXPECT_EQ(m.drainOne().rowToken, 10u);
    EXPECT_EQ(m.drainOne().rowToken, 20u);
    EXPECT_EQ(m.drainOne().rowToken, 30u);
}

TEST(MacScheduler, PendingCount)
{
    MacScheduler m;
    EXPECT_TRUE(m.idle());
    m.addInOrder(0, 1, 1);
    m.addInOrder(0, 1, 1); // same ready: not a stride-1 successor
    m.addMissFill(9, 1, 1);
    EXPECT_EQ(m.pendingProducts(), 3u);
    m.drainOne();
    EXPECT_EQ(m.pendingProducts(), 2u);
}

TEST(MacScheduler, DrainEmptyThrows)
{
    MacScheduler m;
    EXPECT_ANY_THROW(m.drainOne());
}

TEST(MacScheduler, ZeroDurationRejected)
{
    MacScheduler m;
    EXPECT_ANY_THROW(m.addInOrder(0, 1, 0));
    EXPECT_ANY_THROW(m.addMissFill(0, 1, 0));
}

TEST(MacScheduler, DecreasingInOrderReadyRejected)
{
    MacScheduler m;
    m.addInOrder(10, 1, 1);
    m.drainOne(); // the bound outlives the queue contents
    EXPECT_ANY_THROW(m.addInOrder(9, 1, 1));
    m.addMissFill(3, 1, 1); // fills may arrive in any order
    m.addInOrder(10, 1, 1);
}

TEST(MacScheduler, MakespanLowerBound)
{
    // The MAC array is work-conserving: the makespan is at least the
    // total work and at least the last ready time.
    MacScheduler m;
    Cycle total = 0;
    for (int i = 0; i < 100; ++i) {
        m.addInOrder(i * 3, 1, 4);
        total += 4;
    }
    Cycle last = 0;
    while (!m.idle())
        last = m.drainOne().finish;
    EXPECT_GE(last, total);
    EXPECT_GE(last, 99u * 3 + 4);
}

TEST(MacScheduler, StrideOneRunDrainsInOneStep)
{
    MacScheduler m;
    for (Cycle r = 7; r < 17; ++r)
        m.addInOrder(r, 4, 3);
    auto c = m.drainOne();
    EXPECT_EQ(c.rowToken, 4u);
    EXPECT_EQ(c.count, 10u);
    EXPECT_EQ(c.finish, 7u + 10 * 3);
    EXPECT_EQ(m.busyCycles(), 30u);
    EXPECT_TRUE(m.idle());
}

TEST(MacScheduler, MissInsideRunDrainsPartOfIt)
{
    // Run at ready 10..14; a miss ready at 12 issued earlier (lower
    // seq) goes before the run's third product, splitting the run.
    MacScheduler m;
    m.addMissFill(12, 2, 1);
    for (Cycle r = 10; r < 15; ++r)
        m.addInOrder(r, 1, 1);
    auto a = m.drainOne();
    EXPECT_EQ(a.rowToken, 1u);
    EXPECT_EQ(a.count, 2u);
    EXPECT_EQ(a.finish, 12u);
    auto b = m.drainOne();
    EXPECT_EQ(b.rowToken, 2u);
    EXPECT_EQ(b.finish, 13u);
    auto c = m.drainOne();
    EXPECT_EQ(c.rowToken, 1u);
    EXPECT_EQ(c.count, 3u);
    EXPECT_EQ(c.finish, 16u);
}

TEST(MacScheduler, TokenChangeSplitsStrideOneRun)
{
    MacScheduler m;
    m.addInOrder(0, 1, 2);
    m.addInOrder(1, 1, 2);
    m.addInOrder(2, 2, 2); // stride-1 but a new row
    m.addInOrder(3, 2, 2);
    auto a = m.drainOne();
    EXPECT_EQ(a.rowToken, 1u);
    EXPECT_EQ(a.count, 2u);
    auto b = m.drainOne();
    EXPECT_EQ(b.rowToken, 2u);
    EXPECT_EQ(b.count, 2u);
    EXPECT_EQ(b.finish, 8u);
}

// ---------------------------------------------------------------------
// Differential test against a per-product heap: the scheduler must
// reproduce it product for product.
// ---------------------------------------------------------------------

/** Reference MAC array: one heap node per product, (ready, seq) order. */
class HeapOracle
{
  public:
    void
    add(Cycle ready, uint64_t token, Cycle dur)
    {
        heap_.push(Node{ready, seq_++, token, dur});
    }

    /** One executed product: its row, finish cycle and duration. */
    struct Done
    {
        uint64_t token;
        Cycle finish;
        Cycle dur;
    };

    Done
    drainOne()
    {
        Node n = heap_.top();
        heap_.pop();
        macFree_ = std::max(macFree_, n.ready) + n.dur;
        busy_ += n.dur;
        return Done{n.token, macFree_, n.dur};
    }

    Cycle macFree() const { return macFree_; }
    Cycle busyCycles() const { return busy_; }

  private:
    struct Node
    {
        Cycle ready;
        uint64_t seq;
        uint64_t token;
        Cycle dur;
        bool
        operator>(const Node &o) const
        {
            return ready != o.ready ? ready > o.ready : seq > o.seq;
        }
    };
    std::priority_queue<Node, std::vector<Node>, std::greater<>> heap_;
    uint64_t seq_ = 0;
    Cycle macFree_ = 0;
    Cycle busy_ = 0;
};

struct DiffStats
{
    uint64_t batched = 0;     ///< completions covering > 1 product
    uint64_t tiedBefore = 0;  ///< misses tying a hit issued later
    uint64_t tiedAfter = 0;   ///< misses tying a hit issued earlier
};

/**
 * Issue rows of products like the row engine -- mostly one CAM lookup
 * per cycle, hits ready at issue, misses ready at a random fill time --
 * draining a random number of products between rows, and compare every
 * product's completion with the oracle.
 */
DiffStats
runDifferential(uint64_t seed, double hit_rate)
{
    Rng rng(seed);
    MacScheduler m;
    HeapOracle oracle;
    std::vector<Cycle> hitReady; // recent hit ready times
    DiffStats st;
    Cycle clock = 0;

    // Drains (at least) @p products. A batch of k products stands for
    // k back-to-back products of one row and one duration d, finishing
    // at finish - (k-1)d, ..., finish.
    auto drain = [&](uint64_t products) {
        while (products > 0 && !m.idle()) {
            const size_t before = m.pendingProducts();
            MacCompletion c = m.drainOne();
            ASSERT_GE(c.count, 1u);
            ASSERT_EQ(m.pendingProducts(), before - c.count);
            HeapOracle::Done first = oracle.drainOne();
            ASSERT_EQ(first.token, c.rowToken);
            for (uint64_t i = 1; i < c.count; ++i) {
                HeapOracle::Done o = oracle.drainOne();
                ASSERT_EQ(o.token, c.rowToken);
                ASSERT_EQ(o.dur, first.dur);
                ASSERT_EQ(o.finish, first.finish + i * first.dur);
            }
            ASSERT_EQ(c.finish, first.finish + (c.count - 1) * first.dur);
            ASSERT_EQ(m.macFree(), oracle.macFree());
            ASSERT_EQ(m.busyCycles(), oracle.busyCycles());
            st.batched += c.count > 1;
            products -= std::min<uint64_t>(products, c.count);
        }
    };

    const Cycle durs[] = {1, 1, 2, 5};
    for (uint64_t token = 0; token < 400; ++token) {
        const Cycle rowDur = durs[rng.bounded(4)];
        // Row boundaries are mostly stride-1 (a token change inside a
        // stride-1 sequence), sometimes a stream stall.
        if (rng.bernoulli(0.3))
            clock += 1 + rng.bounded(30);
        const uint64_t nnz = rng.bounded(25);
        for (uint64_t i = 0; i < nnz; ++i) {
            // One CAM lookup per cycle; now and then a stall (or a
            // repeated ready time) breaks the stride inside a row.
            clock += rng.bernoulli(0.9) ? 1 : rng.bounded(6);
            // The row engine uses one duration; the queue must not rely
            // on it.
            const Cycle dur = rng.bernoulli(0.05) ? durs[rng.bounded(4)]
                                                  : rowDur;
            if (rng.bernoulli(hit_rate)) {
                m.addInOrder(clock, token, dur);
                oracle.add(clock, token, dur);
                hitReady.push_back(clock);
                continue;
            }
            // Fill time: on a recent hit (the miss has the higher
            // seq), just ahead where a coming hit may tie it (the miss
            // has the lower seq), or anywhere ahead.
            Cycle ready;
            const double u = rng.uniform();
            if (u < 0.2 && !hitReady.empty()) {
                const size_t back =
                    rng.bounded(std::min<size_t>(hitReady.size(), 8));
                ready = hitReady[hitReady.size() - 1 - back];
                st.tiedAfter += 1;
            } else if (u < 0.4) {
                ready = clock + 1 + rng.bounded(4);
                st.tiedBefore += 1;
            } else {
                ready = clock + rng.bounded(121);
            }
            m.addMissFill(ready, token, dur);
            oracle.add(ready, token, dur);
        }
        // Retire-like drains: a few products, sometimes everything.
        drain(rng.bernoulli(0.1) ? m.pendingProducts() : rng.bounded(13));
        if (::testing::Test::HasFatalFailure())
            return st;
        if (hitReady.size() > 64)
            hitReady.erase(hitReady.begin(), hitReady.end() - 16);
    }
    drain(m.pendingProducts());
    EXPECT_TRUE(m.idle());
    return st;
}

TEST(MacSchedulerDifferential, MatchesPerProductHeap)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        for (double hit : {1.0, 0.9, 0.44, 0.1}) {
            SCOPED_TRACE(testing::Message()
                         << "seed=" << seed << " hit_rate=" << hit);
            DiffStats st = runDifferential(seed, hit);
            if (::testing::Test::HasFatalFailure())
                return;
            EXPECT_GT(st.batched, 0u);
            if (hit < 1.0) {
                EXPECT_GT(st.tiedBefore, 0u);
                EXPECT_GT(st.tiedAfter, 0u);
            }
        }
    }
}

} // namespace
} // namespace grow::core
