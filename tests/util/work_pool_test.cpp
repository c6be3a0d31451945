/**
 * @file
 * Shared worker pool: caller participation, nested fan-out without
 * deadlock, per-task exception capture, concurrency bounding and the
 * `threads=` validation used by every bench CLI.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "util/work_pool.hpp"

namespace grow::util {
namespace {

TEST(WorkPool, RunsEveryTaskExactlyOnce)
{
    WorkPool pool(3);
    std::vector<std::atomic<int>> hits(64);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < hits.size(); ++i)
        tasks.emplace_back([&hits, i] { hits[i].fetch_add(1); });
    auto errors = pool.runAll(std::move(tasks));
    ASSERT_EQ(errors.size(), 64u);
    for (const auto &e : errors)
        EXPECT_EQ(e, nullptr);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkPool, ZeroWorkersRunsOnCaller)
{
    WorkPool pool(0);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(8);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < ran.size(); ++i)
        tasks.emplace_back(
            [&ran, i] { ran[i] = std::this_thread::get_id(); });
    pool.runAll(std::move(tasks));
    for (const auto &id : ran)
        EXPECT_EQ(id, caller);
}

TEST(WorkPool, MaxParallelOneIsSerialInTaskOrder)
{
    WorkPool pool(4);
    std::vector<int> order;
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i)
        tasks.emplace_back([&order, i] { order.push_back(i); });
    pool.runAll(std::move(tasks), 1);
    std::vector<int> expect(16);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(WorkPool, ConcurrencyNeverExceedsMaxParallel)
{
    WorkPool pool(4);
    std::atomic<int> inFlight{0};
    std::atomic<int> highWater{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) {
        tasks.emplace_back([&] {
            int now = inFlight.fetch_add(1) + 1;
            int seen = highWater.load();
            while (now > seen && !highWater.compare_exchange_weak(seen, now))
                ;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            inFlight.fetch_sub(1);
        });
    }
    pool.runAll(std::move(tasks), 2);
    EXPECT_LE(highWater.load(), 2);
    EXPECT_GE(highWater.load(), 1);
}

TEST(WorkPool, ExceptionsAreCapturedPerTaskAndSiblingsFinish)
{
    WorkPool pool(2);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.emplace_back([&ran, i] {
            ran.fetch_add(1);
            if (i % 2 == 1)
                throw std::runtime_error("task " + std::to_string(i));
        });
    }
    auto errors = pool.runAll(std::move(tasks));
    EXPECT_EQ(ran.load(), 8);
    for (int i = 0; i < 8; ++i) {
        if (i % 2 == 1) {
            ASSERT_NE(errors[i], nullptr) << i;
            EXPECT_THROW(std::rethrow_exception(errors[i]),
                         std::runtime_error);
        } else {
            EXPECT_EQ(errors[i], nullptr) << i;
        }
    }
}

TEST(WorkPool, NestedFanOutDoesNotDeadlock)
{
    // Outer tasks saturate the pool, then each fans out again: the
    // nested runAll must drain on the already-occupied workers (caller
    // participation), not wait for free ones.
    WorkPool pool(2);
    std::atomic<int> leaves{0};
    std::vector<std::function<void()>> outer;
    for (int i = 0; i < 6; ++i) {
        outer.emplace_back([&pool, &leaves] {
            std::vector<std::function<void()>> inner;
            for (int j = 0; j < 5; ++j)
                inner.emplace_back([&leaves] { leaves.fetch_add(1); });
            auto errors = pool.runAll(std::move(inner));
            for (const auto &e : errors)
                EXPECT_EQ(e, nullptr);
        });
    }
    pool.runAll(std::move(outer));
    EXPECT_EQ(leaves.load(), 30);
}

TEST(WorkPool, SharedPoolIsAProcessSingleton)
{
    EXPECT_EQ(&WorkPool::shared(), &WorkPool::shared());
    std::atomic<int> hits{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.emplace_back([&hits] { hits.fetch_add(1); });
    WorkPool::shared().runAll(std::move(tasks), 8);
    EXPECT_EQ(hits.load(), 4);
}

TEST(CheckedThreadCount, AcceptsSaneValues)
{
    EXPECT_EQ(checkedThreadCount(1), 1u);
    EXPECT_EQ(checkedThreadCount(2), 2u);
    const uint32_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(checkedThreadCount(static_cast<int64_t>(hw) * 4),
              hw * 4);
}

TEST(CheckedThreadCount, RejectsZeroNegativeAndSillyValues)
{
    EXPECT_THROW(checkedThreadCount(0), std::runtime_error);
    EXPECT_THROW(checkedThreadCount(-3), std::runtime_error);
    const int64_t hw = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_THROW(checkedThreadCount(hw * 4 + 1), std::runtime_error);
    EXPECT_THROW(checkedThreadCount(1 << 20), std::runtime_error);
}

TEST(WorkPoolDetached, TrySubmitRunsOnAWorker)
{
    WorkPool pool(2);
    std::atomic<int> hits{0};
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> onCaller{false};
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(pool.trySubmit([&hits, &onCaller, caller] {
            if (std::this_thread::get_id() == caller)
                onCaller.store(true);
            hits.fetch_add(1);
        }));
    pool.drainDetached();
    EXPECT_EQ(hits.load(), 32);
    EXPECT_FALSE(onCaller.load());
    EXPECT_EQ(pool.detachedPending(), 0u);
}

TEST(WorkPoolDetached, ZeroWorkersRefusesSoCallerRunsInline)
{
    WorkPool pool(0);
    EXPECT_FALSE(pool.trySubmit([] {}));
}

TEST(WorkPoolDetached, DestructorDrainsPendingDetachedWork)
{
    std::atomic<int> hits{0};
    {
        WorkPool pool(2);
        for (int i = 0; i < 16; ++i)
            ASSERT_TRUE(pool.trySubmit([&hits] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                hits.fetch_add(1);
            }));
        // No drain: shutdown ordering must run every accepted task
        // before the workers stop.
    }
    EXPECT_EQ(hits.load(), 16);
}

TEST(WorkPoolDetached, ThrowingTaskIsSwallowedAndCounted)
{
    WorkPool pool(1);
    std::atomic<int> after{0};
    ASSERT_TRUE(
        pool.trySubmit([] { throw std::runtime_error("detached boom"); }));
    ASSERT_TRUE(pool.trySubmit([&after] { after.fetch_add(1); }));
    pool.drainDetached();
    // The throwing task must not take the worker down.
    EXPECT_EQ(after.load(), 1);
    EXPECT_EQ(pool.detachedPending(), 0u);
}

TEST(WorkPoolDetached, DetachedAndTicketBatchesCoexist)
{
    WorkPool pool(3);
    std::atomic<int> detachedHits{0}, batchHits{0};
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            pool.trySubmit([&detachedHits] { detachedHits.fetch_add(1); }));
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i)
        tasks.emplace_back([&batchHits] { batchHits.fetch_add(1); });
    pool.runAll(std::move(tasks));
    pool.drainDetached();
    EXPECT_EQ(detachedHits.load(), 8);
    EXPECT_EQ(batchHits.load(), 8);
}

} // namespace
} // namespace grow::util
