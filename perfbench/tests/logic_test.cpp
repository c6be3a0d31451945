/**
 * @file
 * Tests of the benchmark's own logic: seed determinism of its inputs,
 * nearest-rank percentiles and the ten-beyond tail rule, the ladder's
 * backlog and limit verdicts (driven by a synthetic single-server
 * queue, so no simulator runs), span self time, and the metric tables
 * against BENCHMARK.json.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "logic.hpp"
#include "metrics.hpp"
#include "report/json.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

/**
 * Latencies of an open-loop FIFO single server with a constant
 * @p service_ms under @p schedule: the synthetic stand-in for the
 * daemon.
 */
std::vector<StepSample>
simulateQueue(const std::vector<Arrival> &schedule, double service_ms)
{
    std::vector<StepSample> out;
    double freeAt = 0.0;
    for (const auto &a : schedule) {
        const double due = static_cast<double>(a.dueUs) / 1000.0;
        const double start = std::max(due, freeAt);
        freeAt = start + service_ms;
        out.push_back({a.dueUs, freeAt - due});
    }
    return out;
}

} // namespace

TEST(Inputs, SameSeedSameScheduleAndSweep)
{
    EXPECT_EQ(openLoopSchedule(7, 20.0, 200), openLoopSchedule(7, 20.0, 200));
    const auto a = sweepInputs(7, 1), b = sweepInputs(7, 1);
    ASSERT_EQ(a.size(), 8u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].dataset, b[i].dataset);
        EXPECT_EQ(a[i].featureSeed, b[i].featureSeed);
    }
}

TEST(Inputs, DifferentSeedDifferentScheduleAndSweep)
{
    EXPECT_NE(openLoopSchedule(7, 20.0, 200), openLoopSchedule(8, 20.0, 200));
    const auto a = sweepInputs(7, 0), b = sweepInputs(8, 0),
               c = sweepInputs(7, 1);
    std::set<uint64_t> seen;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].dataset, b[i].dataset);
        // Seeds and passes never share a dataset's feature seed.
        EXPECT_TRUE(seen.insert(a[i].featureSeed).second);
        EXPECT_TRUE(seen.insert(b[i].featureSeed).second);
        EXPECT_TRUE(seen.insert(c[i].featureSeed).second);
    }
}

TEST(Inputs, ScheduleShapeAndMix)
{
    const auto s = openLoopSchedule(3, 50.0, 2000);
    ASSERT_EQ(s.size(), 2000u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end(),
                               [](const Arrival &a, const Arrival &b) {
                                   return a.dueUs < b.dueUs;
                               }));
    // Mean gap close to 1/rate.
    EXPECT_NEAR(static_cast<double>(s.back().dueUs) / 1e6, 2000 / 50.0, 4.0);
    size_t t0 = 0;
    std::set<std::string> datasets, engines;
    for (const auto &a : s) {
        t0 += a.tenant == "t0";
        datasets.insert(a.tuple.dataset);
        engines.insert(a.tuple.engine);
    }
    EXPECT_NEAR(static_cast<double>(t0) / s.size(), 0.75, 0.05);
    EXPECT_EQ(datasets.size(), serveDatasets().size());
    EXPECT_EQ(engines.size(), serveEngines().size());
    const double share = repeatShare(s);
    EXPECT_GT(share, 0.3);
    EXPECT_LT(share, 0.7);
}

TEST(Inputs, SteadySchedule)
{
    const auto s = openLoopSchedule(5, 40.0, 100, true);
    const auto o = openLoopSchedule(6, 40.0, 100, true);
    const auto &ds = serveDatasets();
    bool seedsDiffer = false;
    for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(s[i].dueUs), (i + 1) * 25000.0, 1.0);
        // The same interleave for every seed: datasets take turns.
        EXPECT_EQ(s[i].tuple.dataset, ds[i % ds.size()]);
        EXPECT_EQ(s[i].tuple.engine, o[i].tuple.engine);
        EXPECT_EQ(s[i].tuple.depth, o[i].tuple.depth);
        seedsDiffer |= s[i].tuple.featureSeed != o[i].tuple.featureSeed;
    }
    EXPECT_TRUE(seedsDiffer);
}

TEST(Percentile, CentralMean)
{
    EXPECT_EQ(centralMean({}), 0);
    EXPECT_EQ(centralMean({3, 1, 2}), 2);      // ranks 2..2
    EXPECT_EQ(centralMean({4, 1, 3, 2, 5}), 2.5); // ranks 2..3
    // Two equal clusters: the plain median is the lower cluster's
    // slowest sample; the central mean lies between the clusters.
    std::vector<double> v;
    for (int i = 0; i < 50; ++i) {
        v.push_back(10 + i * 0.01);
        v.push_back(20 + i * 0.01);
    }
    v[0] = 19.0; // one slow request of the smaller size
    EXPECT_EQ(nearestRank(v, 50), 19.0);
    const double c = centralMean(v);
    EXPECT_GT(c, 14.0);
    EXPECT_LT(c, 16.0);
}

TEST(Percentile, NearestRank)
{
    const std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(nearestRank(v, 50), 3);
    EXPECT_EQ(nearestRank(v, 20), 1);
    EXPECT_EQ(nearestRank(v, 21), 2);
    EXPECT_EQ(nearestRank(v, 100), 5);
    EXPECT_EQ(nearestRank({}, 50), 0);
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    EXPECT_EQ(nearestRank(hundred, 99), 99);
    EXPECT_EQ(nearestRank(hundred, 95), 95);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(nearestRank({1, 2, inf}, 100), inf);
}

TEST(Percentile, TenBeyondRule)
{
    EXPECT_EQ(tailPercentile(10000), 99.9); // rank 9990, 10 beyond
    EXPECT_EQ(tailPercentile(9999), 99.5);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(999), 98.0);
    EXPECT_EQ(tailPercentile(200), 95.0);
    EXPECT_EQ(tailPercentile(40), 75.0);
    EXPECT_EQ(tailPercentile(20), 50.0);
    EXPECT_EQ(tailPercentile(19), 100.0);
    for (size_t n : {20, 40, 100, 160, 200, 333, 1000, 5000}) {
        std::vector<double> v(n);
        for (size_t i = 0; i < n; ++i)
            v[i] = static_cast<double>(i);
        const TailStat t = tail(v);
        EXPECT_GE(t.beyond, 10u) << n;
        EXPECT_EQ(t.samples, n);
        EXPECT_EQ(static_cast<size_t>(std::count_if(
                      v.begin(), v.end(),
                      [&](double x) { return x > t.value; })),
                  t.beyond)
            << n;
    }
}

TEST(Ladder, UnderloadPassesOverloadShowsBacklog)
{
    const auto sched = openLoopSchedule(11, 20.0, 200);
    // 20/s against a 10 ms server: utilisation 0.2, no backlog.
    const auto light = evaluateStep(simulateQueue(sched, 10.0), 100.0);
    EXPECT_FALSE(light.backlog);
    EXPECT_TRUE(light.pass);
    EXPECT_EQ(light.failed, 0u);
    // 20/s against a 60 ms server: utilisation 1.2, latency grows.
    const auto heavy = evaluateStep(simulateQueue(sched, 60.0), 1000.0);
    EXPECT_TRUE(heavy.backlog);
    EXPECT_FALSE(heavy.pass);
}

TEST(Ladder, TailLimitAndFailures)
{
    const auto sched = openLoopSchedule(12, 20.0, 200);
    auto samples = simulateQueue(sched, 30.0);
    const auto ok = evaluateStep(samples, 1000.0);
    EXPECT_TRUE(ok.pass);
    // The same latencies against a limit below the tail fail.
    const auto tight = evaluateStep(samples, ok.tail.value * 0.5);
    EXPECT_FALSE(tight.pass);
    EXPECT_FALSE(tight.backlog);
    // Refused requests miss any limit: ten of 200 still lie beyond the
    // p95 tail, an eleventh moves it past the limit.
    for (size_t i = 0; i < samples.size(); i += samples.size() / 10)
        samples[i].latencyMs = std::numeric_limits<double>::infinity();
    const auto ten = evaluateStep(samples, 1000.0);
    EXPECT_EQ(ten.failed, 10u);
    EXPECT_EQ(ten.tail.percentile, 95.0);
    EXPECT_TRUE(ten.pass);
    samples[1].latencyMs = std::numeric_limits<double>::infinity();
    const auto eleven = evaluateStep(samples, 1000.0);
    EXPECT_EQ(eleven.failed, 11u);
    EXPECT_FALSE(eleven.pass);
}

TEST(Ladder, SearchFindsCapacityOfSyntheticServer)
{
    // A 25 ms server saturates at 40/s; the ladder must stop below it
    // and pass every rate it reports, from any start.
    const auto &rates = ladderRates();
    std::set<int> found;
    for (size_t start : {size_t{0}, size_t{30}, size_t{45},
                         rates.size() / 2, rates.size() - 1}) {
        size_t probes = 0;
        const int best = searchLadder(rates.size(), start, [&](size_t k) {
            ++probes;
            const auto sched = openLoopSchedule(k, rates[k], 400, true);
            return evaluateStep(simulateQueue(sched, 25.0), 250.0).pass;
        });
        ASSERT_GE(best, 0);
        EXPECT_LT(rates[best], 40.0);
        EXPECT_GT(rates[best], 20.0);
        EXPECT_LE(probes, 15u);
        if (rates[start] > 30.0 && rates[start] < 45.0)
            EXPECT_LE(probes, 5u) << "start " << start;
        found.insert(best);
    }
    EXPECT_EQ(found.size(), 1u); // the verdicts are deterministic here
}

TEST(Ladder, SearchIsExactOnMonotoneProbes)
{
    for (size_t n : {1u, 2u, 10u, 97u})
        for (size_t start = 0; start < n; ++start)
            for (int edge = -1; edge < static_cast<int>(n); ++edge) {
                std::set<size_t> asked;
                const int got = searchLadder(n, start, [&](size_t k) {
                    EXPECT_TRUE(asked.insert(k).second) << "probed twice";
                    return static_cast<int>(k) <= edge;
                });
                EXPECT_EQ(got, edge) << n << " " << start;
            }
}

TEST(Trace, SelfTimeSubtractsChildUnion)
{
    Tracer t(true);
    const uint64_t root = t.add("driver.sweep", 0, 0, 1000);
    t.add("core.grow", root, 100, 600);
    t.add("accel.gcnax", root, 400, 800); // overlaps the first child
    t.add("core.grow", root, 900, 1200);  // clipped at the parent's end
    const auto self = t.selfMsByLayer();
    EXPECT_NEAR(self.at("driver"), (1000 - 700 - 100) / 1000.0, 1e-12);
    EXPECT_NEAR(self.at("core"), (500 + 300) / 1000.0, 1e-12);
    EXPECT_NEAR(self.at("accel"), 0.4, 1e-12);
    Tracer off(false);
    EXPECT_EQ(off.begin("x"), 0u);
    EXPECT_EQ(off.spanCount(), 0u);
}

TEST(Tables, MatchBenchmarkJson)
{
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    grow::report::JsonValue doc;
    std::string error;
    ASSERT_TRUE(grow::report::parseJson(ss.str(), doc, &error)) << error;
    auto check = [&](const char *key, const std::vector<MetricDef> &defs) {
        const auto *arr = doc.find(key);
        ASSERT_NE(arr, nullptr) << key;
        ASSERT_EQ(arr->arr.size(), defs.size()) << key;
        for (size_t i = 0; i < defs.size(); ++i) {
            EXPECT_EQ(arr->arr[i].find("name")->str, defs[i].name);
            EXPECT_EQ(arr->arr[i].find("unit")->str, defs[i].unit);
            EXPECT_EQ(arr->arr[i].find("better")->str, defs[i].better);
        }
    };
    check("end_to_end", endToEndMetrics());
    check("per_layer", perLayerMetrics());
}
