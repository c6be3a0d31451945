/**
 * @file
 * The benchmark's own logic, kept free of the simulator so it can be
 * unit-tested on synthetic data: seed-derived inputs, the open-loop
 * request schedule, nearest-rank percentiles with the ten-beyond tail
 * rule, and the rate ladder's backlog/limit verdicts.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/** Deterministic 64-bit mix of two values (SplitMix64 finaliser). */
uint64_t mix(uint64_t a, uint64_t b);

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p values: the value
 * at 1-based rank ceil(p/100 * n) of the sorted samples. Values may be
 * +inf (a failed request). Returns 0 for an empty sample.
 */
double nearestRank(std::vector<double> values, double p);

/**
 * The median smoothed over its neighbourhood: the mean of the samples
 * whose nearest ranks lie from p40 to p60 (on up to four samples, the
 * usual median). A mix of request sizes puts the plain median on
 * the edge between two sizes, where it follows the slowest request of
 * the smaller size; this estimate averages across that edge.
 */
double centralMean(std::vector<double> values);

/** A tail statistic with the sample counts that justify it. */
struct TailStat
{
    double percentile = 0.0; ///< e.g. 99, 95 or 100 (= the maximum)
    double value = 0.0;
    size_t samples = 0;
    size_t beyond = 0; ///< samples ranked strictly above the percentile
};

/**
 * The highest percentile of the fixed set {99.9, 99.5, 99, 98, 97, 95,
 * 90, 80, 75, 50} that leaves at least ten samples beyond its nearest
 * rank among @p n samples; 100 (the maximum, nothing beyond) when even
 * p50 leaves fewer than ten.
 */
double tailPercentile(size_t n);

/** tailPercentile() applied to @p values. */
TailStat tail(const std::vector<double> &values);

/** One dataset of the sweep, with the feature seed derived for it. */
struct SweepInput
{
    std::string dataset;
    uint64_t featureSeed = 0; ///< gcn::WorkloadConfig::seed
};

/**
 * The eight Table I datasets with feature seeds derived from @p seed
 * and @p pass, so no pass of a run repeats another's inputs.
 */
std::vector<SweepInput> sweepInputs(uint64_t seed, uint32_t pass);

/** The serving request tuple (what makes two requests identical). */
struct Tuple
{
    std::string dataset;
    std::string engine;
    uint32_t depth = 2;
    uint64_t featureSeed = 0;

    bool operator==(const Tuple &o) const = default;
    bool operator<(const Tuple &o) const;
};

/** One open-loop arrival. */
struct Arrival
{
    int64_t dueUs = 0; ///< offset from the start of the step
    std::string tenant;
    Tuple tuple;

    bool operator==(const Arrival &o) const = default;
};

/** Datasets, engines and depths of the serving mix. */
const std::vector<std::string> &serveDatasets();
const std::vector<std::string> &serveEngines();
const std::vector<uint32_t> &serveDepths();

/**
 * @p count arrivals at @p rate per second. Tenants "t0" and "t1" are
 * drawn 3:1. The (dataset, engine, depth) combinations take turns in
 * blocks that hold each once; each request's feature seed is drawn
 * from a per-combination pool by a Zipf(1) popularity, so popular
 * tuples repeat.
 *
 * With @p steady false, arrivals are Poisson (independent users) and
 * each block is in a seeded order. With @p steady true, arrivals are
 * evenly spaced and every block has the same order, which puts the
 * largest graph's requests evenly apart: a probe of capacity then does
 * not depend on how a seed happens to bunch the heavy requests.
 */
std::vector<Arrival> openLoopSchedule(uint64_t seed, double rate,
                                      size_t count, bool steady = false);

/** Share of @p schedule whose tuple repeats an earlier one exactly. */
double repeatShare(const std::vector<Arrival> &schedule);

/** One resolved request of a ladder step. */
struct StepSample
{
    int64_t dueUs = 0;
    double latencyMs = 0.0; ///< from due time; +inf when it failed
};

/** Verdict on one rate of the ladder. */
struct StepVerdict
{
    size_t attempted = 0;
    size_t failed = 0;
    TailStat tail;
    /** Latency grew over the step: the last quarter's median is more
     *  than twice the first quarter's and a quarter of the limit above. */
    bool backlog = false;
    bool pass = false; ///< tail within the limit and no backlog
};

/** Judge a step against the tail-latency @p limit_ms. */
StepVerdict evaluateStep(const std::vector<StepSample> &samples,
                         double limit_ms);

/**
 * The fixed rate ladder: geometric steps of 5% from 4/s up to about
 * 500/s. Fixed so every commit is probed on the same rates.
 */
const std::vector<double> &ladderRates();

/**
 * Highest index in [0, n) for which @p probe passes, assuming passing
 * is monotone (every lower index passes too); -1 when index 0 fails.
 * The search probes @p start (an estimate of the edge) first, gallops
 * away from it in steps of 1, 2, 4, ... until the edge is bracketed,
 * then bisects. A start within a few steps of the edge needs about
 * four probes, a bad one at most ~2 log2(n) + 1.
 */
int searchLadder(size_t n, size_t start,
                 const std::function<bool(size_t)> &probe);

} // namespace perfbench
