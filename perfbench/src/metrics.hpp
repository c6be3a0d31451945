/**
 * @file
 * The benchmark's metric tables and its result printer. The tables
 * mirror BENCHMARK.json at the repo root (a test keeps them in step).
 */
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better; ///< "lower" or "higher"
};

/** Metrics a user of the simulator sees; every workload reports all. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics of the traced run; 0 where a layer is not used. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * Print @p notes and every metric of @p defs as "name = value unit"
 * lines, then the failures, then the one-line JSON result. A metric
 * of @p defs missing from @p values is a failure; a non-finite value
 * (a failed request in a latency percentile) prints as 1e12.
 */
void printResult(std::ostream &os, const std::map<std::string, double> &values,
                 const std::vector<MetricDef> &defs, uint64_t attempted,
                 uint64_t failed, const std::vector<std::string> &failures,
                 const std::vector<std::string> &notes);

} // namespace perfbench
