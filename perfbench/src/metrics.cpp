#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", "lower"},
        {"op_p50_ms", "ms", "lower"},
        {"op_tail_ms", "ms", "lower"},
        {"ops_per_s", "1/s", "higher"},
        {"peak_rss_mb", "MB", "lower"},
        {"model_cycles", "cycles", "lower"},
        {"model_dram_bytes", "bytes", "lower"},
        {"model_speedup_vs_gcnax", "x", "higher"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"graph.synth_ms", "ms", "lower"},
        {"graph.normalize_ms", "ms", "lower"},
        {"graph.edges_per_s", "1/s", "higher"},
        {"partition.partition_ms", "ms", "lower"},
        {"partition.relabel_ms", "ms", "lower"},
        {"partition.hdn_ms", "ms", "lower"},
        {"gcn.layer_data_ms", "ms", "lower"},
        {"gcn.plan_ms", "ms", "lower"},
        {"core.grow.comb_ms", "ms", "lower"},
        {"core.grow.agg_ms", "ms", "lower"},
        {"core.grow.rows_per_s", "1/s", "higher"},
        {"core.infer_ms.chips1", "ms", "lower"},
        {"accel.gcnax_ms", "ms", "lower"},
        {"accel.gamma_ms", "ms", "lower"},
        {"accel.matraptor_ms", "ms", "lower"},
        {"core.comb_cycles", "cycles", "lower"},
        {"core.agg_cycles", "cycles", "lower"},
        {"mem.hdn_hit_rate", "ratio", "higher"},
        {"mem.dram_bytes.sparseStream", "bytes", "lower"},
        {"mem.dram_bytes.denseRow", "bytes", "lower"},
        {"mem.dram_bytes.outputWrite", "bytes", "lower"},
        {"mem.dram_bytes.hdnPreload", "bytes", "lower"},
        {"mem.dram_bytes.metadata", "bytes", "lower"},
        {"driver.busy_s", "s", "lower"},
        {"driver.parallel_eff", "ratio", "higher"},
        {"driver.cache_builds", "count", "lower"},
        {"driver.cache_hits", "count", "higher"},
        {"scaleout.infer_ms.chips4", "ms", "lower"},
        {"scaleout.shard_ms", "ms", "lower"},
        {"scaleout.halo_cycles", "cycles", "lower"},
        {"scaleout.link_bytes", "bytes", "lower"},
        {"scaleout.chip_imbalance", "ratio", "lower"},
        {"serve.queue_ms.p50", "ms", "lower"},
        {"serve.queue_ms.p99", "ms", "lower"},
        {"serve.exec_ms.p50", "ms", "lower"},
        {"serve.exec_ms.p99", "ms", "lower"},
        {"serve.wire_ms.p50", "ms", "lower"},
        {"serve.rejected", "count", "lower"},
        {"serve.expired", "count", "lower"},
        {"serve.errors", "count", "lower"},
        {"serve.cache_hit_ratio", "ratio", "higher"},
        {"serve.repeat_share", "ratio", "higher"},
        {"serve.gen_lag_ms.max", "ms", "lower"},
        {"graph.self_ms", "ms", "lower"},
        {"partition.self_ms", "ms", "lower"},
        {"gcn.self_ms", "ms", "lower"},
        {"core.self_ms", "ms", "lower"},
        {"accel.self_ms", "ms", "lower"},
        {"driver.self_ms", "ms", "lower"},
        {"scaleout.self_ms", "ms", "lower"},
        {"serve.self_ms", "ms", "lower"},
        {"trace.overhead_pct", "%", "lower"},
    };
    return defs;
}

namespace {

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 1e12);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

void
printResult(std::ostream &os, const std::map<std::string, double> &values,
            const std::vector<MetricDef> &defs, uint64_t attempted,
            uint64_t failed, const std::vector<std::string> &failures,
            const std::vector<std::string> &notes)
{
    std::vector<std::string> problems = failures;
    for (const auto &n : notes)
        os << n << "\n";
    std::string metrics;
    for (const auto &d : defs) {
        auto it = values.find(d.name);
        if (it == values.end()) {
            problems.push_back("metric " + d.name + " was not measured");
            continue;
        }
        os << d.name << " = " << jsonNumber(it->second) << " " << d.unit
           << "\n";
        metrics += (metrics.empty() ? "" : ", ") + jsonString(d.name) +
                   ": {\"value\": " + jsonNumber(it->second) +
                   ", \"unit\": " + jsonString(d.unit) + "}";
    }
    for (const auto &f : problems)
        os << "FAILED: " << f << "\n";
    const uint64_t missing = problems.size() - failures.size();
    os << "{\"correct\": " << (problems.empty() ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(1, attempted + missing)
       << ", \"failed\": " << failed + missing << ", \"metrics\": {"
       << metrics << "}}" << std::endl;
}

} // namespace perfbench
