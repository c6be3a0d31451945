/**
 * @file
 * The GROW serving daemon / deterministic serving simulator.
 *
 * Two modes share the entire serving stack (admission queue,
 * fair-share scheduler, executor, metrics):
 *
 *   mode=socket (default)  Persistent daemon on a Unix-domain socket
 *                          speaking the line-delimited JSON protocol
 *                          (src/serve/protocol.hpp). Runs until
 *                          SIGINT/SIGTERM or a client sends
 *                          `{"cmd":"shutdown"}`; drains admitted work
 *                          before exiting, then emits the serving
 *                          report and digest records.
 *
 *   mode=sim               Deterministic in-process replay of a
 *                          seeded schedule on a virtual clock; service
 *                          time is the simulated inference latency.
 *                          Identical flags produce byte-identical
 *                          reports -- CI gates this mode.
 *
 * Flags (key=value):
 *   mode=socket|sim        see above
 *   socket=<path>          daemon socket path (default grow_serve.sock)
 *   scale=, datasets=, model=  the served universe (datasets=all for
 *                          the whole registry); in mode=sim also the
 *                          schedule draw pools
 *   engines=, requests=, seed=, mean_gap_us=, tenants=name:w,...,
 *   depth=, feature_seed=, deadline_ms=   schedule knobs (mode=sim)
 *   queue_depth=<n>        admission: max queued requests (default 64)
 *   bytebudget=<n>[K|M|G]  admission: in-flight byte budget (0 = off)
 *   default_deadline_ms=<n>  deadline applied when a request has none
 *   inflight=<n>           max concurrently executing requests
 *   slots=<n>              virtual service slots (mode=sim, default 1)
 *   threads=<n>            phase fan-out per inference (default 1)
 *   cachedir=, memcap=     workload-cache disk layer / byte cap
 *   format=, out=          report sink (table|json|csv, default table)
 *   records_out=<path>     canonical digest records (byte-identity gate)
 */

#include <csignal>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "driver/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "report/report.hpp"
#include "report/sinks.hpp"
#include "serve/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/schedule.hpp"
#include "serve/server.hpp"
#include "serve/virtual_serve.hpp"
#include "serve_common.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace {

std::atomic<int> gSignal{0};

void
onSignal(int sig)
{
    gSignal.store(sig, std::memory_order_relaxed);
}

std::vector<grow::graph::DatasetSpec>
resolveDatasets(const std::vector<std::string> &names)
{
    if (names.size() == 1 && names[0] == "all")
        return grow::graph::allDatasets();
    std::vector<grow::graph::DatasetSpec> specs;
    for (const std::string &name : names)
        specs.push_back(grow::graph::datasetByName(name));
    return specs;
}

int
run(int argc, char **argv)
{
    using namespace grow;

    CliArgs args(argc, argv);
    std::vector<std::string> known = {
        "mode",     "socket",   "inflight", "slots",
        "threads",  "cachedir", "memcap",   "format",
        "out",      "records_out"};
    for (const std::string &k : serve::scheduleKeys())
        known.push_back(k);
    for (const std::string &k : serve::admissionKeys())
        known.push_back(k);
    args.requireKnown(known);

    const std::string mode = args.get("mode", "socket");
    if (mode != "socket" && mode != "sim")
        fatal("mode must be socket or sim, got '" + mode + "'");

    const serve::AdmissionConfig admission =
        serve::admissionFromArgs(args);
    const uint32_t slots = args.getCount("slots", 1);
    const uint32_t inflight = args.getCount("inflight", 2);
    const uint32_t threads =
        util::checkedThreadCount(args.getInt("threads", 1));

    driver::WorkloadCache cache(args.get("cachedir", ""));
    if (args.has("memcap"))
        cache.setMemoryByteCap(
            parseByteSize("memcap", args.get("memcap", "")));

    const auto specs = resolveDatasets(args.getList(
        "datasets", {mode == "sim" ? "cora" : "all"}));
    serve::Executor executor(cache, specs, threads);
    serve::ServeMetrics metrics;

    report::ReportMeta meta;
    meta.generator = "grow-serve";
    meta.bench = mode == "sim" ? "serve_sim" : "serve_daemon";
    meta.revision = report::buildRevision();
    meta.scale = args.get("scale", "mini");
    meta.model = args.get("model", "gcn");
    report::Report rep(meta);

    std::vector<serve::RequestRecord> records;
    if (mode == "sim") {
        const auto schedule =
            serve::buildSchedule(serve::scheduleFromArgs(args));
        serve::VirtualServeConfig config;
        config.admission = admission;
        config.slots = slots;
        serve::VirtualServeResult result =
            serve::runVirtualServe(schedule, &executor, config, &metrics);
        records = std::move(result.records);
        rep.note("grow_serve mode=sim: " +
                 std::to_string(schedule.size()) + " scheduled requests, " +
                 std::to_string(config.slots) + " slot(s), virtual end " +
                 std::to_string(result.endUs) + " us");
    } else {
        serve::ServerConfig config;
        config.socketPath = args.get("socket", "grow_serve.sock");
        config.admission = admission;
        config.maxInflight = inflight;
        config.pool = &util::WorkPool::shared();
        serve::ServeDaemon daemon(executor, config, metrics);
        std::string error;
        if (!daemon.start(&error))
            fatal(error);
        logInfo("grow_serve: listening on " + config.socketPath);

        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        while (gSignal.load(std::memory_order_relaxed) == 0 &&
               !daemon.stopping())
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        daemon.requestStop();
        daemon.wait();
        records = daemon.records();
        rep.note("grow_serve mode=socket: drained after " +
                 std::string(gSignal.load() ? "signal" : "shutdown command"));
    }

    const auto snapshot = cache.snapshot();
    metrics.fillReport(rep, &snapshot);
    report::emitReport(rep, args.get("format", "table"),
                       args.get("out", ""));
    if (args.has("records_out"))
        serve_tool::writeDigestRecords(args.get("records_out", ""),
                                       records);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return grow::guardedMain("grow_serve", argc, argv, run);
}
