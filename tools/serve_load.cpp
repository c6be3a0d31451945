/**
 * @file
 * Load generator / client for the GROW serving daemon.
 *
 * Replays the same seeded deterministic schedule grow_serve mode=sim
 * replays, but over the wire:
 *
 *   mode=closed (default)  Closed loop: keep `concurrency=` requests
 *                          outstanding on one connection; each
 *                          response triggers the next send. Arrival
 *                          times in the schedule are ignored.
 *   mode=open              Open loop: send each request at its
 *                          scheduled time regardless of responses
 *                          (backpressure shows up as rejections).
 *   mode=direct            No daemon: execute the identical schedule
 *                          in-process (virtual clock, one slot). The
 *                          digest records must match a daemon-served
 *                          run byte for byte -- the CI equivalence
 *                          gate diffs exactly that.
 *
 * Flags (key=value):
 *   socket=<path>          daemon socket (default grow_serve.sock)
 *   concurrency=<n>        closed-loop window (default 4)
 *   connect_timeout_s=<n>  retry budget while the daemon starts
 *   shutdown=0|1           send {"cmd":"shutdown"} when done
 *   requests=, seed=, mean_gap_us=, tenants=, datasets=, engines=,
 *   model=, scale=, depth=, feature_seed=, deadline_ms=
 *                          schedule knobs (identical to grow_serve)
 *   cachedir=, memcap=, threads=   mode=direct execution knobs
 *   format=, out=          client-side report sink
 *   records_out=<path>     canonical digest records
 *
 * Exit status is non-zero when any protocol error occurred or any
 * response went missing, so CI can gate on a clean run.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "driver/workload_cache.hpp"
#include "graph/datasets.hpp"
#include "report/report.hpp"
#include "report/sinks.hpp"
#include "serve/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/schedule.hpp"
#include "serve/virtual_serve.hpp"
#include "serve_common.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/work_pool.hpp"

namespace {

using namespace grow;

/** Connect to @p path, retrying until @p timeout_s while the daemon
 *  finishes starting. Returns -1 on timeout. */
int
connectWithRetry(const std::string &path, double timeout_s)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    for (;;) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal(std::string("socket(): ") + std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        if (std::chrono::steady_clock::now() >= deadline)
            return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
}

bool
sendLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
        ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Blocking buffered line reader over one socket. */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /** False on EOF/error with no complete line left. */
    bool
    next(std::string &line)
    {
        for (;;) {
            size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return true;
            }
            char chunk[4096];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            if (n == 0)
                return false;
            buffer_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buffer_;
};

/** True when @p line is a {"cmd":...} control response (pong/ack). */
bool
isControlLine(const std::string &line)
{
    return line.find("\"cmd\"") != std::string::npos;
}

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    std::vector<std::string> known = {
        "mode",   "socket", "concurrency", "connect_timeout_s",
        "shutdown", "cachedir", "memcap",  "threads",
        "format", "out",    "records_out"};
    for (const std::string &k : serve::scheduleKeys())
        known.push_back(k);
    args.requireKnown(known);

    const std::string mode = args.get("mode", "closed");
    if (mode != "closed" && mode != "open" && mode != "direct")
        fatal("mode must be closed, open or direct, got '" + mode + "'");

    const uint32_t threads =
        util::checkedThreadCount(args.getInt("threads", 1));
    const serve::ScheduleConfig scheduleConfig =
        serve::scheduleFromArgs(args);
    const auto schedule = serve::buildSchedule(scheduleConfig);

    serve::ServeMetrics metrics;
    std::vector<serve::RequestRecord> records;
    uint64_t missing = 0;

    if (mode == "direct") {
        driver::WorkloadCache cache(args.get("cachedir", ""));
        if (args.has("memcap"))
            cache.setMemoryByteCap(parseByteSize(
                "memcap", args.get("memcap", "")));
        std::vector<graph::DatasetSpec> specs;
        for (const std::string &name : scheduleConfig.datasets)
            specs.push_back(graph::datasetByName(name));
        serve::Executor executor(cache, specs, threads);
        serve::VirtualServeConfig config;
        // Generous admission: direct mode measures the simulator, not
        // the queue, so nothing may be shed.
        config.admission.maxDepth = std::max<uint32_t>(
            64, static_cast<uint32_t>(schedule.size()));
        serve::VirtualServeResult result =
            serve::runVirtualServe(schedule, &executor, config, &metrics);
        records = std::move(result.records);
    } else {
        const std::string path = args.get("socket", "grow_serve.sock");
        int fd = connectWithRetry(
            path, args.getDouble("connect_timeout_s", 10.0));
        if (fd < 0)
            fatal("cannot connect to '" + path + "'");

        const size_t total = schedule.size();
        size_t resolved = 0;
        LineReader reader(fd);
        std::thread sender;

        auto handleLine = [&](const std::string &line) {
            if (isControlLine(line))
                return;
            serve::RequestRecord rec;
            std::string error;
            if (!serve::parseResponse(line, rec, &error)) {
                metrics.recordProtocolError();
                logError("serve_load: bad response: " + error);
            } else {
                metrics.recordOutcome(rec);
                records.push_back(std::move(rec));
            }
            ++resolved;
        };

        if (mode == "open") {
            // Sender paces the schedule on the host clock; the main
            // thread drains responses.
            sender = std::thread([&] {
                const auto start = std::chrono::steady_clock::now();
                for (const serve::ScheduledRequest &sr : schedule) {
                    std::this_thread::sleep_until(
                        start + std::chrono::microseconds(sr.atUs));
                    if (!sendLine(fd, serve::encodeRequest(sr.request)))
                        break;
                }
            });
            std::string line;
            while (resolved < total && reader.next(line))
                handleLine(line);
            sender.join();
        } else {
            const size_t window = std::max<int64_t>(
                1, args.getInt("concurrency", 4));
            size_t sent = 0, outstanding = 0;
            std::string line;
            while (resolved < total) {
                while (outstanding < window && sent < total) {
                    if (!sendLine(fd, serve::encodeRequest(
                                          schedule[sent].request)))
                        fatal("send failed");
                    ++sent;
                    ++outstanding;
                }
                if (!reader.next(line))
                    break;
                const size_t before = resolved;
                handleLine(line);
                if (resolved > before && outstanding > 0)
                    --outstanding;
            }
        }
        missing = total - resolved;

        if (args.getBool("shutdown", false)) {
            sendLine(fd, serve::encodeShutdown());
            std::string line;
            reader.next(line); // best-effort ack
        }
        ::close(fd);
    }

    report::ReportMeta meta;
    meta.generator = "grow-serve";
    meta.bench = "serve_load_" + mode;
    meta.revision = report::buildRevision();
    meta.scale = graph::tierName(scheduleConfig.tier);
    meta.model = scheduleConfig.model;
    report::Report rep(meta);
    rep.note("serve_load mode=" + mode + ": " +
             std::to_string(schedule.size()) + " requests, " +
             std::to_string(missing) + " missing, " +
             std::to_string(metrics.protocolErrors()) +
             " protocol errors");
    metrics.fillReport(rep, nullptr);
    report::emitReport(rep, args.get("format", "table"),
                       args.get("out", ""));
    if (args.has("records_out"))
        serve_tool::writeDigestRecords(args.get("records_out", ""),
                                       records);

    return (missing > 0 || metrics.protocolErrors() > 0) ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return grow::guardedMain("serve_load", argc, argv, run);
}
