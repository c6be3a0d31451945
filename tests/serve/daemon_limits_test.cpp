/**
 * @file
 * The daemon under clients that misbehave or exhaust its resources:
 * many open connections, a client that never reads its responses, an
 * accept() that fails, and a line with no end. Each case must leave
 * every other client served and shutdown clean. Every client call
 * here is bounded by a poll timeout, so a daemon that stops answering
 * fails the test instead of hanging it.
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "driver/workload_cache.hpp"
#include "serve/executor.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace grow::serve {
namespace {

using namespace std::chrono_literals;

/** Non-blocking client whose every call gives up after a timeout. */
class Client
{
  public:
    enum class Read { Line, Closed, Timeout };

    explicit Client(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        connected_ = fd_ >= 0 &&
                     ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr)) == 0;
    }

    ~Client() { close(); }

    bool connected() const { return connected_; }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    /** Send @p bytes, waiting at most @p timeout for buffer space each
     *  time; returns how many went out before an error or a timeout. */
    size_t
    send(const std::string &bytes,
         std::chrono::milliseconds timeout = 2000ms)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n >= 0) {
                off += static_cast<size_t>(n);
                continue;
            }
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                break;
            pollfd pfd{fd_, POLLOUT, 0};
            if (::poll(&pfd, 1, static_cast<int>(timeout.count())) <= 0)
                break;
        }
        return off;
    }

    bool
    sendLine(const std::string &line)
    {
        return send(line + "\n") == line.size() + 1;
    }

    Read
    readLine(std::string &line, std::chrono::milliseconds timeout = 5000ms)
    {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        for (;;) {
            const size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return Read::Line;
            }
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now());
            pollfd pfd{fd_, POLLIN, 0};
            if (left.count() <= 0 ||
                ::poll(&pfd, 1, static_cast<int>(left.count())) == 0)
                return Read::Timeout;
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
            if (n > 0)
                buffer_.append(chunk, static_cast<size_t>(n));
            else if (n == 0 || (errno != EINTR && errno != EAGAIN))
                return Read::Closed;
        }
    }

    /** True once a ping is answered with the pong. */
    bool
    ping()
    {
        std::string line;
        return sendLine(encodePing()) &&
               readLine(line) == Read::Line &&
               line.find("pong") != std::string::npos;
    }

    /** Send @p req and parse its response. */
    bool
    call(const ServeRequest &req, RequestRecord &rec)
    {
        std::string line, error;
        return sendLine(encodeRequest(req)) &&
               readLine(line) == Read::Line &&
               parseResponse(line, rec, &error);
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
    std::string buffer_;
};

std::string
socketPath(const char *tag)
{
    return "/tmp/grow_serve_limits_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

ServeRequest
unitRequest(uint64_t id)
{
    ServeRequest req;
    req.id = id;
    req.dataset = "cora";
    req.engine = "grow";
    req.tier = graph::ScaleTier::Unit;
    req.seed = 7 + id;
    return req;
}

size_t
processThreads()
{
    size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

/** One daemon over a fresh cache, started on a per-test socket. */
struct Fixture
{
    explicit Fixture(const char *tag, uint32_t queueDepth = 64)
        : executor(cache)
    {
        config.socketPath = socketPath(tag);
        config.admission.maxDepth = queueDepth;
        daemon = std::make_unique<ServeDaemon>(executor, config, metrics);
        std::string error;
        started = daemon->start(&error);
        EXPECT_TRUE(started) << error;
    }

    driver::WorkloadCache cache;
    Executor executor;
    ServeMetrics metrics;
    ServerConfig config;
    std::unique_ptr<ServeDaemon> daemon;
    bool started = false;
};

TEST(ServeDaemonLimits, ThreadCountDoesNotGrowWithConnections)
{
    Fixture f("threads");
    ASSERT_TRUE(f.started);
    const size_t before = processThreads();
    std::vector<std::unique_ptr<Client>> clients;
    for (int i = 0; i < 32; ++i) {
        clients.push_back(std::make_unique<Client>(f.config.socketPath));
        ASSERT_TRUE(clients.back()->connected());
        ASSERT_TRUE(clients.back()->ping()) << "connection " << i;
    }
    EXPECT_LE(processThreads(), before);
    f.daemon->requestStop();
    f.daemon->wait();
}

TEST(ServeDaemonLimits, ClientThatNeverReadsCannotWedgeOthers)
{
    // No pool: the dispatcher executes inline, so a response write
    // that blocked on a full socket would stop all dispatch.
    Fixture f("noread", 4);
    ASSERT_TRUE(f.started);
    Client hog(f.config.socketPath);
    Client polite(f.config.socketPath);
    ASSERT_TRUE(hog.connected());
    ASSERT_TRUE(polite.connected());
    std::string flood;
    for (uint64_t id = 1; id <= 5000; ++id)
        flood += encodeRequest(unitRequest(id)) + "\n";
    hog.send(flood, 200ms); // never reads a single response

    // No ASSERT from here on: returning early would leave a wedged
    // daemon for the destructor to wait on.
    RequestRecord rec; // status Error until answered
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    for (uint64_t id = 100000;
         std::chrono::steady_clock::now() < deadline; ++id) {
        std::this_thread::sleep_for(20ms); // the hog's admitted work drains
        if (!polite.call(unitRequest(id), rec) ||
            rec.status != RequestStatus::RejectedQueueFull)
            break;
    }
    EXPECT_EQ(rec.status, RequestStatus::Completed) << rec.error;

    f.daemon->requestStop();
    auto stopped = std::async(std::launch::async,
                              [&] { f.daemon->wait(); });
    const bool clean = stopped.wait_for(5s) == std::future_status::ready;
    EXPECT_TRUE(clean) << "wait() did not return while the hog was open";
    hog.close(); // releases a wedged daemon so the test can end
    stopped.wait();
}

TEST(ServeDaemonLimits, AcceptErrorBacksOffAndKeepsServing)
{
    Fixture f("emfile");
    ASSERT_TRUE(f.started);
    Client first(f.config.socketPath);
    ASSERT_TRUE(first.ping());

    // Lower the fd limit so the client's socket still fits but the
    // daemon's accept() of it fails with EMFILE.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    const int lowestFree = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(lowestFree, 0);
    ::close(lowestFree);
    rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(lowestFree) + 1;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
    auto refused = std::make_unique<Client>(f.config.socketPath);
    std::this_thread::sleep_for(200ms); // several failed accept ticks
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_TRUE(refused->connected());

    Client later(f.config.socketPath);
    ASSERT_TRUE(later.connected());
    EXPECT_TRUE(later.ping());
    EXPECT_TRUE(refused->ping());
    EXPECT_TRUE(first.ping());
    f.daemon->requestStop();
    f.daemon->wait();
}

TEST(ServeDaemonLimits, OverlongLineGetsOneErrorAndClose)
{
    Fixture f("longline");
    ASSERT_TRUE(f.started);
    Client other(f.config.socketPath);
    ASSERT_TRUE(other.ping());

    Client flooder(f.config.socketPath);
    ASSERT_TRUE(flooder.connected());
    flooder.send(std::string(100 * 1024, 'x'), 200ms); // no newline
    std::string line, error;
    ASSERT_EQ(flooder.readLine(line), Client::Read::Line);
    RequestRecord rec;
    ASSERT_TRUE(parseResponse(line, rec, &error)) << error;
    EXPECT_EQ(rec.status, RequestStatus::Error);
    EXPECT_NE(rec.error.find("protocol"), std::string::npos) << rec.error;
    EXPECT_EQ(flooder.readLine(line), Client::Read::Closed);

    ASSERT_TRUE(other.call(unitRequest(1), rec));
    EXPECT_EQ(rec.status, RequestStatus::Completed) << rec.error;
    f.daemon->requestStop();
    f.daemon->wait();
    EXPECT_EQ(f.metrics.protocolErrors(), 1u);
}

} // namespace
} // namespace grow::serve
