#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "serve/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long: " + path);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (int attempt = 0; attempt < 200; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error("socket(): " +
                                     std::string(std::strerror(errno)));
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw std::runtime_error("cannot connect to " + path);
}

void
sendAll(int fd, const std::string &line)
{
    size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("send(): " +
                                     std::string(std::strerror(errno)));
        }
        off += static_cast<size_t>(n);
    }
}

} // namespace

double
Outcome::latencyMs() const
{
    return ok() ? msBetween(due, received)
                : std::numeric_limits<double>::infinity();
}

double
Outcome::wireMs() const
{
    return msBetween(sent, received) - record.totalMs();
}

LoadClient::LoadClient(const std::string &path, uint32_t connections)
{
    for (uint32_t i = 0; i < connections; ++i)
        fds_.push_back(connectUnix(path));
    buffers_.resize(fds_.size());
}

LoadClient::~LoadClient()
{
    for (int fd : fds_)
        ::close(fd);
}

void
LoadClient::pump(Clock::time_point until, std::vector<Outcome> &out,
                 uint64_t id_base, size_t *outstanding)
{
    std::vector<pollfd> pfds(fds_.size());
    for (size_t i = 0; i < fds_.size(); ++i)
        pfds[i] = {fds_[i], POLLIN, 0};
    char chunk[65536];
    for (;;) {
        const auto now = Clock::now();
        if (now >= until)
            return;
        const auto left = until - now;
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(
            std::chrono::duration_cast<std::chrono::seconds>(left).count());
        ts.tv_nsec = static_cast<long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(left)
                .count() %
            1000000000LL);
        const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        if (ready < 0 && errno != EINTR)
            throw std::runtime_error("ppoll(): " +
                                     std::string(std::strerror(errno)));
        for (size_t i = 0; ready > 0 && i < pfds.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t n = ::recv(fds_[i], chunk, sizeof chunk,
                                     MSG_DONTWAIT);
            if (n <= 0) {
                if (n == 0 || (errno != EAGAIN && errno != EINTR))
                    pfds[i].fd = -1; // closed: stop polling it
                continue;
            }
            const auto received = Clock::now();
            std::string &buf = buffers_[i];
            buf.append(chunk, static_cast<size_t>(n));
            size_t start = 0;
            for (size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
                 start = nl + 1) {
                grow::serve::RequestRecord rec;
                std::string error;
                if (!grow::serve::parseResponse(buf.substr(start, nl - start),
                                                rec, &error))
                    continue;
                const uint64_t idx = rec.request.id - id_base;
                if (rec.request.id < id_base || idx >= out.size() ||
                    out[idx].answered)
                    continue;
                out[idx].answered = true;
                out[idx].received = received;
                out[idx].record = std::move(rec);
                --*outstanding;
            }
            buf.erase(0, start);
        }
        if (*outstanding == 0)
            return;
    }
}

std::vector<Outcome>
LoadClient::run(const std::vector<Arrival> &schedule, uint64_t id_base,
                double drain_s, double *gen_lag_ms)
{
    std::vector<Outcome> out(schedule.size());
    size_t outstanding = schedule.size();
    double lag = 0.0;
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    for (size_t i = 0; i < schedule.size(); ++i) {
        const Arrival &a = schedule[i];
        out[i].due = t0 + std::chrono::microseconds(a.dueUs);
        pump(out[i].due, out, id_base, &outstanding);

        grow::serve::ServeRequest req;
        req.id = id_base + i;
        req.tenant = a.tenant;
        req.dataset = a.tuple.dataset;
        req.engine = a.tuple.engine;
        req.depth = a.tuple.depth;
        req.seed = a.tuple.featureSeed;
        out[i].sent = Clock::now();
        sendAll(fds_[i % fds_.size()],
                grow::serve::encodeRequest(req) + "\n");
        lag = std::max(lag, msBetween(out[i].due, out[i].sent));
    }
    const auto deadline =
        (schedule.empty() ? t0 : out.back().due) +
        std::chrono::microseconds(static_cast<int64_t>(drain_s * 1e6));
    while (outstanding > 0 && Clock::now() < deadline)
        pump(std::min(deadline, Clock::now() + std::chrono::milliseconds(50)),
             out, id_base, &outstanding);
    if (gen_lag_ms)
        *gen_lag_ms = lag;
    return out;
}

} // namespace perfbench
