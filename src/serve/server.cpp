#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serve/protocol.hpp"
#include "util/logging.hpp"
#include "util/wallclock.hpp"
#include "util/work_pool.hpp"

namespace grow::serve {

namespace {

/** Longest the I/O and dispatch loops go without noticing stop_, and
 *  the accept backoff after an accept() error. */
constexpr auto kPollTick = std::chrono::milliseconds(50);

/** Longest request line buffered (newline excluded). */
constexpr size_t kMaxLineBytes = 64 * 1024;

} // namespace

ServeDaemon::ServeDaemon(const Executor &executor, ServerConfig config,
                         ServeMetrics &metrics)
    : executor_(executor), config_(std::move(config)), metrics_(metrics),
      queue_(config_.admission), epoch_(std::chrono::steady_clock::now())
{
    GROW_ASSERT(config_.maxInflight >= 1,
                "ServeDaemon needs maxInflight >= 1");
}

ServeDaemon::~ServeDaemon()
{
    requestStop();
    wait();
}

Micros
ServeDaemon::now() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

bool
ServeDaemon::start(std::string *error)
{
    if (config_.socketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
        if (error)
            *error = "socket path too long: " + config_.socketPath;
        return false;
    }
    // Non-blocking: a connection that vanishes between poll() and
    // accept() must not stall the I/O thread.
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listenFd_ < 0) {
        if (error)
            *error = std::string("socket(): ") + std::strerror(errno);
        return false;
    }
    ::unlink(config_.socketPath.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        if (error)
            *error = "bind(" + config_.socketPath +
                     "): " + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::listen(listenFd_, 64) < 0) {
        if (error)
            *error = std::string("listen(): ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    ioThread_ = std::thread([this] { ioLoop(); });
    dispatchThread_ = std::thread([this] { dispatchLoop(); });
    return true;
}

void
ServeDaemon::requestStop()
{
    bool expected = false;
    if (!stop_.compare_exchange_strong(expected, true))
        return;
    queue_.close();
    cv_.notify_all();
}

void
ServeDaemon::wait()
{
    if (ioThread_.joinable())
        ioThread_.join();
    if (dispatchThread_.joinable())
        dispatchThread_.join();
    // Drain finished and every writer is gone: close what is left.
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &entry : conns_)
        ::close(entry.second->fd);
    conns_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(config_.socketPath.c_str());
        listenFd_ = -1;
    }
}

std::vector<RequestRecord>
ServeDaemon::records() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return records_;
}

void
ServeDaemon::ioLoop()
{
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Conn>> polled;
    auto acceptAt = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_acquire)) {
        // poll() ignores a negative fd: that is the accept backoff.
        const bool accepting = std::chrono::steady_clock::now() >= acceptAt;
        fds.assign(1, pollfd{accepting ? listenFd_ : -1, POLLIN, 0});
        polled.clear();
        {
            std::lock_guard<std::mutex> lk(mu_);
            for (const auto &entry : conns_) {
                fds.push_back(pollfd{entry.second->fd, POLLIN, 0});
                polled.push_back(entry.second);
            }
        }
        const int rc = ::poll(fds.data(), fds.size(),
                              static_cast<int>(kPollTick.count()));
        if (rc < 0) {
            if (errno != EINTR) {
                logError(std::string("serve: poll(): ") +
                         std::strerror(errno));
                std::this_thread::sleep_for(kPollTick);
            }
            continue;
        }
        if (fds[0].revents & POLLIN) {
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd >= 0) {
                auto conn = std::make_shared<Conn>();
                conn->fd = fd;
                std::lock_guard<std::mutex> lk(mu_);
                conn->ticket = nextTicket_++;
                conns_[conn->ticket] = std::move(conn);
            } else if (errno != EINTR && errno != EAGAIN &&
                       errno != ECONNABORTED) {
                // EMFILE and friends: keep serving the open
                // connections and retry after one tick.
                logError(std::string("serve: accept(): ") +
                         std::strerror(errno));
                acceptAt = std::chrono::steady_clock::now() + kPollTick;
            }
        }
        for (size_t i = 0; i < polled.size(); ++i) {
            Conn &conn = *polled[i];
            if (conn.dead.load(std::memory_order_acquire) ||
                (fds[i + 1].revents && !readConnection(conn)))
                closeConnection(conn);
        }
    }
}

bool
ServeDaemon::readConnection(Conn &conn)
{
    char chunk[16 * 1024];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0)
        return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
    if (n == 0)
        return false; // client gone; late responses are skipped
    // Only the new bytes can hold a newline: the inbox never keeps one.
    size_t begin = 0;
    size_t nl = conn.inbox.size();
    conn.inbox.append(chunk, static_cast<size_t>(n));
    for (;;) {
        nl = conn.inbox.find('\n', nl);
        const size_t end = nl == std::string::npos ? conn.inbox.size() : nl;
        if (end - begin > kMaxLineBytes) {
            protocolError(conn, "line longer than " +
                                    std::to_string(kMaxLineBytes) +
                                    " bytes");
            return false;
        }
        if (nl == std::string::npos)
            break;
        const std::string line = conn.inbox.substr(begin, nl - begin);
        begin = ++nl;
        if (!line.empty())
            handleLine(conn, line);
        if (conn.dead.load(std::memory_order_acquire))
            return false;
    }
    conn.inbox.erase(0, begin);
    return true;
}

void
ServeDaemon::handleLine(Conn &conn, const std::string &line)
{
    ClientLine parsed;
    std::string error;
    if (!parseClientLine(line, parsed, &error)) {
        protocolError(conn, error);
        return;
    }
    if (parsed.kind == ClientLine::Kind::Ping) {
        sendLine(conn, "{\"cmd\":\"pong\"}");
        return;
    }
    if (parsed.kind == ClientLine::Kind::Shutdown) {
        sendLine(conn, "{\"cmd\":\"shutdown_ack\"}");
        requestStop();
        return;
    }

    ServeRequest req = parsed.request;
    req.ticket = conn.ticket;
    std::string verror;
    if (!executor_.validate(req, &verror)) {
        RequestRecord rec;
        rec.request = std::move(req);
        rec.request.arrivalUs = now();
        rec.completionUs = rec.request.arrivalUs;
        rec.status = RequestStatus::Error;
        rec.error = verror;
        respond(rec);
        finishRecord(std::move(rec));
        return;
    }
    const Micros arrival = now();
    const Admission verdict = queue_.push(req, arrival);
    metrics_.recordAdmission(verdict, queue_.depth(), arrival);
    if (verdict != Admission::Admitted) {
        RequestRecord rec;
        rec.request = std::move(req);
        rec.request.arrivalUs = arrival;
        rec.completionUs = arrival;
        rec.status = rejectionStatus(verdict);
        respond(rec);
        finishRecord(std::move(rec));
        return;
    }
    cv_.notify_one();
}

void
ServeDaemon::protocolError(Conn &conn, const std::string &error)
{
    metrics_.recordProtocolError();
    RequestRecord rec;
    rec.status = RequestStatus::Error;
    rec.error = "protocol: " + error;
    sendLine(conn, encodeResponse(rec));
}

void
ServeDaemon::closeConnection(Conn &conn)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        conns_.erase(conn.ticket);
    }
    // A writer that looked the connection up before the erase may
    // still hold it: close under its lock and mark it dead.
    std::lock_guard<std::mutex> wl(conn.writeMu);
    conn.dead.store(true, std::memory_order_release);
    ::close(conn.fd);
    conn.fd = -1;
}

void
ServeDaemon::sendLine(Conn &conn, const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    std::lock_guard<std::mutex> wl(conn.writeMu);
    size_t off = 0;
    while (!conn.dead.load(std::memory_order_relaxed) &&
           off < framed.size()) {
        const ssize_t n =
            ::send(conn.fd, framed.data() + off, framed.size() - off,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n >= 0) {
            off += static_cast<size_t>(n);
        } else if (errno != EINTR) {
            // Full socket buffer (a client that does not read) or a
            // broken pipe: never block the caller. The hangup wakes
            // the I/O thread, which closes the fd.
            conn.dead.store(true, std::memory_order_release);
            ::shutdown(conn.fd, SHUT_RDWR);
        }
    }
}

void
ServeDaemon::dispatchLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait_for(lk, kPollTick, [this] {
                return stop_.load(std::memory_order_acquire) ||
                       (queue_.depth() > 0 &&
                        inflight_ < config_.maxInflight);
            });
            if (stop_.load(std::memory_order_acquire) &&
                queue_.depth() == 0 && inflight_ == 0)
                return;
        }
        for (;;) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                if (inflight_ >= config_.maxInflight)
                    break;
            }
            ServeRequest req;
            std::vector<ServeRequest> expired;
            const Micros t = now();
            const bool got = queue_.pop(t, req, expired);
            for (ServeRequest &e : expired) {
                RequestRecord rec;
                rec.request = std::move(e);
                rec.status = RequestStatus::Expired;
                rec.completionUs = t;
                respond(rec);
                finishRecord(std::move(rec));
            }
            metrics_.sampleQueueDepth(t, queue_.depth());
            if (!got)
                break;
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++inflight_;
            }
            // Copy-capturing keeps the lambda copyable (std::function).
            auto task = [this, req]() { execute(req); };
            if (!config_.pool || !config_.pool->trySubmit(task))
                task();
        }
    }
}

void
ServeDaemon::execute(ServeRequest req)
{
    RequestRecord rec;
    rec.dispatchUs = now();
    ExecResult er = executor_.run(req);
    queue_.onComplete(req);
    rec.request = std::move(req);
    rec.completionUs = now();
    if (er.ok) {
        rec.status = RequestStatus::Completed;
        rec.digest = er.digest;
        rec.execMs = er.hostMs;
    } else {
        rec.status = RequestStatus::Error;
        rec.error = er.error;
    }
    respond(rec);
    finishRecord(std::move(rec));
    {
        std::lock_guard<std::mutex> lk(mu_);
        GROW_ASSERT(inflight_ > 0, "execute() without dispatch");
        --inflight_;
    }
    cv_.notify_one();
}

void
ServeDaemon::respond(const RequestRecord &record)
{
    std::shared_ptr<Conn> conn;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = conns_.find(record.request.ticket);
        if (it != conns_.end())
            conn = it->second;
    }
    if (conn) // else the client disconnected; outcome still recorded
        sendLine(*conn, encodeResponse(record));
}

void
ServeDaemon::finishRecord(RequestRecord record)
{
    metrics_.recordOutcome(record);
    std::lock_guard<std::mutex> lk(mu_);
    records_.push_back(std::move(record));
}

} // namespace grow::serve
