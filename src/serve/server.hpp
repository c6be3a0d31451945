/**
 * @file
 * The GROW serving daemon: a persistent Unix-domain-socket server
 * multiplexing multi-tenant inference requests onto the simulator.
 *
 * Wire protocol (serve/protocol.hpp): line-delimited JSON, one request
 * or command object per line, one response object per resolved
 * request. One I/O thread polls the listening socket and every open
 * connection: it accepts, reads each connection into its own buffer
 * and hands every complete line to handleLine(). Parsed requests are
 * validated (non-fatally -- a malformed or unknown request gets an
 * error response, never a dead daemon), costed, and pushed through the
 * bounded multi-tenant RequestQueue. Admission failures (queue depth,
 * in-flight byte budget, shutdown) are answered immediately with a
 * reject-with-reason response -- backpressure the client can act on.
 *
 * A single dispatcher thread pops admitted requests in fair-share
 * order and hands execution to the process-wide util::WorkPool via
 * trySubmit(); when the pool has no workers or is stopping, the
 * dispatcher runs the job inline. In-flight concurrency is bounded by
 * maxInflight. Deadline-expired requests are cancelled at dispatch
 * time and answered with status "expired".
 *
 * Limits on hostile clients are constants (server.cpp), not knobs:
 * every response goes through sendLine(), which never blocks -- a
 * client whose socket buffer is full or broken is shut down, and the
 * I/O thread, the only closer of a connection fd, then closes it; a
 * line over 64 KiB gets a protocol error and a close; a failed
 * accept() (e.g. EMFILE) pauses accepting for one poll tick.
 *
 * Graceful shutdown (protocol `{"cmd":"shutdown"}` or requestStop()):
 * the queue closes (new pushes answered rejected_shutdown), the I/O
 * thread stops accepting and reading, the dispatcher drains everything
 * already admitted, in-flight executions finish and respond, then
 * wait() closes the connections and the listener. The daemon's
 * RequestRecord log and ServeMetrics survive shutdown so main() can
 * emit reports and digest lines afterwards.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"

namespace grow::util {
class WorkPool;
}

namespace grow::serve {

/** Daemon knobs. */
struct ServerConfig
{
    std::string socketPath = "grow_serve.sock";
    AdmissionConfig admission;
    /** Max requests executing concurrently (>=1). */
    uint32_t maxInflight = 1;
    /** Pool for execution; null = always inline on the dispatcher. */
    util::WorkPool *pool = nullptr;
};

class ServeDaemon
{
  public:
    ServeDaemon(const Executor &executor, ServerConfig config,
                ServeMetrics &metrics);
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /** Bind + listen + spawn the I/O and dispatch threads. False
     *  (with @p error) when the socket cannot be bound. */
    bool start(std::string *error);

    /** Begin graceful shutdown (idempotent, safe from any thread). */
    void requestStop();

    /** Block until the daemon has fully drained and stopped. */
    void wait();

    /** True once requestStop() was observed. */
    bool stopping() const { return stop_.load(std::memory_order_acquire); }

    /** Every resolved request, in resolution order (post-wait()). */
    std::vector<RequestRecord> records() const;

  private:
    struct Conn
    {
        int fd = -1;
        uint64_t ticket = 0; ///< routes responses back to this socket
        std::mutex writeMu;  ///< serialises sendLine(); guards fd
        /** A send failed or the fd is closed: drop further output. */
        std::atomic<bool> dead{false};
        std::string inbox; ///< I/O thread only: the partial next line
    };

    void ioLoop();
    /** Read and handle @p conn's lines; false: close it. */
    bool readConnection(Conn &conn);
    void handleLine(Conn &conn, const std::string &line);
    void protocolError(Conn &conn, const std::string &error);
    void closeConnection(Conn &conn);
    void sendLine(Conn &conn, const std::string &line);
    void dispatchLoop();
    void execute(ServeRequest req);
    void respond(const RequestRecord &record);
    void finishRecord(RequestRecord record);
    Micros now() const;

    const Executor &executor_;
    ServerConfig config_;
    ServeMetrics &metrics_;
    RequestQueue queue_;

    std::chrono::steady_clock::time_point epoch_;
    std::atomic<bool> stop_{false};
    int listenFd_ = -1;

    mutable std::mutex mu_;
    std::condition_variable cv_; ///< dispatcher wake: work or stop
    uint32_t inflight_ = 0;
    uint64_t nextTicket_ = 1;
    /** Open connections by ticket; only the I/O thread (and a joined
     *  wait()) adds or erases. */
    std::map<uint64_t, std::shared_ptr<Conn>> conns_;
    std::vector<RequestRecord> records_;

    std::thread ioThread_;
    std::thread dispatchThread_;
};

} // namespace grow::serve
