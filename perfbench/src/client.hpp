/**
 * @file
 * Open-loop load client for the serving daemon's Unix socket.
 *
 * One thread drives every connection: it sends each request when it
 * falls due (round-robin over the connections), whatever is still
 * outstanding, and reads responses in between with ppoll(). Latency is
 * measured from the due time, so a stalled daemon also charges the
 * requests queued behind the stall.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "logic.hpp"
#include "serve/request.hpp"

namespace perfbench {

/** What happened to one scheduled request. */
struct Outcome
{
    std::chrono::steady_clock::time_point due;
    std::chrono::steady_clock::time_point sent;
    std::chrono::steady_clock::time_point received;
    bool answered = false;
    grow::serve::RequestRecord record; ///< as parsed from the response

    bool ok() const
    {
        return answered &&
               record.status == grow::serve::RequestStatus::Completed;
    }
    /** Due-to-response latency; +inf unless the request completed. */
    double latencyMs() const;
    /** Send-to-response time minus the daemon's own total_ms. */
    double wireMs() const;
};

class LoadClient
{
  public:
    /** Connect @p connections sockets to @p path (retrying briefly). */
    LoadClient(const std::string &path, uint32_t connections);
    ~LoadClient();
    LoadClient(const LoadClient &) = delete;
    LoadClient &operator=(const LoadClient &) = delete;

    /**
     * Send @p schedule open-loop, with request ids idBase + index, and
     * wait up to @p drain_s after the last due time for the responses.
     * @p gen_lag_ms receives the largest send-minus-due delay.
     */
    std::vector<Outcome> run(const std::vector<Arrival> &schedule,
                             uint64_t id_base, double drain_s,
                             double *gen_lag_ms);

  private:
    /** Read whatever is ready until @p until or nothing is left. */
    void pump(std::chrono::steady_clock::time_point until,
              std::vector<Outcome> &out, uint64_t id_base,
              size_t *outstanding);

    std::vector<int> fds_;
    std::vector<std::string> buffers_;
};

} // namespace perfbench
