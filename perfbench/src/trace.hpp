/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library (and, where the library reports a measured host time such
 * as a BuildProfile stage or a PhaseMetrics entry, as a derived child
 * laid out from its parent's start). They are kept in memory and
 * written once, at exit, as Chrome trace-event JSON, which opens in
 * Perfetto or chrome://tracing. A span's layer is its name up to the
 * first '.', which is the repo module it measures.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    /** A disabled tracer records nothing and costs one branch a call. */
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Microseconds since the tracer was constructed. */
    double nowUs() const;
    /** @p t in microseconds since the tracer was constructed. */
    double usAt(std::chrono::steady_clock::time_point t) const;

    /**
     * Open a span; returns its id (0 when disabled). Spans of one
     * serving request pass the same nonzero @p request id.
     */
    uint64_t begin(const std::string &name, uint64_t parent = 0,
                   uint64_t request = 0);
    void end(uint64_t id);

    /** Record a finished span with explicit bounds. */
    uint64_t add(const std::string &name, uint64_t parent, double start_us,
                 double end_us, uint64_t request = 0);

    size_t spanCount() const;

    /**
     * Self time per layer in ms: each span's duration minus the part
     * of it covered by the union of its children, summed by layer.
     */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write the spans as Chrome trace-event JSON. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0;
        uint64_t request = 0;
        uint64_t thread = 0;
        double startUs = 0.0;
        double endUs = -1.0; ///< < start while open
    };

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< spans_[id - 1]
};

/** RAII span: begin at construction, end at destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, uint64_t parent = 0,
          uint64_t request = 0)
        : t_(t), id_(t.begin(name, parent, request))
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t id() const { return id_; }

  private:
    Tracer &t_;
    uint64_t id_;
};

} // namespace perfbench
