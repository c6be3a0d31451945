#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowUs() const
{
    return usAt(std::chrono::steady_clock::now());
}

double
Tracer::usAt(std::chrono::steady_clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

uint64_t
Tracer::begin(const std::string &name, uint64_t parent, uint64_t request)
{
    if (!enabled_)
        return 0;
    const double now = nowUs();
    const uint64_t thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, spans_.size() + 1, parent, request, thread, now,
                      -1.0});
    return spans_.size();
}

void
Tracer::end(uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    const double now = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].endUs = now;
}

uint64_t
Tracer::add(const std::string &name, uint64_t parent, double start_us,
            double end_us, uint64_t request)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t thread =
        parent ? spans_[parent - 1].thread
               : std::hash<std::thread::id>{}(std::this_thread::get_id());
    spans_.push_back({name, spans_.size() + 1, parent, request, thread,
                      start_us, std::max(start_us, end_us)});
    return spans_.size();
}

size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const auto &s : spans_)
        if (s.parent != 0 && s.endUs >= s.startUs)
            children[s.parent - 1].push_back({s.startUs, s.endUs});

    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endUs < s.startUs)
            continue;
        // Union of the children's intervals clipped to the span.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0, curLo = 0.0, curHi = -1.0;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, s.startUs);
            hi = std::min(hi, s.endUs);
            if (hi <= lo)
                continue;
            if (lo > curHi) {
                covered += std::max(0.0, curHi - curLo);
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        covered += std::max(0.0, curHi - curLo);
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += (s.endUs - s.startUs - covered) / 1000.0;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    if (!os)
        return false;
    // Thread hashes are remapped to small track numbers.
    std::map<uint64_t, uint64_t> tid;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto &s : spans_) {
        if (s.endUs < s.startUs)
            continue;
        const uint64_t track = tid.emplace(s.thread, tid.size() + 1)
                                   .first->second;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                      "\"dur\":%.3f",
                      static_cast<unsigned long long>(track), s.startUs,
                      s.endUs - s.startUs);
        os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
           << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
           << "\"," << buf << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"request\":" << s.request
           << "}}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
