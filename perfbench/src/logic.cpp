#include "logic.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "util/random.hpp"

namespace perfbench {

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples. */
size_t
rankOf(double p, size_t n)
{
    const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::min(n, static_cast<size_t>(std::max(1.0, r)));
}

} // namespace

double
nearestRank(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[rankOf(p, values.size()) - 1];
}

double
centralMean(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    const size_t lo = rankOf(40, n), hi = std::max(lo, rankOf(60, n));
    double sum = 0.0;
    for (size_t r = lo; r <= hi; ++r)
        sum += values[r - 1];
    return sum / static_cast<double>(hi - lo + 1);
}

double
tailPercentile(size_t n)
{
    for (double p : {99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 80.0, 75.0,
                     50.0})
        if (n >= rankOf(p, n) + 10)
            return p;
    return 100.0;
}

TailStat
tail(const std::vector<double> &values)
{
    TailStat t;
    t.samples = values.size();
    t.percentile = tailPercentile(values.size());
    t.value = nearestRank(values, t.percentile);
    t.beyond = values.size() - rankOf(t.percentile, values.size());
    return t;
}

std::vector<SweepInput>
sweepInputs(uint64_t seed, uint32_t pass)
{
    static const char *kDatasets[] = {"cora",   "citeseer", "pubmed",
                                      "flickr", "reddit",   "yelp",
                                      "pokec",  "amazon"};
    std::vector<SweepInput> out;
    uint64_t i = 0;
    for (const char *name : kDatasets) {
        out.push_back({name, mix(seed, 16 * pass + i) % 1000003 + 1});
        ++i;
    }
    return out;
}

bool
Tuple::operator<(const Tuple &o) const
{
    return std::tie(dataset, engine, depth, featureSeed) <
           std::tie(o.dataset, o.engine, o.depth, o.featureSeed);
}

const std::vector<std::string> &
serveDatasets()
{
    static const std::vector<std::string> v = {"cora", "citeseer", "pubmed"};
    return v;
}

const std::vector<std::string> &
serveEngines()
{
    static const std::vector<std::string> v = {"grow", "gcnax"};
    return v;
}

const std::vector<uint32_t> &
serveDepths()
{
    static const std::vector<uint32_t> v = {2, 3};
    return v;
}

std::vector<Arrival>
openLoopSchedule(uint64_t seed, double rate, size_t count, bool steady)
{
    const auto &ds = serveDatasets();
    const auto &es = serveEngines();
    const auto &dp = serveDepths();
    const size_t combos = ds.size() * es.size() * dp.size();
    // Zipf(1) popularity over a per-combination pool of feature seeds,
    // sized so that about half the requests repeat an earlier tuple.
    const size_t pool = std::max<size_t>(4, count / combos);
    std::vector<double> cdf(pool);
    double acc = 0.0;
    for (size_t k = 0; k < pool; ++k)
        cdf[k] = acc += 1.0 / static_cast<double>(k + 1);

    grow::Rng rng(mix(seed, 0x5E7E));
    std::vector<size_t> order(combos);
    std::vector<Arrival> out;
    out.reserve(count);
    double t = 0.0;
    for (size_t i = 0; i < count; ++i) {
        // Every block of `combos` requests holds each (dataset, engine,
        // depth) once: the mix is the same for every seed, so seeds
        // differ in timing, order and feature seeds only. In index
        // order the dataset varies fastest.
        if (i % combos == 0) {
            for (size_t c = 0; c < combos; ++c)
                order[c] = c;
            for (size_t c = combos - 1; !steady && c > 0; --c)
                std::swap(order[c], order[rng.bounded(c + 1)]);
        }
        const size_t c = order[i % combos];
        const double u = rng.uniform();
        t += steady ? 1.0 / rate : -std::log(1.0 - u) / rate;
        Arrival a;
        a.dueUs = static_cast<int64_t>(t * 1e6);
        a.tenant = rng.bounded(4) < 3 ? "t0" : "t1";
        a.tuple.dataset = ds[c % ds.size()];
        a.tuple.engine = es[(c / ds.size()) % es.size()];
        a.tuple.depth = dp[c / (ds.size() * es.size())];
        const size_t k = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * acc) -
            cdf.begin());
        a.tuple.featureSeed =
            mix(seed, 0x7000 + c * pool + std::min(k, pool - 1)) % 1000003 + 1;
        out.push_back(std::move(a));
    }
    return out;
}

double
repeatShare(const std::vector<Arrival> &schedule)
{
    if (schedule.empty())
        return 0.0;
    std::set<Tuple> seen;
    size_t repeats = 0;
    for (const auto &a : schedule)
        repeats += seen.insert(a.tuple).second ? 0 : 1;
    return static_cast<double>(repeats) /
           static_cast<double>(schedule.size());
}

StepVerdict
evaluateStep(const std::vector<StepSample> &samples, double limit_ms)
{
    StepVerdict v;
    v.attempted = samples.size();
    std::vector<double> lat;
    lat.reserve(samples.size());
    for (const auto &s : samples) {
        lat.push_back(s.latencyMs);
        v.failed += std::isfinite(s.latencyMs) ? 0 : 1;
    }
    v.tail = tail(lat);

    std::vector<StepSample> byDue = samples;
    std::sort(byDue.begin(), byDue.end(),
              [](const StepSample &a, const StepSample &b) {
                  return a.dueUs < b.dueUs;
              });
    const size_t q = byDue.size() / 4;
    if (q > 0) {
        std::vector<double> first, last;
        for (size_t i = 0; i < q; ++i) {
            first.push_back(byDue[i].latencyMs);
            last.push_back(byDue[byDue.size() - 1 - i].latencyMs);
        }
        const double a = nearestRank(first, 50);
        const double b = nearestRank(last, 50);
        v.backlog = b > 2.0 * a && b - a > 0.25 * limit_ms;
    }
    v.pass = !samples.empty() && v.tail.value <= limit_ms && !v.backlog;
    return v;
}

const std::vector<double> &
ladderRates()
{
    static const std::vector<double> rates = [] {
        std::vector<double> r;
        for (double x = 4.0; x <= 500.0; x *= 1.05)
            r.push_back(x);
        return r;
    }();
    return rates;
}

int
searchLadder(size_t n, size_t start,
             const std::function<bool(size_t)> &probe)
{
    int lo = -1;                  // highest index known to pass
    int hi = static_cast<int>(n); // lowest index known to fail
    if (n == 0)
        return lo;
    int k = std::min(static_cast<int>(start), hi - 1);
    const bool up = probe(static_cast<size_t>(k));
    (up ? lo : hi) = k;
    for (int step = 1; hi - lo > 1; step *= 2) {
        k = up ? std::min(lo + step, hi - 1) : std::max(hi - step, lo + 1);
        const bool pass = probe(static_cast<size_t>(k));
        (pass ? lo : hi) = k;
        if (pass != up)
            break; // bracketed
    }
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        (probe(static_cast<size_t>(mid)) ? lo : hi) = mid;
    }
    return lo;
}

} // namespace perfbench
