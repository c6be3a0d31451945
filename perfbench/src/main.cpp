/**
 * @file
 * The repo benchmark: one binary, three workloads, every end-to-end and
 * per-layer metric by name, outputs checked.
 *
 *   perfbench --workload <sweep|single-large|serve>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --tail-limit-ms <ms> [--work-dir <dir>]
 *
 * It drives the library only through public entry points and times
 * them from outside. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}, where metrics holds
 * every end-to-end metric (--trace 0) or every per-layer metric
 * (--trace 1). See perfbench/README.md for what each metric means on
 * each workload and which end-to-end metric each layer should move.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "driver/engine_factory.hpp"
#include "driver/sweep_driver.hpp"
#include "driver/workload_cache.hpp"
#include "gcn/runner.hpp"
#include "gcn/workload.hpp"
#include "graph/datasets.hpp"
#include "logic.hpp"
#include "mem/traffic.hpp"
#include "metrics.hpp"
#include "scaleout/runner.hpp"
#include "scaleout/shard.hpp"
#include "serve/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/work_pool.hpp"

namespace pb = perfbench;
using namespace grow;

namespace {

using Clock = std::chrono::steady_clock;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** Set-ups per serve run: its three small graphs build in well under
 *  0.1 s, so a median over many costs little and steadies setup_s. */
constexpr int kServeSetups = 15;
/** Engines of the sweep (Fig. 20/26 set). */
const std::vector<std::string> kSweepEngines = {"grow", "grow-nogp", "gcnax",
                                                "gamma", "matraptor"};
/** Open-loop rate of the serve workload's fixed-rate phase (1/s). */
constexpr double kServeRate = 12.0;
/** Seconds each ladder probe offers load for. */
constexpr double kLadderStepS = 4.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1000.0;
}

double
median(std::vector<double> v)
{
    return pb::nearestRank(std::move(v), 50);
}

uint32_t
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double tailLimitMs = 0.0;
    std::string workDir = ".";
};

/** One pass over a workload: metrics by name plus check accounting. */
struct Pass
{
    std::map<std::string, double> m;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::string> notes;

    /** Count one operation or check; a false @p ok is a failure. */
    void count(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            failures.push_back(what);
        }
    }
    void note(const std::string &line) { notes.push_back(line); }
};

std::string
fmt(double v, int prec = 4)
{
    std::ostringstream os;
    os.precision(prec);
    os << std::fixed << v;
    return os.str();
}

struct Ctx
{
    const Options &opt;
    pb::Tracer &tr;
    uint32_t threads;
};

// ---- shared pieces ------------------------------------------------

/** Build-stage accounting over the bundles one set-up built. */
struct BuildTotals
{
    double synth = 0, normalize = 0, partition = 0, relabel = 0, hdn = 0,
           total = 0, arcs = 0;

    void add(const BuildTotals &o)
    {
        synth += o.synth;
        normalize += o.normalize;
        partition += o.partition;
        relabel += o.relabel;
        hdn += o.hdn;
        total += o.total;
        arcs += o.arcs;
    }
    void add(const gcn::GraphArtifacts::BuildProfile &p)
    {
        synth += p.synthMs;
        normalize += p.normalizeMs;
        partition += p.partitionMs;
        relabel += p.relabelMs;
        hdn += p.hdnMs;
        total += p.totalMs;
        arcs += static_cast<double>(p.arcs);
    }
    void report(Pass &p) const
    {
        p.m["graph.synth_ms"] = synth;
        p.m["graph.normalize_ms"] = normalize;
        p.m["graph.edges_per_s"] = total > 0 ? arcs / (total / 1000.0) : 0;
        p.m["partition.partition_ms"] = partition;
        p.m["partition.relabel_ms"] = relabel;
        p.m["partition.hdn_ms"] = hdn;
    }
};

/**
 * cache.artifacts() under a span; a bundle built by this call also
 * gets its BuildProfile stages as derived child spans and totals.
 */
std::shared_ptr<const gcn::GraphArtifacts>
artifactsTraced(Ctx &cx, driver::WorkloadCache &cache,
                const graph::DatasetSpec &spec, const gcn::PartitionPlan &plan,
                uint64_t parent, BuildTotals *totals)
{
    pb::Scope span(cx.tr, "driver.cache.artifacts", parent);
    const double t0 = cx.tr.nowUs();
    const uint64_t before = cache.stats().builds;
    auto art = cache.artifacts(spec, graph::ScaleTier::Mini, plan);
    if (cache.stats().builds == before || !art->buildProfile.valid)
        return art;
    const auto &p = art->buildProfile;
    if (totals)
        totals->add(p);
    double at = t0;
    for (auto [name, ms] : {std::pair{"graph.synth", p.synthMs},
                            {"graph.normalize", p.normalizeMs},
                            {"partition.partition", p.partitionMs},
                            {"partition.relabel", p.relabelMs},
                            {"partition.hdn", p.hdnMs}}) {
        cx.tr.add(name, span.id(), at, at + ms * 1000.0);
        at += ms * 1000.0;
    }
    return art;
}

/** Per-phase cycles and traffic must sum to the inference totals. */
bool
phasesSumToTotals(const gcn::InferenceResult &r)
{
    Cycle cycles = 0, byOp = 0;
    mem::DramTraffic t;
    for (const auto &ph : r.phases) {
        cycles += ph.result.cycles;
        for (size_t c = 0; c < mem::kNumTrafficClasses; ++c) {
            t.readBytes[c] += ph.result.traffic.readBytes[c];
            t.writeBytes[c] += ph.result.traffic.writeBytes[c];
        }
    }
    byOp = r.combinationCycles + r.aggregationCycles + r.attentionCycles +
           r.haloCycles;
    return cycles == r.totalCycles && byOp == r.totalCycles &&
           t.readBytes == r.traffic.readBytes &&
           t.writeBytes == r.traffic.writeBytes;
}

bool
isGrowFamily(const std::string &engine)
{
    return engine.rfind("grow", 0) == 0;
}

/** Modeled and host-time layer accounting over GROW/baseline runs. */
struct EngineTotals
{
    double growCombMs = 0, growAggMs = 0, growRows = 0, growHostMs = 0;
    std::map<std::string, double> baselineMs;
    double combCycles = 0, aggCycles = 0, hits = 0, misses = 0;
    std::array<double, mem::kNumTrafficClasses> classBytes{};

    /** Host time of @p r; modeled counters too when @p modeled. */
    void add(const std::string &engine, const gcn::InferenceResult &r,
             bool modeled)
    {
        if (isGrowFamily(engine)) {
            for (const auto &ph : r.phases) {
                if (ph.op == gcn::PhaseOp::Combination)
                    growCombMs += ph.hostMillis;
                else if (ph.op == gcn::PhaseOp::Aggregation)
                    growAggMs += ph.hostMillis;
            }
            growRows += static_cast<double>(r.simRows);
            growHostMs += r.hostMillis;
        } else {
            baselineMs[engine] += r.hostMillis;
        }
        if (!modeled)
            return;
        combCycles += static_cast<double>(r.combinationCycles);
        aggCycles += static_cast<double>(r.aggregationCycles);
        hits += static_cast<double>(r.cacheHits);
        misses += static_cast<double>(r.cacheMisses);
        for (size_t c = 0; c < mem::kNumTrafficClasses; ++c)
            classBytes[c] += static_cast<double>(r.traffic.readBytes[c] +
                                                 r.traffic.writeBytes[c]);
    }

    void report(Pass &p) const
    {
        p.m["core.grow.comb_ms"] = growCombMs;
        p.m["core.grow.agg_ms"] = growAggMs;
        p.m["core.grow.rows_per_s"] =
            growHostMs > 0 ? growRows / (growHostMs / 1000.0) : 0;
        for (const char *e : {"gcnax", "gamma", "matraptor"}) {
            auto it = baselineMs.find(e);
            p.m[std::string("accel.") + e + "_ms"] =
                it == baselineMs.end() ? 0.0 : it->second;
        }
        p.m["core.comb_cycles"] = combCycles;
        p.m["core.agg_cycles"] = aggCycles;
        p.m["mem.hdn_hit_rate"] =
            hits + misses > 0 ? hits / (hits + misses) : 0.0;
        for (size_t c = 0; c < mem::kNumTrafficClasses; ++c)
            p.m[std::string("mem.dram_bytes.") +
                mem::trafficClassName(static_cast<mem::TrafficClass>(c))] =
                classBytes[c];
    }
};

void
reportCache(Pass &p, const driver::WorkloadCache &cache)
{
    const auto snap = cache.snapshot();
    p.m["driver.cache_builds"] = static_cast<double>(snap.counters.builds);
    p.m["driver.cache_hits"] = static_cast<double>(snap.reuses());
}

/** Run @p setup @p times times; setup_s is the median, the last is kept. */
template <typename S>
S
repeatSetup(Pass &p, const std::function<S()> &setup, int times = kSetups)
{
    std::vector<double> seconds;
    S kept;
    for (int i = 0; i < times; ++i) {
        kept = S(); // release the previous set-up before the next
        const auto t0 = Clock::now();
        kept = setup();
        seconds.push_back(secondsSince(t0));
    }
    p.m["setup_s"] = median(seconds);
    return kept;
}

void
latencyMetrics(Pass &p, const std::vector<double> &lat_ms,
               const std::string &what)
{
    p.m["op_p50_ms"] = pb::centralMean(lat_ms);
    const pb::TailStat t = pb::tail(lat_ms);
    p.m["op_tail_ms"] = t.value;
    if (lat_ms.size() <= 20) {
        std::string all;
        for (double v : lat_ms)
            all += " " + fmt(v, 1);
        p.note(what + " (ms):" + all);
    }
    p.note("op_tail_ms is p" + fmt(t.percentile, 1) + " of " +
           std::to_string(t.samples) + " " + what + " (" +
           std::to_string(t.beyond) + " beyond it" +
           (t.beyond < 10 ? "; fewer than 11 samples, so the maximum" : "") +
           ")");
}

// ---- sweep ----------------------------------------------------------

struct SweepSetup
{
    std::unique_ptr<driver::WorkloadCache> cache;
    std::vector<gcn::GcnWorkload> workloads;
    BuildTotals builds;
    double layerDataMs = 0;
};

/**
 * A cold set-up of the sweep: a fresh cache, every dataset's artefacts
 * and then its layer data, datasets concurrently and largest first.
 */
SweepSetup
setupSweep(Ctx &cx, const std::vector<pb::SweepInput> &inputs)
{
    SweepSetup s;
    s.cache = std::make_unique<driver::WorkloadCache>();
    s.cache->setBuildThreads(cx.threads);
    s.workloads.resize(inputs.size());
    std::vector<BuildTotals> builds(inputs.size());
    std::vector<double> layerMs(inputs.size());
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMu;
    pb::Scope span(cx.tr, "driver.setup");
    auto setupOne = [&] {
        for (size_t k; (k = next++) < inputs.size();) {
            const size_t i = inputs.size() - 1 - k;
            gcn::WorkloadConfig wc;
            wc.seed = inputs[i].featureSeed;
            auto art = artifactsTraced(
                cx, *s.cache, graph::datasetByName(inputs[i].dataset),
                wc.partitionPlan(), span.id(), &builds[i]);
            const auto t0 = Clock::now();
            pb::Scope ld(cx.tr, "gcn.layer_data", span.id());
            s.workloads[i] = gcn::buildLayerData(art, wc);
            layerMs[i] = msSince(t0);
        }
    };
    auto worker = [&] {
        try {
            setupOne();
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMu);
            if (!error)
                error = std::current_exception();
            next = inputs.size();
        }
    };
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < cx.threads; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
    for (size_t i = 0; i < inputs.size(); ++i) {
        s.builds.add(builds[i]);
        s.layerDataMs += layerMs[i];
    }
    return s;
}

/**
 * kSetups passes, each a cold set-up and then every point once; the
 * passes draw different feature seeds, so no simulation repeats. The
 * per-layer and modeled metrics describe the last pass.
 */
void
runSweep(Ctx &cx, Pass &p)
{
    std::vector<double> setupS, wallMs, pointsPerS;
    for (uint32_t pass = 0; pass < kSetups; ++pass) {
        const auto inputs = pb::sweepInputs(cx.opt.seed, pass);
        const bool last = pass + 1 == kSetups;
        const auto s0 = Clock::now();
        SweepSetup s = setupSweep(cx, inputs);
        setupS.push_back(secondsSince(s0));

        // Largest dataset first, so the longest points do not start last.
        std::vector<driver::SweepJob> jobs;
        std::vector<size_t> jobDataset;
        std::vector<Clock::time_point> starts(s.workloads.size() *
                                              kSweepEngines.size());
        for (size_t d = s.workloads.size(); d-- > 0;) {
            for (const auto &key : kSweepEngines) {
                auto job = driver::makeEngineJob(key, s.workloads[d]);
                const size_t i = jobs.size();
                job.makeEngine = [make = std::move(job.makeEngine), &starts,
                                  i] {
                    starts[i] = Clock::now();
                    return make();
                };
                jobs.push_back(std::move(job));
                jobDataset.push_back(d);
            }
        }
        driver::SweepDriver sweep(cx.threads);
        std::vector<driver::SweepOutcome> outs;
        const auto t0 = Clock::now();
        const uint64_t sweepSpan = cx.tr.begin("driver.sweep");
        try {
            outs = sweep.runAll(jobs);
        } catch (const std::exception &e) {
            p.failures.push_back(std::string("sweep: ") + e.what());
        }
        cx.tr.end(sweepSpan);
        const double wall = secondsSince(t0);
        wallMs.push_back(wall * 1000.0);
        pointsPerS.push_back(static_cast<double>(outs.size()) / wall);

        EngineTotals et;
        double busyMs = 0, modelCycles = 0, modelBytes = 0;
        std::map<std::string, double> growCycles, gcnaxCycles;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const std::string &key = kSweepEngines[i % kSweepEngines.size()];
            if (i >= outs.size()) {
                p.count(false, jobs[i].label + " did not complete");
                continue;
            }
            const auto &r = outs[i].inference;
            p.count(phasesSumToTotals(r),
                    jobs[i].label + ": per-phase sums differ from totals");
            busyMs += r.hostMillis;
            et.add(key, r, key == "grow");
            const double start = cx.tr.usAt(starts[i]);
            cx.tr.add((isGrowFamily(key) ? "core." : "accel.") + key,
                      sweepSpan, start, start + r.hostMillis * 1000.0);
            const std::string &ds = inputs[jobDataset[i]].dataset;
            if (key == "grow") {
                modelCycles += static_cast<double>(r.totalCycles);
                modelBytes += static_cast<double>(r.totalTrafficBytes());
                growCycles[ds] = static_cast<double>(r.totalCycles);
            } else if (key == "gcnax") {
                gcnaxCycles[ds] = static_cast<double>(r.totalCycles);
            }
        }
        if (!last)
            continue;

        p.m["peak_rss_mb"] = peakRssMb(); // before the after-the-fact checks
        s.builds.report(p);
        reportCache(p, *s.cache);
        p.m["gcn.layer_data_ms"] = s.layerDataMs;
        et.report(p);
        p.m["driver.busy_s"] = busyMs / 1000.0;
        p.m["driver.parallel_eff"] = busyMs / 1000.0 / (wall * cx.threads);
        p.m["model_cycles"] = modelCycles;
        p.m["model_dram_bytes"] = modelBytes;
        double logSum = 0;
        size_t ratios = 0;
        for (const auto &[ds, g] : growCycles) {
            if (gcnaxCycles.count(ds) && g > 0) {
                logSum += std::log(gcnaxCycles[ds] / g);
                ++ratios;
            }
        }
        p.m["model_speedup_vs_gcnax"] =
            ratios ? std::exp(logSum / ratios) : 0.0;

        // Lowering alone, once per point, outside the timed sweep.
        double planMs = 0;
        for (const auto &w : s.workloads) {
            for (const auto &key : kSweepEngines) {
                const auto spec = driver::engineByKey(key);
                gcn::RunOptions o;
                o.usePartitioning = spec.usePartitioning;
                o.mapping = std::make_shared<mapping::EngineMapping>(
                    spec.make()->mapping());
                const auto t1 = Clock::now();
                pb::Scope span(cx.tr, "gcn.plan");
                const auto plan = gcn::buildPhasePlan(w, o);
                planMs += msSince(t1);
            }
        }
        p.m["gcn.plan_ms"] = planMs;

        // Functional verification: every engine on cora and citeseer,
        // each phase checked against sparse::referenceSpMM inside
        // executePlan (a mismatch panics, which counts as a failed
        // check here).
        for (size_t d = 0; d < 2; ++d) {
            gcn::WorkloadConfig wc;
            wc.seed = inputs[d].featureSeed;
            wc.functionalData = true;
            const auto w = gcn::buildLayerData(s.workloads[d].artifacts, wc);
            for (const auto &key : kSweepEngines) {
                bool ok = false;
                std::string why;
                try {
                    const auto spec = driver::engineByKey(key);
                    auto sim = spec.make();
                    gcn::RunOptions o;
                    o.usePartitioning = spec.usePartitioning;
                    o.sim.functional = true;
                    const auto r = gcn::runInference(*sim, w, o);
                    ok = r.phases.size() == 2 * wc.numLayers;
                } catch (const std::exception &e) {
                    why = std::string(": ") + e.what();
                }
                p.count(ok,
                        "functional " + inputs[d].dataset + "/" + key + why);
            }
        }
    }
    p.m["setup_s"] = median(setupS);
    // A run's operations are its sweeps.
    p.m["ops_per_s"] = median(pointsPerS);
    latencyMetrics(p, wallMs, "sweeps");
    p.note("sweep_s = " + fmt(median(wallMs) / 1000.0) + " s (median of " +
           std::to_string(wallMs.size()) + " cold sweeps of " +
           std::to_string(kSweepEngines.size() * 8) + " points, threads=" +
           std::to_string(cx.threads) + ")");
}

// ---- single large inference -----------------------------------------

/** A cold set-up: a fresh cache and what it built. */
struct CacheSetup
{
    std::unique_ptr<driver::WorkloadCache> cache;
    BuildTotals builds;
    std::shared_ptr<const gcn::GraphArtifacts> art; ///< single-large only
};

/**
 * One operation is the same fresh-feature amazon inference on one chip
 * (epoch=auto) and then on four (default link), all cores inside each.
 */
void
runLarge(Ctx &cx, Pass &p)
{
    constexpr uint32_t kChips = 4;
    // The registry graph: --seed varies the feature seeds only.
    const graph::DatasetSpec &spec = graph::datasetByName("amazon");
    const gcn::WorkloadConfig base;
    auto s = repeatSetup<CacheSetup>(p, [&] {
        CacheSetup s;
        s.cache = std::make_unique<driver::WorkloadCache>();
        s.cache->setBuildThreads(cx.threads);
        pb::Scope span(cx.tr, "driver.setup");
        s.art = artifactsTraced(cx, *s.cache, spec, base.partitionPlan(),
                                span.id(), &s.builds);
        return s;
    });
    s.builds.report(p);
    reportCache(p, *s.cache);

    const auto growSpec = driver::engineByKey("grow");
    gcn::RunOptions one;
    one.usePartitioning = true;
    one.sim.threads = cx.threads;
    one.sim.epochAuto = true;
    one.mapping = std::make_shared<mapping::EngineMapping>(
        growSpec.make()->mapping());
    gcn::RunOptions four = one;
    four.sim.epochAuto = false;
    scaleout::EngineTopology topo("grow");
    topo.withChips(kChips);

    {
        const auto t0 = Clock::now();
        pb::Scope span(cx.tr, "scaleout.shard");
        const auto plan = scaleout::buildShardPlan(
            s.art->adjacencyPartitioned(), s.art->relabel().clustering,
            kChips);
        p.m["scaleout.shard_ms"] = msSince(t0);
        p.count(plan.chips == kChips, "shard plan chip count");
    }

    // Repetition 0 warms the process up (first-touch allocation, pool
    // start-up) and fixes the modeled metrics; it is not timed.
    std::vector<double> opMs, opLoopMs, layerMs, planMs, chip1Ms, chip4Ms,
        comb, agg, rows;
    gcn::InferenceResult first1, first4;
    double gcnaxMs = 0, gcnaxCycles = 0;
    double measuredS = 0;
    for (uint64_t rep = 0;
         rep < 4 || (measuredS < cx.opt.seconds && rep < 1000); ++rep) {
        const auto rep0 = Clock::now();
        gcn::WorkloadConfig wc = base;
        wc.seed = pb::mix(cx.opt.seed, 0xB00 + rep) % 1000003 + 1;
        auto t0 = Clock::now();
        gcn::GcnWorkload w;
        {
            pb::Scope span(cx.tr, "gcn.layer_data");
            w = gcn::buildLayerData(s.art, wc);
        }
        const double layer = msSince(t0);
        try {
            t0 = Clock::now();
            gcn::PhasePlan plan;
            {
                pb::Scope span(cx.tr, "gcn.plan");
                plan = gcn::buildPhasePlan(w, one);
            }
            const double planned = msSince(t0);
            auto sim = growSpec.make();
            t0 = Clock::now();
            gcn::InferenceResult r1;
            {
                pb::Scope span(cx.tr, "core.grow");
                r1 = gcn::executePlan(*sim, plan, one);
            }
            const double ms1 = msSince(t0);
            p.count(phasesSumToTotals(r1),
                    "chips=1: per-phase sums differ from totals");

            t0 = Clock::now();
            const uint64_t span = cx.tr.begin("scaleout.run");
            const double spanStart = cx.tr.nowUs();
            auto so = scaleout::runInference(topo, w, four);
            cx.tr.end(span);
            const double ms4 = msSince(t0);
            Bytes egress = 0;
            for (Bytes b : so.links.egressBytes)
                egress += b;
            p.count(egress == so.haloBytes &&
                        so.links.totalBytes == so.haloBytes,
                    "chips=4: link egress bytes differ from haloBytes");
            p.count(phasesSumToTotals(so.merged),
                    "chips=4: per-phase sums differ from totals");
            double maxC = 0, sumC = 0, at = spanStart;
            for (const auto &c : so.perChip) {
                maxC = std::max(maxC, static_cast<double>(c.totalCycles));
                sumC += static_cast<double>(c.totalCycles);
                cx.tr.add("core.grow.chip", span, at,
                          at + c.hostMillis * 1000.0);
                at += c.hostMillis * 1000.0;
            }
            p.count(true, "inference pair");

            if (rep == 0) {
                p.m["scaleout.halo_cycles"] =
                    static_cast<double>(so.haloCycles);
                p.m["scaleout.link_bytes"] =
                    static_cast<double>(so.links.totalBytes);
                p.m["scaleout.chip_imbalance"] =
                    sumC > 0 ? maxC / (sumC / so.perChip.size()) : 0;
                first1 = std::move(r1);
                first4 = std::move(so.merged);
                // The GCNAX baseline on the same features, for the
                // speed-up.
                auto gcnax = driver::engineByKey("gcnax").make();
                gcn::RunOptions go;
                go.sim.threads = cx.threads;
                pb::Scope gspan(cx.tr, "accel.gcnax");
                const auto g = gcn::runInference(*gcnax, w, go);
                gcnaxMs = g.hostMillis;
                gcnaxCycles = static_cast<double>(g.totalCycles);
                continue;
            }
            EngineTotals et;
            et.add("grow", r1, false);
            comb.push_back(et.growCombMs);
            agg.push_back(et.growAggMs);
            rows.push_back(et.growHostMs > 0
                               ? et.growRows / (et.growHostMs / 1000.0)
                               : 0);
            layerMs.push_back(layer);
            planMs.push_back(planned);
            chip1Ms.push_back(ms1);
            chip4Ms.push_back(ms4);
            opMs.push_back(ms1 + ms4);
            opLoopMs.push_back(msSince(rep0));
            measuredS += opLoopMs.back() / 1000.0;
        } catch (const std::exception &e) {
            p.count(false, std::string("inference pair: ") + e.what());
            break;
        }
    }

    p.m["ops_per_s"] =
        static_cast<double>(opLoopMs.size()) /
        (std::accumulate(opLoopMs.begin(), opLoopMs.end(), 0.0) / 1000.0);
    latencyMetrics(p, opMs, "inference pairs");
    p.m["gcn.layer_data_ms"] = median(layerMs);
    p.m["gcn.plan_ms"] = median(planMs);
    EngineTotals et; // modeled counters: the seed-determined chips=1 run
    et.add("grow", first1, true);
    et.report(p);
    p.m["core.grow.comb_ms"] = median(comb);
    p.m["core.grow.agg_ms"] = median(agg);
    p.m["core.grow.rows_per_s"] = median(rows);
    p.m["core.infer_ms.chips1"] = median(chip1Ms);
    p.m["scaleout.infer_ms.chips4"] = median(chip4Ms);
    p.m["model_cycles"] = static_cast<double>(first1.totalCycles) +
                          static_cast<double>(first4.totalCycles);
    p.m["model_dram_bytes"] =
        static_cast<double>(first1.totalTrafficBytes()) +
        static_cast<double>(first4.totalTrafficBytes());
    p.m["accel.gcnax_ms"] = gcnaxMs;
    p.m["model_speedup_vs_gcnax"] =
        first1.totalCycles > 0 ? gcnaxCycles /
                                     static_cast<double>(first1.totalCycles)
                               : 0.0;
    p.note("infer_s.chips1 = " + fmt(median(chip1Ms) / 1000.0) +
           " s, infer_s.chips4 = " + fmt(median(chip4Ms) / 1000.0) +
           " s (medians of " + std::to_string(opMs.size()) +
           " timed pairs after one warm-up pair, threads=" +
           std::to_string(cx.threads) + ")");
}

// ---- serve ------------------------------------------------------------

/** Canonical (dataset, engine, depth) of a request. */
std::string
comboOf(const serve::ServeRequest &r)
{
    return r.dataset + "/" + r.engine + "/" + std::to_string(r.depth);
}

void
runServe(Ctx &cx, Pass &p)
{
    // The registry graphs: --seed varies the schedule and the feature
    // seeds only, as a deployed model serves one graph.
    std::vector<graph::DatasetSpec> specs;
    for (const auto &name : pb::serveDatasets())
        specs.push_back(graph::datasetByName(name));
    const gcn::WorkloadConfig base;
    auto s = repeatSetup<CacheSetup>(p, [&] {
        CacheSetup s;
        s.cache = std::make_unique<driver::WorkloadCache>();
        s.cache->setBuildThreads(cx.threads);
        pb::Scope span(cx.tr, "driver.setup");
        for (const auto &spec : specs)
            artifactsTraced(cx, *s.cache, spec, base.partitionPlan(),
                            span.id(), &s.builds);
        return s;
    }, kServeSetups);
    s.builds.report(p);

    serve::Executor executor(*s.cache, specs, 1);
    serve::ServeMetrics metrics;
    serve::ServerConfig config;
    config.socketPath = cx.opt.workDir + "/serve-" +
                        std::to_string(::getpid()) + ".sock";
    config.maxInflight = cx.threads;
    config.pool = &util::WorkPool::shared();
    ::unlink(config.socketPath.c_str());
    struct RemoveSocket
    {
        std::string path;
        ~RemoveSocket() { ::unlink(path.c_str()); }
    } removeSocket{config.socketPath}; // outlives the daemon
    serve::ServeDaemon daemon(executor, config, metrics);
    std::string error;
    if (!daemon.start(&error))
        throw std::runtime_error("daemon: " + error);

    const double limit = cx.opt.tailLimitMs;
    std::vector<pb::Outcome> fixed;
    double genLag = 0, fixedS = 0;
    std::vector<std::string> ladderLines;
    double maxRps = 0;
    {
        pb::LoadClient client(config.socketPath, cx.threads);
        // Warm-up, not measured: one request per connection of each
        // heaviest tuple at once, so the daemon's threads and the
        // allocator reach their working size before the timed phases
        // (peak_rss_mb would otherwise follow the chance peak overlap).
        for (const auto &engine : pb::serveEngines()) {
            std::vector<pb::Arrival> burst(cx.threads);
            for (auto &a : burst) {
                a.tenant = "t0";
                a.tuple = {pb::serveDatasets().back(), engine,
                           pb::serveDepths().back(), 1};
            }
            for (const auto &o : client.run(burst, 1u << 30, 20.0, nullptr))
                p.count(o.ok(), "warm-up request not completed");
        }
        const auto schedule = pb::openLoopSchedule(
            pb::mix(cx.opt.seed, 1), kServeRate,
            static_cast<size_t>(kServeRate * cx.opt.seconds));
        p.m["serve.repeat_share"] = pb::repeatShare(schedule);
        // The fixed rate runs in two halves, one before the ladder and
        // one after it, so its latencies sample the shared host across
        // the whole run rather than one stretch of it.
        const size_t half = schedule.size() / 2;
        auto runFixed = [&](size_t from, size_t to) {
            std::vector<pb::Arrival> part(schedule.begin() + from,
                                          schedule.begin() + to);
            const int64_t base = from ? schedule[from - 1].dueUs : 0;
            for (auto &a : part)
                a.dueUs -= base;
            double lag = 0;
            for (auto &o : client.run(part, 1 + from, 20.0, &lag))
                fixed.push_back(std::move(o));
            genLag = std::max(genLag, lag);
            if (!part.empty())
                fixedS += static_cast<double>(part.back().dueUs) / 1e6;
        };
        runFixed(0, half);

        // Rate ladder over the fixed grid, searched from an estimate
        // of capacity: the daemon's threads kept busy by the fixed
        // phase's mean execution time, derated for contention.
        double execSum = 0;
        size_t execN = 0;
        for (const auto &o : fixed)
            if (o.ok()) {
                execSum += o.record.execMs;
                ++execN;
            }
        const auto &rates = pb::ladderRates();
        const double estimate =
            execN ? 0.75 * cx.threads * 1000.0 * execN / execSum : rates[0];
        const size_t start = static_cast<size_t>(
            std::lower_bound(rates.begin(), rates.end(), estimate) -
            rates.begin());
        int step = 0;
        const int best = pb::searchLadder(rates.size(), start, [&](size_t k) {
            const double rate = rates[k];
            const size_t n = std::max<size_t>(
                40, static_cast<size_t>(rate * kLadderStepS));
            // Evenly spaced arrivals in a fixed interleave: near
            // capacity, Poisson bursts or a run of heavy requests in a
            // short step would decide pass or fail by chance.
            const auto sched = pb::openLoopSchedule(
                pb::mix(cx.opt.seed, 100 + k), rate, n, true);
            double lag = 0;
            const uint64_t idBase = 1000000ull * (++step + 1);
            const auto outs = client.run(sched, idBase, 10.0, &lag);
            std::vector<pb::StepSample> samples;
            for (const auto &o : outs)
                samples.push_back(
                    {std::chrono::duration_cast<std::chrono::microseconds>(
                         o.due - outs.front().due)
                         .count(),
                     o.latencyMs()});
            const auto v = pb::evaluateStep(samples, limit);
            ladderLines.push_back(
                "ladder rate=" + fmt(rate, 2) + "/s attempted=" +
                std::to_string(v.attempted) + " succeeded=" +
                std::to_string(v.attempted - v.failed) + " failed=" +
                std::to_string(v.failed) +
                " p" + fmt(v.tail.percentile, 1) + "=" +
                fmt(v.tail.value, 2) + "ms backlog=" +
                (v.backlog ? "yes" : "no") + " gen_lag_max=" + fmt(lag, 2) +
                "ms -> " +
                (v.pass ? "pass" : "fail"));
            return v.pass;
        });
        maxRps = best < 0 ? 0.0 : rates[best];
        ladderLines.push_back(
            "ladder: highest passing rate " +
            (best < 0 ? std::string("none") : fmt(maxRps, 2) + "/s"));

        runFixed(half, schedule.size());
        for (size_t i = 0; i < fixed.size(); ++i) {
            const auto &o = fixed[i];
            if (!o.answered)
                continue;
            const double sent = cx.tr.usAt(o.sent);
            const double recv = cx.tr.usAt(o.received);
            const uint64_t req = cx.tr.add("serve.request", 0, sent, recv,
                                           i + 1);
            const double q = sent + o.record.queueMs() * 1000.0;
            cx.tr.add("serve.queue", req, sent, q, i + 1);
            cx.tr.add("serve.exec", req, q, q + o.record.execMs * 1000.0,
                      i + 1);
        }
    }
    daemon.requestStop();
    daemon.wait();
    p.m["peak_rss_mb"] = peakRssMb(); // before the after-the-fact checks
    reportCache(p, *s.cache);

    std::vector<double> lat, queue, exec, wire;
    double busyMs = 0;
    size_t rejected = 0, expired = 0, errors = 0, missing = 0;
    std::map<std::string, const pb::Outcome *> sample;
    for (const auto &o : fixed) {
        lat.push_back(o.latencyMs());
        p.count(o.ok(), "request " + (o.answered ? comboOf(o.record.request)
                                                 : std::string("?")) +
                            " not completed");
        if (!o.answered) {
            ++missing;
            continue;
        }
        switch (o.record.status) {
          case serve::RequestStatus::Completed:
            queue.push_back(o.record.queueMs());
            exec.push_back(o.record.execMs);
            wire.push_back(o.wireMs());
            busyMs += o.record.execMs;
            sample.emplace(comboOf(o.record.request), &o);
            break;
          case serve::RequestStatus::Expired: ++expired; break;
          case serve::RequestStatus::Error: ++errors; break;
          default: ++rejected; break;
        }
    }
    latencyMetrics(p, lat, "requests at " + fmt(kServeRate, 1) + "/s");
    p.m["ops_per_s"] = maxRps;
    p.m["serve.queue_ms.p50"] = pb::nearestRank(queue, 50);
    p.m["serve.queue_ms.p99"] = pb::nearestRank(queue, 99);
    p.m["serve.exec_ms.p50"] = pb::nearestRank(exec, 50);
    p.m["serve.exec_ms.p99"] = pb::nearestRank(exec, 99);
    p.m["serve.wire_ms.p50"] = pb::nearestRank(wire, 50);
    p.m["serve.rejected"] = static_cast<double>(rejected);
    p.m["serve.expired"] = static_cast<double>(expired);
    p.m["serve.errors"] = static_cast<double>(errors + missing);
    p.m["serve.gen_lag_ms.max"] = genLag;
    const auto snap = s.cache->snapshot();
    p.m["serve.cache_hit_ratio"] =
        static_cast<double>(snap.reuses()) /
        std::max<double>(1, snap.reuses() + snap.counters.builds);
    if (!fixed.empty()) {
        p.m["driver.busy_s"] = busyMs / 1000.0;
        p.m["driver.parallel_eff"] =
            busyMs / 1000.0 / (std::max(fixedS, 1e-9) * cx.threads);
    }
    p.note("fixed rate " + fmt(kServeRate, 1) + "/s: attempted=" +
           std::to_string(fixed.size()) + " succeeded=" +
           std::to_string(exec.size()) + " failed=" +
           std::to_string(fixed.size() - exec.size()) +
           " gen_lag_max=" + fmt(genLag, 2) + "ms repeat_share=" +
           fmt(p.m["serve.repeat_share"], 3) + " exec_p50=" +
           fmt(p.m["serve.exec_ms.p50"], 2) + "ms queue_p50=" +
           fmt(p.m["serve.queue_ms.p50"], 2) + "ms");
    p.note("serve_p50_ms = " + fmt(p.m["op_p50_ms"]) + " ms, serve_tail_ms = " +
           fmt(p.m["op_tail_ms"]) + " ms (limit " + fmt(limit, 1) +
           " ms), serve_max_rps = " + fmt(maxRps) + " 1/s");
    for (const auto &l : ladderLines)
        p.note(l);

    // Daemon digests against direct Executor::run on the same tuples:
    // the first completed request of every (dataset, engine, depth).
    for (const auto &[combo, o] : sample) {
        const auto direct = executor.run(o->record.request);
        p.count(direct.ok && serve::digestLine(o->record.request,
                                               direct.digest) ==
                                 serve::digestLine(o->record.request,
                                                   o->record.digest),
                "digest mismatch " + combo);
    }

    // The same decomposed through the public layers, on a canonical
    // tuple per (dataset, engine, depth): layer data, lowering and
    // simulation timed apart; modeled metrics from the GROW ones.
    std::vector<double> layerMs, planMs;
    EngineTotals et;
    double modelCycles = 0, modelBytes = 0, logSum = 0;
    size_t pairs = 0;
    for (const auto &spec : specs) {
        for (uint32_t depth : pb::serveDepths()) {
            std::map<std::string, Cycle> cycles;
            const uint64_t featureSeed =
                pb::mix(cx.opt.seed, 0xC00 + depth) % 1000003 + 1;
            for (const auto &key : pb::serveEngines()) {
                serve::ServeRequest req;
                req.dataset = spec.name;
                req.engine = key;
                req.depth = depth;
                req.seed = featureSeed;
                gcn::WorkloadConfig wc;
                wc.numLayers = depth;
                wc.seed = featureSeed;
                const auto es = driver::engineByKey(key);
                auto sim = es.make();
                gcn::RunOptions o;
                o.usePartitioning = es.usePartitioning;
                o.mapping =
                    std::make_shared<mapping::EngineMapping>(sim->mapping());
                const auto art = artifactsTraced(
                    cx, *s.cache, spec, wc.partitionPlan(), 0, nullptr);
                auto t0 = Clock::now();
                gcn::GcnWorkload w;
                {
                    pb::Scope span(cx.tr, "gcn.layer_data");
                    w = gcn::buildLayerData(art, wc);
                }
                layerMs.push_back(msSince(t0));
                t0 = Clock::now();
                gcn::PhasePlan plan;
                {
                    pb::Scope span(cx.tr, "gcn.plan");
                    plan = gcn::buildPhasePlan(w, o);
                }
                planMs.push_back(msSince(t0));
                gcn::InferenceResult r;
                {
                    pb::Scope span(cx.tr, isGrowFamily(key) ? "core.grow"
                                                            : "accel." + key);
                    r = gcn::executePlan(*sim, plan, o);
                }
                et.add(key, r, key == "grow");
                p.count(phasesSumToTotals(r),
                        comboOf(req) + ": per-phase sums differ from totals");
                const auto direct = executor.run(req);
                p.count(direct.ok && direct.digest.cycles == r.totalCycles &&
                            direct.digest.dramBytes == r.totalTrafficBytes(),
                        comboOf(req) + ": layered run differs from Executor");
                cycles[key] = r.totalCycles;
                if (key == "grow") {
                    modelCycles += static_cast<double>(r.totalCycles);
                    modelBytes += static_cast<double>(r.totalTrafficBytes());
                }
            }
            if (cycles["grow"] > 0 && cycles["gcnax"] > 0) {
                logSum += std::log(static_cast<double>(cycles["gcnax"]) /
                                   static_cast<double>(cycles["grow"]));
                ++pairs;
            }
        }
    }
    et.report(p);
    p.m["gcn.layer_data_ms"] = median(layerMs);
    p.m["gcn.plan_ms"] = median(planMs);
    p.m["model_cycles"] = modelCycles;
    p.m["model_dram_bytes"] = modelBytes;
    p.m["model_speedup_vs_gcnax"] = pairs ? std::exp(logSum / pairs) : 0.0;
}

// ---- driver -----------------------------------------------------------

Pass
runWorkload(const Options &opt, pb::Tracer &tr)
{
    Ctx cx{opt, tr, hostThreads()};
    Pass p;
    for (const auto &d : pb::perLayerMetrics())
        p.m[d.name] = 0.0;
    if (opt.workload == "sweep")
        runSweep(cx, p);
    else if (opt.workload == "single-large")
        runLarge(cx, p);
    else if (opt.workload == "serve")
        runServe(cx, p);
    else
        throw std::runtime_error("unknown workload '" + opt.workload + "'");
    if (!p.m.count("peak_rss_mb"))
        p.m["peak_rss_mb"] = peakRssMb();
    p.note("model_speedup_vs_gcnax = " + fmt(p.m["model_speedup_vs_gcnax"], 3) +
           "x (paper, Fig. 20: 2.8x over GCNAX; this model is not validated "
           "against hardware)");
    return p;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + key);
        const std::string val = argv[++i];
        seen.insert(key);
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--seconds")
            o.seconds = std::stod(val);
        else if (key == "--trace")
            o.trace = val == "1";
        else if (key == "--tail-limit-ms")
            o.tailLimitMs = std::stod(val);
        else if (key == "--work-dir")
            o.workDir = val;
        else
            throw std::runtime_error("unknown argument " + key);
    }
    for (const char *req : {"--workload", "--seed", "--seconds",
                            "--tail-limit-ms"})
        if (!seen.count(req))
            throw std::runtime_error(std::string("missing ") + req);
    if (o.seconds <= 0 || o.tailLimitMs <= 0)
        throw std::runtime_error("--seconds and --tail-limit-ms must be > 0");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    try {
        pb::Tracer untraced(false);
        Pass p = runWorkload(opt, untraced);
        const std::vector<pb::MetricDef> *defs = &pb::endToEndMetrics();
        if (opt.trace) {
            // Same seed again with spans on; the difference in op_p50_ms
            // is the tracing overhead.
            pb::Tracer tr(true);
            Pass t = runWorkload(opt, tr);
            const double base = p.m["op_p50_ms"];
            t.m["trace.overhead_pct"] =
                base > 0 ? (t.m["op_p50_ms"] - base) / base * 100.0 : 0.0;
            for (const auto &[layer, ms] : tr.selfMsByLayer())
                if (t.m.count(layer + ".self_ms"))
                    t.m[layer + ".self_ms"] = ms;
            const std::string path = opt.workDir + "/trace-" + opt.workload +
                                     "-" + std::to_string(opt.seed) + ".json";
            if (!tr.write(path))
                t.count(false, "cannot write " + path);
            t.note("trace: " + std::to_string(tr.spanCount()) +
                   " spans written to " + path);
            t.attempted += p.attempted;
            t.failed += p.failed;
            t.failures.insert(t.failures.end(), p.failures.begin(),
                              p.failures.end());
            p = std::move(t);
            defs = &pb::perLayerMetrics();
        }
        pb::printResult(std::cout, p.m, *defs, p.attempted, p.failed,
                        p.failures, p.notes);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
