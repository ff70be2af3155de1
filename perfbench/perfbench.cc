/**
 * @file
 * perfbench — host-time benchmark of the serving simulator.
 *
 * One process runs one workload (fleet_day, wide_pool, chaos_traced;
 * see README.md beside this file) through the public API:
 * Cluster::a100 + ServingSimulator construction, step() until it
 * returns false, finish(), then the flight-recorder exports. The
 * simulation is repeated for --seconds of wall time; the run-time
 * metrics are means over the repetitions and setup_s is the median of
 * set-up samples taken before each repetition.
 *
 * Every repetition's simulated report is digested and compared with
 * the digest pinned in digests.txt for the seed's input variant, and
 * conservation is checked; a windowed-core workload (fleet_day) is
 * also re-run at 1 worker and must reproduce the 2-worker digest.
 * Any failed check marks the run incorrect and counts every request
 * of the run as failed.
 *
 * --trace 1 follows every repetition with a traced one (spans around
 * every public call, plus the simulator's own selfProfile fields)
 * and a layer replay that drives one ServingEngine directly
 * (arrivals -> planStep -> executeStep -> commitStep -> takeFinished
 * -> ServingMetrics::record) so the batcher, pricing and metrics
 * layers get their own busy times.
 *
 * The last stdout line is the JSON result:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/error.hh"
#include "model/config.hh"
#include "obs/metrics.hh"
#include "obs/req_trace.hh"
#include "obs/trace.hh"
#include "serve/arrival.hh"
#include "serve/engine.hh"
#include "serve/request.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    LAER_CHECK(!v.empty(), "median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile; 0 for no samples. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
mean(const std::vector<double> &v)
{
    LAER_CHECK(!v.empty(), "mean of no samples");
    return sum(v) / static_cast<double>(v.size());
}

// ---- workloads -----------------------------------------------------

/**
 * One benchmark workload. The cluster is kept as its shape so that
 * building it falls inside the timed set-up.
 */
struct Workload
{
    std::string name;
    int nodes = 1; //!< 8-device A100 nodes
    laer::ServingConfig config;
    /** MetricsRegistry attached, snapshotting every 1 simulated s. */
    bool registry = false;
    /** TraceRecorder + 1-in-16 ReqTraceRecorder attached, and the
     * trace and metrics files written after the run. */
    bool flightRecorder = false;
    /** Layer replay: arrival rate relative to the whole run, and
     * whether the replayed pool runs prompts only (the prefill pool
     * of a disaggregated run). */
    double replayRateScale = 1.0;
    bool replayPrefillOnly = false;
};

/** fig15's day: 8 replicas of 8 devices on the windowed core. */
Workload
fleetDay(std::uint64_t variant)
{
    Workload w;
    w.name = "fleet_day";
    w.nodes = 8;
    w.registry = true;
    w.replayRateScale = 1.0 / 8.0;
    laer::ServingConfig &cfg = w.config;
    cfg.model = laer::mixtral8x7bE8K2();
    cfg.policy = laer::ServingPolicy::LaerServe;
    cfg.capacity = 2;
    cfg.simulatedLayers = 1;
    cfg.retunePeriod = 64;
    cfg.tuner.fastScoring = true;
    cfg.threads = 2;
    cfg.desParallel = true;
    cfg.replicas.replicaDevices = 8;
    cfg.metricsMode = laer::MetricsMemoryMode::Streaming;
    cfg.horizon = 25.0;
    cfg.arrival.kind = laer::ArrivalKind::Diurnal;
    cfg.arrival.ratePerSec = 2600.0;
    cfg.arrival.diurnalPeriod = cfg.horizon;
    cfg.arrival.diurnalAmplitude = 0.7;
    cfg.arrival.meanPrefillTokens = 96;
    cfg.arrival.meanDecodeTokens = 24;
    cfg.arrival.numSloClasses = 2;
    cfg.arrival.seed = 15 + 2 * variant;
    cfg.batcher.tokenBudget = 8192;
    cfg.batcher.maxRunning = 512;
    cfg.batcher.numSloClasses = 2;
    cfg.routing.sparseDraw = true;
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.tunerBudgetMs = 30.0;
    cfg.seed = 16 + 2 * variant;
    return w;
}

/** One LaerServe engine over 512 devices on the serial core. */
Workload
widePool(std::uint64_t variant)
{
    Workload w;
    w.name = "wide_pool";
    w.nodes = 64;
    laer::ServingConfig &cfg = w.config;
    cfg.model = laer::mixtral8x7bE8K2();
    cfg.policy = laer::ServingPolicy::LaerServe;
    cfg.capacity = 2;
    cfg.simulatedLayers = 4;
    cfg.arrival.kind = laer::ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 40.0;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.minPrefillTokens = 512;
    cfg.arrival.minDecodeTokens = 64;
    cfg.arrival.seed = 7 + 2 * variant;
    // 48 requests over 1.2 s in every variant (40 req/s on average):
    // the variant's Poisson gaps are scaled so that the 48th arrival
    // lands at 1.2 s, and the horizon closes just after it. Neither
    // the step count (wall_s) nor the request count (req_per_wall_s)
    // then follows one seed's Poisson count.
    auto arrival48 = [](const laer::ArrivalConfig &ac) {
        laer::ArrivalProcess arrivals(ac);
        for (int i = 1; i < 48; ++i)
            arrivals.next();
        return arrivals.next().arrival;
    };
    cfg.arrival.ratePerSec *= arrival48(cfg.arrival) / 1.2;
    cfg.horizon = std::nextafter(arrival48(cfg.arrival), HUGE_VAL);
    cfg.batcher.tokenBudget = 16384;
    cfg.batcher.maxRunning = 512;
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.retunePeriod = 16;
    cfg.tuner.fastScoring = true;
    cfg.threads = 2;
    cfg.tunerBudgetMs = 30.0;
    cfg.seed = 5 + 2 * variant;
    return w;
}

/** Disaggregated 8+8 under tight KV, link faults and a straggler,
 * with the whole flight recorder attached. */
Workload
chaosTraced(std::uint64_t variant)
{
    Workload w;
    w.name = "chaos_traced";
    w.nodes = 2;
    w.registry = true;
    w.flightRecorder = true;
    w.replayPrefillOnly = true;
    laer::ServingConfig &cfg = w.config;
    cfg.model = laer::mixtral8x7bE8K2();
    cfg.policy = laer::ServingPolicy::Disaggregated;
    cfg.disagg.prefillDevices = 8;
    cfg.capacity = 2;
    cfg.simulatedLayers = 4;
    cfg.horizon = 40.0;
    cfg.sloTtft = 0.5;
    cfg.arrival.kind = laer::ArrivalKind::Diurnal;
    cfg.arrival.ratePerSec = 35.0;
    cfg.arrival.diurnalPeriod = cfg.horizon;
    cfg.arrival.diurnalAmplitude = 0.7;
    cfg.arrival.meanPrefillTokens = 512;
    cfg.arrival.meanDecodeTokens = 64;
    cfg.arrival.minPrefillTokens = 512;
    cfg.arrival.minDecodeTokens = 64;
    cfg.arrival.seed = 17 + 2 * variant;
    cfg.batcher.tokenBudget = 16384;
    cfg.batcher.prefillChunk = 1024;
    cfg.hbmPerDevice = static_cast<laer::Bytes>(12.65 * (1LL << 30));
    cfg.routing.skew = 1.2;
    cfg.routing.drift = 0.98;
    cfg.routing.deviceJitter = 0.15;
    cfg.retunePeriod = 16;
    cfg.tunerBudgetMs = 30.0;
    cfg.threads = 1;
    cfg.seed = 16 + 2 * variant;
    const double h = cfg.horizon;
    using laer::FaultKind;
    cfg.faults.events = {
        {0.15 * h, FaultKind::LinkDegrade, 0, 3.0},
        {0.30 * h, FaultKind::LinkUp, 0, 1.0},
        {0.50 * h, FaultKind::LinkDown, 0, 1.0},
        {0.55 * h, FaultKind::LinkUp, 0, 1.0},
        {0.80 * h, FaultKind::LinkDown, 0, 1.0},
        {0.85 * h, FaultKind::LinkUp, 0, 1.0},
        {0.35 * h, FaultKind::StragglerStart, 1, 2.0},
        {0.65 * h, FaultKind::StragglerEnd, 1, 1.0},
    };
    return w;
}

const std::vector<std::string> kWorkloads = {"fleet_day", "wide_pool",
                                             "chaos_traced"};

Workload
makeWorkload(const std::string &name, std::uint64_t variant)
{
    if (name == "fleet_day")
        return fleetDay(variant);
    if (name == "wide_pool")
        return widePool(variant);
    if (name == "chaos_traced")
        return chaosTraced(variant);
    laer::fatal("unknown workload '" + name +
                "' (fleet_day, wide_pool, chaos_traced)");
}

// ---- output check ----------------------------------------------------

/** The simulated statistics a faster simulator must reproduce. */
std::string
digestText(const laer::ServingReport &r)
{
    std::ostringstream os;
    char buf[40];
    auto num = [&](double x) {
        std::snprintf(buf, sizeof buf, "%.17g", x);
        os << buf << ' ';
    };
    os << r.offered << ' ' << r.completed << ' ' << r.sloMet << ' '
       << r.steps << ' ' << r.retunes << ' ' << r.preemptions << ' '
       << r.migrated << ' ' << r.kvTransferBytes << ' ';
    num(r.elapsed);
    num(r.ttftP50);
    num(r.ttftP90);
    num(r.ttftP99);
    num(r.tpotP50);
    num(r.tpotP99);
    num(r.throughputTps);
    num(r.goodputTps);
    const laer::AvailabilityReport &a = r.availability;
    os << a.faultsInjected << ' ' << a.repairs << ' ' << a.requestsRetried
       << ' ' << a.requestsFailed << ' ' << a.transfersAborted << ' ';
    num(a.degradedSeconds);
    num(a.degradedGoodputTps);
    return os.str();
}

/** 64-bit FNV-1a of the digest text, as 16 hex digits. */
std::string
digestHash(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Pinned digests per workload, indexed by input variant. */
using Pins = std::map<std::string, std::vector<std::string>>;

Pins
loadPins(const std::string &path)
{
    Pins pins;
    std::ifstream in(path);
    LAER_CHECK(in.good(), "cannot read pinned digests " << path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, hash;
        std::size_t variant = 0;
        LAER_CHECK(static_cast<bool>(fields >> name >> variant >> hash),
                   "malformed digest line '" << line << "'");
        std::vector<std::string> &list = pins[name];
        LAER_CHECK(variant == list.size(),
                   "digest variants of " << name
                                         << " must be listed 0, 1, 2, ...");
        list.push_back(hash);
    }
    return pins;
}

// ---- one simulation ------------------------------------------------

/** Per-layer values of one traced repetition (name -> value). */
using LayerValues = std::map<std::string, double>;

struct RunResult
{
    laer::ServingReport report;
    std::string digest;
    std::vector<std::string> violations;
    double setupS = 0.0;
    double wallS = 0.0;
    double exportS = 0.0;
    double exportBytes = 0.0;
    LayerValues layers; //!< traced runs only
};

std::uintmax_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t n = std::filesystem::file_size(path, ec);
    LAER_CHECK(!ec, "cannot stat " << path);
    return n;
}

/** The recorders a workload attaches; they must outlive the run. */
struct Recorders
{
    std::unique_ptr<laer::MetricsRegistry> registry;
    std::unique_ptr<laer::TraceRecorder> trace;
    std::unique_ptr<laer::ReqTraceRecorder> reqTrace;
};

/** The workload's config with its recorders attached. */
laer::ServingConfig
instrumented(const Workload &w, Recorders &rec, bool traced)
{
    laer::ServingConfig cfg = w.config;
    if (w.registry) {
        rec.registry = std::make_unique<laer::MetricsRegistry>();
        cfg.metricsRegistry = rec.registry.get();
        cfg.snapshotInterval = 1.0;
    }
    if (w.flightRecorder) {
        rec.trace = std::make_unique<laer::TraceRecorder>();
        laer::ReqTraceConfig rc;
        rc.sampleEvery = 16;
        rec.reqTrace = std::make_unique<laer::ReqTraceRecorder>(rc);
        cfg.trace = rec.trace.get();
        cfg.reqTrace = rec.reqTrace.get();
    }
    cfg.selfProfile = traced;
    return cfg;
}

/** Seconds to build the cluster and the simulator, nothing else. */
double
timeSetup(const Workload &w)
{
    Recorders rec;
    const laer::ServingConfig cfg = instrumented(w, rec, false);
    const Clock::time_point t0 = Clock::now();
    const laer::Cluster cluster = laer::Cluster::a100(w.nodes);
    const laer::ServingSimulator sim(cluster, cfg);
    return secondsSince(t0);
}

/**
 * Set up, run, finish and export one simulation of `w`.
 * @param traced  Time every public call and turn on selfProfile.
 */
RunResult
runSimulation(const Workload &w, const std::string &out_dir, bool traced)
{
    Recorders rec;
    const laer::ServingConfig cfg = instrumented(w, rec, traced);
    laer::MetricsRegistry *registry = rec.registry.get();
    laer::TraceRecorder *trace = rec.trace.get();

    RunResult res;
    const Clock::time_point t0 = Clock::now();
    const laer::Cluster cluster = laer::Cluster::a100(w.nodes);
    laer::ServingSimulator sim(cluster, cfg);
    res.setupS = secondsSince(t0);

    const Clock::time_point t1 = Clock::now();
    double finish_s = 0.0;
    if (!traced) {
        while (sim.step()) {
        }
        res.report = sim.finish();
    } else {
        std::vector<double> step_us;
        std::size_t useful = 0;
        for (;;) {
            const std::size_t before = sim.stepResults().size();
            const Clock::time_point s0 = Clock::now();
            const bool more = sim.step();
            step_us.push_back(1e6 * secondsSince(s0));
            if (sim.stepResults().size() > before)
                ++useful;
            if (!more)
                break;
        }
        const Clock::time_point f0 = Clock::now();
        res.report = sim.finish();
        finish_s = secondsSince(f0);
        LayerValues &l = res.layers;
        l["core.step.calls"] = static_cast<double>(step_us.size());
        l["core.step.busy_s"] = 1e-6 * sum(step_us);
        l["core.step.us_p50"] = percentile(step_us, 50.0);
        l["core.step.us_p99"] = percentile(step_us, 99.0);
        l["core.step.useful_share"] =
            static_cast<double>(useful) /
            static_cast<double>(step_us.size());
    }
    res.wallS = secondsSince(t1);

    double trace_write_ms = 0.0, metrics_write_ms = 0.0;
    double trace_bytes = 0.0;
    if (w.flightRecorder) {
        const std::string trace_path =
            out_dir + "/" + w.name + ".trace.json";
        const std::string metrics_path =
            out_dir + "/" + w.name + ".metrics.jsonl";
        std::filesystem::remove(metrics_path);
        const Clock::time_point e0 = Clock::now();
        trace->writeFile(trace_path);
        const Clock::time_point e1 = Clock::now();
        registry->appendJsonlFile(metrics_path, w.name);
        const Clock::time_point e2 = Clock::now();
        res.exportS = std::chrono::duration<double>(e2 - e0).count();
        trace_write_ms = 1e3 * std::chrono::duration<double>(e1 - e0).count();
        metrics_write_ms =
            1e3 * std::chrono::duration<double>(e2 - e1).count();
        trace_bytes = static_cast<double>(fileBytes(trace_path));
        res.exportBytes =
            trace_bytes + static_cast<double>(fileBytes(metrics_path));
    }

    // ---- output check: digest + conservation -----------------------
    const laer::ServingReport &r = res.report;
    res.digest = digestHash(digestText(r));
    auto require = [&](bool ok, const std::string &what) {
        if (!ok)
            res.violations.push_back(what);
    };
    require(r.offered > 0, "no request offered");
    require(r.completed + r.availability.requestsFailed == r.offered,
            "completed + failed != offered");
    for (int i = 0; i < sim.numEngines(); ++i)
        require(!sim.engine(i).hasWork(),
                "pool " + sim.engine(i).slice().name + " not drained");
    require(sim.retryingNow() == 0, "retries still pending");
    if (w.config.faults.enabled()) {
        require(r.availability.transfersAborted >= 1,
                "no KV transfer aborted");
        require(r.availability.faultsInjected >= 1, "no fault applied");
    }

    if (traced) {
        LayerValues &l = res.layers;
        l["serve.setup_ms"] = 1e3 * res.setupS;
        l["serve.finish_ms"] = 1e3 * finish_s;
        l["obs.trace_write_ms"] = trace_write_ms;
        l["obs.metrics_write_ms"] = metrics_write_ms;
        l["obs.trace_events"] =
            trace ? static_cast<double>(trace->eventCount()) : 0.0;
        l["obs.trace_bytes"] = trace_bytes;
        l["serve.engine.pricing_ms"] = r.profStepPricingMs;
        l["planner.retune_ms"] = r.profRetuneMs;
        l["core.event_loop_ms"] = r.profEventLoopMs;
        l["planner.retunes"] = r.retunes;
        l["planner.retune_max_ms"] = r.retuneWallMaxMs;
        l["planner.budget_overruns"] = r.retuneBudgetOverruns;
        // Evictions of every pool's batcher: chaos_traced preempts in
        // its decode pool, which the prefill-pool replay never runs.
        l["serve.batcher.preemptions"] = static_cast<double>(r.preemptions);
        auto gauge = [&](const char *name) {
            return registry && registry->has(name)
                       ? registry->gauge(name).value()
                       : 0.0;
        };
        l["core.descore.fanout_ms"] = gauge("profile.descore.fanout_ms");
        l["core.descore.merge_ms"] = gauge("profile.descore.merge_ms");
        l["core.descore.worker_busy_ms"] =
            gauge("profile.descore.worker_busy_ms");
        l["core.descore.barrier_wait_ms"] =
            gauge("profile.descore.barrier_wait_ms");
        l["core.descore.windows"] = gauge("profile.descore.windows");
    }
    return res;
}

// ---- layer replay ----------------------------------------------------

/** Offered/completed requests of a replay plus its layer values. */
struct ReplayResult
{
    std::int64_t offered = 0;
    std::int64_t completed = 0;
    LayerValues layers;
};

/**
 * Drive one engine of the workload directly: a copy of the first pool
 * of the workload's own simulator (one replica, or the prefill pool),
 * fed by the workload's arrival process at `replayRateScale` of its
 * rate. The simulator is only built, never stepped; it resolves the
 * engine configuration and owns the worker pool the copy uses.
 */
ReplayResult
replayLayers(const Workload &w)
{
    using namespace laer;
    const ServingConfig &cfg = w.config;
    const Cluster cluster = Cluster::a100(w.nodes);
    const ServingSimulator sim(cluster, cfg);
    EngineConfig ec = sim.engine(0).config();
    ec.metrics = nullptr;
    ServingEngine engine(sim.engine(0).slice(), ec);
    ArrivalConfig ac = cfg.arrival;
    ac.ratePerSec *= w.replayRateScale;
    ArrivalProcess arrivals(ac);
    ServingMetrics metrics(cfg.sloTtft, cfg.metricsMode);

    std::vector<double> plan_us, commit_us, exec_us;
    double arrival_s = 0.0, record_s = 0.0;
    std::int64_t arrival_calls = 0;
    double running_sum = 0.0, tokens_sum = 0.0;

    auto draw = [&]() {
        const Clock::time_point t0 = Clock::now();
        Request r = arrivals.next();
        arrival_s += secondsSince(t0);
        ++arrival_calls;
        return r;
    };

    ReplayResult res;
    Seconds now = 0.0;
    Request next = draw();
    for (;;) {
        while (next.arrival < cfg.horizon && next.arrival <= now) {
            Request r = next;
            if (w.replayPrefillOnly)
                r.decodeTokens = 1;
            engine.enqueue(r);
            ++res.offered;
            next = draw();
        }
        const bool more = next.arrival < cfg.horizon;
        if (!engine.hasWork()) {
            if (!more)
                break;
            now = next.arrival;
            continue;
        }
        Clock::time_point t0 = Clock::now();
        const BatchPlan plan = engine.planStep();
        plan_us.push_back(1e6 * secondsSince(t0));
        engine.takePreempted(); // keep the eviction log bounded
        if (plan.empty()) {
            LAER_CHECK(more, "layer replay stalled with work queued");
            now = next.arrival;
            continue;
        }
        running_sum += engine.batcher().runningCount();
        tokens_sum += static_cast<double>(plan.totalTokens());
        t0 = Clock::now();
        const ServingStepResult step = engine.executeStep(plan, now);
        exec_us.push_back(1e6 * secondsSince(t0));
        const Seconds finish = now + step.duration;
        t0 = Clock::now();
        engine.commitStep(plan, finish);
        commit_us.push_back(1e6 * secondsSince(t0));
        for (const Request &done : engine.takeFinished()) {
            t0 = Clock::now();
            metrics.record(done);
            record_s += secondsSince(t0);
            ++res.completed;
        }
        now = finish;
    }

    const double steps = static_cast<double>(exec_us.size());
    double retune_ms = 0.0;
    for (const RetuneWallSample &s : engine.retuneWall())
        retune_ms += s.wallMs;
    LayerValues &l = res.layers;
    l["serve.arrival.calls"] = static_cast<double>(arrival_calls);
    l["serve.arrival.busy_ms"] = 1e3 * arrival_s;
    l["serve.batcher.plan_busy_ms"] = 1e-3 * sum(plan_us);
    l["serve.batcher.plan_us_p99"] = percentile(plan_us, 99.0);
    l["serve.batcher.commit_busy_ms"] = 1e-3 * sum(commit_us);
    l["serve.batcher.commit_us_p99"] = percentile(commit_us, 99.0);
    l["serve.batcher.running_mean"] = steps > 0 ? running_sum / steps : 0;
    l["serve.engine.execute_busy_ms"] = 1e-3 * sum(exec_us);
    l["serve.engine.execute_us_p50"] = percentile(exec_us, 50.0);
    l["serve.engine.execute_us_p99"] = percentile(exec_us, 99.0);
    l["serve.engine.tokens_per_step"] = steps > 0 ? tokens_sum / steps : 0;
    l["planner.retune_wall_ms_mean"] =
        engine.retuneWall().empty()
            ? 0.0
            : retune_ms / static_cast<double>(engine.retuneWall().size());
    l["serve.metrics.record_busy_ms"] = 1e3 * record_s;
    return res;
}

// ---- host fingerprint ------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
    if (max_leaf >= 0x80000004U) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

#if defined(__clang__)
constexpr const char *kCompiler = __VERSION__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

// ---- command line ------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string pins = "perfbench/digests.txt";
    std::string outDir = ".bench_build/perfbench-out";
    std::string commit = "unknown";
    int pinVariants = 0; //!< > 0: print digests of variants [0, n)
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        LAER_CHECK(i + 1 < argc, "missing value for " << key);
        const std::string value = argv[++i];
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::stoull(value);
        else if (key == "--seconds")
            o.seconds = std::stod(value);
        else if (key == "--trace") {
            LAER_CHECK(value == "0" || value == "1", "--trace takes 0 or 1");
            o.trace = value == "1";
        }
        else if (key == "--pins")
            o.pins = value;
        else if (key == "--out")
            o.outDir = value;
        else if (key == "--commit")
            o.commit = value;
        else if (key == "--pin-variants")
            o.pinVariants = std::stoi(value);
        else
            laer::fatal("unknown option " + key);
    }
    LAER_CHECK(!o.workload.empty(), "--workload is required");
    LAER_CHECK(o.seconds > 0.0, "--seconds must be positive");
    return o;
}

/** The windowed core's thread-count invariant: rerun at 1 worker. */
RunResult
oneWorkerRun(const Workload &w, const std::string &out_dir)
{
    Workload serial = w;
    serial.config.threads = 1;
    return runSimulation(serial, out_dir, false);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseOptions(argc, argv);
    makeWorkload(opt.workload, 0); // reject unknown names up front
    std::filesystem::create_directories(opt.outDir);

    if (opt.pinVariants > 0) {
        for (int v = 0; v < opt.pinVariants; ++v) {
            const Workload w = makeWorkload(opt.workload, v);
            const RunResult r = runSimulation(w, opt.outDir, false);
            LAER_CHECK(r.violations.empty(),
                       w.name << " variant " << v << ": "
                              << r.violations.front());
            if (w.config.desParallel)
                LAER_CHECK(oneWorkerRun(w, opt.outDir).digest == r.digest,
                           w.name << " variant " << v
                                  << ": 1-worker digest differs");
            std::cout << w.name << ' ' << v << ' ' << r.digest << std::endl;
        }
        return 0;
    }

    const Pins pins = loadPins(opt.pins);
    const auto pinned_it = pins.find(opt.workload);
    const std::size_t variants =
        pinned_it == pins.end() ? 0 : pinned_it->second.size();
    const std::uint64_t variant = variants > 0 ? opt.seed % variants : 0;
    const Workload w = makeWorkload(opt.workload, variant);

    std::cout << "fingerprint: {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", \"cpu\": " << jsonString(cpuModel())
              << ", \"compiler\": " << jsonString(kCompiler)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"workers\": " << w.config.threads
              << ", \"workload\": " << jsonString(w.name)
              << ", \"seed\": " << opt.seed << ", \"variant\": " << variant
              << ", \"commit\": " << jsonString(opt.commit) << "}"
              << std::endl;

    std::vector<std::string> violations;
    if (variants == 0)
        violations.push_back("no pinned digest for " + w.name);
    const std::string expected =
        variants > 0 ? pinned_it->second[variant] : "";
    std::int64_t attempted = 0, failed = 0;
    auto account = [&](const RunResult &r) {
        attempted += r.report.offered;
        failed += r.report.offered - r.report.completed;
        for (const std::string &v : r.violations)
            violations.push_back(v);
        if (!expected.empty() && r.digest != expected)
            violations.push_back("digest " + r.digest + " != pinned " +
                                 expected + " (" + digestText(r.report) +
                                 ")");
    };

    // Repeat for --seconds. Untraced repetitions give the end-to-end
    // metrics. With --trace 1 each one is followed by a traced
    // repetition and a layer replay, so both sides of the overhead
    // share run under the same host conditions.
    //
    // Set-up is short next to a run, and the host's speed shifts over
    // seconds, so set-up is sampled before every untraced repetition:
    // the samples then span the whole measured time, as the runs do.
    constexpr std::size_t kMinReps = 3;
    constexpr int kSetupSamplesPerRep = 10;
    std::vector<RunResult> reps;
    std::vector<double> setup;
    std::map<std::string, std::vector<double>> layer_samples;
    std::vector<double> traced_wall;
    const Clock::time_point start = Clock::now();
    while (reps.size() < kMinReps || secondsSince(start) < opt.seconds) {
        if (!opt.trace)
            for (int i = 0; i < kSetupSamplesPerRep; ++i)
                setup.push_back(timeSetup(w));
        reps.push_back(runSimulation(w, opt.outDir, false));
        account(reps.back());
        if (!opt.trace)
            continue;
        const RunResult r = runSimulation(w, opt.outDir, true);
        account(r);
        traced_wall.push_back(r.wallS);
        const ReplayResult replay = replayLayers(w);
        attempted += replay.offered;
        failed += replay.offered - replay.completed;
        if (replay.completed != replay.offered)
            violations.push_back("layer replay left requests");
        for (const auto &[name, value] : r.layers)
            layer_samples[name].push_back(value);
        for (const auto &[name, value] : replay.layers)
            layer_samples[name].push_back(value);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    if (w.config.desParallel) {
        const RunResult serial = oneWorkerRun(w, opt.outDir);
        account(serial);
        if (serial.digest != reps.front().digest)
            violations.push_back("digest differs at 1 worker");
    }

    std::vector<double> wall, export_s, export_mb;
    for (const RunResult &r : reps) {
        wall.push_back(r.wallS);
        export_s.push_back(r.exportS);
        export_mb.push_back(r.exportBytes / (1024.0 * 1024.0));
    }
    const laer::ServingReport &rep = reps.front().report;
    // The mean, i.e. total time over repetitions: the host alternates
    // fast and slow phases of a few seconds, and the median of such a
    // two-mode sample jumps between the modes from run to run.
    const double wall_mean = mean(wall);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setup), "s"},
            {"wall_s", wall_mean, "s"},
            {"sim_s_per_wall_s", rep.elapsed / wall_mean, "sim-s/s"},
            {"req_per_wall_s",
             static_cast<double>(rep.completed) / wall_mean, "req/s"},
            {"steps_per_wall_s", static_cast<double>(rep.steps) / wall_mean,
             "steps/s"},
            {"peak_rss_mb", peak_rss_mb, "MiB"},
        };
    } else {
        const std::map<std::string, std::string> units = {
            {"core.step.calls", "count"},
            {"core.step.busy_s", "s"},
            {"core.step.us_p50", "us"},
            {"core.step.us_p99", "us"},
            {"core.step.useful_share", "ratio"},
            {"obs.trace_events", "count"},
            {"obs.trace_bytes", "bytes"},
            {"planner.retunes", "count"},
            {"planner.budget_overruns", "count"},
            {"core.descore.windows", "count"},
            {"serve.arrival.calls", "count"},
            {"serve.batcher.plan_us_p99", "us"},
            {"serve.batcher.commit_us_p99", "us"},
            {"serve.batcher.running_mean", "requests"},
            {"serve.batcher.preemptions", "count"},
            {"serve.engine.execute_us_p50", "us"},
            {"serve.engine.execute_us_p99", "us"},
            {"serve.engine.tokens_per_step", "tokens"},
        };
        for (const auto &[name, values] : layer_samples) {
            const auto u = units.find(name);
            metrics.push_back(
                {name, median(values), u == units.end() ? "ms" : u->second});
        }
        metrics.push_back({"export_s", median(export_s), "s"});
        metrics.push_back({"export_mb", median(export_mb), "MiB"});
        metrics.push_back({"bench.trace_overhead_share",
                           mean(traced_wall) / wall_mean, "ratio"});
    }

    const bool correct = violations.empty();
    for (const std::string &v : violations)
        std::cerr << "perfbench: " << w.name << ": check failed: " << v
                  << "\n";
    if (!correct)
        failed = attempted;

    if (!opt.trace)
        for (const auto &[name, v] :
             {std::pair{"setup_s", &setup}, std::pair{"wall_s", &wall}})
            std::printf("samples %s: n %zu min %.6g p10 %.6g p25 %.6g "
                        "p50 %.6g mean %.6g p75 %.6g max %.6g\n",
                        name, v->size(), percentile(*v, 0.0),
                        percentile(*v, 10.0), percentile(*v, 25.0),
                        percentile(*v, 50.0), mean(*v),
                        percentile(*v, 75.0), percentile(*v, 100.0));
    for (const Metric &m : metrics)
        std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
} catch (const std::exception &err) {
    std::cerr << "perfbench: " << err.what() << "\n";
    return 2;
}
