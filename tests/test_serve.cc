/**
 * @file
 * Tests for the serving subsystem: arrival-process determinism,
 * continuous-batching invariants (budget, FIFO within a class,
 * decode priority), request life-cycle stamping, TTFT/TPOT
 * percentile accounting, and end-to-end simulator determinism.
 */

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/stats.hh"
#include "obs/metrics.hh"
#include "serve/arrival.hh"
#include "serve/batcher.hh"
#include "serve/kv_cache.hh"
#include "serve/serving_sim.hh"
#include "topo/cluster.hh"

namespace laer
{
namespace
{

// ---- arrivals --------------------------------------------------------------

ArrivalConfig
arrivalConfig(ArrivalKind kind, std::uint64_t seed)
{
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.ratePerSec = 50.0;
    cfg.seed = seed;
    return cfg;
}

TEST(Arrival, SameSeedReproducesTheStream)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalProcess a(arrivalConfig(kind, 7));
        ArrivalProcess b(arrivalConfig(kind, 7));
        for (int i = 0; i < 500; ++i) {
            const Request ra = a.next();
            const Request rb = b.next();
            EXPECT_EQ(ra.id, rb.id);
            EXPECT_DOUBLE_EQ(ra.arrival, rb.arrival);
            EXPECT_EQ(ra.prefillTokens, rb.prefillTokens);
            EXPECT_EQ(ra.decodeTokens, rb.decodeTokens);
            EXPECT_EQ(ra.sloClass, rb.sloClass);
        }
    }
}

TEST(Arrival, DifferentSeedsDiverge)
{
    ArrivalProcess a(arrivalConfig(ArrivalKind::Poisson, 1));
    ArrivalProcess b(arrivalConfig(ArrivalKind::Poisson, 2));
    bool diverged = false;
    for (int i = 0; i < 50 && !diverged; ++i)
        diverged = a.next().arrival != b.next().arrival;
    EXPECT_TRUE(diverged);
}

TEST(Arrival, TimesStrictlyIncreaseAndLengthsRespectFloors)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalProcess p(arrivalConfig(kind, 3));
        Seconds last = 0.0;
        for (int i = 0; i < 300; ++i) {
            const Request r = p.next();
            EXPECT_GT(r.arrival, last);
            last = r.arrival;
            EXPECT_GE(r.prefillTokens, p.config().minPrefillTokens);
            EXPECT_GE(r.decodeTokens, p.config().minDecodeTokens);
            EXPECT_EQ(r.sloClass, 0);
        }
    }
}

TEST(Arrival, LongRunRateMatchesConfiguredMean)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalProcess p(arrivalConfig(kind, 11));
        const int n = 20000;
        Request last;
        for (int i = 0; i < n; ++i)
            last = p.next();
        const double rate = n / last.arrival;
        EXPECT_NEAR(rate, 50.0, 50.0 * 0.15)
            << arrivalKindName(kind);
    }
}

// ---- batcher ---------------------------------------------------------------

Request
makeRequest(int id, Seconds arrival, TokenCount prefill,
            TokenCount decode, int slo_class = 0)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.prefillTokens = prefill;
    r.decodeTokens = decode;
    r.sloClass = slo_class;
    return r;
}

TEST(Batcher, NeverExceedsTokenBudget)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 1000;
    cfg.prefillChunk = 300;
    ContinuousBatcher batcher(cfg);
    for (int i = 0; i < 40; ++i)
        batcher.enqueue(makeRequest(i, 0.0, 700, 20));
    Seconds t = 0.0;
    while (batcher.hasWork()) {
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        EXPECT_LE(plan.totalTokens(), cfg.tokenBudget);
        t += 0.1;
        batcher.applyStep(plan, t);
    }
    EXPECT_EQ(batcher.takeFinished().size(), 40u);
}

TEST(Batcher, FifoWithinClassAndClassPriority)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 64; // admits one 64-token prefill per step
    cfg.prefillChunk = 64;
    cfg.numSloClasses = 2;
    ContinuousBatcher batcher(cfg);
    // Interleave classes; within each class ids arrive in order.
    batcher.enqueue(makeRequest(0, 0.0, 64, 2, 1));
    batcher.enqueue(makeRequest(1, 0.1, 64, 2, 0));
    batcher.enqueue(makeRequest(2, 0.2, 64, 2, 1));
    batcher.enqueue(makeRequest(3, 0.3, 64, 2, 0));

    // Class 0 admits first (FIFO: 1 then 3), then class 1 (0 then 2).
    // Record the FIRST prefill entry of each request (its admission);
    // later chunk continuations are not admissions.
    std::vector<int> admission;
    Seconds t = 0.0;
    while (batcher.hasWork()) {
        const BatchPlan plan = batcher.nextBatch();
        ASSERT_FALSE(plan.empty());
        for (const BatchEntry &e : plan.entries)
            if (e.prefillTokens > 0 &&
                std::find(admission.begin(), admission.end(),
                          e.requestId) == admission.end())
                admission.push_back(e.requestId);
        t += 0.1;
        batcher.applyStep(plan, t);
    }
    ASSERT_EQ(admission.size(), 4u);
    EXPECT_EQ(admission, (std::vector<int>{1, 3, 0, 2}));
}

TEST(Batcher, DecodeSchedulesBeforeNewPrefill)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 10;
    cfg.prefillChunk = 10;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 10, 5));
    batcher.applyStep(batcher.nextBatch(), 1.0); // prefill completes

    batcher.enqueue(makeRequest(1, 0.5, 10, 2));
    const BatchPlan plan = batcher.nextBatch();
    // Request 0's decode token must come first; the remaining budget
    // (9 tokens) partially prefills request 1.
    ASSERT_EQ(plan.entries.size(), 2u);
    EXPECT_EQ(plan.entries[0].requestId, 0);
    EXPECT_EQ(plan.entries[0].decodeTokens, 1);
    EXPECT_EQ(plan.entries[1].requestId, 1);
    EXPECT_EQ(plan.entries[1].prefillTokens, 9);
    EXPECT_EQ(plan.totalTokens(), 10);
}

TEST(Batcher, MaxRunningBoundsAdmission)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 10000;
    cfg.maxRunning = 3;
    ContinuousBatcher batcher(cfg);
    for (int i = 0; i < 10; ++i)
        batcher.enqueue(makeRequest(i, 0.0, 16, 4));
    batcher.nextBatch();
    EXPECT_EQ(batcher.runningCount(), 3);
    EXPECT_EQ(batcher.waitingCount(), 7);
}

TEST(Batcher, LifeCycleStampsFirstTokenAndFinish)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 8;
    cfg.prefillChunk = 8;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.25, 16, 3));

    batcher.applyStep(batcher.nextBatch(), 1.0); // prefill chunk 1
    EXPECT_EQ(batcher.find(0)->phase(), RequestPhase::Prefill);
    batcher.applyStep(batcher.nextBatch(), 2.0); // prefill done, token 1
    EXPECT_EQ(batcher.find(0)->phase(), RequestPhase::Decode);
    batcher.applyStep(batcher.nextBatch(), 3.0); // token 2
    batcher.applyStep(batcher.nextBatch(), 4.0); // token 3, finished

    const auto done = batcher.takeFinished();
    ASSERT_EQ(done.size(), 1u);
    const Request &r = done[0];
    EXPECT_DOUBLE_EQ(r.firstTokenTime, 2.0);
    EXPECT_DOUBLE_EQ(r.finishTime, 4.0);
    EXPECT_DOUBLE_EQ(r.ttft(), 1.75);
    EXPECT_DOUBLE_EQ(r.tpot(), 1.0); // (4 - 2) / (3 - 1)
}

TEST(Batcher, PlanEntriesCarryTheirRunningSlot)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 32;
    cfg.prefillChunk = 8;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 32, 4)); // long prompt
    batcher.enqueue(makeRequest(1, 0.0, 8, 4));  // decodes after step 1
    batcher.applyStep(batcher.nextBatch(), 1.0);
    batcher.enqueue(makeRequest(2, 1.0, 4, 2));

    // Decode of 1, prefill continuation of 0, admission of 2: the plan
    // order differs from the running order.
    const BatchPlan plan = batcher.nextBatch();
    ASSERT_EQ(plan.entries.size(), 3u);
    EXPECT_EQ(plan.entries[0].requestId, 1);
    EXPECT_EQ(plan.entries[0].decodeTokens, 1);
    EXPECT_EQ(plan.entries[0].slot, 1);
    EXPECT_EQ(plan.entries[1].requestId, 0);
    EXPECT_EQ(plan.entries[1].prefillTokens, 8);
    EXPECT_EQ(plan.entries[1].slot, 0);
    EXPECT_EQ(plan.entries[2].requestId, 2);
    EXPECT_EQ(plan.entries[2].prefillTokens, 4);
    EXPECT_EQ(plan.entries[2].slot, 2);
    for (const BatchEntry &e : plan.entries)
        EXPECT_EQ(batcher.planned(e).id, e.requestId);
}

TEST(Batcher, StalePlanIsRejected)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 64;
    ContinuousBatcher batcher(cfg);
    batcher.enqueue(makeRequest(0, 0.0, 4, 1)); // finishes this step
    batcher.enqueue(makeRequest(1, 0.0, 4, 3));
    const BatchPlan plan = batcher.nextBatch();
    batcher.applyStep(plan, 1.0);
    ASSERT_EQ(batcher.takeFinished().size(), 1u);

    // Request 1 moved into slot 0; the stale entry for 0 must not
    // resolve to it.
    EXPECT_THROW(batcher.planned(plan.entries[0]), FatalError);
    EXPECT_THROW(batcher.applyStep(plan, 2.0), FatalError);
}

TEST(Batcher, RetirementKeepsAdmissionOrder)
{
    BatcherConfig cfg;
    cfg.tokenBudget = 64;
    ContinuousBatcher batcher(cfg);
    // Ids out of numeric order; 3 and 1 finish in the same step.
    const int ids[] = {7, 3, 9, 1, 5};
    const TokenCount decode[] = {5, 2, 5, 2, 5};
    for (int i = 0; i < 5; ++i)
        batcher.enqueue(makeRequest(ids[i], 0.0, 4, decode[i]));
    batcher.applyStep(batcher.nextBatch(), 1.0); // prefill, token 1
    EXPECT_TRUE(batcher.takeFinished().empty());
    batcher.applyStep(batcher.nextBatch(), 2.0); // token 2

    const std::vector<Request> done = batcher.takeFinished();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].id, 3);
    EXPECT_EQ(done[1].id, 1);

    const BatchPlan next = batcher.nextBatch();
    ASSERT_EQ(next.entries.size(), 3u);
    const int survivors[] = {7, 9, 5};
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(next.entries[i].requestId, survivors[i]);
        EXPECT_EQ(next.entries[i].slot, i);
        EXPECT_EQ(batcher.planned(next.entries[i]).id, survivors[i]);
    }
}

// ---- metrics ---------------------------------------------------------------

Request
finishedRequest(Seconds arrival, Seconds first_token, Seconds finish,
                TokenCount decode)
{
    Request r = makeRequest(0, arrival, 8, decode);
    r.prefillDone = r.prefillTokens;
    r.decodeDone = decode;
    r.firstTokenTime = first_token;
    r.finishTime = finish;
    return r;
}

TEST(Metrics, PercentileAndGoodputAccounting)
{
    ServingMetrics m(0.5); // TTFT SLO: 500 ms
    // TTFTs: 0.1, 0.2, ..., 1.0; TPOT fixed at 0.05 for all.
    std::vector<double> ttfts;
    for (int i = 1; i <= 10; ++i) {
        const Seconds ttft = 0.1 * i;
        const TokenCount decode = 11;
        m.record(finishedRequest(0.0, ttft, ttft + 0.05 * 10, decode));
        ttfts.push_back(ttft);
    }
    EXPECT_EQ(m.completed(), 10);
    EXPECT_EQ(m.sloMet(), 5); // 0.1 .. 0.5 meet the SLO
    EXPECT_EQ(m.decodedTokens(), 110);
    EXPECT_EQ(m.goodTokens(), 55);
    EXPECT_NEAR(m.ttftPercentile(50.0), percentile(ttfts, 50.0), 1e-12);
    EXPECT_NEAR(m.ttftPercentile(99.0), percentile(ttfts, 99.0), 1e-12);
    EXPECT_NEAR(m.tpotPercentile(50.0), 0.05, 1e-12);
    EXPECT_NEAR(m.throughput(10.0), 11.0, 1e-12);
    EXPECT_NEAR(m.goodput(10.0), 5.5, 1e-12);
}

TEST(Metrics, SingleTokenRequestsHaveNoTpot)
{
    ServingMetrics m(1.0);
    Request r = makeRequest(0, 0.0, 8, 1);
    r.prefillDone = 8;
    r.decodeDone = 1;
    r.firstTokenTime = 0.2;
    r.finishTime = 0.2;
    m.record(r);
    EXPECT_EQ(m.completed(), 1);
    EXPECT_DOUBLE_EQ(m.tpotPercentile(50.0), 0.0);
}

// ---- end to end ------------------------------------------------------------

ServingConfig
smallServingConfig(ServingPolicy policy)
{
    ServingConfig cfg;
    cfg.model = mixtral8x7bE8K2();
    cfg.policy = policy;
    cfg.capacity = 2;
    cfg.simulatedLayers = 2;
    cfg.horizon = 3.0;
    cfg.arrival.ratePerSec = 20.0;
    cfg.arrival.kind = ArrivalKind::Bursty;
    cfg.arrival.meanPrefillTokens = 256;
    cfg.arrival.meanDecodeTokens = 32;
    cfg.arrival.seed = 99;
    cfg.batcher.tokenBudget = 4096;
    cfg.routing = RoutingModel::wikitext(0, 0, 0, 0); // skew preset;
    cfg.retunePeriod = 8;                             // sizes refilled
    cfg.seed = 5;
    return cfg;
}

TEST(ServingSim, RunsToCompletionAndDrains)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    for (const ServingPolicy policy :
         {ServingPolicy::LaerServe, ServingPolicy::StaticEp,
          ServingPolicy::FlexMoe}) {
        ServingSimulator sim(cluster, smallServingConfig(policy));
        const ServingReport report = sim.run();
        EXPECT_GT(report.offered, 0) << servingPolicyName(policy);
        EXPECT_EQ(report.offered, report.completed)
            << servingPolicyName(policy);
        EXPECT_GT(report.steps, 0);
        EXPECT_GT(report.throughputTps, 0.0);
        EXPECT_GE(report.elapsed, cluster.numDevices() > 0
                      ? report.ttftP50 : 0.0);
        EXPECT_GE(report.ttftP99, report.ttftP50);
    }
}

TEST(ServingSim, DeterministicAcrossRuns)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator a(cluster, smallServingConfig(
                                    ServingPolicy::LaerServe));
    ServingSimulator b(cluster, smallServingConfig(
                                    ServingPolicy::LaerServe));
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_EQ(ra.offered, rb.offered);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.ttftP99, rb.ttftP99);
    EXPECT_DOUBLE_EQ(ra.tpotP99, rb.tpotP99);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
    ASSERT_EQ(a.stepResults().size(), b.stepResults().size());
    for (std::size_t i = 0; i < a.stepResults().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.stepResults()[i].duration,
                         b.stepResults()[i].duration);
        EXPECT_EQ(a.stepResults()[i].tokens,
                  b.stepResults()[i].tokens);
    }
}

TEST(ServingSim, LaerRetunesOnSchedule)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster, smallServingConfig(
                                      ServingPolicy::LaerServe));
    const ServingReport report = sim.run();
    EXPECT_GT(report.retunes, 0);
    EXPECT_DOUBLE_EQ(report.migrationTotal, 0.0); // FSEP hides moves
}

TEST(ServingSim, ThreadCountDoesNotChangeTheSimulation)
{
    // --threads only changes wall time: the per-layer fan-out and the
    // tuner's scheme evaluation write per-index slots and reduce in a
    // fixed order, so a multi-threaded run is step-identical to the
    // serial one.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig serial = smallServingConfig(
        ServingPolicy::LaerServe);
    ServingConfig parallel = serial;
    parallel.threads = 4;
    ServingSimulator a(cluster, serial);
    ServingSimulator b(cluster, parallel);
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.retunes, rb.retunes);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.ttftP99, rb.ttftP99);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
    ASSERT_EQ(a.stepResults().size(), b.stepResults().size());
    for (std::size_t i = 0; i < a.stepResults().size(); ++i)
        EXPECT_DOUBLE_EQ(a.stepResults()[i].duration,
                         b.stepResults()[i].duration);
}

TEST(ServingSim, WindowedCoreIsEventIdenticalAcrossThreadCounts)
{
    // The windowed event core (ServingConfig::desParallel) fans
    // engine advancement out over the worker pool and merges buffered
    // emission deterministically: a 2-replica run must be
    // event-for-event identical at 1 and 8 threads.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig base = smallServingConfig(ServingPolicy::LaerServe);
    base.replicas.replicaDevices = 4; // 2 replica engines
    base.desParallel = true;
    base.arrival.ratePerSec = 40.0;
    ServingConfig threaded = base;
    threaded.threads = 8;
    ServingSimulator a(cluster, base);     // threads = 1: no pool
    ServingSimulator b(cluster, threaded); // 8 workers
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_GT(ra.offered, 0);
    EXPECT_EQ(ra.offered, ra.completed);
    EXPECT_EQ(ra.offered, rb.offered);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.retunes, rb.retunes);
    EXPECT_EQ(ra.preemptions, rb.preemptions);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.ttftP50, rb.ttftP50);
    EXPECT_DOUBLE_EQ(ra.ttftP99, rb.ttftP99);
    EXPECT_DOUBLE_EQ(ra.tpotP99, rb.tpotP99);
    EXPECT_DOUBLE_EQ(ra.throughputTps, rb.throughputTps);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
    // Event-for-event: the merged step sequences match exactly, in
    // order — start, pool, size and pricing.
    ASSERT_EQ(a.stepResults().size(), b.stepResults().size());
    for (std::size_t i = 0; i < a.stepResults().size(); ++i) {
        const ServingStepResult &sa = a.stepResults()[i];
        const ServingStepResult &sb = b.stepResults()[i];
        EXPECT_DOUBLE_EQ(sa.start, sb.start);
        EXPECT_EQ(sa.pool, sb.pool);
        EXPECT_EQ(sa.tokens, sb.tokens);
        EXPECT_EQ(sa.prefill, sb.prefill);
        EXPECT_EQ(sa.decode, sb.decode);
        EXPECT_DOUBLE_EQ(sa.duration, sb.duration);
        EXPECT_DOUBLE_EQ(sa.maxRelTokens, sb.maxRelTokens);
    }
}

TEST(ServingSim, WindowedCoreCompletesEveryRequest)
{
    // Same workload through the windowed core on a single
    // whole-cluster engine: conservation must close and the run must
    // drain, barriers or not.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.desParallel = true;
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();
    EXPECT_GT(report.offered, 0);
    EXPECT_EQ(report.offered, report.completed);
    EXPECT_GT(report.steps, 0);
    EXPECT_GT(report.retunes, 0);
}

TEST(ServingSim, WindowedCoreOneWorkerBarrierWaitIsSmall)
{
    // profile.descore.barrier_wait_ms is worker idle time: workers x
    // fan-out wall minus the engines' busy wall. One worker runs the
    // engines back to back and never idles, so on a two-engine run
    // the wait must be a small share of the fan-out (summing
    // fan-out minus busy per engine would read about one fan-out).
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.replicas.replicaDevices = 4; // 2 replica engines
    cfg.desParallel = true;
    cfg.arrival.ratePerSec = 40.0;
    MetricsRegistry registry;
    cfg.metricsRegistry = &registry;
    ServingSimulator sim(cluster, cfg); // threads = 1: no pool
    const ServingReport report = sim.run();
    ASSERT_GT(report.completed, 0);
    const double fanout =
        registry.gauge("profile.descore.fanout_ms").value();
    const double busy =
        registry.gauge("profile.descore.worker_busy_ms").value();
    const double wait =
        registry.gauge("profile.descore.barrier_wait_ms").value();
    ASSERT_GT(fanout, 0.0);
    EXPECT_GE(wait, 0.0);
    EXPECT_LE(busy, fanout * 1.001);
    EXPECT_LT(wait, 0.2 * fanout);
}

TEST(ServingSim, OneEngineCoresAgree)
{
    // On one engine the serial and windowed cores run the same step
    // path and dispatch nothing, so every simulated report field and
    // every step must be bit-identical. (Snapshot streams differ by
    // design: the windowed core stamps snapshots on its grid.) The
    // retune wall-time fields are real time and left out. KV modes:
    // off, on, and on with long requests that fill the pool and
    // preempt.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    for (const ServingPolicy policy :
         {ServingPolicy::LaerServe, ServingPolicy::StaticEp,
          ServingPolicy::FlexMoe}) {
        for (const int mode : {0, 1, 2}) {
            SCOPED_TRACE(std::string(servingPolicyName(policy)) +
                         " kv mode " + std::to_string(mode));
            const bool kv = mode > 0;
            ServingConfig serial = smallServingConfig(policy);
            if (kv)
                serial.hbmPerDevice =
                    static_cast<Bytes>(12.65 * (1LL << 30));
            if (mode == 2) {
                serial.arrival.meanPrefillTokens = 1024;
                serial.arrival.meanDecodeTokens = 128;
            }
            ServingConfig windowed = serial;
            windowed.desParallel = true;
            ServingSimulator a(cluster, serial);
            ServingSimulator b(cluster, windowed);
            const ServingReport ra = a.run();
            const ServingReport rb = b.run();
            EXPECT_GT(ra.completed, 0);
            EXPECT_EQ(ra.kvBudgetBytes > 0, kv);
            EXPECT_EQ(ra.preemptions > 0, mode == 2);
            EXPECT_EQ(ra.offered, rb.offered);
            EXPECT_EQ(ra.completed, rb.completed);
            EXPECT_EQ(ra.sloMet, rb.sloMet);
            EXPECT_EQ(ra.steps, rb.steps);
            EXPECT_EQ(ra.retunes, rb.retunes);
            EXPECT_EQ(ra.elapsed, rb.elapsed);
            EXPECT_EQ(ra.ttftP50, rb.ttftP50);
            EXPECT_EQ(ra.ttftP90, rb.ttftP90);
            EXPECT_EQ(ra.ttftP99, rb.ttftP99);
            EXPECT_EQ(ra.tpotP50, rb.tpotP50);
            EXPECT_EQ(ra.tpotP99, rb.tpotP99);
            EXPECT_EQ(ra.throughputTps, rb.throughputTps);
            EXPECT_EQ(ra.goodputTps, rb.goodputTps);
            EXPECT_EQ(ra.meanBatchTokens, rb.meanBatchTokens);
            EXPECT_EQ(ra.meanStepTime, rb.meanStepTime);
            EXPECT_EQ(ra.meanMaxRelTokens, rb.meanMaxRelTokens);
            EXPECT_EQ(ra.migrationTotal, rb.migrationTotal);
            EXPECT_EQ(ra.kvBudgetBytes, rb.kvBudgetBytes);
            EXPECT_EQ(ra.preemptions, rb.preemptions);
            EXPECT_EQ(ra.preemptionsByClass, rb.preemptionsByClass);
            EXPECT_EQ(ra.meanKvUtilization, rb.meanKvUtilization);
            EXPECT_EQ(ra.peakKvUtilization, rb.peakKvUtilization);
            EXPECT_EQ(ra.migrated, rb.migrated);
            EXPECT_EQ(ra.kvTransferBytes, rb.kvTransferBytes);
            EXPECT_EQ(ra.kvTransferSeconds, rb.kvTransferSeconds);
            EXPECT_EQ(ra.transferStallSeconds, rb.transferStallSeconds);
            EXPECT_EQ(ra.swapOutBytes, rb.swapOutBytes);
            EXPECT_EQ(ra.swapInBytes, rb.swapInBytes);
            EXPECT_EQ(ra.swapSeconds, rb.swapSeconds);
            EXPECT_EQ(ra.deviceSeconds, rb.deviceSeconds);
            ASSERT_EQ(ra.pools.size(), rb.pools.size());
            for (std::size_t p = 0; p < ra.pools.size(); ++p) {
                EXPECT_EQ(ra.pools[p].steps, rb.pools[p].steps);
                EXPECT_EQ(ra.pools[p].preemptions, rb.pools[p].preemptions);
                EXPECT_EQ(ra.pools[p].meanKvUtilization,
                          rb.pools[p].meanKvUtilization);
                EXPECT_EQ(ra.pools[p].peakKvUtilization,
                          rb.pools[p].peakKvUtilization);
            }
            ASSERT_EQ(a.stepResults().size(), b.stepResults().size());
            for (std::size_t i = 0; i < a.stepResults().size(); ++i) {
                const ServingStepResult &sa = a.stepResults()[i];
                const ServingStepResult &sb = b.stepResults()[i];
                EXPECT_EQ(sa.start, sb.start) << "step " << i;
                EXPECT_EQ(sa.duration, sb.duration) << "step " << i;
                EXPECT_EQ(sa.tokens, sb.tokens) << "step " << i;
                EXPECT_EQ(sa.kvUtilization, sb.kvUtilization)
                    << "step " << i;
            }
        }
    }
}

TEST(ServingSim, RetuneWallTimesAndBudgetOverrunsAreReported)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    // An absurdly tight budget (well under any real solve) must flag
    // every retune; no budget flags none.
    ServingConfig tight = smallServingConfig(
        ServingPolicy::LaerServe);
    tight.tunerBudgetMs = 1e-9;
    ServingSimulator sim(cluster, tight);
    const ServingReport report = sim.run();
    ASSERT_GT(report.retunes, 0);
    EXPECT_EQ(static_cast<int>(report.retuneWall.size()),
              report.retunes);
    EXPECT_EQ(report.retuneBudgetOverruns, report.retunes);
    EXPECT_GT(report.retuneWallMeanMs, 0.0);
    EXPECT_GE(report.retuneWallMaxMs, report.retuneWallMeanMs);
    for (const RetuneWallSample &sample : report.retuneWall) {
        EXPECT_TRUE(sample.overBudget);
        EXPECT_GT(sample.wallMs, 0.0);
    }

    ServingConfig open = smallServingConfig(
        ServingPolicy::LaerServe);
    ServingSimulator unbudgeted(cluster, open);
    const ServingReport free_report = unbudgeted.run();
    EXPECT_EQ(free_report.retuneBudgetOverruns, 0);
    EXPECT_EQ(static_cast<int>(free_report.retuneWall.size()),
              free_report.retunes);
}

TEST(ServingSim, SelfProfileGaugesEqualTheReport)
{
    // The profile.* gauges and the report's prof* fields come from one
    // computation, so they agree exactly — including the retune wall
    // of engines retired by a scale-down/up cycle mid-run.
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.replicas.replicaDevices = 4; // 2 replica engines
    cfg.arrival.ratePerSec = 40.0;
    cfg.selfProfile = true;
    MetricsRegistry registry;
    cfg.metricsRegistry = &registry;
    ServingSimulator sim(cluster, cfg);
    while (sim.now() < 1.0 && sim.step()) {
    }
    ASSERT_TRUE(sim.requestReplicas(1));
    while (sim.now() < 2.0 && sim.step()) {
    }
    ASSERT_TRUE(sim.requestReplicas(2));
    const ServingReport report = sim.run();
    ASSERT_GT(report.retunes, 0);
    EXPECT_GT(report.profRetuneMs, 0.0);
    EXPECT_EQ(registry.gauge("profile.retune_ms").value(),
              report.profRetuneMs);
    EXPECT_EQ(registry.gauge("profile.step_pricing_ms").value(),
              report.profStepPricingMs);
    EXPECT_EQ(registry.gauge("profile.event_loop_ms").value(),
              report.profEventLoopMs);
}

TEST(ServingSim, RejectsOversubscribedCluster)
{
    const Cluster tiny(1, 2, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.capacity = 1; // 2 devices * 1 slot < 8 experts
    EXPECT_THROW(ServingSimulator(tiny, cfg), FatalError);
}

// ---- KV-cache memory model end to end --------------------------------------

ServingConfig
kvServingConfig(ServingPolicy policy)
{
    ServingConfig cfg = smallServingConfig(policy);
    // Direct pool sizing (bypassing HBM derivation) so the test
    // controls memory pressure precisely: room for ~3K cached tokens
    // against a stream of ~288-token contexts at 40 req/s.
    cfg.batcher.kvBudgetBytes =
        3000LL * kvBytesPerToken(cfg.model);
    cfg.batcher.kvBytesPerToken = kvBytesPerToken(cfg.model);
    cfg.batcher.kvBlockTokens = 16;
    cfg.arrival.ratePerSec = 40.0;
    return cfg;
}

TEST(ServingSim, KvPressurePreemptsAndConservesTheBudget)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator sim(cluster,
                         kvServingConfig(ServingPolicy::LaerServe));
    const ServingReport report = sim.run();

    EXPECT_GT(report.offered, 0);
    EXPECT_EQ(report.offered, report.completed); // drains despite evictions
    EXPECT_GT(report.preemptions, 0) << "no memory pressure simulated";
    EXPECT_GT(report.kvBudgetBytes, 0);

    // Conservation: reserved KV bytes never exceed the budget at any
    // step of the run.
    EXPECT_LE(report.peakKvUtilization, 1.0);
    EXPECT_GT(report.peakKvUtilization, 0.5); // pressure was real
    EXPECT_LE(report.meanKvUtilization, report.peakKvUtilization);
    for (const ServingStepResult &s : sim.stepResults()) {
        EXPECT_GE(s.kvUtilization, 0.0);
        EXPECT_LE(s.kvUtilization, 1.0);
    }

    // Per-class counts add up to the total.
    std::int64_t by_class = 0;
    for (const std::int64_t c : report.preemptionsByClass)
        by_class += c;
    EXPECT_EQ(by_class, report.preemptions);
    std::int64_t step_sum = 0;
    for (const ServingStepResult &s : sim.stepResults())
        step_sum += s.preemptions;
    EXPECT_EQ(step_sum, report.preemptions);
}

TEST(ServingSim, KvModelIsDeterministicAcrossRuns)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingSimulator a(cluster,
                       kvServingConfig(ServingPolicy::LaerServe));
    ServingSimulator b(cluster,
                       kvServingConfig(ServingPolicy::LaerServe));
    const ServingReport ra = a.run();
    const ServingReport rb = b.run();
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.preemptions, rb.preemptions);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_DOUBLE_EQ(ra.elapsed, rb.elapsed);
    EXPECT_DOUBLE_EQ(ra.peakKvUtilization, rb.peakKvUtilization);
    EXPECT_DOUBLE_EQ(ra.goodputTps, rb.goodputTps);
}

TEST(ServingSim, HbmBudgetDerivesTheKvPool)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.hbmPerDevice = 32LL << 30;
    ServingSimulator sim(cluster, cfg);

    const ServingMemoryBudget mem = servingMemoryBudget(
        cfg.model, cluster.numDevices(), cfg.capacity, cfg.hbmPerDevice,
        std::max<TokenCount>(1, cfg.batcher.tokenBudget /
                                    cluster.numDevices()));
    const ServingReport report = sim.run();
    EXPECT_EQ(report.kvBudgetBytes, mem.kvPoolTotal);
    EXPECT_EQ(report.offered, report.completed);

    // HBM smaller than the resident model state is a config error.
    ServingConfig tiny = smallServingConfig(ServingPolicy::LaerServe);
    tiny.hbmPerDevice = 1LL << 30;
    EXPECT_THROW(ServingSimulator(cluster, tiny), FatalError);
}

TEST(ServingSim, KvDisabledKeepsLegacyMaxRunning)
{
    const Cluster cluster(2, 4, 300e9, 12.5e9, 212e12);
    ServingConfig cfg = smallServingConfig(ServingPolicy::LaerServe);
    cfg.batcher.maxRunning = 4; // tight slot count, no KV model
    ServingSimulator sim(cluster, cfg);
    const ServingReport report = sim.run();
    EXPECT_EQ(report.kvBudgetBytes, 0);
    EXPECT_EQ(report.preemptions, 0);
    EXPECT_DOUBLE_EQ(report.peakKvUtilization, 0.0);
    EXPECT_EQ(report.offered, report.completed);
}

} // namespace
} // namespace laer
