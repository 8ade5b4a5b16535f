/**
 * @file
 * Cross-thread determinism: the windowed fabric engine
 * (host::SsdArray with a fabric or hostLink > 0, sim::ParallelExecutor)
 * must produce bit-identical results for every worker count — the same
 * RunStats (including p50/p99/p99.9), the same per-tenant latency
 * distributions, and the same arbitration accounting with threads=4
 * as with threads=1. This is the acceptance oracle for the parallel
 * engine: any causality leak across a window boundary, unordered
 * mailbox delivery, or shared mutable state between drives shows up
 * here as a field mismatch.
 */

#include <gtest/gtest.h>

#include <string>

#include "fabric/topology.hh"
#include "host/scenario_spec.hh"
#include "sim/types.hh"

namespace ssdrr {
namespace {

void
expectIdenticalDegraded(const ssd::RunStats &a, const ssd::RunStats &b)
{
    EXPECT_EQ(a.degradedReads, b.degradedReads);
    EXPECT_EQ(a.reconstructionReads, b.reconstructionReads);
    EXPECT_EQ(a.parityWrites, b.parityWrites);
    EXPECT_EQ(a.avgDegradedReadUs, b.avgDegradedReadUs);
    EXPECT_EQ(a.p50DegradedReadUs, b.p50DegradedReadUs);
    EXPECT_EQ(a.p99DegradedReadUs, b.p99DegradedReadUs);
    EXPECT_EQ(a.p999DegradedReadUs, b.p999DegradedReadUs);
}

void
expectIdenticalFilterStats(const ssd::RunStats &a,
                           const ssd::RunStats &b)
{
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.cacheEvictions, b.cacheEvictions);
    EXPECT_EQ(a.prefetchIssued, b.prefetchIssued);
    EXPECT_EQ(a.prefetchUseful, b.prefetchUseful);
    EXPECT_EQ(a.splitRequests, b.splitRequests);
    EXPECT_EQ(a.coalescedRequests, b.coalescedRequests);
    EXPECT_EQ(a.delayedRequests, b.delayedRequests);
    EXPECT_EQ(a.throttledRequests, b.throttledRequests);
    EXPECT_EQ(a.hostReads, b.hostReads);
    EXPECT_EQ(a.avgHostReadUs, b.avgHostReadUs);
    EXPECT_EQ(a.p50HostReadUs, b.p50HostReadUs);
    EXPECT_EQ(a.p99HostReadUs, b.p99HostReadUs);
    EXPECT_EQ(a.p999HostReadUs, b.p999HostReadUs);
}

void
expectIdenticalFaultStats(const ssd::RunStats &a,
                          const ssd::RunStats &b)
{
    EXPECT_EQ(a.hostTimeouts, b.hostTimeouts);
    EXPECT_EQ(a.hostRetries, b.hostRetries);
    EXPECT_EQ(a.hostFailovers, b.hostFailovers);
    EXPECT_EQ(a.ueccReads, b.ueccReads);
    EXPECT_EQ(a.failedRequests, b.failedRequests);
    EXPECT_EQ(a.rebuildReads, b.rebuildReads);
    EXPECT_EQ(a.rebuildProgress, b.rebuildProgress);
    EXPECT_EQ(a.timeToRebuildMs, b.timeToRebuildMs);
}

void
expectIdenticalFabricStats(const ssd::RunStats &a,
                           const ssd::RunStats &b)
{
    EXPECT_EQ(a.avgFabricWaitUs, b.avgFabricWaitUs);
    ASSERT_EQ(a.fabricLinks.size(), b.fabricLinks.size());
    for (std::size_t l = 0; l < a.fabricLinks.size(); ++l) {
        SCOPED_TRACE("link " + a.fabricLinks[l].link);
        EXPECT_EQ(a.fabricLinks[l].link, b.fabricLinks[l].link);
        EXPECT_EQ(a.fabricLinks[l].messages,
                  b.fabricLinks[l].messages);
        EXPECT_EQ(a.fabricLinks[l].bytesCarried,
                  b.fabricLinks[l].bytesCarried);
        EXPECT_EQ(a.fabricLinks[l].busyUs, b.fabricLinks[l].busyUs);
        EXPECT_EQ(a.fabricLinks[l].waitUs, b.fabricLinks[l].waitUs);
        EXPECT_EQ(a.fabricLinks[l].maxQueueDepth,
                  b.fabricLinks[l].maxQueueDepth);
    }
}

/** Every RunStats field the thread-parity tests compare, except the
 *  fabric's per-link rows and read wait. */
void
expectIdenticalArrayExceptFabric(const ssd::RunStats &a,
                                 const ssd::RunStats &b)
{
    expectIdenticalDegraded(a, b);
    expectIdenticalFilterStats(a, b);
    expectIdenticalFaultStats(a, b);
    // EXPECT_EQ on doubles is exact comparison, deliberately: a
    // cross-domain ordering leak would first show up as a 1-ULP
    // drift in a floating-point accumulation, which a tolerant
    // comparison (EXPECT_DOUBLE_EQ = 4 ULPs) would wave through.

    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.retrySamples, b.retrySamples);
    EXPECT_EQ(a.suspensions, b.suspensions);
    EXPECT_EQ(a.gcCollections, b.gcCollections);
    EXPECT_EQ(a.timingFallbacks, b.timingFallbacks);
    EXPECT_EQ(a.readFailures, b.readFailures);
    EXPECT_EQ(a.refreshes, b.refreshes);
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.profileCacheHits, b.profileCacheHits);
    EXPECT_EQ(a.profileCacheMisses, b.profileCacheMisses);
    EXPECT_EQ(a.avgRetrySteps, b.avgRetrySteps);
    EXPECT_EQ(a.avgResponseUs, b.avgResponseUs);
    EXPECT_EQ(a.avgReadResponseUs, b.avgReadResponseUs);
    EXPECT_EQ(a.avgWriteResponseUs, b.avgWriteResponseUs);
    EXPECT_EQ(a.p99ResponseUs, b.p99ResponseUs);
    EXPECT_EQ(a.maxResponseUs, b.maxResponseUs);
    EXPECT_EQ(a.p50ReadResponseUs, b.p50ReadResponseUs);
    EXPECT_EQ(a.p99ReadResponseUs, b.p99ReadResponseUs);
    EXPECT_EQ(a.p999ReadResponseUs, b.p999ReadResponseUs);
    EXPECT_EQ(a.simulatedMs, b.simulatedMs);
    EXPECT_EQ(a.channelUtilization, b.channelUtilization);
    EXPECT_EQ(a.eccUtilization, b.eccUtilization);
}

void
expectIdenticalArray(const ssd::RunStats &a, const ssd::RunStats &b)
{
    expectIdenticalArrayExceptFabric(a, b);
    expectIdenticalFabricStats(a, b);
}

void
expectIdenticalTenant(const host::TenantStats &a,
                      const host::TenantStats &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.avgUs, b.avgUs);
    EXPECT_EQ(a.p50Us, b.p50Us);
    EXPECT_EQ(a.p99Us, b.p99Us);
    EXPECT_EQ(a.p999Us, b.p999Us);
    EXPECT_EQ(a.maxUs, b.maxUs);
    EXPECT_EQ(a.readP50Us, b.readP50Us);
    EXPECT_EQ(a.readP99Us, b.readP99Us);
    EXPECT_EQ(a.readP999Us, b.readP999Us);
    EXPECT_EQ(a.achievedIops, b.achievedIops);
}

void
expectIdenticalTenants(const host::ScenarioResult &a,
                       const host::ScenarioResult &b)
{
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
        SCOPED_TRACE("tenant " + a.tenants[t].name);
        expectIdenticalTenant(a.tenants[t], b.tenants[t]);
    }
    EXPECT_EQ(a.fetchedPerQueue, b.fetchedPerQueue);
}

void
expectIdenticalResult(const host::ScenarioResult &a,
                      const host::ScenarioResult &b)
{
    expectIdenticalArray(a.array, b.array);
    expectIdenticalTenants(a, b);
}

/** 4-drive, 4-tenant mixed-QoS scenario on the sharded engine. */
host::ScenarioSpec
fourDriveSpec()
{
    return host::ScenarioBuilder()
        .name("parallel-determinism")
        .geometry("small")
        .pec(1.0)
        .retention(6.0)
        .seed(99)
        .drives(4)
        .hostLinkUs(10.0)
        .queueDepth(16)
        .arbitration("wrr")
        .mechanism(core::Mechanism::PnAR2)
        .tenant("usr", "usr_1", 250)
        .qdLimit(16)
        .weight(1)
        .tenant("kv", "YCSB-C", 250)
        .qdLimit(8)
        .weight(2)
        .tenant("log", "stg_0", 250)
        .qdLimit(8)
        .weight(1)
        .rateIops(20000)
        .burst(8)
        .tenant("scan", "usr_1", 250)
        .qdLimit(4)
        .weight(3)
        .build();
}

host::ScenarioResult
runWithThreads(std::uint32_t threads, bool batch_mailbox = true)
{
    host::ScenarioConfig cfg =
        fourDriveSpec().toConfig(core::Mechanism::PnAR2);
    cfg.threads = threads;
    cfg.batchMailbox = batch_mailbox;
    return host::runScenario(cfg);
}

TEST(ParallelDeterminism, FourThreadsMatchOneBitForBit)
{
    const host::ScenarioResult one = runWithThreads(1);
    const host::ScenarioResult four = runWithThreads(4);
    EXPECT_GT(one.array.reads, 0u);
    EXPECT_GT(one.array.retrySamples, 0u);
    expectIdenticalResult(one, four);
}

TEST(ParallelDeterminism, TwoThreadsMatchOneBitForBit)
{
    expectIdenticalResult(runWithThreads(1), runWithThreads(2));
}

TEST(ParallelDeterminism, OversubscribedThreadsMatch)
{
    // More workers than drives+host domains: the clamp must not
    // change anything.
    expectIdenticalResult(runWithThreads(1), runWithThreads(16));
}

TEST(ParallelDeterminism, ShardedEngineIsReproducible)
{
    expectIdenticalResult(runWithThreads(4), runWithThreads(4));
}

/**
 * RAID-5 with a failed drive on the sharded engine: every degraded
 * read fans out to the three survivors and joins across the window
 * barrier, every write two-phases through parity pre-reads — the
 * completion bookkeeping with the most cross-domain traffic the
 * array can generate. Threads 1/2/4 must agree bit for bit,
 * including the degraded-read histogram.
 */
host::ScenarioResult
runRaid5Degraded(std::uint32_t threads)
{
    const host::ScenarioSpec spec =
        host::ScenarioBuilder()
            .name("raid5-degraded-determinism")
            .geometry("small")
            .pec(2.0)
            .retention(12.0)
            .seed(31)
            .drives(4)
            .raid("raid5")
            .stripeUnitPages(4)
            .failedDrives({1})
            .hostLinkUs(10.0)
            .transferUsPerKb(0.2)
            .queueDepth(16)
            .mechanism(core::Mechanism::PnAR2)
            .tenant("reader", "usr_1", 200)
            .qdLimit(16)
            .tenant("mixed", "stg_0", 150)
            .qdLimit(8)
            .build();
    host::ScenarioConfig cfg =
        spec.toConfig(core::Mechanism::PnAR2);
    cfg.threads = threads;
    return host::runScenario(cfg);
}

TEST(ParallelDeterminism, Raid5DegradedMatchesAcrossThreads)
{
    const host::ScenarioResult one = runRaid5Degraded(1);
    // The scenario must actually exercise reconstruction and parity
    // maintenance, or the equality below proves nothing.
    EXPECT_GT(one.array.degradedReads, 0u);
    EXPECT_GT(one.array.reconstructionReads, 0u);
    EXPECT_GT(one.array.parityWrites, 0u);
    const host::ScenarioResult two = runRaid5Degraded(2);
    const host::ScenarioResult four = runRaid5Degraded(4);
    {
        SCOPED_TRACE("threads 1 vs 2");
        expectIdenticalResult(one, two);
    }
    {
        SCOPED_TRACE("threads 1 vs 4");
        expectIdenticalResult(one, four);
    }
}

/**
 * Full filter chain on the sharded engine: readahead feeding a DRAM
 * cache, plus a delay and a split stage — cache hits complete on the
 * host domain without ever crossing into a drive, prefetches are
 * chain-internal, split pieces rejoin across window boundaries. The
 * chain lives entirely on the host domain, so every counter and the
 * host-surface histogram must be bit-identical for any worker count.
 */
host::ScenarioResult
runFilterChain(std::uint32_t threads)
{
    host::ScenarioBuilder b;
    b.name("filter-chain-determinism")
        .geometry("small")
        .pec(1.0)
        .retention(6.0)
        .seed(23)
        .drives(4)
        .hostLinkUs(10.0)
        .queueDepth(16)
        .mechanism(core::Mechanism::PnAR2);
    b.readahead(8);
    host::filter::FilterSpec cache;
    cache.type = "cache";
    cache.sizeBytes = 4ull << 20;
    cache.admission = "all";
    cache.hitLatencyUs = 2.0;
    b.addFilter(cache);
    host::filter::FilterSpec delay;
    delay.type = "delay";
    delay.delayUs = 3.0;
    delay.applies = "writes";
    b.addFilter(delay);
    host::filter::FilterSpec split;
    split.type = "split";
    split.maxPages = 2;
    b.addFilter(split);
    b.tenant("scan", "seq_scan", 250).qdLimit(16);
    b.tenant("kv", "YCSB-C", 250).qdLimit(8);
    b.tenant("log", "stg_0", 200).qdLimit(8);
    host::ScenarioConfig cfg =
        b.build().toConfig(core::Mechanism::PnAR2);
    cfg.threads = threads;
    return host::runScenario(cfg);
}

TEST(ParallelDeterminism, FilterChainMatchesAcrossThreads)
{
    const host::ScenarioResult one = runFilterChain(1);
    // The scenario must actually exercise every filter, or the
    // equalities below prove nothing.
    EXPECT_GT(one.array.cacheHits, 0u);
    EXPECT_GT(one.array.prefetchIssued, 0u);
    EXPECT_GT(one.array.prefetchUseful, 0u);
    EXPECT_GT(one.array.splitRequests, 0u);
    EXPECT_GT(one.array.delayedRequests, 0u);
    EXPECT_GT(one.array.hostReads, 0u);
    const host::ScenarioResult two = runFilterChain(2);
    const host::ScenarioResult four = runFilterChain(4);
    {
        SCOPED_TRACE("threads 1 vs 2");
        expectIdenticalResult(one, two);
    }
    {
        SCOPED_TRACE("threads 1 vs 4");
        expectIdenticalResult(one, four);
    }
}

/**
 * Fault timeline on the sharded engine: a fail-slow window, seeded
 * UECC reads, and a mid-run fail-stop whose detection triggers a
 * rebuild-to-spare — timeouts, retries with backoff, failover
 * reconstruction joins, and the rebuild agent's background queue
 * pair all at once. All fault decisions live on the host domain, so
 * threads 1/2/4 must agree bit for bit, including every new
 * robustness counter.
 */
host::ScenarioResult
runFaultTimeline(std::uint32_t threads)
{
    const host::ScenarioSpec spec =
        host::ScenarioBuilder()
            .name("fault-timeline-determinism")
            .geometry("small")
            .pec(1.0)
            .retention(6.0)
            .seed(23)
            .drives(4)
            .raid("raid5")
            .stripeUnitPages(4)
            .hostLinkUs(10.0)
            .transferUsPerKb(0.2)
            .queueDepth(16)
            .timeoutUs(2500.0)
            .retryMax(2)
            .retryBackoffUs(100.0)
            .failSlow(2, 500.0, 6000.0, 3.0)
            .ueccFault(1, 0.0, 0.0, 0.05)
            .failStop(0, 4000.0, /*rebuild=*/true,
                      /*rebuild_rows=*/48)
            .mechanism(core::Mechanism::PnAR2)
            .tenant("reader", "usr_1", 200)
            .qdLimit(16)
            .tenant("mixed", "stg_0", 150)
            .qdLimit(8)
            .build();
    host::ScenarioConfig cfg =
        spec.toConfig(core::Mechanism::PnAR2);
    cfg.threads = threads;
    return host::runScenario(cfg);
}

TEST(ParallelDeterminism, FaultTimelineMatchesAcrossThreads)
{
    const host::ScenarioResult one = runFaultTimeline(1);
    // The scenario must actually trip every robustness path, or the
    // equalities below prove nothing.
    EXPECT_GT(one.array.hostTimeouts, 0u);
    EXPECT_GT(one.array.hostRetries, 0u);
    EXPECT_GT(one.array.hostFailovers, 0u);
    EXPECT_GT(one.array.ueccReads, 0u);
    EXPECT_GT(one.array.rebuildReads, 0u);
    EXPECT_GT(one.array.degradedReads, 0u);
    const host::ScenarioResult two = runFaultTimeline(2);
    const host::ScenarioResult four = runFaultTimeline(4);
    {
        SCOPED_TRACE("threads 1 vs 2");
        expectIdenticalResult(one, two);
    }
    {
        SCOPED_TRACE("threads 1 vs 4");
        expectIdenticalResult(one, four);
    }
}

/**
 * Storage fabric on the sharded engine: every dispatch and completion
 * multi-hops through switch domains with per-link FIFO contention,
 * and the oversubscribed uplinks force queueing — the cross-domain
 * traffic pattern with the most intermediate state the array can
 * generate. Threads 1/2/4 must agree bit for bit, including every
 * per-link counter.
 */
host::ScenarioResult
runFabric(std::uint32_t threads, bool batch_mailbox = true)
{
    fabric::TopologySpec topo;
    topo.nodes = {{"host0", "host"}, {"tor0", "switch"},
                  {"tor1", "switch"}, {"bay0", "drive"},
                  {"bay1", "drive"},  {"bay2", "drive"},
                  {"bay3", "drive"}};
    topo.links = {{"host0", "tor0", 2.0, 0.4},
                  {"host0", "tor1", 2.0, 0.4},
                  {"tor0", "bay0", 1.0, 0.05},
                  {"tor0", "bay1", 1.0, 0.05},
                  {"tor1", "bay2", 1.0, 0.05},
                  {"tor1", "bay3", 1.0, 0.05}};
    topo.drives = {"bay0", "bay1", "bay2", "bay3"};
    const host::ScenarioSpec spec =
        host::ScenarioBuilder()
            .name("fabric-determinism")
            .geometry("small")
            .pec(1.0)
            .retention(6.0)
            .seed(31)
            .drives(4)
            .queueDepth(16)
            .arbitration("wrr")
            .mechanism(core::Mechanism::PnAR2)
            .tenant("kv", "YCSB-C", 200)
            .qdLimit(16)
            .weight(3)
            .tenant("log", "stg_0", 150)
            .qdLimit(8)
            .weight(1)
            .fabric(topo)
            .build();
    host::ScenarioConfig cfg = spec.toConfig(core::Mechanism::PnAR2);
    cfg.threads = threads;
    cfg.batchMailbox = batch_mailbox;
    return host::runScenario(cfg);
}

TEST(ParallelDeterminism, FabricScenarioMatchesAcrossThreads)
{
    const host::ScenarioResult one = runFabric(1);
    // The scenario must actually push traffic through the fabric —
    // and queue on the oversubscribed uplinks — or the equalities
    // below prove nothing.
    ASSERT_EQ(one.array.fabricLinks.size(), 6u);
    EXPECT_GT(one.array.fabricLinks[0].messages, 0u);
    EXPECT_GT(one.array.fabricLinks[0].bytesCarried, 0u);
    EXPECT_GT(one.array.fabricLinks[0].waitUs, 0.0);
    EXPECT_GT(one.array.avgFabricWaitUs, 0.0);
    const host::ScenarioResult two = runFabric(2);
    const host::ScenarioResult four = runFabric(4);
    {
        SCOPED_TRACE("threads 1 vs 2");
        expectIdenticalResult(one, two);
    }
    {
        SCOPED_TRACE("threads 1 vs 4");
        expectIdenticalResult(one, four);
    }
}

/** The tree preset behind the fabric.preset sugar must behave the same. */
TEST(ParallelDeterminism, FabricPresetMatchesAcrossThreads)
{
    auto run = [](std::uint32_t threads) {
        const host::ScenarioSpec spec =
            host::ScenarioBuilder()
                .geometry("small")
                .pec(1.0)
                .retention(6.0)
                .seed(7)
                .drives(4)
                .queueDepth(16)
                .mechanism(core::Mechanism::Baseline)
                .tenant("t", "usr_1", 200)
                .qdLimit(16)
                .fabricPreset("tree:2x2")
                .build();
        host::ScenarioConfig cfg =
            spec.toConfig(core::Mechanism::Baseline);
        cfg.threads = threads;
        return host::runScenario(cfg);
    };
    const host::ScenarioResult one = run(1);
    EXPECT_GT(one.array.fabricLinks.size(), 0u);
    expectIdenticalResult(one, run(4));
}

TEST(ParallelDeterminism, OpenLoopHorizonScenarioMatches)
{
    // Open-loop injection with a time horizon exercises
    // arrival-driven host events (not just completion-driven ones)
    // across window boundaries.
    auto run = [](std::uint32_t threads) {
        const host::ScenarioSpec spec =
            host::ScenarioBuilder()
                .geometry("small")
                .pec(1.0)
                .retention(6.0)
                .seed(7)
                .drives(4)
                .hostLinkUs(5.0)
                .queueDepth(16)
                .mechanism(core::Mechanism::Baseline)
                .tenant("steady", "YCSB-C", 150)
                .openLoop()
                .iops(4000.0)
                .horizonUs(80000.0)
                .tenant("bg", "stg_0", 150)
                .qdLimit(8)
                .build();
        host::ScenarioConfig cfg =
            spec.toConfig(core::Mechanism::Baseline);
        cfg.threads = threads;
        return host::runScenario(cfg);
    };
    expectIdenticalResult(run(1), run(4));
}

/**
 * Idle-window fast-forward and the parking handshake at scenario
 * scale: a single queue-depth-1 tenant leaves exactly one request in
 * flight, ping-ponging between the host domain and one drive, so
 * nearly every window has a lone active domain and fast-forwards
 * inline while the worker fleet stays parked. windowsRun and
 * windowsSkipped derive from queue state only and must be identical
 * at threads 1/2/4 — alongside the full simulation results — while
 * parks/spins are timing-dependent and deliberately unchecked. Under
 * the CI tsan job this doubles as the race probe for park/wake at
 * whole-scenario scale.
 */
host::ScenarioResult
runSparseQd1(std::uint32_t threads)
{
    const host::ScenarioSpec spec =
        host::ScenarioBuilder()
            .name("sparse-fastforward-determinism")
            .geometry("small")
            .pec(1.0)
            .retention(6.0)
            .seed(17)
            .drives(4)
            .hostLinkUs(10.0)
            .queueDepth(4)
            .mechanism(core::Mechanism::PnAR2)
            .tenant("lone", "usr_1", 200)
            .qdLimit(1)
            .build();
    host::ScenarioConfig cfg = spec.toConfig(core::Mechanism::PnAR2);
    cfg.threads = threads;
    return host::runScenario(cfg);
}

TEST(ParallelDeterminism, FastForwardCountersMatchAcrossThreads)
{
    const host::ScenarioResult one = runSparseQd1(1);
    EXPECT_GT(one.array.executorWindowsRun, 0u);
    // QD 1 means at most one domain has in-window work, so the
    // sparse path must actually engage or this test proves nothing.
    EXPECT_GT(one.array.executorWindowsSkipped, 0u);
    // Single-thread runs have no worker pool and must never park.
    EXPECT_EQ(one.array.executorParks, 0u);
    EXPECT_EQ(one.array.executorSpins, 0u);
    const host::ScenarioResult two = runSparseQd1(2);
    const host::ScenarioResult four = runSparseQd1(4);
    for (const host::ScenarioResult *r : {&two, &four}) {
        EXPECT_EQ(r->array.executorWindowsRun,
                  one.array.executorWindowsRun)
            << "windowsRun must be worker-count-invariant";
        EXPECT_EQ(r->array.executorWindowsSkipped,
                  one.array.executorWindowsSkipped)
            << "windowsSkipped must be worker-count-invariant";
    }
    {
        SCOPED_TRACE("threads 1 vs 2");
        expectIdenticalResult(one, two);
    }
    {
        SCOPED_TRACE("threads 1 vs 4");
        expectIdenticalResult(one, four);
    }
}

/**
 * Doorbell batching (coalescing same-window mailbox crossings that
 * share a receiver and delivery tick into one heap event) is an
 * engine optimization, not a model change: with batching on — the
 * default — every statistic including executedEvents must match the
 * unbatched event stream bit for bit, at every worker count. This is
 * the acceptance oracle for sim::ParallelExecutor's batched route().
 */
TEST(ParallelDeterminism, DoorbellBatchingParityAcrossThreads)
{
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectIdenticalResult(
            runWithThreads(threads, /*batch_mailbox=*/false),
            runWithThreads(threads, /*batch_mailbox=*/true));
    }
}

/**
 * Batching applies to hop-by-hop switch traffic too — per-link
 * counters and queueing must be unaffected.
 */
TEST(ParallelDeterminism, DoorbellBatchingParityOnFabric)
{
    {
        SCOPED_TRACE("threads 1");
        expectIdenticalResult(runFabric(1, /*batch_mailbox=*/false),
                              runFabric(1, /*batch_mailbox=*/true));
    }
    {
        SCOPED_TRACE("threads 4");
        expectIdenticalResult(runFabric(4, /*batch_mailbox=*/false),
                              runFabric(4, /*batch_mailbox=*/true));
    }
}

/**
 * host.hostLinkUs is sugar for a flat fabric: one host0->dN link per
 * drive at that latency with no serialization charge. The same
 * 4-drive scenario run either way must agree on every statistic
 * except the per-link rows and the read fabric wait, which the
 * host-link form leaves unreported.
 */
host::ScenarioResult
runFlatCoupling(double link_us, bool explicit_fabric)
{
    host::ScenarioSpec spec = fourDriveSpec();
    spec.hostLinkUs = 0.0;
    if (explicit_fabric) {
        spec.fabric = fabric::makePreset("flat", spec.drives);
        for (fabric::LinkSpec &l : spec.fabric.links) {
            l.latencyUs = link_us;
            l.usPerKb = 0.0;
        }
    } else {
        spec.hostLinkUs = link_us;
    }
    spec.validate();
    host::ScenarioConfig cfg = spec.toConfig(core::Mechanism::PnAR2);
    cfg.threads = 2;
    return host::runScenario(cfg);
}

TEST(ParallelDeterminism, HostLinkIsAFlatFabric)
{
    // 1.0015 us is 1001 ticks; a round trip through microseconds
    // (sim::usec(sim::toUsec(1001))) would truncate it to 1000.
    ASSERT_EQ(sim::usec(1.0015), 1001u);
    ASSERT_EQ(sim::usec(sim::toUsec(1001)), 1000u);
    for (double link_us : {10.0, 1.0015}) {
        SCOPED_TRACE("link " + std::to_string(link_us) + " us");
        const host::ScenarioResult link = runFlatCoupling(link_us, false);
        const host::ScenarioResult flat = runFlatCoupling(link_us, true);
        EXPECT_GT(link.array.reads, 0u);
        EXPECT_TRUE(link.array.fabricLinks.empty());
        EXPECT_EQ(link.array.avgFabricWaitUs, 0.0);
        ASSERT_EQ(flat.array.fabricLinks.size(), 4u);
        EXPECT_GT(flat.array.fabricLinks[0].messages, 0u);
        expectIdenticalArrayExceptFabric(link.array, flat.array);
        EXPECT_EQ(link.array.executorWindowsRun,
                  flat.array.executorWindowsRun);
        EXPECT_EQ(link.array.executorWindowsSkipped,
                  flat.array.executorWindowsSkipped);
        expectIdenticalTenants(link, flat);
    }
}

} // namespace
} // namespace ssdrr
