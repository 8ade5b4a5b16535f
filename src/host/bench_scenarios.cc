#include "host/bench_scenarios.hh"

#include <string>

namespace ssdrr::host {

ScenarioSpec
buildBenchScenario(std::uint64_t requests_per_tenant, Arbitration arb)
{
    ScenarioBuilder b;
    b.name("bench-tail")
        .pec(1.0)
        .retention(6.0)
        .drives(2)
        .queueDepth(16)
        .arbitration(arb);
    for (const char *m : {"Baseline", "PR2", "AR2", "PnAR2", "NoRR"})
        b.mechanism(m);
    for (std::uint32_t t = 0; t < 4; ++t)
        b.tenant("tenant" + std::to_string(t), "usr_1",
                 requests_per_tenant)
            .qdLimit(16)
            .weight(arb == Arbitration::WeightedRoundRobin ? t + 1
                                                           : 1);
    return b.build();
}

sim::BenchRun
benchRunFrom(const std::string &name, const ssd::RunStats &a,
             double wall_seconds)
{
    sim::BenchRun run;
    run.name = name;
    run.wallSeconds = wall_seconds;
    run.executedEvents = a.executedEvents;
    run.reads = a.reads;
    run.writes = a.writes;
    run.retrySamples = a.retrySamples;
    run.avgRetrySteps = a.avgRetrySteps;
    run.suspensions = a.suspensions;
    run.gcCollections = a.gcCollections;
    run.readFailures = a.readFailures;
    run.refreshes = a.refreshes;
    run.simulatedMs = a.simulatedMs;
    run.p50ReadUs = a.p50ReadResponseUs;
    run.p99ReadUs = a.p99ReadResponseUs;
    run.p999ReadUs = a.p999ReadResponseUs;
    run.profileCacheHits = a.profileCacheHits;
    run.profileCacheMisses = a.profileCacheMisses;
    run.degradedReads = a.degradedReads;
    run.reconstructionReads = a.reconstructionReads;
    run.parityWrites = a.parityWrites;
    run.p99DegradedReadUs = a.p99DegradedReadUs;
    run.p999DegradedReadUs = a.p999DegradedReadUs;
    run.cacheHits = a.cacheHits;
    run.cacheMisses = a.cacheMisses;
    run.cacheEvictions = a.cacheEvictions;
    run.prefetchIssued = a.prefetchIssued;
    run.prefetchUseful = a.prefetchUseful;
    run.hostP99ReadUs = a.p99HostReadUs;
    run.hostTimeouts = a.hostTimeouts;
    run.hostRetries = a.hostRetries;
    run.hostFailovers = a.hostFailovers;
    run.ueccReads = a.ueccReads;
    run.failedRequests = a.failedRequests;
    run.rebuildReads = a.rebuildReads;
    run.timeToRebuildMs = a.timeToRebuildMs;
    run.avgFabricWaitUs = a.avgFabricWaitUs;
    run.windowsRun = a.executorWindowsRun;
    run.windowsSkipped = a.executorWindowsSkipped;
    run.parks = a.executorParks;
    run.spins = a.executorSpins;
    for (const ssd::RunStats::FabricLinkStats &l : a.fabricLinks) {
        run.fabricBusyUs += l.busyUs;
        run.fabricBytes += l.bytesCarried;
        if (l.maxQueueDepth > run.fabricMaxQueueDepth)
            run.fabricMaxQueueDepth = l.maxQueueDepth;
    }
    if (wall_seconds > 0.0) {
        run.eventsPerSecond =
            static_cast<double>(a.executedEvents) / wall_seconds;
        run.readsPerSecond = static_cast<double>(a.reads) / wall_seconds;
    }
    return run;
}

} // namespace ssdrr::host
