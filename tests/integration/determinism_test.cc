/**
 * @file
 * Determinism regression: the overhauled kernel (slot-table event
 * queue, SBO callbacks, profile cache, lazy preconditioning,
 * bucketed histograms) must keep whole-simulation results
 * bit-reproducible — two runs of the same seed produce identical
 * RunStats, including every latency percentile, and disabling the
 * profile cache must not change a single field.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host/scenario.hh"
#include "ssd/config.hh"
#include "ssd/ssd.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

namespace ssdrr {
namespace {

void
expectIdentical(const ssd::RunStats &a, const ssd::RunStats &b)
{
    EXPECT_EQ(ssd::deterministicDiff(a, b), std::vector<std::string>{});
}

ssd::RunStats
replayOnce(std::size_t cache_slots)
{
    ssd::Config cfg = ssd::Config::small();
    cfg.basePeKilo = 1.0;
    cfg.baseRetentionMonths = 6.0;
    cfg.profileCacheSlots = cache_slots;
    workload::SyntheticSpec spec = workload::findWorkload("usr_1");
    const workload::Trace trace = workload::generateSynthetic(
        spec, cfg.logicalPages(), 600, 77);
    ssd::Ssd ssd(cfg, core::Mechanism::PnAR2);
    return ssd.replay(trace);
}

TEST(Determinism, SingleSsdReplayIsBitReproducible)
{
    const ssd::RunStats a = replayOnce(ssd::Config().profileCacheSlots);
    const ssd::RunStats b = replayOnce(ssd::Config().profileCacheSlots);
    expectIdentical(a, b);
    EXPECT_GT(a.reads, 0u);
    EXPECT_GT(a.p999ReadResponseUs, 0.0);
}

TEST(Determinism, ProfileCacheDoesNotChangeResults)
{
    ssd::RunStats cached = replayOnce(1 << 14);
    ssd::RunStats uncached = replayOnce(0);
    EXPECT_GT(cached.profileCacheHits, 0u);
    // The cache's own counters are the one intended difference.
    for (ssd::RunStats *s : {&cached, &uncached})
        s->profileCacheHits = s->profileCacheMisses = 0;
    expectIdentical(cached, uncached);
}

TEST(Determinism, MultiTenantScenarioIsBitReproducible)
{
    auto run = [] {
        host::ScenarioConfig sc;
        sc.ssd = ssd::Config::small();
        sc.ssd.basePeKilo = 1.0;
        sc.ssd.baseRetentionMonths = 6.0;
        sc.mech = core::Mechanism::PnAR2;
        sc.drives = 2;
        sc.host.queueDepth = 16;
        for (std::uint32_t t = 0; t < 3; ++t) {
            host::TenantSpec ts;
            ts.workload = "usr_1";
            ts.name = "t" + std::to_string(t);
            ts.requests = 300;
            ts.qdLimit = 8;
            sc.tenants.push_back(ts);
        }
        return host::runScenario(sc);
    };

    const host::ScenarioResult a = run();
    const host::ScenarioResult b = run();
    expectIdentical(a.array, b.array);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
        EXPECT_EQ(a.tenants[t].completed, b.tenants[t].completed);
        EXPECT_DOUBLE_EQ(a.tenants[t].avgUs, b.tenants[t].avgUs);
        EXPECT_DOUBLE_EQ(a.tenants[t].p50Us, b.tenants[t].p50Us);
        EXPECT_DOUBLE_EQ(a.tenants[t].p99Us, b.tenants[t].p99Us);
        EXPECT_DOUBLE_EQ(a.tenants[t].p999Us, b.tenants[t].p999Us);
    }
    EXPECT_EQ(a.fetchedPerQueue, b.fetchedPerQueue);
}

TEST(HistogramMergeEquivalence, ArrayStatsMatchMergedPerDrive)
{
    // Single-page requests: a parent request's end-to-end latency
    // equals its (only) per-drive subrequest latency, so the merge
    // of the member drives' read histograms must reproduce the
    // array-level read percentiles exactly.
    ssd::Config cfg = ssd::Config::small();
    cfg.basePeKilo = 1.0;
    cfg.baseRetentionMonths = 3.0;
    host::SsdArray array(cfg, core::Mechanism::Baseline, 2);
    array.precondition();

    std::uint64_t rng = 4242;
    for (std::uint64_t id = 1; id <= 400; ++id) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        ssd::HostRequest req;
        req.id = id;
        req.arrival = array.eventQueue().now();
        req.lpn = rng % array.logicalPages();
        req.pages = 1;
        req.isRead = true;
        array.submit(req);
        if (id % 16 == 0)
            array.drain();
    }
    array.drain();

    sim::Histogram merged = array.drive(0).readResponseTimes();
    merged.merge(array.drive(1).readResponseTimes());

    const ssd::RunStats st = array.stats();
    EXPECT_EQ(merged.count(), st.reads);
    for (double p : {50.0, 99.0, 99.9}) {
        EXPECT_DOUBLE_EQ(merged.percentile(p),
                         array.readResponseTimes().percentile(p))
            << "p" << p;
    }
    EXPECT_DOUBLE_EQ(st.p50ReadResponseUs, merged.percentile(50.0));
    EXPECT_DOUBLE_EQ(st.p99ReadResponseUs, merged.percentile(99.0));
    EXPECT_DOUBLE_EQ(st.p999ReadResponseUs, merged.percentile(99.9));
}

} // namespace
} // namespace ssdrr
