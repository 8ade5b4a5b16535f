/**
 * @file
 * Integration tests for the full SSD: submission, replay, FTL
 * wiring, GC-through-the-datapath and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ssd/ssd.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

namespace ssdrr::ssd {
namespace {

Config
testConfig(double pe = 0.0, double ret = 0.0)
{
    Config c = Config::small();
    c.basePeKilo = pe;
    c.baseRetentionMonths = ret;
    return c;
}

TEST(Ssd, SingleReadOnFreshSsdMatchesPlainLatency)
{
    Ssd ssd(testConfig(), core::Mechanism::Baseline);
    ssd.ftl().precondition();

    HostRequest req;
    req.id = 1;
    req.arrival = 0;
    req.lpn = 0;
    req.pages = 1;
    req.isRead = true;
    ssd.submit(req);
    ssd.drain();

    const RunStats st = ssd.stats();
    EXPECT_EQ(st.reads, 1u);
    // Fresh page: no retry. LPN 0 lands on page 0 = LSB (tR 78) via
    // striped preconditioning: 78 + 16 + 20 = 114 us.
    EXPECT_NEAR(st.avgReadResponseUs, 114.0, 0.5);
    EXPECT_DOUBLE_EQ(st.avgRetrySteps, 0.0);
}

TEST(Ssd, SingleWriteCostsDmaPlusProgram)
{
    Ssd ssd(testConfig(), core::Mechanism::Baseline);
    ssd.ftl().precondition();

    HostRequest req;
    req.id = 1;
    req.lpn = 3;
    req.pages = 1;
    req.isRead = false;
    ssd.submit(req);
    ssd.drain();

    const RunStats st = ssd.stats();
    EXPECT_EQ(st.writes, 1u);
    // tDMA (16) + tPROG (700) = 716 us.
    EXPECT_NEAR(st.avgWriteResponseUs, 716.0, 1.0);
}

TEST(Ssd, MultiPageRequestCompletesWhenAllPagesDo)
{
    Ssd ssd(testConfig(), core::Mechanism::Baseline);
    ssd.ftl().precondition();

    HostRequest req;
    req.id = 1;
    req.lpn = 0;
    req.pages = 8;
    req.isRead = true;
    ssd.submit(req);
    ssd.drain();

    const RunStats st = ssd.stats();
    EXPECT_EQ(st.reads, 1u) << "one host request, not eight";
    // Eight pages stripe across eight distinct dies: they overlap,
    // so the response is far below 8x the single-page latency but at
    // least the slowest page (CSB: 117 + 16 + 20 = 153 us).
    EXPECT_GE(st.avgReadResponseUs, 150.0);
    EXPECT_LT(st.avgReadResponseUs, 2.0 * 153.0);
}

TEST(Ssd, AgedSsdTriggersRetries)
{
    Ssd ssd(testConfig(1.0, 6.0), core::Mechanism::Baseline);
    ssd.ftl().precondition();

    for (std::uint64_t i = 0; i < 32; ++i) {
        HostRequest req;
        req.id = i + 1;
        req.lpn = i * 7;
        req.pages = 1;
        req.isRead = true;
        ssd.submit(req);
    }
    ssd.drain();

    const RunStats st = ssd.stats();
    EXPECT_EQ(st.reads, 32u);
    // (1K, 6mo): ~12 retry steps on average.
    EXPECT_GT(st.avgRetrySteps, 8.0);
    EXPECT_LT(st.avgRetrySteps, 16.0);
    EXPECT_GT(st.avgReadResponseUs, 1000.0)
        << "retry steps multiply the read latency";
    EXPECT_EQ(st.readFailures, 0u);
}

TEST(Ssd, RewrittenPagesBecomeFreshAgain)
{
    Ssd ssd(testConfig(0.0, 12.0), core::Mechanism::Baseline);
    ssd.ftl().precondition();

    // First read the aged page (needs retries), then rewrite it and
    // read it again (no retries).
    HostRequest rd1{1, 0, 5, 1, true};
    ssd.submit(rd1);
    ssd.drain();
    const double aged_steps = ssd.stats().avgRetrySteps;
    EXPECT_GT(aged_steps, 0.0);

    HostRequest wr{2, 0, 5, 1, false};
    ssd.submit(wr);
    ssd.drain();

    HostRequest rd2{3, 0, 5, 1, true};
    ssd.submit(rd2);
    ssd.drain();
    // Average over {aged read with N steps, fresh read with 0}:
    // the mean must drop after the fresh read.
    EXPECT_LT(ssd.stats().avgRetrySteps, aged_steps);
}

TEST(Ssd, ReplaySmallTraceCompletesAllRequests)
{
    workload::SyntheticSpec spec = workload::findWorkload("hm_0");
    const workload::Trace trace = workload::generateSynthetic(
        spec, testConfig().logicalPages(), 300, 5);

    Ssd ssd(testConfig(1.0, 3.0), core::Mechanism::Baseline);
    const RunStats st = ssd.replay(trace);
    EXPECT_EQ(st.reads + st.writes, trace.size());
    EXPECT_GT(st.avgResponseUs, 0.0);
    EXPECT_GT(st.simulatedMs, 0.0);
    EXPECT_GE(st.p99ResponseUs, st.avgResponseUs);
    EXPECT_GE(st.maxResponseUs, st.p99ResponseUs);
}

TEST(Ssd, ReplayIsDeterministic)
{
    workload::SyntheticSpec spec = workload::findWorkload("YCSB-C");
    const workload::Trace trace = workload::generateSynthetic(
        spec, testConfig().logicalPages(), 200, 9);

    Ssd a(testConfig(1.0, 6.0), core::Mechanism::PnAR2);
    Ssd b(testConfig(1.0, 6.0), core::Mechanism::PnAR2);
    const RunStats sa = a.replay(trace);
    const RunStats sb = b.replay(trace);
    EXPECT_DOUBLE_EQ(sa.avgResponseUs, sb.avgResponseUs);
    EXPECT_DOUBLE_EQ(sa.p99ResponseUs, sb.p99ResponseUs);
    EXPECT_DOUBLE_EQ(sa.avgRetrySteps, sb.avgRetrySteps);
    EXPECT_EQ(sa.suspensions, sb.suspensions);
}

TEST(Ssd, SuspensionServesReadsDuringPrograms)
{
    // Sustained writes + reads on the same dies: with suspension on,
    // reads preempt programs and response time drops.
    workload::SyntheticSpec spec;
    spec.name = "mix";
    spec.readRatio = 0.5;
    spec.coldRatio = 0.5;
    spec.iops = 4000.0;
    const workload::Trace trace = workload::generateSynthetic(
        spec, testConfig().logicalPages(), 400, 11);

    Config with = testConfig(0.0, 3.0);
    Config without = testConfig(0.0, 3.0);
    without.suspension = false;

    Ssd on(with, core::Mechanism::Baseline);
    Ssd off(without, core::Mechanism::Baseline);
    const RunStats st_on = on.replay(trace);
    const RunStats st_off = off.replay(trace);

    EXPECT_GT(st_on.suspensions, 0u);
    EXPECT_EQ(st_off.suspensions, 0u);
    // Read latency benefits from preemption.
    EXPECT_LT(st_on.avgReadResponseUs, st_off.avgReadResponseUs);
}

TEST(Ssd, HeavyOverwriteRunsGcThroughDatapath)
{
    // Overwrite a small hot set many times: runtime blocks fill with
    // since-invalidated pages, free blocks dip below the threshold
    // and GC must reclaim through real erase transactions.
    Config c = testConfig(0.0, 6.0);
    c.blocksPerPlane = 12;
    c.userFraction = 0.50; // 6 of 12 blocks per plane preconditioned
    c.gcThreshold = 4;

    Ssd ssd(c, core::Mechanism::Baseline);
    ssd.ftl().precondition();

    const std::uint64_t hot_pages = 2048; // 64 per plane
    std::uint64_t id = 1;
    for (int round = 0; round < 24; ++round) {
        for (std::uint64_t lpn = 0; lpn < hot_pages; ++lpn) {
            HostRequest req;
            req.id = id++;
            req.arrival = ssd.eventQueue().now();
            req.lpn = lpn;
            req.pages = 1;
            req.isRead = false;
            ssd.submit(req);
        }
        ssd.drain();
    }

    const RunStats st = ssd.stats();
    EXPECT_EQ(st.writes, 24u * hot_pages);
    EXPECT_GT(st.gcCollections, 0u) << "overwrites must trigger GC";
    EXPECT_GT(ssd.ftl().blocks().totalErases(), 0u);
    // Greedy GC prefers fully-invalidated victims (zero moves) for
    // this pure-overwrite workload; relocation-path coverage lives
    // in ftl_test.cc's GcMovesPreserveLpnOwnership.
    // The FTL must keep every plane above its free-block threshold.
    for (std::uint32_t pl = 0; pl < c.layout().totalPlanes(); ++pl)
        EXPECT_GE(ssd.ftl().blocks().freeBlocks(pl), c.gcThreshold);
}

TEST(Ssd, RequestBeyondCapacityPanics)
{
    Ssd ssd(testConfig(), core::Mechanism::Baseline);
    ssd.ftl().precondition();
    HostRequest req;
    req.id = 1;
    req.lpn = ssd.ftl().logicalPages();
    req.pages = 1;
    req.isRead = true;
    EXPECT_THROW(ssd.submit(req), std::logic_error);
}

TEST(Ssd, EmptyRequestPanics)
{
    Ssd ssd(testConfig(), core::Mechanism::Baseline);
    ssd.ftl().precondition();
    HostRequest req;
    req.id = 1;
    req.pages = 0;
    EXPECT_THROW(ssd.submit(req), std::logic_error);
}

TEST(Ssd, RptIsBuiltAndExposed)
{
    Ssd ssd(testConfig(), core::Mechanism::PnAR2);
    EXPECT_EQ(ssd.rpt().entries(), 36u);
    EXPECT_EQ(ssd.mechanism(), core::Mechanism::PnAR2);
}

TEST(Ssd, UtilizationStatsAreCoherent)
{
    workload::SyntheticSpec spec = workload::findWorkload("usr_1");
    const workload::Trace trace = workload::generateSynthetic(
        spec, testConfig().logicalPages(), 300, 19);
    Ssd ssd(testConfig(1.0, 6.0), core::Mechanism::Baseline);
    const RunStats st = ssd.replay(trace);
    // Busy fractions are proper fractions, and the bus (16 us/page +
    // retry transfers) must be busier than idle but below saturation
    // at this load.
    EXPECT_GT(st.channelUtilization, 0.0);
    EXPECT_LT(st.channelUtilization, 1.0);
    EXPECT_GT(st.eccUtilization, 0.0);
    EXPECT_LT(st.eccUtilization, 1.0);
    // Each retry step moves one transfer (16 us) and one decode
    // (20 us): the ECC engine is proportionally busier.
    EXPECT_GT(st.eccUtilization, st.channelUtilization * 0.8);
}

/** What a replay leaves behind: the summary and every completion. */
struct Replayed {
    RunStats stats;
    std::vector<HostCompletion> done;
    /** executedEvents() as each completion fires: pins where every
     *  completion falls in the global event order, which is what a
     *  changed same-tick tie (arrival vs completion) would move. */
    std::vector<std::uint64_t> eventsAtDone;
};

/** Record every completion of @p ssd into @p out. */
void
recordCompletions(Ssd &ssd, Replayed &out)
{
    ssd.onHostComplete([&ssd, &out](const HostCompletion &c) {
        out.done.push_back(c);
        out.eventsAtDone.push_back(ssd.eventQueue().executedEvents());
    });
}

/** A read-mostly trace whose records arrive in bursts of 1-3 on a
 *  coarse grid (40-160 us apart), so many records share a tick. */
std::vector<workload::TraceRecord>
burstyRecords(std::size_t n, std::uint64_t lpns)
{
    std::uint64_t rng = 0x2545f4914f6cdd1dull;
    auto next_rand = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    std::vector<workload::TraceRecord> recs;
    sim::Tick t = 0;
    while (recs.size() < n) {
        const std::size_t burst = 1 + next_rand() % 3;
        for (std::size_t b = 0; b < burst && recs.size() < n; ++b) {
            workload::TraceRecord r;
            r.arrival = t;
            r.pages = 1 + static_cast<std::uint32_t>(next_rand() % 3);
            r.lpn = next_rand() % (lpns - r.pages);
            r.isRead = next_rand() % 4 != 0;
            recs.push_back(r);
        }
        t += sim::usec(40.0 * static_cast<double>(1 + next_rand() % 4));
    }
    return recs;
}

/**
 * The eager reference for Ssd::replay, built from public calls only:
 * every record's submit is scheduled up front on the drive's queue,
 * then the queue drains.
 */
Replayed
replayEagerly(const Config &cfg, const workload::Trace &trace)
{
    Ssd ssd(cfg, core::Mechanism::PnAR2);
    Replayed out;
    recordCompletions(ssd, out);
    ssd.precondition();
    sim::EventQueue &eq = ssd.eventQueue();
    const auto &recs = trace.records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        HostRequest req;
        req.id = i + 1;
        req.arrival = eq.now() + recs[i].arrival;
        req.lpn = recs[i].lpn;
        req.pages = recs[i].pages;
        req.isRead = recs[i].isRead;
        eq.schedule(req.arrival, [&ssd, req] { ssd.submit(req); });
    }
    ssd.drain();
    out.stats = ssd.stats();
    return out;
}

Replayed
replayLazily(const Config &cfg, const workload::Trace &trace)
{
    Ssd ssd(cfg, core::Mechanism::PnAR2);
    Replayed out;
    recordCompletions(ssd, out);
    out.stats = ssd.replay(trace);
    return out;
}

/** Every field a single drive's stats() fills; the rest of RunStats
 *  is host, array and executor accounting that stays zero here. */
void
expectIdenticalDriveStats(const RunStats &a, const RunStats &b)
{
    // Exact comparison on doubles: a changed event order first shows
    // up as a last-bit drift in an accumulated mean.
    EXPECT_EQ(a.avgReadResponseUs, b.avgReadResponseUs);
    EXPECT_EQ(a.avgWriteResponseUs, b.avgWriteResponseUs);
    EXPECT_EQ(a.avgResponseUs, b.avgResponseUs);
    EXPECT_EQ(a.p99ResponseUs, b.p99ResponseUs);
    EXPECT_EQ(a.maxResponseUs, b.maxResponseUs);
    EXPECT_EQ(a.p50ReadResponseUs, b.p50ReadResponseUs);
    EXPECT_EQ(a.p99ReadResponseUs, b.p99ReadResponseUs);
    EXPECT_EQ(a.p999ReadResponseUs, b.p999ReadResponseUs);
    EXPECT_EQ(a.avgRetrySteps, b.avgRetrySteps);
    EXPECT_EQ(a.retrySamples, b.retrySamples);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.suspensions, b.suspensions);
    EXPECT_EQ(a.gcCollections, b.gcCollections);
    EXPECT_EQ(a.timingFallbacks, b.timingFallbacks);
    EXPECT_EQ(a.readFailures, b.readFailures);
    EXPECT_EQ(a.refreshes, b.refreshes);
    EXPECT_EQ(a.profileCacheHits, b.profileCacheHits);
    EXPECT_EQ(a.profileCacheMisses, b.profileCacheMisses);
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.simulatedMs, b.simulatedMs);
    EXPECT_EQ(a.channelUtilization, b.channelUtilization);
    EXPECT_EQ(a.eccUtilization, b.eccUtilization);
}

TEST(Ssd, ReplayMatchesEagerSchedule)
{
    const Config cfg = testConfig(1.0, 6.0);
    std::vector<workload::TraceRecord> recs =
        burstyRecords(400, cfg.logicalPages());

    // Add arrivals that land exactly on read-completion ticks, where
    // the arrival must run before the completion. Each is taken from
    // an eager run of the trace so far; an arrival at tick c leaves
    // everything before c, and the completions already due at c,
    // unchanged, so earlier ties survive later insertions.
    std::vector<sim::Tick> tie_ticks;
    for (int k = 0; k < 4; ++k) {
        const Replayed ref =
            replayEagerly(cfg, workload::Trace("ties", recs));
        const sim::Tick after = tie_ticks.empty()
                                    ? recs[recs.size() / 8].arrival
                                    : tie_ticks.back() + sim::usec(500);
        const auto hit = std::find_if(
            ref.done.begin(), ref.done.end(),
            [after](const HostCompletion &c) {
                return c.isRead && c.finish > after;
            });
        ASSERT_NE(hit, ref.done.end());
        const sim::Tick c = hit->finish;
        ASSERT_LT(c, recs.back().arrival);
        workload::TraceRecord r;
        r.arrival = c;
        r.lpn = 17 * (k + 1);
        r.isRead = true;
        recs.insert(std::upper_bound(recs.begin(), recs.end(), r,
                                     [](const workload::TraceRecord &x,
                                        const workload::TraceRecord &y) {
                                         return x.arrival < y.arrival;
                                     }),
                    r);
        tie_ticks.push_back(c);
    }
    const workload::Trace trace("ties", recs);

    const Replayed eager = replayEagerly(cfg, trace);
    const Replayed lazy = replayLazily(cfg, trace);

    // The trace has same-tick bursts and the ties really occurred.
    std::size_t burst_records = 0;
    for (std::size_t i = 1; i < recs.size(); ++i)
        burst_records += recs[i].arrival == recs[i - 1].arrival;
    EXPECT_GT(burst_records, 100u);
    std::size_t ties = 0;
    for (const sim::Tick t : tie_ticks)
        ties += std::any_of(eager.done.begin(), eager.done.end(),
                            [t](const HostCompletion &c) {
                                return c.finish == t;
                            });
    ASSERT_GE(ties, 1u) << "no arrival landed on a completion tick";

    expectIdenticalDriveStats(eager.stats, lazy.stats);
    EXPECT_EQ(lazy.stats.reads + lazy.stats.writes, trace.size());
    ASSERT_EQ(eager.done.size(), lazy.done.size());
    for (std::size_t i = 0; i < eager.done.size(); ++i) {
        SCOPED_TRACE("completion " + std::to_string(i));
        EXPECT_EQ(eager.done[i].id, lazy.done[i].id);
        EXPECT_EQ(eager.done[i].arrival, lazy.done[i].arrival);
        EXPECT_EQ(eager.done[i].finish, lazy.done[i].finish);
        EXPECT_EQ(eager.eventsAtDone[i], lazy.eventsAtDone[i]);
    }
}

TEST(Ssd, ReplayHoldsOnlyTheNextBurst)
{
    const Config cfg = testConfig();
    const workload::Trace trace(
        "long", burstyRecords(20000, cfg.logicalPages()));
    Ssd ssd(cfg, core::Mechanism::PnAR2);
    std::size_t max_pending = 0;
    ssd.onHostComplete([&ssd, &max_pending](const HostCompletion &) {
        max_pending =
            std::max(max_pending, ssd.eventQueue().pending());
    });
    const RunStats st = ssd.replay(trace);
    EXPECT_EQ(st.reads + st.writes, trace.size());
    // In-flight device work plus at most two bursts of three records,
    // where scheduling the whole trace up front would hold ~20000.
    EXPECT_LT(max_pending, 64u);
}

TEST(Ssd, ReplayRejectsOutOfRangeTraceBeforeRunning)
{
    Ssd ssd(testConfig(), core::Mechanism::Baseline);
    std::vector<workload::TraceRecord> recs(3);
    recs[1].arrival = sim::usec(10.0);
    recs[2].arrival = sim::usec(20.0);
    recs[2].lpn = ssd.ftl().logicalPages() - 1;
    recs[2].pages = 2;
    const workload::Trace trace("overflow", recs);
    EXPECT_THROW(ssd.replay(trace), std::logic_error);
    EXPECT_EQ(ssd.eventQueue().executedEvents(), 0u);
    EXPECT_EQ(ssd.eventQueue().pending(), 0u);
}

TEST(Ssd, ResponseHistogramsArePopulated)
{
    workload::SyntheticSpec spec = workload::findWorkload("prn_1");
    const workload::Trace trace = workload::generateSynthetic(
        spec, testConfig().logicalPages(), 200, 21);
    Ssd ssd(testConfig(1.0, 3.0), core::Mechanism::PR2);
    ssd.replay(trace);
    EXPECT_EQ(ssd.responseTimes().count(), trace.size());
    EXPECT_GT(ssd.readResponseTimes().count(), 0u);
    EXPECT_LE(ssd.readResponseTimes().count(), trace.size());
}

} // namespace
} // namespace ssdrr::ssd
