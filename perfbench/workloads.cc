/**
 * @file
 * The benchmark's workloads and one timed run of each.
 *
 * runOnce() rebuilds host::runScenario (or Ssd::replay) from the
 * library's public calls, in the library's order, so that set-up and
 * the run can be timed apart without touching the library. The digest
 * check against runReference() shows the copy is faithful.
 */

#include <time.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench.hh"
#include "host/scenario_spec.hh"
#include "sim/logging.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Seconds since @p t; restarts @p t. */
double
lap(Clock::time_point &t)
{
    const Clock::time_point now = Clock::now();
    const double s = std::chrono::duration<double>(now - t).count();
    t = now;
    return s;
}

/** CPU seconds used by every thread of the process so far. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** Read pages the probes replay, in trace order. */
constexpr std::size_t kProbePages = 100000;

struct Sizes {
    std::uint64_t replayRequests;
    std::uint64_t windowedPerTenant;
    std::uint64_t raid5PerTenant;
};

Sizes
sizesFor(Size size)
{
    if (size == Size::Tiny)
        return {4000, 500, 1000};
    return {1000000, 50000, 100000};
}

workload::Trace
replayTrace(const Workload &w)
{
    const host::TenantSpec &ts = w.cfg.tenants.front();
    return workload::generateSynthetic(
        workload::findWorkload(ts.workload), w.cfg.ssd.logicalPages(),
        ts.requests, w.cfg.ssd.seed);
}

Outcome
runReplay(const Workload &w, Spans &sp, const ProbeFn &probe)
{
    Clock::time_point t = Clock::now();
    const workload::Trace trace = replayTrace(w);
    sp.traceGen = lap(t);
    ssd::Ssd drive(w.cfg.ssd, w.cfg.mech);
    sp.build = lap(t);
    drive.precondition();
    sp.precondition = lap(t);
    sp.setup = sp.traceGen + sp.build + sp.precondition;
    Outcome out;
    const double c0 = cpuSeconds();
    out.stats = drive.replay(trace);
    sp.drain = lap(t);
    sp.drainCpu = cpuSeconds() - c0;

    out.attempted = trace.size();
    out.completed = out.stats.reads + out.stats.writes;
    out.tenantCompleted = {out.completed};
    out.gcPageMoves = drive.ftl().gcPageMoves();
    if (probe) {
        Live live;
        live.drives = {&drive};
        live.outcome = &out;
        for (const workload::TraceRecord &r : trace.records()) {
            if (!r.isRead)
                continue;
            for (std::uint32_t p = 0;
                 p < r.pages && live.pages.size() < kProbePages; ++p)
                live.pages.push_back({0, r.lpn + p});
            if (live.pages.size() >= kProbePages)
                break;
        }
        probe(live);
    }
    return out;
}

Outcome
runArray(const Workload &w, Spans &sp, const ProbeFn &probe)
{
    const host::ScenarioConfig &cfg = w.cfg;
    // The copy covers what the workloads use; fail loudly if a
    // workload grows a feature runScenario wires differently.
    SSDRR_ASSERT(cfg.faults.empty() && cfg.transferUsPerKb == 0.0,
                 "perfbench: faults and transferUsPerKb are not wired");
    for (const host::TenantSpec &ts : cfg.tenants)
        SSDRR_ASSERT(ts.channelMask == 0 &&
                         !host::looksLikeTracePath(ts.workload),
                     "perfbench: channel masks and CSV traces are not "
                     "wired");

    Clock::time_point t = Clock::now();
    host::SsdArray::Options aopt;
    aopt.drives = cfg.drives;
    aopt.raid = cfg.raid;
    aopt.stripeUnitPages = cfg.stripeUnitPages;
    aopt.failedDrives = cfg.failedDrives;
    aopt.hostLink = sim::usec(cfg.hostLinkUs);
    aopt.threads = cfg.threads;
    aopt.batchMailbox = cfg.batchMailbox;
    aopt.fabric = cfg.fabric;
    aopt.faultSeed = cfg.ssd.seed;
    aopt.timeout = sim::usec(cfg.timeoutUs);
    aopt.retryMax = cfg.retryMax;
    aopt.retryBackoff = sim::usec(cfg.retryBackoffUs);
    host::SsdArray array(cfg.ssd, cfg.mech, aopt);
    sp.build = lap(t);
    array.precondition();
    sp.precondition = lap(t);
    host::HostInterface hif(array, cfg.host);
    sp.wire = lap(t);

    Outcome out;
    std::vector<PageRef> pages;
    const std::uint64_t slice = array.logicalPages() / cfg.tenants.size();
    const std::size_t page_budget = kProbePages / cfg.tenants.size();
    std::vector<std::unique_ptr<host::Tenant>> tenants;
    for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
        const host::TenantSpec &ts = cfg.tenants[i];
        // Per-tenant seed derivation as in host::runScenario.
        workload::Trace trace = host::makeTenantTrace(
            ts, slice, i * slice, cfg.ssd.pageBytes,
            cfg.ssd.seed + 7919 * (i + 1));
        sp.traceGen += lap(t);
        out.attempted += trace.size();
        if (probe) {
            std::size_t taken = 0;
            for (const workload::TraceRecord &r : trace.records()) {
                if (!r.isRead)
                    continue;
                for (std::uint32_t p = 0;
                     p < r.pages && taken < page_budget; ++p, ++taken)
                    pages.push_back({array.driveOf(r.lpn + p),
                                     array.localLpn(r.lpn + p)});
                if (taken >= page_budget)
                    break;
            }
            t = Clock::now();
        }
        host::TenantOptions topt;
        topt.mode = ts.mode;
        topt.qdLimit = ts.qdLimit;
        topt.weight = ts.weight;
        topt.rateIops = ts.rateIops;
        topt.burst = ts.burst;
        topt.sloUs = ts.sloUs;
        topt.horizonUs = ts.horizonUs;
        std::string tname = trace.name();
        tenants.push_back(std::make_unique<host::Tenant>(
            std::move(tname), std::move(trace), topt, hif));
        sp.wire += lap(t);
    }
    for (auto &tn : tenants)
        tn->start();
    sp.wire += lap(t);
    sp.setup = sp.traceGen + sp.build + sp.precondition + sp.wire;
    const double c0 = cpuSeconds();
    array.drain();
    sp.drain = lap(t);
    sp.drainCpu = cpuSeconds() - c0;

    out.stats = array.stats();
    hif.collectFilterStats(out.stats);
    for (const auto &tn : tenants) {
        out.tenantCompleted.push_back(tn->completed());
        out.completed += tn->completed();
    }
    for (std::uint32_t d = 0; d < array.drives(); ++d)
        out.gcPageMoves += array.drive(d).ftl().gcPageMoves();
    if (probe) {
        Live live;
        for (std::uint32_t d = 0; d < array.drives(); ++d)
            live.drives.push_back(&array.drive(d));
        live.pages = std::move(pages);
        live.outcome = &out;
        probe(live);
    }
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "replay-paper", "tenants-windowed", "raid5-rmw-cached"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, Size size,
             std::uint32_t threads)
{
    const Sizes n = sizesFor(size);
    Workload w;
    w.name = name;
    host::ScenarioBuilder b;
    b.seed(seed);
    if (name == "replay-paper") {
        // Section 7: one preconditioned paper-geometry drive replaying
        // usr_1 open-loop at the trace's own arrival times.
        w.replay = true;
        b.geometry("paper").pec(1.0).retention(6.0);
        b.mechanism(core::Mechanism::PnAR2);
        b.tenant("usr_1", "usr_1", n.replayRequests).openLoop();
        w.cfg = b.build().toConfig(core::Mechanism::PnAR2);
    } else if (name == "tenants-windowed") {
        // The par4d shape: 8 closed-loop tenants on 4 RAID-0 drives on
        // the windowed engine, full error-model math on every read.
        b.geometry("small")
            .pec(1.0)
            .retention(6.0)
            .drives(4)
            .hostLinkUs(50.0)
            .queueDepth(32)
            .maxDeviceInflight(128)
            .threads(threads);
        b.mechanism(core::Mechanism::PnAR2);
        for (std::uint32_t t = 0; t < 8; ++t)
            b.tenant("t" + std::to_string(t), t % 2 ? "YCSB-C" : "usr_1",
                     n.windowedPerTenant)
                .qdLimit(32);
        w.cfg = b.build().toConfig(core::Mechanism::PnAR2);
        w.cfg.ssd.profileCacheSlots = 0;
    } else if (name == "raid5-rmw-cached") {
        // Writers drive parity read-modify-writes and GC; readers
        // re-read a hot set a DRAM cache absorbs.
        b.geometry("small")
            .pec(2.0)
            .retention(12.0)
            .drives(4)
            .raid("raid5")
            .stripeUnitPages(4)
            .queueDepth(16)
            .dramCache(64ull << 20);
        b.mechanism(core::Mechanism::Baseline);
        for (std::uint32_t t = 0; t < 4; ++t)
            b.tenant("t" + std::to_string(t), t % 2 ? "YCSB-C" : "stg_0",
                     n.raid5PerTenant)
                .qdLimit(16);
        w.cfg = b.build().toConfig(core::Mechanism::Baseline);
    } else {
        SSDRR_FATAL("unknown workload: ", name);
    }
    return w;
}

std::string
digestText(const Outcome &o)
{
    const ssd::RunStats &s = o.stats;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "reads=%llu writes=%llu events=%llu retrySamples=%llu "
        "retrySteps=%.6f simMs=%.6f p50r=%.3f p99r=%.3f p999r=%.3f "
        "tenants=",
        static_cast<unsigned long long>(s.reads),
        static_cast<unsigned long long>(s.writes),
        static_cast<unsigned long long>(s.executedEvents),
        static_cast<unsigned long long>(s.retrySamples), s.avgRetrySteps,
        s.simulatedMs, s.p50ReadResponseUs, s.p99ReadResponseUs,
        s.p999ReadResponseUs);
    std::string text = buf;
    for (std::size_t i = 0; i < o.tenantCompleted.size(); ++i) {
        if (i)
            text += ',';
        text += std::to_string(o.tenantCompleted[i]);
    }
    return text;
}

std::uint64_t
digest(const Outcome &o)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : digestText(o)) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

Outcome
runOnce(const Workload &w, Spans &spans, const ProbeFn &probe)
{
    spans = Spans{};
    return w.replay ? runReplay(w, spans, probe)
                    : runArray(w, spans, probe);
}

Outcome
runReference(const Workload &w)
{
    Outcome out;
    if (w.replay) {
        ssd::Ssd drive(w.cfg.ssd, w.cfg.mech);
        out.stats = drive.replay(replayTrace(w));
        out.completed = out.stats.reads + out.stats.writes;
        out.tenantCompleted = {out.completed};
        return out;
    }
    const host::ScenarioResult res = host::runScenario(w.cfg);
    out.stats = res.array;
    for (const host::TenantStats &ts : res.tenants) {
        out.tenantCompleted.push_back(ts.completed);
        out.completed += ts.completed;
    }
    return out;
}

} // namespace perfbench
