/**
 * @file
 * End-to-end simulator throughput harness (perf trajectory).
 *
 * Runs the multi-tenant tail scenario (4 closed-loop tenants, 2-drive
 * striped array, mid-life operating point — the same shape as
 * bench/multi_tenant_tail.cc) under Baseline and PnAR2, and measures
 * wall time, executed events/second and completed reads/second. The
 * deterministic simulation results are digested so a perf change that
 * silently alters what is simulated fails CI.
 *
 * A second section measures the sharded per-drive engine: a 4-drive
 * saturation scenario (8 closed-loop tenants, 32 device slots per
 * drive, 50 us host link, profile cache disabled so every read pays
 * the full model math) run with 1 and with 4 worker threads. The
 * two runs' deterministic results MUST be bit-identical — the bench
 * exits non-zero if they diverge — and the wall-clock ratio is the
 * parallel speedup (recorded as the par4d-1t / par4d-4t entries of
 * the JSON; it needs >= 4 free cores to show the full effect).
 *
 * Four more sections ride along: raid5-* (degraded-read
 * reconstruction, healthy vs one failed drive), cached-* (the
 * host filter chain — a DRAM read-cache tier absorbing re-reads
 * from scan-heavy tenants, reporting hit ratio, evictions and the
 * host-surface read p99 the cache buys), fault-* (the fault
 * timeline — healthy vs an open-ended fail-slow vs a mid-run
 * fail-stop with timeout-driven failover and rebuild-to-spare) and
 * fabric-* (the storage fabric — a flat per-drive link vs a
 * two-switch tree vs the same tree with oversubscribed uplinks,
 * per mechanism, reporting the per-read fabric wait and the link
 * queueing the topology induces).
 *
 * The golden digest covers only the two single-queue tail runs, so
 * it stays comparable across machines, thread counts and the
 * appended sections.
 *
 * Usage:
 *   bench_sim_throughput [--short] [--json PATH]
 *                        [--check-digest GOLDEN]
 *                        [--update-golden GOLDEN]
 *                        [--repeat N]
 *
 *   --short          CI-sized run (fewer requests per tenant)
 *   --json PATH      write the trajectory JSON
 *                    (default BENCH_sim_throughput.json)
 *   --check-digest   compare results against a golden digest file;
 *                    exit non-zero on mismatch
 *   --update-golden  rewrite the golden digest file
 *   --repeat N       wall-time measurement repetitions (default 1;
 *                    the fastest repetition is reported)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fabric/topology.hh"
#include "host/bench_scenarios.hh"
#include "host/scenario.hh"
#include "host/scenario_spec.hh"
#include "sim/bench_report.hh"
#include "ssd/config.hh"

using namespace ssdrr;

namespace {

host::ScenarioConfig
tailScenario(core::Mechanism mech, std::uint64_t requests_per_tenant)
{
    return host::buildBenchScenario(requests_per_tenant)
        .toConfig(mech);
}

/**
 * Run @p make_config's scenario @p repeat times, keeping the fastest
 * wall time, and fold the (identical) deterministic results plus the
 * wall-derived rates into a BenchRun named @p name.
 */
template <typename MakeConfig>
sim::BenchRun
measureScenario(const std::string &name, const MakeConfig &make_config,
                int repeat)
{
    host::ScenarioResult res;
    double best = -1.0;
    for (int i = 0; i < repeat; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        res = host::runScenario(make_config());
        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        if (best < 0.0 || secs < best)
            best = secs;
    }
    return host::benchRunFrom(name, res.array, best);
}

sim::BenchRun
measure(core::Mechanism mech, std::uint64_t requests_per_tenant,
        int repeat)
{
    return measureScenario(
        core::name(mech),
        [&] { return tailScenario(mech, requests_per_tenant); },
        repeat);
}

/**
 * 4-drive saturation scenario for the sharded engine: enough tenant
 * concurrency and device slots (32 per drive) to keep every drive's
 * synchronization window dense with NAND/ECC work, so the per-window
 * barrier cost is amortized and drives scale across workers.
 */
host::ScenarioConfig
parallelScenario(std::uint64_t requests_per_tenant,
                 std::uint32_t threads)
{
    host::ScenarioBuilder b;
    // 50 us link ~ a coalesced-interrupt completion path; it is also
    // the synchronization window, wide enough that every drive has
    // in-window work at this concurrency.
    b.geometry("small")
        .pec(1.0)
        .retention(6.0)
        .seed(42)
        .drives(4)
        .hostLinkUs(50.0)
        .queueDepth(32)
        .maxDeviceInflight(128);
    b.mechanism(core::Mechanism::PnAR2);
    for (std::uint32_t t = 0; t < 8; ++t) {
        b.tenant("t" + std::to_string(t), t % 2 ? "YCSB-C" : "usr_1",
                 requests_per_tenant)
            .qdLimit(32);
    }
    host::ScenarioConfig cfg =
        b.build().toConfig(core::Mechanism::PnAR2);
    // Full model math on every read (no profile memoization): the
    // representative worst case for CPU-bound sweeps, and the regime
    // the sharded engine exists for.
    cfg.ssd.profileCacheSlots = 0;
    cfg.threads = threads;
    return cfg;
}

sim::BenchRun
measureParallel(std::uint32_t threads,
                std::uint64_t requests_per_tenant, int repeat)
{
    return measureScenario(
        "par4d-" + std::to_string(threads) + "t",
        [&] { return parallelScenario(requests_per_tenant, threads); },
        repeat);
}

/**
 * RAID-5 degraded-read section: a 4-drive rotating-parity array at a
 * retry-heavy operating point (2K P/E + 12-month retention), healthy
 * vs one failed drive, per mechanism. Every degraded read multiplies
 * into 3 stripe-mate reads that each walk the full retry path — the
 * regime where retry optimization pays off most (cf. RARO).
 */
host::ScenarioConfig
raid5Scenario(core::Mechanism mech,
              std::uint64_t requests_per_tenant, bool degraded)
{
    host::ScenarioBuilder b;
    b.geometry("small")
        .pec(2.0)
        .retention(12.0)
        .seed(42)
        .drives(4)
        .raid("raid5")
        .stripeUnitPages(4)
        .queueDepth(16);
    if (degraded)
        b.failedDrives({1});
    b.mechanism(mech);
    for (std::uint32_t t = 0; t < 4; ++t) {
        b.tenant("t" + std::to_string(t), "usr_1",
                 requests_per_tenant)
            .qdLimit(16);
    }
    return b.build().toConfig(mech);
}

sim::BenchRun
measureRaid5(core::Mechanism mech, bool degraded,
             std::uint64_t requests_per_tenant, int repeat)
{
    return measureScenario(
        std::string("raid5-") + (degraded ? "degraded" : "healthy") +
            "-" + core::name(mech),
        [&] {
            return raid5Scenario(mech, requests_per_tenant, degraded);
        },
        repeat);
}

/**
 * Host filter-chain section: the tail scenario's array shape with two
 * scan-heavy tenants (seq_scan) and two point-read tenants (YCSB-C),
 * run without filters and with a 64 MiB DRAM read cache. Demand fills
 * only — at this wear point (1K PEC, 6-month retention) every array
 * read is retry-heavy, so speculative prefetch traffic inflates the
 * tail instead of hiding it; the win comes from re-reads being
 * absorbed at DRAM latency, which both removes them from the
 * host-surface distribution and thins the array queues the remaining
 * misses wait in. The host-surface read p99 drops below the uncached
 * run's array p99 (the same surface when the chain is empty).
 */
host::ScenarioConfig
cachedScenario(std::uint64_t requests_per_tenant, bool cached)
{
    host::ScenarioBuilder b;
    b.geometry("small")
        .pec(1.0)
        .retention(6.0)
        .seed(42)
        .drives(2)
        .queueDepth(16);
    b.mechanism(core::Mechanism::PnAR2);
    if (cached) {
        host::filter::FilterSpec c;
        c.type = "cache";
        c.sizeBytes = 64ull << 20;
        c.admission = "all"; // scans re-read written pages too
        c.hitLatencyUs = 2.0;
        b.addFilter(c);
    }
    for (std::uint32_t t = 0; t < 4; ++t) {
        b.tenant("t" + std::to_string(t),
                 t % 2 ? "YCSB-C" : "seq_scan", requests_per_tenant)
            .qdLimit(16);
    }
    return b.build().toConfig(core::Mechanism::PnAR2);
}

sim::BenchRun
measureCached(bool cached, std::uint64_t requests_per_tenant,
              int repeat)
{
    return measureScenario(
        std::string("cached-") + (cached ? "on" : "off"),
        [&] { return cachedScenario(requests_per_tenant, cached); },
        repeat);
}

/**
 * Fault-timeline section: the raid5 array shape (4 drives, rotating
 * parity, unit 4) at the mid-life operating point, per mechanism, in
 * three health states. "healthy" is the no-fault control; "failslow"
 * puts an open-ended 3x latency multiplier on one drive (every I/O it
 * serves stretches, nothing fails); "failstop" kills drive 0 at
 * t=4 ms — the host detects it through per-subrequest deadlines,
 * fails over reads to stripe-mate reconstruction, and a background
 * rebuild agent re-reads 48 rows to a spare. The comparison shows
 * what each degradation mode costs the foreground tail and how much
 * array bandwidth the rebuild consumes.
 */
enum class FaultMode { Healthy, FailSlow, FailStopRebuild };

host::ScenarioConfig
faultScenario(core::Mechanism mech,
              std::uint64_t requests_per_tenant, FaultMode mode)
{
    host::ScenarioBuilder b;
    // Runs on the sharded per-drive engine (50 us host link, 4
    // workers) since PR 10: the fault machinery is host-domain-
    // confined, and a faulted array is exactly where the executor's
    // idle-window fast-forward matters — a dead drive leaves sparse
    // windows where only one domain has work.
    b.geometry("small")
        .pec(1.0)
        .retention(6.0)
        .seed(42)
        .drives(4)
        .raid("raid5")
        .stripeUnitPages(4)
        .hostLinkUs(50.0)
        .queueDepth(16);
    if (mode == FaultMode::FailSlow)
        b.failSlow(2, 500.0, 0.0, 3.0);
    if (mode == FaultMode::FailStopRebuild) {
        // Deadline far above the healthy tail: timeouts implicate
        // only the dead drive, never a merely-slow one.
        b.timeoutUs(20000.0).retryMax(2).retryBackoffUs(100.0);
        b.failStop(0, 4000.0, /*rebuild=*/true, /*rebuild_rows=*/48);
    }
    b.mechanism(mech);
    for (std::uint32_t t = 0; t < 4; ++t) {
        b.tenant("t" + std::to_string(t), "usr_1",
                 requests_per_tenant)
            .qdLimit(16);
    }
    host::ScenarioConfig cfg = b.build().toConfig(mech);
    cfg.threads = 4;
    return cfg;
}

const char *
faultModeName(FaultMode mode)
{
    switch (mode) {
    case FaultMode::Healthy:
        return "healthy";
    case FaultMode::FailSlow:
        return "failslow";
    case FaultMode::FailStopRebuild:
        return "failstop";
    }
    return "?";
}

sim::BenchRun
measureFault(core::Mechanism mech, FaultMode mode,
             std::uint64_t requests_per_tenant, int repeat)
{
    return measureScenario(
        std::string("fault-") + faultModeName(mode) + "-" +
            core::name(mech),
        [&] {
            return faultScenario(mech, requests_per_tenant, mode);
        },
        repeat);
}

/**
 * Storage-fabric section: the raid0 tail shape on a 4-drive array,
 * per mechanism, in three cablings. "flat" gives every drive its own
 * host link (the fabric equivalent of the flat hostLink engine);
 * "tree" routes pairs of drives through two top-of-rack switches at
 * the same per-link cost; "oversub" is the same tree with the two
 * uplinks' serialization charge raised 16x, so concurrent
 * subrequests to drives behind one switch queue on the shared hop.
 * The per-read fabric wait and max link queue depth quantify what
 * the topology costs; retry-heavy mechanisms amplify it with every
 * extra drive-time their reads spend holding queue slots. Runs with
 * 4 workers — each fabric node is its own domain, and results are
 * worker-count-invariant like everything else.
 */
enum class FabricMode { Flat, Tree, Oversub };

host::ScenarioConfig
fabricScenario(core::Mechanism mech,
               std::uint64_t requests_per_tenant, FabricMode mode)
{
    host::ScenarioBuilder b;
    b.geometry("small")
        .pec(1.0)
        .retention(6.0)
        .seed(42)
        .drives(4)
        .queueDepth(16);
    if (mode == FabricMode::Flat) {
        b.fabricPreset("flat");
    } else {
        fabric::TopologySpec topo = fabric::makePreset("tree:2x2", 4);
        if (mode == FabricMode::Oversub)
            for (fabric::LinkSpec &l : topo.links)
                if (l.from == "host0")
                    l.usPerKb = 0.8;
        b.fabric(topo);
    }
    b.mechanism(mech);
    for (std::uint32_t t = 0; t < 4; ++t) {
        b.tenant("t" + std::to_string(t), "usr_1",
                 requests_per_tenant)
            .qdLimit(16);
    }
    host::ScenarioConfig cfg = b.build().toConfig(mech);
    cfg.threads = 4;
    return cfg;
}

const char *
fabricModeName(FabricMode mode)
{
    switch (mode) {
    case FabricMode::Flat:
        return "flat";
    case FabricMode::Tree:
        return "tree";
    case FabricMode::Oversub:
        return "oversub";
    }
    return "?";
}

sim::BenchRun
measureFabric(core::Mechanism mech, FabricMode mode,
              std::uint64_t requests_per_tenant, int repeat)
{
    return measureScenario(
        std::string("fabric-") + fabricModeName(mode) + "-" +
            core::name(mech),
        [&] {
            return fabricScenario(mech, requests_per_tenant, mode);
        },
        repeat);
}

/** The deterministic fields two thread counts must agree on. */
bool
identicalResults(const sim::BenchRun &a, const sim::BenchRun &b)
{
    return a.executedEvents == b.executedEvents && a.reads == b.reads &&
           a.writes == b.writes && a.retrySamples == b.retrySamples &&
           a.suspensions == b.suspensions &&
           a.gcCollections == b.gcCollections &&
           a.readFailures == b.readFailures &&
           a.refreshes == b.refreshes &&
           a.simulatedMs == b.simulatedMs &&
           a.avgRetrySteps == b.avgRetrySteps &&
           a.p50ReadUs == b.p50ReadUs && a.p99ReadUs == b.p99ReadUs &&
           a.p999ReadUs == b.p999ReadUs;
}

} // namespace

int
main(int argc, char **argv)
{
    bool short_mode = false;
    int repeat = 1;
    std::string json_path = "BENCH_sim_throughput.json";
    std::string check_golden;
    std::string update_golden;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--short")
            short_mode = true;
        else if (arg == "--json")
            json_path = next();
        else if (arg == "--check-digest")
            check_golden = next();
        else if (arg == "--update-golden")
            update_golden = next();
        else if (arg == "--repeat")
            repeat = std::atoi(next());
        else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return 2;
        }
    }
    if (repeat < 1)
        repeat = 1;

    const std::uint64_t per_tenant = short_mode ? 400 : 2000;
    const std::uint64_t par_per_tenant = short_mode ? 400 : 2000;
    const std::uint64_t r5_per_tenant = short_mode ? 300 : 1000;
    const std::uint64_t cd_per_tenant = short_mode ? 300 : 1000;
    const std::uint64_t ft_per_tenant = short_mode ? 300 : 1000;
    const std::uint64_t fb_per_tenant = short_mode ? 300 : 1000;
    // Six scenarios share this file: the digested tail runs, then
    // the par4d-* sharded-engine, raid5-* degraded-read, cached-*
    // filter-chain, fault-* fault-timeline and fabric-* storage-
    // fabric runs appended after them.
    const std::string label =
        std::string("multi_tenant_tail ") +
        (short_mode ? "short" : "full") +
        " (4 closed-loop tenants x " + std::to_string(per_tenant) +
        " usr_1 reqs, QD 16, 2-drive array, 1K P/E + 6-month "
        "retention); par4d-*: 8 closed-loop tenants x " +
        std::to_string(par_per_tenant) +
        " usr_1/YCSB-C reqs, QD 32, 4-drive array, 50 us host link, "
        "profile cache off, PnAR2, 1 vs 4 worker threads; raid5-*: "
        "4 closed-loop tenants x " +
        std::to_string(r5_per_tenant) +
        " usr_1 reqs, QD 16, 4-drive raid5 (unit 4), 2K P/E + "
        "12-month retention, healthy vs drive 1 failed; cached-*: "
        "4 closed-loop tenants x " +
        std::to_string(cd_per_tenant) +
        " seq_scan/YCSB-C reqs, QD 16, 2-drive array, PnAR2, "
        "uncached vs 64 MiB DRAM cache; fault-*: 4 closed-loop "
        "tenants x " +
        std::to_string(ft_per_tenant) +
        " usr_1 reqs, QD 16, 4-drive raid5 (unit 4), 50 us host "
        "link, 4 workers, healthy vs 3x fail-slow vs fail-stop at "
        "4 ms + 48-row rebuild-to-spare; "
        "fabric-*: 4 closed-loop tenants x " +
        std::to_string(fb_per_tenant) +
        " usr_1 reqs, QD 16, 4-drive array, 4 workers, flat "
        "per-drive links vs a 2-switch tree vs the tree with 16x "
        "oversubscribed uplinks";

    std::printf("sim_throughput — %s\n\n", label.c_str());
    std::printf("%-10s %12s %14s %12s %12s %10s\n", "mechanism",
                "wall[s]", "events/s", "reads/s", "events",
                "cache-hit%");

    std::vector<sim::BenchRun> runs;
    for (core::Mechanism m :
         {core::Mechanism::Baseline, core::Mechanism::PnAR2}) {
        runs.push_back(measure(m, per_tenant, repeat));
        const sim::BenchRun &r = runs.back();
        const std::uint64_t lookups =
            r.profileCacheHits + r.profileCacheMisses;
        std::printf("%-10s %12.3f %14.0f %12.0f %12llu %9.1f%%\n",
                    r.name.c_str(), r.wallSeconds, r.eventsPerSecond,
                    r.readsPerSecond,
                    static_cast<unsigned long long>(r.executedEvents),
                    lookups ? 100.0 *
                                  static_cast<double>(r.profileCacheHits) /
                                  static_cast<double>(lookups)
                            : 0.0);
    }

    // The golden digest covers exactly these single-queue runs.
    const std::vector<sim::BenchRun> core_runs = runs;

    // ----- sharded per-drive engine: 4 drives, 1 vs 4 workers -----
    std::printf("\nparallel array — 8 closed-loop tenants x %llu reqs, "
                "QD 32, 4-drive array, 50 us host link, profile "
                "cache off, PnAR2 (%u cores available)\n",
                static_cast<unsigned long long>(par_per_tenant),
                std::thread::hardware_concurrency());
    std::printf("%-10s %12s %14s %12s %12s\n", "threads", "wall[s]",
                "events/s", "reads/s", "events");
    std::vector<sim::BenchRun> par_runs;
    for (std::uint32_t threads : {1u, 4u}) {
        par_runs.push_back(
            measureParallel(threads, par_per_tenant, repeat));
        const sim::BenchRun &r = par_runs.back();
        std::printf("%-10s %12.3f %14.0f %12.0f %12llu\n",
                    r.name.c_str(), r.wallSeconds, r.eventsPerSecond,
                    r.readsPerSecond,
                    static_cast<unsigned long long>(r.executedEvents));
    }
    if (!identicalResults(par_runs[0], par_runs[1])) {
        std::fprintf(stderr,
                     "FAIL: sharded engine results differ between 1 "
                     "and 4 worker threads — determinism is broken\n%s",
                     sim::benchDigestText(par_runs).c_str());
        return 1;
    }
    if (par_runs[1].wallSeconds > 0.0)
        std::printf("speedup (4 threads vs 1): %.2fx "
                    "(bit-identical results)\n",
                    par_runs[0].wallSeconds / par_runs[1].wallSeconds);
    if (std::thread::hardware_concurrency() < 4) {
        // The speedup comparison presumes 4 hardware threads; on a
        // smaller machine the 4-worker run just timeslices, so keep
        // the entries for trajectory continuity but flag them.
        for (sim::BenchRun &r : par_runs)
            r.unreliable = true;
        std::printf("note: fewer than 4 hardware threads — par4d-* "
                    "and fabric-* wall times marked unreliable in "
                    "the JSON\n");
    }
    runs.insert(runs.end(), par_runs.begin(), par_runs.end());

    // ----- RAID-5 degraded reads: healthy vs 1 failed drive -----
    std::printf("\nraid5 degraded reads — 4 closed-loop tenants x "
                "%llu usr_1 reqs, QD 16, 4-drive raid5 (unit 4), "
                "2K P/E + 12-month retention, healthy vs drive 1 "
                "failed\n",
                static_cast<unsigned long long>(r5_per_tenant));
    std::printf("%-24s %12s %10s %10s %12s %12s\n", "config",
                "wall[s]", "p99r[us]", "p999r[us]", "p99degr[us]",
                "degr-reads");
    for (core::Mechanism m :
         {core::Mechanism::Baseline, core::Mechanism::PnAR2}) {
        for (bool degraded : {false, true}) {
            runs.push_back(
                measureRaid5(m, degraded, r5_per_tenant, repeat));
            const sim::BenchRun &r = runs.back();
            std::printf("%-24s %12.3f %10.1f %10.1f %12.1f %12llu\n",
                        r.name.c_str(), r.wallSeconds, r.p99ReadUs,
                        r.p999ReadUs, r.p99DegradedReadUs,
                        static_cast<unsigned long long>(
                            r.degradedReads));
        }
    }

    // ----- host filter chain: DRAM read-cache tier -----
    std::printf("\ncached workload — 4 closed-loop tenants x %llu "
                "seq_scan/YCSB-C reqs, QD 16, 2-drive array, PnAR2, "
                "uncached vs 64 MiB DRAM cache\n",
                static_cast<unsigned long long>(cd_per_tenant));
    std::printf("%-12s %12s %10s %12s %10s %12s\n", "config",
                "wall[s]", "p99r[us]", "hostp99[us]", "hit%",
                "evictions");
    std::vector<sim::BenchRun> cached_runs;
    for (bool cached : {false, true}) {
        cached_runs.push_back(
            measureCached(cached, cd_per_tenant, repeat));
        const sim::BenchRun &r = cached_runs.back();
        const std::uint64_t lookups = r.cacheHits + r.cacheMisses;
        std::printf("%-12s %12.3f %10.1f %12.1f %9.1f%% %12llu\n",
                    r.name.c_str(), r.wallSeconds, r.p99ReadUs,
                    r.hostP99ReadUs,
                    lookups ? 100.0 *
                                  static_cast<double>(r.cacheHits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                    static_cast<unsigned long long>(
                        r.cacheEvictions));
    }
    // The uncached run has no chain, so its array-level p99 IS its
    // host-surface p99; the cached run's host surface includes the
    // DRAM hits the array never sees.
    if (cached_runs[1].cacheHits == 0)
        std::fprintf(stderr, "WARN: cached run recorded no DRAM "
                             "cache hits\n");
    else
        std::printf("host-surface read p99: %.1f us uncached -> "
                    "%.1f us cached\n",
                    cached_runs[0].p99ReadUs,
                    cached_runs[1].hostP99ReadUs);
    runs.insert(runs.end(), cached_runs.begin(), cached_runs.end());

    // ----- fault timeline: healthy vs fail-slow vs fail-stop -----
    std::printf("\nfault timeline — 4 closed-loop tenants x %llu "
                "usr_1 reqs, QD 16, 4-drive raid5 (unit 4), 50 us "
                "host link, 4 workers, healthy vs open-ended 3x "
                "fail-slow on drive 2 vs drive 0 fail-stop at 4 ms "
                "+ rebuild-to-spare (48 rows, 20 ms deadline)\n",
                static_cast<unsigned long long>(ft_per_tenant));
    std::printf("%-24s %12s %10s %10s %10s %10s %10s\n", "config",
                "wall[s]", "p99r[us]", "timeouts", "failovers",
                "rbld-reads", "ttr[ms]");
    for (core::Mechanism m :
         {core::Mechanism::Baseline, core::Mechanism::PnAR2}) {
        for (FaultMode mode :
             {FaultMode::Healthy, FaultMode::FailSlow,
              FaultMode::FailStopRebuild}) {
            runs.push_back(
                measureFault(m, mode, ft_per_tenant, repeat));
            const sim::BenchRun &r = runs.back();
            std::printf(
                "%-24s %12.3f %10.1f %10llu %10llu %10llu %10.2f\n",
                r.name.c_str(), r.wallSeconds, r.p99ReadUs,
                static_cast<unsigned long long>(r.hostTimeouts),
                static_cast<unsigned long long>(r.hostFailovers),
                static_cast<unsigned long long>(r.rebuildReads),
                r.timeToRebuildMs);
            if (mode == FaultMode::FailStopRebuild &&
                r.failedRequests > 0)
                std::fprintf(stderr,
                             "WARN: %s lost %llu requests — the "
                             "failover path should reconstruct every "
                             "foreground read\n",
                             r.name.c_str(),
                             static_cast<unsigned long long>(
                                 r.failedRequests));
        }
    }

    // ----- storage fabric: flat vs switched vs oversubscribed -----
    std::printf("\nstorage fabric — 4 closed-loop tenants x %llu "
                "usr_1 reqs, QD 16, 4-drive array, 4 workers, flat "
                "per-drive links vs 2-switch tree vs 16x "
                "oversubscribed uplinks\n",
                static_cast<unsigned long long>(fb_per_tenant));
    std::printf("%-24s %12s %10s %12s %10s %8s\n", "config",
                "wall[s]", "p99r[us]", "fabwait[us]", "fab-KiB",
                "maxQ");
    std::vector<sim::BenchRun> fabric_runs;
    for (core::Mechanism m :
         {core::Mechanism::Baseline, core::Mechanism::PnAR2}) {
        for (FabricMode mode :
             {FabricMode::Flat, FabricMode::Tree,
              FabricMode::Oversub}) {
            fabric_runs.push_back(
                measureFabric(m, mode, fb_per_tenant, repeat));
            const sim::BenchRun &r = fabric_runs.back();
            std::printf("%-24s %12.3f %10.1f %12.2f %10llu %8u\n",
                        r.name.c_str(), r.wallSeconds, r.p99ReadUs,
                        r.avgFabricWaitUs,
                        static_cast<unsigned long long>(
                            r.fabricBytes >> 10),
                        r.fabricMaxQueueDepth);
        }
    }
    if (std::thread::hardware_concurrency() < 4) {
        // Same caveat as par4d-*: the 4-worker wall times presume 4
        // hardware threads.
        for (sim::BenchRun &r : fabric_runs)
            r.unreliable = true;
    }
    runs.insert(runs.end(), fabric_runs.begin(), fabric_runs.end());

    if (!sim::writeBenchJson(json_path, label, runs))
        return 1;
    std::printf("\nwrote %s\n", json_path.c_str());

    if (!update_golden.empty()) {
        if (!sim::writeBenchGolden(update_golden, core_runs))
            return 1;
        std::printf("updated golden digest %s\n", update_golden.c_str());
    }
    if (!check_golden.empty()) {
        const int rc = sim::checkBenchDigest(check_golden, core_runs);
        if (rc != 0)
            return rc;
        std::printf("simulation-result digest matches %s\n",
                    check_golden.c_str());
    }
    return 0;
}
