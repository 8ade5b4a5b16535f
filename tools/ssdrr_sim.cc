/**
 * @file
 * ssdrr_sim — command-line driver for the SSD read-retry simulator.
 *
 * Runs one workload (a Table-2 synthetic spec by name, or an
 * MSR-Cambridge CSV file) against one or more mechanisms at a chosen
 * operating point, and prints a comparison table. This is the
 * day-to-day entry point for exploring configurations without
 * writing C++.
 *
 * Usage:
 *   ssdrr_sim [options]
 *     --workload NAME|PATH.csv   workload (default usr_1)
 *     --mechanisms A,B,...       comma list (default
 *                                Baseline,PR2,AR2,PnAR2,NoRR)
 *     --pec K                    kilo P/E cycles (default 1.0)
 *     --retention MONTHS         retention age (default 6.0)
 *     --temperature C            operating temperature (default 30)
 *     --requests N               synthetic trace length (default 2000)
 *     --iops RATE                override the spec's arrival rate
 *     --refresh MONTHS           read-reclaim threshold (default off)
 *     --no-suspension            disable program/erase suspension
 *     --paper-geometry           full 512-GiB-class SSD (slower)
 *     --seed N                   RNG seed (default 42)
 *     --profile                  print the trace profile and exit
 *     --list-workloads           print the Table-2 suite and exit
 *
 * Multi-tenant mode (host/array layer; see README "Scenario files"
 * and docs/SCENARIOS.md):
 *     --scenario FILE.json       run a serialized ScenarioSpec; the
 *                                file defines geometry, mechanisms,
 *                                array shape, host options, fabric,
 *                                faults and tenants
 *     --set PATH=VALUE           edit the scenario before it runs
 *                                (repeatable, applied in order; the
 *                                ssdrr_sweep axis grammar, see
 *                                host/scenario_edit.hh). VALUE is
 *                                parsed as JSON, else taken as a
 *                                string. Examples:
 *                                  --set drives=4
 *                                  --set host.hostLinkUs=10
 *                                  --set threads=4
 *                                  --set array.raidLevel=raid5
 *                                  --set fabric.preset=tree:2x2
 *                                  --set mechanism=PnAR2
 *                                  --set 'host.filters=[{"type":
 *                                    "cache","sizeBytes":4194304}]'
 *                                threads never changes results, but
 *                                anything but 1 needs a positive
 *                                host.hostLinkUs or a fabric
 *     --dump-scenario            print the (edited, canonicalized)
 *                                scenario as JSON and exit
 *
 * The scenario file must be valid on its own; --set edits its
 * canonical form, and `--dump-scenario`'s JSON rerun through
 * `--scenario` produces bit-identical results.
 *
 * All flag-validation failures exit with status 2 and name the
 * offending flag or scenario path.
 *
 * Results JSON:
 *     --bench-json PATH          also write every RunStats field of
 *                                each mechanism's run, plus the
 *                                result digest, as JSON
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "host/bench_scenarios.hh"
#include "host/scenario.hh"
#include "host/scenario_edit.hh"
#include "host/scenario_spec.hh"
#include "ssd/ssd.hh"
#include "workload/export.hh"
#include "workload/msr_parser.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

using namespace ssdrr;

namespace {

struct Options {
    std::string workload = "usr_1";
    std::vector<std::string> mechanisms = {"Baseline", "PR2", "AR2",
                                           "PnAR2", "NoRR"};
    double pec = 1.0;
    double retention = 6.0;
    double temperature = 30.0;
    std::uint64_t requests = 2000;
    double iops = 0.0;
    double refresh = 0.0;
    bool suspension = true;
    bool paperGeometry = false;
    std::uint64_t seed = 42;
    bool profileOnly = false;
    /** Scenario-file mode (mutually exclusive with replay flags). */
    std::string scenarioPath;
    /** --set edits, in command-line order. */
    std::vector<std::string> edits;
    bool dumpScenario = false;
    bool listWorkloads = false;
    /** Results JSON output path (empty = off). */
    std::string benchJson;
    /** Single-SSD replay flags seen, for --scenario checks. */
    std::vector<std::string> replayFlags;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME|PATH.csv] "
                 "[--mechanisms A,B,...] [--pec K]\n"
                 "  [--retention MONTHS] [--temperature C] "
                 "[--requests N] [--iops RATE]\n"
                 "  [--refresh MONTHS] [--no-suspension] "
                 "[--paper-geometry] [--seed N] [--profile]\n"
                 "  [--list-workloads] [--bench-json PATH]\n"
                 "   or: %s --scenario FILE.json [--set PATH=VALUE]... "
                 "[--dump-scenario]\n"
                 "  [--bench-json PATH]\n",
                 argv0, argv0);
    std::exit(2);
}

/** Flag-validation failure: name the flag, explain, exit 2. */
[[noreturn]] void
flagError(const std::string &flag, const std::string &msg)
{
    std::fprintf(stderr, "ssdrr_sim: %s: %s\n", flag.c_str(),
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const char *text)
{
    // strtoull accepts a sign and wraps negatives/overflow; both
    // must be rejected or they defeat every downstream range check.
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-' ||
        errno == ERANGE)
        flagError(flag, std::string("expected a non-negative "
                                    "integer, got '") +
                            text + "'");
    return static_cast<std::uint64_t>(v);
}

double
parseDouble(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v))
        flagError(flag,
                  std::string("expected a finite number, got '") +
                      text + "'");
    return v;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end = comma == std::string::npos ? s.size()
                                                           : comma;
        if (end > pos)
            out.push_back(s.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto replay = [&] { opt.replayFlags.push_back(arg); };
        if (arg == "--workload") {
            opt.workload = next();
            replay();
        } else if (arg == "--mechanisms") {
            opt.mechanisms = splitCommas(next());
            replay();
        } else if (arg == "--pec") {
            opt.pec = parseDouble(arg, next());
            replay();
        } else if (arg == "--retention") {
            opt.retention = parseDouble(arg, next());
            replay();
        } else if (arg == "--temperature") {
            opt.temperature = parseDouble(arg, next());
            replay();
        } else if (arg == "--requests") {
            opt.requests = parseUint(arg, next());
            replay();
        } else if (arg == "--iops") {
            opt.iops = parseDouble(arg, next());
            replay();
        } else if (arg == "--refresh") {
            opt.refresh = parseDouble(arg, next());
            replay();
        } else if (arg == "--no-suspension") {
            opt.suspension = false;
            replay();
        } else if (arg == "--paper-geometry") {
            opt.paperGeometry = true;
            replay();
        } else if (arg == "--seed") {
            opt.seed = parseUint(arg, next());
            replay();
        } else if (arg == "--profile") {
            opt.profileOnly = true;
            replay();
        } else if (arg == "--scenario") {
            opt.scenarioPath = next();
        } else if (arg == "--set") {
            opt.edits.push_back(next());
        } else if (arg == "--dump-scenario") {
            opt.dumpScenario = true;
        } else if (arg == "--list-workloads") {
            opt.listWorkloads = true;
        } else if (arg == "--bench-json") {
            opt.benchJson = next();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
        }
    }
    return opt;
}

/**
 * Host/array mode: run every mechanism of @p spec's sweep and print
 * the per-tenant comparison table. @p label names the bench-JSON
 * entry ("" = derive from the spec).
 */
int
runSpec(const host::ScenarioSpec &spec, const std::string &bench_json,
        const std::string &label)
{
    const host::TenantSpec &t0 = spec.tenants.front();
    bool homogeneous = true;
    for (const host::TenantSpec &ts : spec.tenants)
        if (ts.workload != t0.workload || ts.requests != t0.requests ||
            ts.mode != t0.mode)
            homogeneous = false;
    const std::uint32_t n_tenants =
        static_cast<std::uint32_t>(spec.tenants.size());
    const char *loop_name =
        t0.mode == host::InjectionMode::OpenLoop ? "open-loop"
                                                 : "closed-loop";
    if (homogeneous && host::looksLikeTracePath(t0.workload))
        std::printf("Multi-tenant: %u tenants splitting %s (%s), "
                    "QD %u, %s arbitration, %u-drive array\n",
                    n_tenants, t0.workload.c_str(), loop_name,
                    spec.queueDepth, spec.arbitration.c_str(),
                    spec.drives);
    else if (homogeneous)
        std::printf("Multi-tenant: %u tenants x %llu reqs (%s), "
                    "QD %u, %s arbitration, %u-drive array\n",
                    n_tenants,
                    static_cast<unsigned long long>(t0.requests),
                    loop_name, spec.queueDepth,
                    spec.arbitration.c_str(), spec.drives);
    else
        std::printf("Multi-tenant scenario%s%s: %u tenants, QD %u, "
                    "%s arbitration, %u-drive array\n",
                    spec.name.empty() ? "" : " ",
                    spec.name.c_str(), n_tenants, spec.queueDepth,
                    spec.arbitration.c_str(), spec.drives);
    std::printf("SSD: %s geometry per drive, %.1fK P/E, "
                "%.0f-month retention, %.0f C\n\n",
                spec.ssd.geometry.c_str(), spec.ssd.pecKilo,
                spec.ssd.retentionMonths, spec.ssd.temperatureC);
    std::printf("%-10s %-14s %3s %6s %10s %10s %10s %10s\n",
                "mechanism", "tenant", "w", "reqs", "avg[us]",
                "p50[us]", "p99[us]", "p99.9[us]");

    host::TraceCache trace_cache; // parse a CSV once for the sweep
    std::vector<host::BenchRun> bench_runs;
    for (const std::string &mname : spec.mechanisms) {
        const core::Mechanism mech = core::parseMechanism(mname);
        const host::ScenarioResult res =
            host::runScenario(spec, mech, &trace_cache);
        bench_runs.push_back({mname, res.array});
        for (std::size_t t = 0; t < res.tenants.size(); ++t) {
            const host::TenantStats &s = res.tenants[t];
            std::printf("%-10s %-14s %3u %6llu %10.1f %10.1f %10.1f "
                        "%10.1f\n",
                        mname.c_str(), s.name.c_str(),
                        spec.tenants[t].weight,
                        static_cast<unsigned long long>(s.completed),
                        s.avgUs, s.p50Us, s.p99Us, s.p999Us);
        }
        const ssd::RunStats &a = res.array;
        std::printf("%-10s %-14s %3s %6llu %10.1f %10.1f %10.1f "
                    "%10.1f\n",
                    mname.c_str(), "all(reads)", "-",
                    static_cast<unsigned long long>(a.reads),
                    a.avgReadResponseUs, a.p50ReadResponseUs,
                    a.p99ReadResponseUs, a.p999ReadResponseUs);
        // Degraded-mode accounting (RAID-5 with failed drives): the
        // per-class reconstruction tail next to the overall reads.
        if (a.degradedReads > 0)
            std::printf("%-10s %-14s %3s %6llu %10.1f %10.1f %10.1f "
                        "%10.1f\n",
                        mname.c_str(), "degraded(r)", "-",
                        static_cast<unsigned long long>(
                            a.degradedReads),
                        a.avgDegradedReadUs, a.p50DegradedReadUs,
                        a.p99DegradedReadUs, a.p999DegradedReadUs);
        // Host filter-chain accounting (host/filter/): the read
        // latency seen above the chain, plus per-filter counters.
        // All of this is zero — and silent — when the chain is empty.
        if (a.hostReads > 0)
            std::printf("%-10s %-14s %3s %6llu %10.1f %10.1f %10.1f "
                        "%10.1f\n",
                        mname.c_str(), "host(reads)", "-",
                        static_cast<unsigned long long>(a.hostReads),
                        a.avgHostReadUs, a.p50HostReadUs,
                        a.p99HostReadUs, a.p999HostReadUs);
        if (a.cacheHits + a.cacheMisses > 0)
            std::printf("%-10s %-14s     hits %llu/%llu (%.1f%%), "
                        "evictions %llu\n",
                        mname.c_str(), "cache",
                        static_cast<unsigned long long>(a.cacheHits),
                        static_cast<unsigned long long>(a.cacheHits +
                                                        a.cacheMisses),
                        100.0 * static_cast<double>(a.cacheHits) /
                            static_cast<double>(a.cacheHits +
                                                a.cacheMisses),
                        static_cast<unsigned long long>(
                            a.cacheEvictions));
        if (a.prefetchIssued > 0)
            std::printf("%-10s %-14s     issued %llu, useful %llu "
                        "(%.1f%%)\n",
                        mname.c_str(), "readahead",
                        static_cast<unsigned long long>(
                            a.prefetchIssued),
                        static_cast<unsigned long long>(
                            a.prefetchUseful),
                        100.0 *
                            static_cast<double>(a.prefetchUseful) /
                            static_cast<double>(a.prefetchIssued));
        if (a.splitRequests + a.coalescedRequests + a.delayedRequests +
                a.throttledRequests >
            0)
            std::printf("%-10s %-14s     split %llu, coalesced %llu, "
                        "delayed %llu, throttled %llu\n",
                        mname.c_str(), "shaping",
                        static_cast<unsigned long long>(
                            a.splitRequests),
                        static_cast<unsigned long long>(
                            a.coalescedRequests),
                        static_cast<unsigned long long>(
                            a.delayedRequests),
                        static_cast<unsigned long long>(
                            a.throttledRequests));
        // Fault-timeline accounting (sim/fault_injector.hh plus the
        // host's timeout/retry/failover machinery); all zero — and
        // silent — on a faultless run.
        if (a.hostTimeouts + a.hostRetries + a.hostFailovers +
                a.ueccReads + a.failedRequests >
            0)
            std::printf("%-10s %-14s     timeouts %llu, retries "
                        "%llu, failovers %llu, uecc %llu, "
                        "failed %llu\n",
                        mname.c_str(), "faults",
                        static_cast<unsigned long long>(
                            a.hostTimeouts),
                        static_cast<unsigned long long>(
                            a.hostRetries),
                        static_cast<unsigned long long>(
                            a.hostFailovers),
                        static_cast<unsigned long long>(a.ueccReads),
                        static_cast<unsigned long long>(
                            a.failedRequests));
        if (a.rebuildReads > 0)
            std::printf("%-10s %-14s     reads %llu, progress "
                        "%.1f%%, time-to-rebuild %.2f ms\n",
                        mname.c_str(), "rebuild",
                        static_cast<unsigned long long>(
                            a.rebuildReads),
                        100.0 * a.rebuildProgress,
                        a.timeToRebuildMs);
        // Storage-fabric accounting (fabric/): the per-read fabric
        // wait plus one row per link; empty — and silent — when the
        // scenario declares no fabric.
        if (!a.fabricLinks.empty()) {
            std::printf("%-10s %-14s     avg wait %.2f us/read\n",
                        mname.c_str(), "fabric", a.avgFabricWaitUs);
            for (const ssd::RunStats::FabricLinkStats &l :
                 a.fabricLinks)
                std::printf("%-10s   %-17s msgs %llu, KiB %llu, "
                            "busy %.1f us, maxQ %u\n",
                            mname.c_str(), l.link.c_str(),
                            static_cast<unsigned long long>(
                                l.messages),
                            static_cast<unsigned long long>(
                                l.bytesCarried >> 10),
                            l.busyUs, l.maxQueueDepth);
        }
    }
    if (!bench_json.empty()) {
        if (!host::writeBenchJson(bench_json, label, bench_runs))
            return 1;
        std::printf("\nwrote %s\n", bench_json.c_str());
    }
    return 0;
}

/** Pre-validate replay flags with their own names (exit 2). */
void
validateReplayFlags(const Options &opt)
{
    for (const std::string &m : opt.mechanisms)
        if (!core::tryParseMechanism(m, nullptr))
            flagError("--mechanisms", "unknown mechanism '" + m + "'");
    if (opt.mechanisms.empty())
        flagError("--mechanisms", "needs at least one mechanism");
    if (!host::looksLikeTracePath(opt.workload) &&
        !workload::tryFindWorkload(opt.workload, nullptr))
        flagError("--workload", "unknown workload '" + opt.workload +
                                    "' (see --list-workloads, or "
                                    "name a .csv trace path)");
    if (opt.requests < 1)
        flagError("--requests", "needs at least 1 request");
    if (opt.pec < 0.0)
        flagError("--pec", "must be >= 0");
    if (opt.retention < 0.0)
        flagError("--retention", "must be >= 0");
    if (opt.refresh < 0.0)
        flagError("--refresh", "must be >= 0");
}

/** Scenario mode: load, apply the --set edits, then dump or run. */
int
runScenarioFile(const Options &opt)
{
    if (!opt.replayFlags.empty())
        flagError("--scenario",
                  "cannot be combined with " + opt.replayFlags.front() +
                      " (the scenario file defines the run; edit it "
                      "with --set)");
    sim::json::Value doc;
    try {
        doc = host::ScenarioSpec::loadFile(opt.scenarioPath).toJson();
    } catch (const host::SpecError &e) {
        flagError("--scenario", e.what());
    }
    std::vector<host::ScenarioEdit> edits;
    std::string label = "ssdrr_sim --scenario " + opt.scenarioPath;
    host::ScenarioSpec spec;
    try {
        for (const std::string &text : opt.edits) {
            edits.push_back(host::parseScenarioEdit(text));
            label += " --set " + text;
        }
        spec = host::applyScenarioEdits(doc, edits);
    } catch (const host::SpecError &e) {
        flagError("--set", e.what());
    }
    if (opt.dumpScenario) {
        std::fputs(spec.toJsonText().c_str(), stdout);
        return 0;
    }
    return runSpec(spec, opt.benchJson, label);
}

int
realMain(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    if (opt.listWorkloads) {
        // The Table-2 suite: names scenario files and --workload use.
        std::printf("%-10s %6s %6s %8s %6s\n", "name", "read%",
                    "cold%", "iops", "theta");
        for (const workload::SyntheticSpec &s :
             workload::allWorkloads())
            std::printf("%-10s %6.0f %6.0f %8.0f %6.2f\n",
                        s.name.c_str(), 100.0 * s.readRatio,
                        100.0 * s.coldRatio, s.iops, s.zipfTheta);
        return 0;
    }

    if (!opt.scenarioPath.empty())
        return runScenarioFile(opt);
    if (!opt.edits.empty())
        flagError("--set", "requires --scenario (it edits a scenario "
                           "file)");
    if (opt.dumpScenario)
        flagError("--dump-scenario",
                  "requires --scenario (single-replay runs are not "
                  "scenario-shaped)");

    validateReplayFlags(opt);

    ssd::Config cfg =
        opt.paperGeometry ? ssd::Config::paper() : ssd::Config::small();
    cfg.basePeKilo = opt.pec;
    cfg.baseRetentionMonths = opt.retention;
    cfg.temperatureC = opt.temperature;
    cfg.refreshThresholdMonths = opt.refresh;
    cfg.suspension = opt.suspension;
    cfg.seed = opt.seed;

    // Load or generate the workload.
    workload::Trace trace;
    if (host::looksLikeTracePath(opt.workload)) {
        workload::MsrParseOptions popt;
        popt.pageBytes = cfg.pageBytes;
        trace = workload::loadMsrTrace(opt.workload, popt);
        // Fold foreign LPNs into our logical space.
        std::vector<workload::TraceRecord> recs = trace.records();
        workload::Trace::foldIntoSpace(recs, cfg.logicalPages());
        trace = workload::Trace(trace.name(), std::move(recs));
    } else {
        workload::SyntheticSpec spec =
            workload::findWorkload(opt.workload);
        if (opt.iops > 0.0)
            spec.iops = opt.iops;
        trace = workload::generateSynthetic(spec, cfg.logicalPages(),
                                            opt.requests, opt.seed);
    }

    std::fputs(
        workload::formatProfile(workload::profileTrace(trace),
                                trace.name())
            .c_str(),
        stdout);
    if (opt.profileOnly)
        return 0;

    std::printf("\nSSD: %s geometry, %.1fK P/E, %.0f-month retention, "
                "%.0f C%s%s\n\n",
                opt.paperGeometry ? "paper" : "small", opt.pec,
                opt.retention, opt.temperature,
                opt.refresh > 0.0 ? ", refresh on" : "",
                opt.suspension ? "" : ", suspension off");
    std::printf("%-16s %10s %10s %10s %10s %10s %8s %9s %9s\n",
                "mechanism", "avg[us]", "read[us]", "p50r[us]",
                "p99[us]", "p99.9r[us]", "steps", "suspends",
                "refreshes");

    double baseline = 0.0;
    std::vector<host::BenchRun> bench_runs;
    for (const std::string &name : opt.mechanisms) {
        const core::Mechanism mech = core::parseMechanism(name);
        ssd::Ssd ssd(cfg, mech);
        const ssd::RunStats st = ssd.replay(trace);
        bench_runs.push_back({name, st});
        if (baseline == 0.0)
            baseline = st.avgResponseUs;
        std::printf("%-16s %10.1f %10.1f %10.1f %10.1f %10.1f %8.2f "
                    "%9llu %9llu   (%+.1f%%)\n",
                    name.c_str(), st.avgResponseUs,
                    st.avgReadResponseUs, st.p50ReadResponseUs,
                    st.p99ResponseUs, st.p999ReadResponseUs,
                    st.avgRetrySteps,
                    static_cast<unsigned long long>(st.suspensions),
                    static_cast<unsigned long long>(st.refreshes),
                    100.0 * (st.avgResponseUs / baseline - 1.0));
    }
    if (!opt.benchJson.empty()) {
        const std::string label =
            "ssdrr_sim single-replay (" + opt.workload + ")";
        if (!host::writeBenchJson(opt.benchJson, label, bench_runs))
            return 1;
        std::printf("\nwrote %s\n", opt.benchJson.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Last-resort guard: no uncaught exception may escape as a raw
    // std::terminate — a scripted caller (CI, the bench harness)
    // gets a one-line diagnostic and the same exit code as every
    // other usage error.
    try {
        return realMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
