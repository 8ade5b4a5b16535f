/**
 * @file
 * Benchmark driver: runs one workload repeatedly for a fixed wall
 * time and prints a raw JSON report of every repetition (phase
 * timings, result digest, request counts), the deterministic run
 * statistics, the reference digest and, when tracing, the layer
 * probes. perfbench/run.py turns the report into metrics.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--size full|tiny]
 *
 * Untraced, every repetition runs the workload as configured. Traced,
 * repetitions cycle through a traced run (the first one also runs the
 * layer probes), an untraced run (the tracing-overhead baseline) and,
 * on a windowed-engine workload, a traced run at 1 worker thread.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"

using namespace perfbench;

namespace {

struct Rep {
    bool traced = false;
    std::uint32_t threads = 1;
    Spans spans;
    std::uint64_t digest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t parks = 0;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUint(const char *s, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end)
        usage((std::string("bad ") + what + ": " + s).c_str());
    return v;
}

Rep
measure(const Workload &w, bool traced, const ProbeFn &probe,
        Outcome &out)
{
    Rep r;
    r.traced = traced;
    r.threads = w.cfg.threads;
    out = runOnce(w, r.spans, probe);
    r.digest = digest(out);
    r.attempted = out.attempted;
    r.completed = out.completed;
    r.failed = out.stats.failedRequests + out.stats.readFailures +
               (out.attempted - std::min(out.attempted, out.completed));
    r.parks = out.stats.executorParks;
    return r;
}

void
printRep(const Rep &r, bool last)
{
    const Spans &s = r.spans;
    std::printf("    {\"traced\": %s, \"threads\": %u, \"setup_s\": %.9g, "
                "\"trace_gen_s\": %.9g, \"build_s\": %.9g, "
                "\"precondition_s\": %.9g, \"wire_s\": %.9g, "
                "\"drain_s\": %.9g, \"drain_cpu_s\": %.9g, "
                "\"digest\": \"%016llx\", "
                "\"attempted\": %llu, \"completed\": %llu, "
                "\"failed\": %llu, \"parks\": %llu}%s\n",
                r.traced ? "true" : "false", r.threads, s.setup,
                s.traceGen, s.build, s.precondition, s.wire, s.drain,
                s.drainCpu,
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.parks), last ? "" : ",");
}

void
printStats(const Workload &w, const Outcome &o)
{
    const ssd::RunStats &s = o.stats;
    auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    std::printf(
        "  \"stats\": {\"drives\": %u, \"profile_cache_slots\": %llu, "
        "\"writes\": %llu, \"executed_events\": %llu, "
        "\"retry_samples\": %llu, \"avg_retry_steps\": %.9g, "
        "\"simulated_ms\": %.9g, \"avg_read_us\": %.9g, "
        "\"p99_read_us\": %.9g, \"suspensions\": %llu, "
        "\"gc_collections\": %llu, \"gc_page_moves\": %llu, "
        "\"profile_cache_hits\": %llu, \"profile_cache_misses\": %llu, "
        "\"channel_util\": %.9g, \"ecc_util\": %.9g, "
        "\"parity_writes\": %llu, \"cache_hits\": %llu, "
        "\"cache_misses\": %llu, \"windows_run\": %llu, "
        "\"windows_skipped\": %llu, \"completed\": %llu, "
        "\"digest_text\": \"%s\"},\n",
        w.replay ? 1u : w.cfg.drives, u(w.cfg.ssd.profileCacheSlots),
        u(s.writes), u(s.executedEvents), u(s.retrySamples),
        s.avgRetrySteps, s.simulatedMs, s.avgReadResponseUs,
        s.p99ReadResponseUs, u(s.suspensions), u(s.gcCollections),
        u(o.gcPageMoves), u(s.profileCacheHits), u(s.profileCacheMisses),
        s.channelUtilization, s.eccUtilization, u(s.parityWrites),
        u(s.cacheHits), u(s.cacheMisses), u(s.executorWindowsRun),
        u(s.executorWindowsSkipped), u(o.completed),
        digestText(o).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    Size size = Size::Full;
    bool have_seed = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage((arg + " needs a value").c_str());
        const char *val = argv[++i];
        if (arg == "--workload") {
            name = val;
        } else if (arg == "--seed") {
            seed = parseUint(val, "seed");
            have_seed = true;
        } else if (arg == "--seconds") {
            seconds = static_cast<double>(parseUint(val, "seconds"));
        } else if (arg == "--trace") {
            trace = static_cast<int>(parseUint(val, "trace"));
        } else if (arg == "--size") {
            if (std::string(val) == "tiny")
                size = Size::Tiny;
            else if (std::string(val) != "full")
                usage("--size is full or tiny");
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end())
        usage(("unknown workload '" + name + "'").c_str());
    if (!have_seed || seconds < 0.0 || (trace != 0 && trace != 1))
        usage("--seed, --seconds and --trace 0|1 are required");

    // Worker threads of the windowed engine: min(4, cores).
    const std::uint32_t threads =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    const Workload wn = makeWorkload(name, seed, size, threads);
    const Workload w1 = makeWorkload(name, seed, size, 1);
    const bool twin = wn.cfg.threads > 1;

    // Repetition kinds, cycled: {traced, threads-1 twin}.
    struct Kind {
        bool traced;
        const Workload *w;
    };
    std::vector<Kind> cycle;
    if (trace) {
        cycle = {{true, &wn}, {false, &wn}};
        if (twin)
            cycle.push_back({true, &w1});
    } else {
        cycle = {{false, &wn}};
    }
    const std::size_t min_reps = trace ? 2 * cycle.size() : 3;

    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<Rep> reps;
    Outcome first;
    double peak_rss_mb = 0.0;
    bool probed = false;
    ProbeResult probes;
    // Stop when the next repetition would end closer to the deadline
    // past it than short of it, so a run measures about --seconds.
    Clock::duration last_rep{0};
    while (reps.size() < min_reps ||
           Clock::now() + last_rep / 2 < deadline) {
        const Clock::time_point rep_start = Clock::now();
        const Kind &k = cycle[reps.size() % cycle.size()];
        ProbeFn probe;
        if (k.traced && !probed) {
            probe = [&](const Live &live) {
                probes = runProbes(*k.w, live);
            };
            probed = true;
        }
        Outcome out;
        reps.push_back(measure(*k.w, k.traced, probe, out));
        if (reps.size() == 1) {
            first = out;
            // The first repetition alone: later ones may land their
            // allocations in other threads' malloc arenas and stack up
            // resident memory no single run needs.
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        last_rep = Clock::now() - rep_start;
    }

    // The library's own entry point on the same config; on the
    // windowed engine at 1 worker, so it doubles as the thread twin.
    const Outcome ref = runReference(twin ? w1 : wn);

    std::printf("{\n  \"workload\": \"%s\", \"seed\": %llu, "
                "\"size\": \"%s\", \"trace\": %d, \"threads\": %u, "
                "\"cores\": %u,\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                size == Size::Tiny ? "tiny" : "full", trace,
                wn.cfg.threads, std::thread::hardware_concurrency());
    std::printf("  \"peak_rss_mb\": %.9g, \"reference_digest\": "
                "\"%016llx\",\n",
                peak_rss_mb,
                static_cast<unsigned long long>(digest(ref)));
    printStats(wn, first);
    if (trace)
        std::printf("  \"probes\": {\"page_profile_ns\": %.9g, "
                    "\"profile_cache_get_ns\": %.9g, "
                    "\"plan_read_ns\": %.9g, \"event_ns\": %.9g, "
                    "\"translate_ns\": %.9g},\n",
                    probes.pageProfileNs, probes.profileCacheGetNs,
                    probes.planReadNs, probes.eventNs, probes.translateNs);
    std::printf("  \"reps\": [\n");
    for (std::size_t i = 0; i < reps.size(); ++i)
        printRep(reps[i], i + 1 == reps.size());
    std::printf("  ]\n}\n");
    return 0;
}
