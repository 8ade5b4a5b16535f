/**
 * @file
 * Benchmark driver internals: the workloads, one timed run built from
 * the library's public calls, the result digest, and the layer probes.
 */

#ifndef SSDRR_PERFBENCH_BENCH_HH
#define SSDRR_PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "host/scenario.hh"
#include "ssd/ssd.hh"

namespace perfbench {

using namespace ssdrr;

/** Full-size workloads are the benchmark; tiny ones the self-test. */
enum class Size { Full, Tiny };

struct Workload {
    std::string name;
    /** One drive replaying one trace open-loop through Ssd::replay
     *  (the paper's Section-7 path); otherwise tenants on an array,
     *  the host::runScenario path. */
    bool replay = false;
    /** For a replay workload only cfg.ssd, cfg.mech and the single
     *  tenant's workload and request count are used. */
    host::ScenarioConfig cfg;
};

/** Names of every workload, in benchmark order. */
const std::vector<std::string> &workloadNames();

/** @p threads is the worker count of windowed-engine workloads. */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      Size size, std::uint32_t threads);

/** The deterministic outcome of one run. */
struct Outcome {
    /** Array (or drive) surface statistics, filter counters folded
     *  in. */
    ssd::RunStats stats;
    /** Requests completed per tenant, as the tenants count them (a
     *  DRAM-cache hit counts). A replay has one tenant. */
    std::vector<std::uint64_t> tenantCompleted;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    /** GC relocation reads, summed over drives (0 when unknown). */
    std::uint64_t gcPageMoves = 0;
};

/** Canonical text of the fields the digest covers. */
std::string digestText(const Outcome &o);
/** FNV-1a over digestText(). */
std::uint64_t digest(const Outcome &o);

/** Wall-clock seconds of each phase of one run. */
struct Spans {
    double traceGen = 0.0;
    double build = 0.0;
    double precondition = 0.0;
    double wire = 0.0;
    /** Config to first event: the four phases above. */
    double setup = 0.0;
    double drain = 0.0;
    /** CPU seconds of the run, summed over the process's threads. */
    double drainCpu = 0.0;
};

/** A read page of the workload's traces, on the drive that holds it. */
struct PageRef {
    std::uint32_t drive = 0;
    std::uint64_t lpn = 0; ///< drive-local LPN
};

/** The system after drain(), before teardown (probe input). */
struct Live {
    std::vector<ssd::Ssd *> drives;
    std::vector<PageRef> pages;
    const Outcome *outcome = nullptr;
};

using ProbeFn = std::function<void(const Live &)>;

/**
 * Run @p w once through the same public calls, in the same order, as
 * host::runScenario (or Ssd::replay for a replay workload), timing
 * each phase into @p spans. A set @p probe runs on the live system
 * after drain().
 */
Outcome runOnce(const Workload &w, Spans &spans,
                const ProbeFn &probe = nullptr);

/**
 * Run @p w through the library's one-call entry point instead:
 * host::runScenario, or Ssd::replay on a fresh drive. Its digest must
 * equal runOnce()'s.
 */
Outcome runReference(const Workload &w);

/** Nanoseconds per call of each layer's public function. */
struct ProbeResult {
    double pageProfileNs = 0.0;
    double profileCacheGetNs = 0.0;
    double planReadNs = 0.0;
    double eventNs = 0.0;
    double translateNs = 0.0;
};

/** Time each layer in isolation on @p w's own drives and pages. */
ProbeResult runProbes(const Workload &w, const Live &live);

} // namespace perfbench

#endif // SSDRR_PERFBENCH_BENCH_HH
