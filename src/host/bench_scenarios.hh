/**
 * @file
 * The canonical bench scenario and the results report the benches
 * and ssdrr_sim --bench-json write.
 *
 * buildBenchScenario specifies the "4 closed-loop tenants on a
 * 2-drive striped array at the paper's mid-life operating point"
 * shape once, for the benches and the sweep tests. Golden outputs
 * depend on it staying bit-identical to the historical hand-wired
 * configs, so a change there is a deliberate re-baseline, not a
 * refactor.
 *
 * The report holds simulation results only, never wall time (the
 * perfbench/ harness times the simulator): a JSON file with every
 * field RunStats::forEachField lists, and a digest of a fixed subset
 * of the deterministic fields so that CI detects a result change
 * that sneaks in under a perf patch.
 */

#ifndef SSDRR_HOST_BENCH_SCENARIOS_HH
#define SSDRR_HOST_BENCH_SCENARIOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "host/host_interface.hh"
#include "host/scenario_spec.hh"
#include "ssd/ssd.hh"

namespace ssdrr::host {

/**
 * The multi-tenant tail scenario: four closed-loop usr_1 tenants
 * (QD-limit 16 each) on queue pairs in front of a two-drive striped
 * array at 1K P/E and 6 months' retention, host queue depth 16.
 * Under WRR, tenant t gets weight t + 1 (the arbitration bench's
 * asymmetric shape); otherwise all weights are 1.
 *
 * The spec sweeps every mechanism, so callers can toConfig() any of
 * them. Materialized configs are bit-identical to the configs the
 * benches historically built by hand.
 */
ScenarioSpec
buildBenchScenario(std::uint64_t requests_per_tenant = 400,
                   Arbitration arb = Arbitration::RoundRobin);

/** One reported configuration (e.g. one mechanism) of a bench. */
struct BenchRun {
    std::string name;
    ssd::RunStats stats;
};

/**
 * Canonical text the digest is computed over: one line per run with
 * 13 deterministic fields (event, request and retry counts, simulated
 * time, read percentiles). Doubles are rounded to 1e-3 in fixed
 * notation, so the text is stable against formatting but sensitive
 * to any result change. bench/sim_throughput.golden pins it.
 */
std::string benchDigestText(const std::vector<BenchRun> &runs);

/** FNV-1a over benchDigestText(). */
std::uint64_t benchDigest(const std::vector<BenchRun> &runs);

/**
 * Write the runs as JSON: @p label names the scenario, each run has
 * its name, every RunStats::forEachField field under its C++ name,
 * and its fabricLinks rows; the digest rides along.
 * @return false (with a warning) if the file cannot be written.
 */
bool writeBenchJson(const std::string &path, const std::string &label,
                    const std::vector<BenchRun> &runs);

/**
 * Compare the runs' digest against a golden digest file (first
 * whitespace-delimited token = hex digest; rest ignored).
 * @retval 0 match
 * @retval 1 mismatch (details on stderr)
 * @retval 2 golden file unreadable
 */
int checkBenchDigest(const std::string &golden_path,
                     const std::vector<BenchRun> &runs);

/** Write/overwrite the golden digest file (digest + breakdown). */
bool writeBenchGolden(const std::string &golden_path,
                      const std::vector<BenchRun> &runs);

} // namespace ssdrr::host

#endif // SSDRR_HOST_BENCH_SCENARIOS_HH
