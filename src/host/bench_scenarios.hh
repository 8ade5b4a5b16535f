/**
 * @file
 * Canonical bench scenarios shared by the perf benches, the examples
 * smoke, and the sweep tests, so the "4 closed-loop tenants on a
 * 2-drive striped array at the paper's mid-life operating point"
 * shape is specified once. The benches' golden digests depend on it
 * staying bit-identical to the historical hand-wired configs, so a
 * change here is a deliberate re-baseline, not a refactor.
 */

#ifndef SSDRR_HOST_BENCH_SCENARIOS_HH
#define SSDRR_HOST_BENCH_SCENARIOS_HH

#include <cstdint>
#include <string>

#include "host/host_interface.hh"
#include "host/scenario_spec.hh"
#include "sim/bench_report.hh"
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

/**
 * Fold one measured run into a perf-trajectory entry named @p name:
 * every RunStats counter BenchRun mirrors, plus the rates derived
 * from @p wall_seconds. The only RunStats -> BenchRun copy, shared by
 * bench_sim_throughput and ssdrr_sim --bench-json.
 */
sim::BenchRun benchRunFrom(const std::string &name,
                           const ssd::RunStats &stats,
                           double wall_seconds);

} // namespace ssdrr::host

#endif // SSDRR_HOST_BENCH_SCENARIOS_HH
