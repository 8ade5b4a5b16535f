#include "host/bench_scenarios.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include "sim/json.hh"
#include "sim/logging.hh"

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

namespace {

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
fixed3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

std::string
digestHex(const std::vector<BenchRun> &runs)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, benchDigest(runs));
    return buf;
}

/** A RunStats field as a JSON value (counts widen to uint64). */
template <class T>
sim::json::Value
toJson(const T &v)
{
    if constexpr (std::is_integral_v<T>)
        return sim::json::Value(static_cast<std::uint64_t>(v));
    else
        return sim::json::Value(v);
}

sim::json::Value
runJson(const BenchRun &run)
{
    sim::json::Value out = sim::json::Value::object();
    out.set("name", toJson(run.name));
    ssd::RunStats::forEachField([&](const char *key, auto field, bool) {
        out.set(key, toJson(run.stats.*field));
    });
    sim::json::Value links = sim::json::Value::array();
    for (const ssd::RunStats::FabricLinkStats &l : run.stats.fabricLinks) {
        sim::json::Value row = sim::json::Value::object();
        ssd::RunStats::FabricLinkStats::forEachField(
            [&](const char *key, auto field) {
                row.set(key, toJson(l.*field));
            });
        links.push(std::move(row));
    }
    out.set("fabricLinks", std::move(links));
    return out;
}

} // namespace

std::string
benchDigestText(const std::vector<BenchRun> &runs)
{
    std::ostringstream os;
    for (const BenchRun &run : runs) {
        const ssd::RunStats &r = run.stats;
        os << run.name << " events=" << r.executedEvents
           << " reads=" << r.reads << " writes=" << r.writes
           << " retrySamples=" << r.retrySamples
           << " suspensions=" << r.suspensions
           << " gc=" << r.gcCollections
           << " readFailures=" << r.readFailures
           << " refreshes=" << r.refreshes
           << " simMs=" << fixed3(r.simulatedMs)
           << " avgRetrySteps=" << fixed3(r.avgRetrySteps)
           << " p50r=" << fixed3(r.p50ReadResponseUs)
           << " p99r=" << fixed3(r.p99ReadResponseUs)
           << " p999r=" << fixed3(r.p999ReadResponseUs) << "\n";
    }
    return os.str();
}

std::uint64_t
benchDigest(const std::vector<BenchRun> &runs)
{
    return fnv1a(benchDigestText(runs));
}

bool
writeBenchJson(const std::string &path, const std::string &label,
               const std::vector<BenchRun> &runs)
{
    sim::json::Value doc = sim::json::Value::object();
    doc.set("scenario", sim::json::Value(label));
    doc.set("digest", sim::json::Value(digestHex(runs)));
    sim::json::Value entries = sim::json::Value::array();
    for (const BenchRun &run : runs)
        entries.push(runJson(run));
    doc.set("runs", std::move(entries));

    std::ofstream f(path);
    f << doc.dump(2);
    if (!f) {
        SSDRR_WARN("cannot write bench JSON to ", path);
        return false;
    }
    return true;
}

int
checkBenchDigest(const std::string &golden_path,
                 const std::vector<BenchRun> &runs)
{
    std::ifstream f(golden_path);
    if (!f) {
        std::fprintf(stderr, "cannot read golden digest file %s\n",
                     golden_path.c_str());
        return 2;
    }
    std::string golden;
    f >> golden;
    const std::string actual = digestHex(runs);
    if (golden == actual)
        return 0;
    std::fprintf(stderr,
                 "simulation-result digest mismatch:\n"
                 "  golden: %s (%s)\n"
                 "  actual: %s\n"
                 "results this digest covers:\n%s",
                 golden.c_str(), golden_path.c_str(), actual.c_str(),
                 benchDigestText(runs).c_str());
    return 1;
}

bool
writeBenchGolden(const std::string &golden_path,
                 const std::vector<BenchRun> &runs)
{
    std::ofstream f(golden_path);
    f << digestHex(runs) << "\n\n"
      << "# FNV-1a over the canonical result serialization below.\n"
      << "# Regenerate with: bench_sim_throughput --short "
         "--update-golden <this file>\n\n"
      << benchDigestText(runs);
    if (!f) {
        SSDRR_WARN("cannot write golden digest to ", golden_path);
        return false;
    }
    return true;
}

} // namespace ssdrr::host
