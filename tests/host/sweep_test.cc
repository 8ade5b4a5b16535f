/**
 * @file
 * Unit tests for the grid-of-scenarios sweep layer (host/sweep.hh):
 * cross-product expansion order and labels, axis-path application
 * (dots, array indices, the mechanism and fabric.preset sugars),
 * fail-fast rejection naming "axes.<path>", per-cell semantic
 * validation naming the cell, and the deterministic aggregate
 * (stable row order, stable digest, error-row degradation). The
 * process-pool driver on top of this is covered by the
 * sweep_jobs_determinism ctest, which runs the ssdrr_sweep binary
 * at --jobs 1 vs --jobs 4 and diffs bytes. The ScenarioEdit cases
 * cover the path setter itself (host/scenario_edit.hh), shared with
 * ssdrr_sim --set. The BenchReport case covers the results JSON
 * that bench_sim_throughput and ssdrr_sim --bench-json write
 * (host/bench_scenarios.hh).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "host/bench_scenarios.hh"
#include "host/scenario_edit.hh"
#include "host/sweep.hh"

namespace ssdrr {
namespace {

using sim::json::Value;

/** Sweep over the shared bench scenario: 2 mechanisms x 2 wear
 *  points x 2 workloads = 8 cells. */
host::SweepSpec
miniGrid(std::uint64_t requests = 60)
{
    Value doc = Value::object();
    doc.set("base", host::buildBenchScenario(requests).toJson());
    Value axes = Value::object();
    Value mechs = Value::array();
    mechs.push(Value("Baseline"));
    mechs.push(Value("PnAR2"));
    axes.set("mechanism", std::move(mechs));
    Value pec = Value::array();
    pec.push(Value(1.0));
    pec.push(Value(3.0));
    axes.set("ssd.pecKilo", std::move(pec));
    Value wl = Value::array();
    wl.push(Value("usr_1"));
    wl.push(Value("stg_0"));
    axes.set("tenants[0].workload", std::move(wl));
    doc.set("axes", std::move(axes));
    return host::SweepSpec::fromJson(doc);
}

TEST(Sweep, ExpandsTheCrossProductRowMajorFirstAxisSlowest)
{
    const host::SweepSpec sweep = miniGrid();
    ASSERT_EQ(sweep.cells(), 8u);
    EXPECT_EQ(sweep.label(0),
              "mechanism=Baseline ssd.pecKilo=1 "
              "tenants[0].workload=usr_1");
    EXPECT_EQ(sweep.label(1),
              "mechanism=Baseline ssd.pecKilo=1 "
              "tenants[0].workload=stg_0");
    EXPECT_EQ(sweep.label(2),
              "mechanism=Baseline ssd.pecKilo=3 "
              "tenants[0].workload=usr_1");
    EXPECT_EQ(sweep.label(7),
              "mechanism=PnAR2 ssd.pecKilo=3 "
              "tenants[0].workload=stg_0");
    EXPECT_EQ(sweep.coordinates(5),
              (std::vector<std::size_t>{1, 0, 1}));
}

TEST(Sweep, MaterializesCellsThroughTheAxes)
{
    const host::SweepSpec sweep = miniGrid();
    const host::ScenarioSpec cell0 = sweep.materialize(0);
    EXPECT_EQ(cell0.mechanisms,
              (std::vector<std::string>{"Baseline"}));
    EXPECT_EQ(cell0.ssd.pecKilo, 1.0);
    EXPECT_EQ(cell0.tenants[0].workload, "usr_1");
    const host::ScenarioSpec cell7 = sweep.materialize(7);
    EXPECT_EQ(cell7.mechanisms, (std::vector<std::string>{"PnAR2"}));
    EXPECT_EQ(cell7.ssd.pecKilo, 3.0);
    EXPECT_EQ(cell7.tenants[0].workload, "stg_0");
    // Untouched base fields survive: the other tenants keep their
    // bench-scenario shape.
    EXPECT_EQ(cell7.tenants.size(), 4u);
    EXPECT_EQ(cell7.tenants[1].workload, "usr_1");
}

TEST(Sweep, FabricPresetAxisMaterializesTopologies)
{
    host::ScenarioSpec base;
    {
        host::ScenarioBuilder b;
        b.geometry("small").drives(4).queueDepth(8);
        b.tenant("t", "usr_1", 40).qdLimit(8);
        base = b.build();
    }
    Value doc = Value::object();
    doc.set("base", base.toJson());
    Value axes = Value::object();
    Value presets = Value::array();
    presets.push(Value("flat"));
    presets.push(Value("tree:2x2"));
    axes.set("fabric.preset", std::move(presets));
    doc.set("axes", std::move(axes));
    const host::SweepSpec sweep = host::SweepSpec::fromJson(doc);
    ASSERT_EQ(sweep.cells(), 2u);
    const host::ScenarioSpec flat = sweep.materialize(0);
    const host::ScenarioSpec tree = sweep.materialize(1);
    EXPECT_FALSE(flat.fabric.empty());
    EXPECT_FALSE(tree.fabric.empty());
    EXPECT_NE(flat.fabric.nodes.size(), tree.fabric.nodes.size());
}

host::SweepSpec
sweepFromText(const std::string &text)
{
    return host::SweepSpec::fromJsonText(text);
}

TEST(Sweep, RejectsUnknownAxisPathNamingIt)
{
    const char *text = R"({
      "base": {"tenants": [{"workload": "usr_1", "requests": 10}]},
      "axes": {"ssd.pecKiloTypo": [1, 2]}
    })";
    try {
        sweepFromText(text);
        FAIL() << "unknown axis path accepted";
    } catch (const host::SpecError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("axes.ssd.pecKiloTypo"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("pecKiloTypo"), std::string::npos) << msg;
    }
}

TEST(Sweep, RejectsEmptyValueListNamingTheAxis)
{
    const char *text = R"({
      "base": {"tenants": [{"workload": "usr_1", "requests": 10}]},
      "axes": {"ssd.pecKilo": []}
    })";
    EXPECT_THROW(
        {
            try {
                sweepFromText(text);
            } catch (const host::SpecError &e) {
                EXPECT_NE(
                    std::string(e.what()).find("axes.ssd.pecKilo"),
                    std::string::npos)
                    << e.what();
                throw;
            }
        },
        host::SpecError);
}

TEST(Sweep, RejectsMistypedAxisValueNamingTheIndex)
{
    const char *text = R"({
      "base": {"tenants": [{"workload": "usr_1", "requests": 10}]},
      "axes": {"ssd.pecKilo": [1, "lots"]}
    })";
    try {
        sweepFromText(text);
        FAIL() << "mistyped axis value accepted";
    } catch (const host::SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("axes.ssd.pecKilo[1]"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Sweep, RejectsOutOfRangeArrayIndexAndUnknownTopKey)
{
    EXPECT_THROW(sweepFromText(R"({
      "base": {"tenants": [{"workload": "usr_1", "requests": 10}]},
      "axes": {"tenants[3].workload": ["usr_1"]}
    })"),
                 host::SpecError);
    EXPECT_THROW(sweepFromText(R"({
      "base": {"tenants": [{"workload": "usr_1", "requests": 10}]},
      "axis": {}
    })"),
                 host::SpecError);
    EXPECT_THROW(sweepFromText(R"({
      "axes": {"ssd.pecKilo": [1]}
    })"),
                 host::SpecError);
}

TEST(Sweep, SemanticallyInvalidCellNamesTheCell)
{
    // Structurally fine per axis, invalid in combination: drive 2
    // only exists for some cells of the drives axis.
    const char *text = R"({
      "base": {"drives": 4, "array": {"raidLevel": "raid5",
               "failedDrives": [2]},
               "tenants": [{"workload": "usr_1", "requests": 10}]},
      "axes": {"drives": [4, 2]}
    })";
    const host::SweepSpec sweep = sweepFromText(text);
    ASSERT_EQ(sweep.cells(), 2u);
    EXPECT_NO_THROW(sweep.materialize(0));
    try {
        sweep.materialize(1);
        FAIL() << "invalid combination accepted";
    } catch (const host::SpecError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cell 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("drives=2"), std::string::npos) << msg;
    }
}

// ----- the shared path setter (host/scenario_edit.hh), which both
// sweep axes and ssdrr_sim --set go through -----

host::ScenarioSpec
editBench(const std::vector<std::string> &edits)
{
    std::vector<host::ScenarioEdit> parsed;
    for (const std::string &e : edits)
        parsed.push_back(host::parseScenarioEdit(e));
    return host::applyScenarioEdits(host::buildBenchScenario(40).toJson(),
                                    parsed);
}

/** The SpecError message @p edits raise ("" if none). */
std::string
editError(const std::vector<std::string> &edits)
{
    try {
        editBench(edits);
    } catch (const host::SpecError &e) {
        return e.what();
    }
    return "";
}

TEST(ScenarioEdit, SetsLiteralPathsAndArrayElements)
{
    const host::ScenarioSpec spec =
        editBench({"ssd.pecKilo=3", "tenants[1].workload=stg_0",
                   "host.queueDepth=32"});
    EXPECT_EQ(spec.ssd.pecKilo, 3.0);
    EXPECT_EQ(spec.tenants[1].workload, "stg_0");
    EXPECT_EQ(spec.tenants[0].workload, "usr_1");
    EXPECT_EQ(spec.queueDepth, 32u);
}

TEST(ScenarioEdit, MechanismSugarRunsExactlyThatMechanism)
{
    EXPECT_EQ(editBench({"mechanism=PnAR2"}).mechanisms,
              (std::vector<std::string>{"PnAR2"}));
    EXPECT_NE(editError({"mechanism=Quantum"}).find("mechanism"),
              std::string::npos);
}

TEST(ScenarioEdit, FabricPresetMaterializesAfterALaterDrivesEdit)
{
    // The bench scenario has 2 drives; tree:2x2 needs the 4 that the
    // later edit sets.
    const host::ScenarioSpec spec =
        editBench({"fabric.preset=tree:2x2", "drives=4"});
    EXPECT_EQ(spec.drives, 4u);
    EXPECT_EQ(spec.fabric.drives.size(), 4u);
    EXPECT_NE(editError({"fabric.preset=tree:2x2"}).find("fabric.preset"),
              std::string::npos);
}

TEST(ScenarioEdit, ValuesParseAsJsonElseAsStrings)
{
    EXPECT_TRUE(host::parseScenarioEdit("drives=4").value.isNumber());
    EXPECT_TRUE(host::parseScenarioEdit("ssd.suspension=false")
                    .value.isBool());
    const host::ScenarioEdit word =
        host::parseScenarioEdit("tenants[0].workload=YCSB-C");
    EXPECT_EQ(word.path, "tenants[0].workload");
    ASSERT_TRUE(word.value.isString());
    EXPECT_EQ(word.value.asString(), "YCSB-C");
    EXPECT_TRUE(
        host::parseScenarioEdit("array.failedDrives=[1]").value.isArray());
    EXPECT_TRUE(host::parseScenarioEdit("host={\"queueDepth\": 4}")
                    .value.isObject());

    const host::ScenarioSpec spec = editBench(
        {"drives=4", "array.raidLevel=raid5", "array.failedDrives=[1]",
         "host.filters=[{\"type\": \"cache\", \"sizeBytes\": 1048576}]"});
    EXPECT_EQ(spec.raidLevel, "raid5");
    EXPECT_EQ(spec.failedDrives, (std::vector<std::uint32_t>{1}));
    ASSERT_EQ(spec.filters.size(), 1u);
    EXPECT_EQ(spec.filters[0].type, "cache");
}

TEST(ScenarioEdit, LaterEditOverridesEarlierOne)
{
    EXPECT_EQ(editBench({"drives=4", "drives=3"}).drives, 3u);
    EXPECT_EQ(editBench({"mechanism=AR2", "mechanism=NoRR"}).mechanisms,
              (std::vector<std::string>{"NoRR"}));
}

TEST(ScenarioEdit, RejectsTyposAndBadIndicesNamingThePath)
{
    const std::string typo = editError({"ssd.pecKiloTypo=1"});
    EXPECT_NE(typo.find("ssd: unknown key \"pecKiloTypo\""),
              std::string::npos)
        << typo;
    const std::string range = editError({"tenants[9].workload=usr_1"});
    EXPECT_NE(range.find("tenants[9].workload"), std::string::npos)
        << range;
    EXPECT_NE(range.find("out of range"), std::string::npos) << range;
    EXPECT_NE(editError({"tenants[x].qdLimit=1"}).find("tenants[x]"),
              std::string::npos);
    EXPECT_THROW(host::parseScenarioEdit("drives"), host::SpecError);
    EXPECT_THROW(host::parseScenarioEdit("=4"), host::SpecError);
}

TEST(Sweep, AggregateIsDeterministicAndDigestIsStable)
{
    const host::SweepSpec sweep = miniGrid(40);
    host::TraceCache cache;
    std::vector<Value> results(sweep.cells());
    for (std::size_t i = 0; i < sweep.cells(); ++i)
        results[i] = host::runSweepCell(sweep, i, &cache);
    const Value agg1 = host::aggregateSweep(sweep, results);
    // Re-running the cells must reproduce the aggregate bytes — the
    // digest is a regression golden, not a fingerprint of the run.
    std::vector<Value> again(sweep.cells());
    for (std::size_t i = 0; i < sweep.cells(); ++i)
        again[i] = host::runSweepCell(sweep, i, &cache);
    const Value agg2 = host::aggregateSweep(sweep, again);
    EXPECT_EQ(agg1.dump(2), agg2.dump(2));
    EXPECT_EQ(host::sweepDigest(agg1), host::sweepDigest(agg2));
    EXPECT_EQ(host::sweepTable(agg1), host::sweepTable(agg2));

    // 8 cells x 1 mechanism each (the mechanism axis pins one).
    ASSERT_TRUE(agg1.find("rows")->isArray());
    EXPECT_EQ(agg1.find("rows")->elements().size(), 8u);
    const Value &row0 = agg1.find("rows")->elements()[0];
    EXPECT_EQ(row0.find("status")->asString(), "ok");
    EXPECT_EQ(row0.find("mechanism")->asString(), "Baseline");
    EXPECT_GT(row0.find("reads")->asNumber(), 0.0);
}

TEST(Sweep, ErrorRowsDegradeTheTableNotTheAggregate)
{
    const host::SweepSpec sweep = miniGrid(40);
    host::TraceCache cache;
    std::vector<Value> results(sweep.cells());
    for (std::size_t i = 0; i < sweep.cells(); ++i)
        results[i] =
            i == 3 ? host::sweepErrorRow(sweep, i, 2,
                                         "synthetic failure")
                   : host::runSweepCell(sweep, i, &cache);
    const Value agg = host::aggregateSweep(sweep, results);
    const auto &rows = agg.find("rows")->elements();
    ASSERT_EQ(rows.size(), 8u);
    EXPECT_EQ(rows[3].find("status")->asString(), "error");
    EXPECT_EQ(rows[3].find("message")->asString(),
              "synthetic failure");
    EXPECT_EQ(rows[4].find("status")->asString(), "ok");
    const std::string table = host::sweepTable(agg);
    EXPECT_NE(table.find("synthetic failure"), std::string::npos);
    EXPECT_NE(table.find("digest: "), std::string::npos);
}

TEST(BenchReport, JsonHasOneKeyPerListedField)
{
    // Give every listed field a distinct value, so a key that reads
    // the wrong field fails too.
    host::BenchRun run{"probe", {}};
    std::uint64_t next = 1;
    std::size_t listed = 0;
    ssd::RunStats::forEachField([&](const char *, auto field, bool) {
        run.stats.*field = next++;
        ++listed;
    });
    ssd::RunStats::FabricLinkStats link;
    link.link = "host0<->d0";
    link.maxQueueDepth = 7;
    run.stats.fabricLinks.push_back(link);

    const std::string path =
        testing::TempDir() + "/ssdrr_bench_report.json";
    ASSERT_TRUE(host::writeBenchJson(path, "probe label", {run}));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    std::string error;
    const Value doc = sim::json::parse(text.str(), &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(doc.find("scenario")->asString(), "probe label");
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      host::benchDigest({run})));
    EXPECT_EQ(doc.find("digest")->asString(), digest);
    ASSERT_EQ(doc.find("runs")->elements().size(), 1u);
    const Value &entry = doc.find("runs")->elements()[0];
    // name + the listed fields + fabricLinks, and nothing else.
    EXPECT_EQ(entry.members().size(), listed + 2);
    EXPECT_EQ(entry.find("name")->asString(), "probe");
    std::uint64_t expected = 1;
    ssd::RunStats::forEachField([&](const char *name, auto, bool) {
        SCOPED_TRACE(name);
        const Value *v = entry.find(name);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->asNumber(), static_cast<double>(expected++));
    });
    const Value &links = *entry.find("fabricLinks");
    ASSERT_EQ(links.elements().size(), 1u);
    EXPECT_EQ(links.elements()[0].find("link")->asString(), "host0<->d0");
    EXPECT_EQ(links.elements()[0].find("maxQueueDepth")->asNumber(), 7.0);
}

} // namespace
} // namespace ssdrr
