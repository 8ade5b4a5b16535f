/**
 * @file
 * ScenarioSpec serialization and validation tests: JSON round-trip
 * equality, rejection of malformed/unknown-key files with actionable
 * messages, the fluent builder, and CLI parity — a legacy hand-wired
 * ScenarioConfig and the spec it is sugar for (after a save/load
 * round trip, i.e. exactly what `--dump-scenario` + `--scenario` do)
 * must produce bit-identical RunStats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "host/scenario_spec.hh"

namespace ssdrr::host {
namespace {

ScenarioSpec
fullSpec()
{
    return ScenarioBuilder()
        .name("roundtrip")
        .geometry("small")
        .pec(1.5)
        .retention(7.25)
        .temperature(55.0)
        .suspension(false)
        .seed(999)
        .drives(2)
        .threads(3)
        .hostLinkUs(12.5)
        .transferUsPerKb(0.75)
        .queueDepth(24)
        .arbitration("slo")
        .maxDeviceInflight(12)
        .mechanism(core::Mechanism::Baseline)
        .mechanism(core::Mechanism::PnAR2)
        .tenant("kv", "YCSB-C", 300)
        .qdLimit(4)
        .weight(3)
        .rateIops(5000.0)
        .burst(8.0)
        .sloUs(450.5)
        .tenant("scan", "usr_1", 400)
        .openLoop()
        .iops(3333.25)
        .channels({0, 2})
        .horizonUs(250000.0)
        .build();
}

TEST(ScenarioSpec, JsonRoundTripPreservesEveryField)
{
    const ScenarioSpec spec = fullSpec();
    const ScenarioSpec back =
        ScenarioSpec::fromJsonText(spec.toJsonText());
    EXPECT_TRUE(back == spec);
    // And the canonical text itself is a fixed point.
    EXPECT_EQ(back.toJsonText(), spec.toJsonText());
}

TEST(ScenarioSpec, Raid5ArrayFieldsRoundTrip)
{
    const ScenarioSpec spec = ScenarioBuilder()
                                  .pec(2.0)
                                  .retention(12.0)
                                  .drives(4)
                                  .raid("raid5")
                                  .stripeUnitPages(8)
                                  .failedDrives({2})
                                  .tenant("t", "usr_1", 100)
                                  .build();
    const ScenarioSpec back =
        ScenarioSpec::fromJsonText(spec.toJsonText());
    EXPECT_TRUE(back == spec);
    EXPECT_EQ(back.raidLevel, "raid5");
    EXPECT_EQ(back.stripeUnitPages, 8u);
    EXPECT_EQ(back.failedDrives,
              (std::vector<std::uint32_t>{2}));

    const ScenarioConfig cfg =
        spec.toConfig(core::Mechanism::Baseline);
    EXPECT_EQ(cfg.raid, RaidLevel::Raid5);
    EXPECT_EQ(cfg.stripeUnitPages, 8u);
    EXPECT_EQ(cfg.failedDrives, spec.failedDrives);
}

TEST(ScenarioSpec, FileRoundTrip)
{
    const std::string path =
        testing::TempDir() + "/ssdrr_spec_roundtrip.json";
    const ScenarioSpec spec = fullSpec();
    spec.saveFile(path);
    const ScenarioSpec back = ScenarioSpec::loadFile(path);
    EXPECT_TRUE(back == spec);
    std::remove(path.c_str());
}

void
expectRejects(const std::string &text, const std::string &needle)
{
    try {
        (void)ScenarioSpec::fromJsonText(text);
        FAIL() << "expected rejection containing: " << needle;
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(ScenarioSpec, RejectsMalformedJsonWithPosition)
{
    expectRejects("{\n  \"drives\": ,\n}", "line 2");
    expectRejects("not json at all", "invalid JSON");
}

TEST(ScenarioSpec, RejectsUnknownKeysNamingThePath)
{
    expectRejects(R"({"tenants": [{"qdlimit": 4}]})",
                  "tenants[0]: unknown key \"qdlimit\"");
    expectRejects(R"({"Drives": 2})",
                  "scenario: unknown key \"Drives\"");
    expectRejects(R"({"ssd": {"pec": 1}})",
                  "ssd: unknown key \"pec\"");
}

TEST(ScenarioSpec, RejectsTypeMismatches)
{
    expectRejects(R"({"drives": "two"})",
                  "scenario.drives: expected a number, got string");
    expectRejects(R"({"drives": 1.5})", "non-negative integer");
    expectRejects(R"({"mechanisms": "Baseline"})",
                  "mechanisms: expected an array");
}

TEST(ScenarioSpec, RejectsSemanticConflicts)
{
    // Unknown names.
    expectRejects(R"({"mechanisms": ["Warp9"], "tenants": [{}]})",
                  "unknown mechanism \"Warp9\"");
    expectRejects(
        R"({"tenants": [{"workload": "usr_9"}]})",
        "tenants[0].workload: unknown workload \"usr_9\"");
    expectRejects(
        R"({"host": {"arbitration": "edf"}, "tenants": [{}]})",
        "host.arbitration: unknown policy \"edf\"");
    // Cross-field conflicts.
    expectRejects(R"({"tenants": [{"iops": 1000}]})",
                  "closed-loop injection is completion-driven");
    expectRejects(R"({"tenants": [{"horizonUs": 1000}]})",
                  "a time horizon needs mode \"open\"");
    expectRejects(R"({"tenants": [{"sloUs": 500}]})",
                  "only honoured by the \"slo\" policy");
    expectRejects(
        R"({"host": {"arbitration": "slo"}, "tenants": [{}]})",
        "needs at least one tenant with sloUs > 0");
    expectRejects(R"({"tenants": [{"burst": 4}]})",
                  "a token bucket needs a refill rate");
    expectRejects(
        R"({"host": {"queueDepth": 8},
            "tenants": [{"qdLimit": 16}]})",
        "exceeds host.queueDepth");
    expectRejects(R"({"tenants": [{"channels": [7]}]})",
                  "has 4 channels");
    expectRejects(R"({"tenants": [{"channels": [1, 1]}]})",
                  "listed twice");
    expectRejects(
        R"({"ssd": {"refreshMonths": 3},
            "tenants": [{"channels": [0]}]})",
        "cannot be combined with ssd.refreshMonths");
    expectRejects(R"({"tenants": []})",
                  "needs at least one tenant");
    // Integers beyond 2^53 would be silently rounded by the
    // double-backed JSON number — reject instead of running with a
    // corrupted seed.
    expectRejects(R"({"ssd": {"seed": 9007199254740993},
                      "tenants": [{}]})",
                  "exceeds 2^53");
    // uint32 fields must reject rather than truncate: 2^32+1 as a
    // drive count would otherwise silently run with 1 drive.
    expectRejects(R"({"drives": 4294967297, "tenants": [{}]})",
                  "scenario.drives: 4294967297 is out of range");
    // The sharded engine needs a synchronization window: worker
    // threads without a host link must be rejected, with the fix
    // named.
    expectRejects(R"({"threads": 4, "tenants": [{}]})",
                  "need host.hostLinkUs > 0");
    // threads: 0 is "use hardware concurrency" — a multi-worker
    // request, so it carries the same link requirement.
    expectRejects(R"({"threads": 0, "tenants": [{}]})",
                  "need host.hostLinkUs > 0");
    expectRejects(
        R"({"host": {"hostLinkUs": -3}, "tenants": [{}]})",
        "host.hostLinkUs");
    // A sub-tick link would truncate to 0 ticks and silently fall
    // back to the legacy engine (dropping the modelled turnaround
    // AND the worker threads) — reject instead.
    expectRejects(
        R"({"host": {"hostLinkUs": 0.0005}, "tenants": [{}]})",
        "rounds to zero simulator ticks");
    expectRejects(
        R"({"host": {"transferUsPerKb": -1}, "tenants": [{}]})",
        "host.transferUsPerKb");
}

TEST(ScenarioSpec, RejectsInvalidArrayLayouts)
{
    expectRejects(
        R"({"array": {"raidLevel": "raid6"}, "tenants": [{}]})",
        "array.raidLevel: unknown level \"raid6\"");
    expectRejects(
        R"({"array": {"stripeUnitPages": 0}, "tenants": [{}]})",
        "array.stripeUnitPages: must be >= 1");
    // RAID-5 needs a data drive besides the rotating parity.
    expectRejects(R"({"drives": 2, "array": {"raidLevel": "raid5"},
                      "tenants": [{}]})",
                  "\"raid5\" needs drives >= 3");
    // Failed drives must exist...
    expectRejects(R"({"drives": 4,
                      "array": {"raidLevel": "raid5",
                                "failedDrives": [4]},
                      "tenants": [{}]})",
                  "array.failedDrives[0]: drive 4 is out of range");
    // ... be unique ...
    expectRejects(R"({"drives": 4,
                      "array": {"raidLevel": "raid5",
                                "failedDrives": [1, 1]},
                      "tenants": [{}]})",
                  "array.failedDrives[1]: drive 1 listed twice");
    // ... and stay within the layout's fault tolerance.
    expectRejects(R"({"drives": 4,
                      "array": {"raidLevel": "raid5",
                                "failedDrives": [0, 2]},
                      "tenants": [{}]})",
                  "exceed what \"raid5\" can serve through");
    expectRejects(
        R"({"drives": 2, "array": {"failedDrives": [0]},
            "tenants": [{}]})",
        "raid0 has no redundancy");
    // Channel affinity's lattice math assumes raid0 striping.
    expectRejects(R"({"drives": 4,
                      "array": {"raidLevel": "raid5"},
                      "tenants": [{"channels": [0]}]})",
                  "channel affinity assumes the raid0 striped "
                  "layout");
    expectRejects(
        R"({"array": {"raidLevel": 5}, "tenants": [{}]})",
        "array.raidLevel: expected a string");
    expectRejects(
        R"({"array": {"failedDrives": 1}, "tenants": [{}]})",
        "array.failedDrives: expected an array");
}

TEST(ScenarioSpec, FaultTimelineRoundTripsAndReachesTheConfig)
{
    const ScenarioSpec spec = ScenarioBuilder()
                                  .drives(4)
                                  .raid("raid5")
                                  .stripeUnitPages(4)
                                  .hostLinkUs(10.0)
                                  .timeoutUs(1500.0)
                                  .retryMax(3)
                                  .retryBackoffUs(250.0)
                                  .failSlow(2, 500.0, 4000.0, 4.0)
                                  .ueccFault(1, 0.0, 8000.0, 0.02)
                                  .failStop(0, 3000.0, true, 48)
                                  .tenant("t", "usr_1", 100)
                                  .build();
    const ScenarioSpec back =
        ScenarioSpec::fromJsonText(spec.toJsonText());
    EXPECT_TRUE(back == spec);
    ASSERT_EQ(back.faults.size(), 3u);
    EXPECT_EQ(back.faults[0].type, "failSlow");
    EXPECT_EQ(back.faults[2].rebuildRows, 48u);
    EXPECT_DOUBLE_EQ(back.timeoutUs, 1500.0);
    EXPECT_EQ(back.retryMax, 3u);
    EXPECT_DOUBLE_EQ(back.retryBackoffUs, 250.0);

    const ScenarioConfig cfg =
        spec.toConfig(core::Mechanism::Baseline);
    ASSERT_EQ(cfg.faults.size(), 3u);
    EXPECT_EQ(cfg.faults[0].kind, sim::FaultEvent::Kind::FailSlow);
    EXPECT_EQ(cfg.faults[0].at, sim::usec(500.0));
    EXPECT_EQ(cfg.faults[0].until, sim::usec(4000.0));
    EXPECT_DOUBLE_EQ(cfg.faults[0].multiplier, 4.0);
    EXPECT_EQ(cfg.faults[1].kind, sim::FaultEvent::Kind::Uecc);
    EXPECT_DOUBLE_EQ(cfg.faults[1].probability, 0.02);
    EXPECT_EQ(cfg.faults[2].kind, sim::FaultEvent::Kind::FailStop);
    EXPECT_EQ(cfg.faults[2].until, sim::kTickNever);
    EXPECT_TRUE(cfg.faults[2].rebuild);
    EXPECT_EQ(cfg.faults[2].rebuildRows, 48u);
    EXPECT_DOUBLE_EQ(cfg.timeoutUs, 1500.0);
    EXPECT_EQ(cfg.retryMax, 3u);
    EXPECT_DOUBLE_EQ(cfg.retryBackoffUs, 250.0);
}

TEST(ScenarioSpec, RejectsInvalidFaultTimelines)
{
    expectRejects(
        R"({"faults": [{"type": "meteor"}], "tenants": [{}]})",
        "faults[0].type: unknown fault \"meteor\"");
    expectRejects(
        R"({"faults": [{"type": "failSlow", "drive": 2,
                        "multiplier": 3}],
            "drives": 2, "tenants": [{}]})",
        "faults[0].drive: drive 2 is out of range");
    // A pre-failed drive cannot fault again mid-run.
    expectRejects(
        R"({"drives": 4,
            "array": {"raidLevel": "raid5", "failedDrives": [1]},
            "faults": [{"type": "failSlow", "drive": 1,
                        "multiplier": 3}],
            "tenants": [{}]})",
        "faults[0].drive: drive 1 is already listed in "
        "array.failedDrives");
    // Fail-stop needs the host deadline that detects it.
    expectRejects(
        R"({"drives": 2,
            "faults": [{"type": "failStop", "drive": 0}],
            "tenants": [{}]})",
        "host.timeoutUs: a failStop fault needs");
    expectRejects(
        R"({"drives": 2,
            "faults": [{"type": "failStop", "drive": 0},
                       {"type": "failStop", "drive": 0}],
            "host": {"timeoutUs": 500}, "tenants": [{}]})",
        "faults[1].drive: drive 0 fail-stops twice");
    expectRejects(
        R"({"faults": [{"type": "failSlow", "drive": 0,
                        "multiplier": 1.0}],
            "tenants": [{}]})",
        "faults[0].multiplier");
    expectRejects(
        R"({"faults": [{"type": "uecc", "drive": 0,
                        "probability": 1.5}],
            "tenants": [{}]})",
        "faults[0].probability");
    expectRejects(
        R"({"faults": [{"type": "failSlow", "drive": 0, "atUs": 500,
                        "untilUs": 400, "multiplier": 2}],
            "tenants": [{}]})",
        "faults[0].untilUs");
    // Rebuild rides on a raid5 failStop only.
    expectRejects(
        R"({"drives": 2,
            "faults": [{"type": "failStop", "drive": 0,
                        "rebuild": true}],
            "host": {"timeoutUs": 500}, "tenants": [{}]})",
        "faults[0].rebuild: rebuild-to-spare");
    // Per-type key schema: a failStop has no window.
    expectRejects(
        R"({"faults": [{"type": "failStop", "untilUs": 900}],
            "tenants": [{}]})",
        "faults[0]: unknown key \"untilUs\"");
    expectRejects(R"({"faults": {}, "tenants": [{}]})",
                  "faults: expected an array");
    expectRejects(
        R"({"host": {"retryMax": 99}, "tenants": [{}]})",
        "host.retryMax");
    expectRejects(
        R"({"host": {"timeoutUs": -4}, "tenants": [{}]})",
        "host.timeoutUs");
}

TEST(ScenarioSpec, ShardedEngineFieldsReachTheConfig)
{
    const ScenarioSpec spec = fullSpec();
    const ScenarioConfig cfg =
        spec.toConfig(core::Mechanism::Baseline);
    EXPECT_EQ(cfg.threads, 3u);
    EXPECT_DOUBLE_EQ(cfg.hostLinkUs, 12.5);
}

TEST(ScenarioSpec, ThreadsZeroIsHardwareConcurrencySugar)
{
    // The spec keeps the literal 0 (machine-independent on disk, so
    // --dump-scenario round-trips it); only toConfig() resolves it
    // to the machine's core count.
    ScenarioSpec spec = ScenarioSpec::fromJsonText(
        R"({"threads": 0,
            "host": {"hostLinkUs": 10},
            "tenants": [{"workload": "YCSB-C", "requests": 10}]})");
    EXPECT_EQ(spec.threads, 0u);
    spec.validate();

    const ScenarioSpec reparsed =
        ScenarioSpec::fromJsonText(spec.toJsonText());
    EXPECT_EQ(reparsed.threads, 0u);
    EXPECT_EQ(reparsed, spec);

    const ScenarioConfig cfg =
        spec.toConfig(core::Mechanism::Baseline);
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(cfg.threads, hw != 0 ? hw : 1u);
    EXPECT_GE(cfg.threads, 1u);
}

TEST(ScenarioSpec, FullChannelListIsNoRestriction)
{
    // Naming every channel is normalized to "unmasked", so it must
    // not trip the affinity-only refresh conflict.
    const ScenarioSpec spec = ScenarioSpec::fromJsonText(
        R"({"ssd": {"refreshMonths": 3},
            "tenants": [{"channels": [0, 1, 2, 3]}]})");
    EXPECT_EQ(spec.tenants[0].channelMask, 0xfu);
}

TEST(ScenarioBuilder, PerTenantSettersNeedATenant)
{
    EXPECT_THROW(ScenarioBuilder().qdLimit(4), SpecError);
}

TEST(ScenarioBuilder, EmptySweepDefaultsToBaseline)
{
    const ScenarioSpec spec =
        ScenarioBuilder().tenant("t", "usr_1", 10).build();
    ASSERT_EQ(spec.mechanisms.size(), 1u);
    EXPECT_EQ(spec.mechanisms[0], "Baseline");
}

TEST(ScenarioSpec, CliParityLegacyConfigVsSavedSpec)
{
    // The legacy hand-wired config, exactly as pre-v2 callers (and
    // the pre-v2 ssdrr_sim) built it.
    ScenarioConfig legacy;
    legacy.ssd = ssd::Config::small();
    legacy.ssd.basePeKilo = 1.0;
    legacy.ssd.baseRetentionMonths = 6.0;
    legacy.ssd.seed = 21;
    legacy.mech = core::Mechanism::PnAR2;
    legacy.drives = 2;
    legacy.host.queueDepth = 16;
    legacy.host.arbitration = Arbitration::WeightedRoundRobin;
    for (std::uint32_t t = 0; t < 3; ++t) {
        TenantSpec ts;
        ts.workload = "usr_1";
        ts.name = "usr_1#" + std::to_string(t);
        ts.requests = 200;
        ts.qdLimit = 16;
        ts.weight = t + 1;
        legacy.tenants.push_back(ts);
    }
    const ScenarioResult ref = runScenario(legacy);

    // The same run as a spec, pushed through the full JSON
    // round-trip (what --dump-scenario + --scenario do).
    ScenarioBuilder b;
    b.pec(1.0).retention(6.0).seed(21).drives(2).queueDepth(16)
        .arbitration(Arbitration::WeightedRoundRobin)
        .mechanism(core::Mechanism::PnAR2);
    for (std::uint32_t t = 0; t < 3; ++t)
        b.tenant("usr_1#" + std::to_string(t), "usr_1", 200)
            .qdLimit(16)
            .weight(t + 1);
    const ScenarioSpec loaded =
        ScenarioSpec::fromJsonText(b.build().toJsonText());
    const ScenarioResult got =
        runScenario(loaded, core::Mechanism::PnAR2);

    EXPECT_EQ(ssd::deterministicDiff(ref.array, got.array),
              std::vector<std::string>{});
    ASSERT_EQ(ref.tenants.size(), got.tenants.size());
    for (std::size_t t = 0; t < ref.tenants.size(); ++t) {
        EXPECT_EQ(ref.tenants[t].completed, got.tenants[t].completed);
        EXPECT_EQ(ref.tenants[t].avgUs, got.tenants[t].avgUs);
        EXPECT_EQ(ref.tenants[t].p99Us, got.tenants[t].p99Us);
        EXPECT_EQ(ref.tenants[t].p999Us, got.tenants[t].p999Us);
    }
    EXPECT_EQ(ref.fetchedPerQueue, got.fetchedPerQueue);
}

} // namespace
} // namespace ssdrr::host
