/**
 * @file
 * Host robustness under the fault timeline: per-subrequest timeouts,
 * retry with backoff, RAID-5 failover into reconstruction, fail-slow
 * latency stretching, and fail-stop detection.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host/array.hh"

namespace ssdrr::host {
namespace {

ssd::Config
testConfig()
{
    ssd::Config cfg = ssd::Config::small();
    cfg.basePeKilo = 1.0;
    cfg.baseRetentionMonths = 6.0;
    return cfg;
}

sim::FaultEvent
failStop(std::uint32_t drive, sim::Tick at)
{
    sim::FaultEvent e;
    e.kind = sim::FaultEvent::Kind::FailStop;
    e.drive = drive;
    e.at = at;
    return e;
}

sim::FaultEvent
failSlow(std::uint32_t drive, sim::Tick at, sim::Tick until,
         double mult)
{
    sim::FaultEvent e;
    e.kind = sim::FaultEvent::Kind::FailSlow;
    e.drive = drive;
    e.at = at;
    e.until = until;
    e.multiplier = mult;
    return e;
}

sim::FaultEvent
uecc(std::uint32_t drive, double prob)
{
    sim::FaultEvent e;
    e.kind = sim::FaultEvent::Kind::Uecc;
    e.drive = drive;
    e.probability = prob;
    return e;
}

ssd::HostRequest
read(std::uint64_t id, std::uint64_t lpn, std::uint32_t pages = 1)
{
    ssd::HostRequest req;
    req.id = id;
    req.arrival = 0;
    req.lpn = lpn;
    req.pages = pages;
    req.isRead = true;
    return req;
}

/** Run one single-read probe and return its completion. */
ssd::HostCompletion
probeRead(SsdArray &a, std::uint64_t lpn)
{
    a.precondition();
    ssd::HostCompletion last;
    int completions = 0;
    a.onHostComplete([&](const ssd::HostCompletion &c) {
        ++completions;
        last = c;
    });
    a.submit(read(1, lpn));
    a.drain();
    EXPECT_EQ(completions, 1);
    return last;
}

TEST(ArrayFaults, GenerousTimeoutChangesNothing)
{
    // Deadline tracking alone (no faults, no expiries) must leave
    // the simulated results bit-identical: the timeout events are
    // cancelled before they run.
    SsdArray::Options plain;
    plain.drives = 2;
    SsdArray a(testConfig(), core::Mechanism::NoRR, plain);
    const ssd::HostCompletion base = probeRead(a, 1);

    SsdArray::Options guarded = plain;
    guarded.timeout = sim::usec(1000000);
    SsdArray b(testConfig(), core::Mechanism::NoRR, guarded);
    const ssd::HostCompletion same = probeRead(b, 1);

    EXPECT_DOUBLE_EQ(base.responseUs, same.responseUs);
    EXPECT_EQ(ssd::deterministicDiff(a.stats(), b.stats()),
              std::vector<std::string>{});
}

TEST(ArrayFaults, FailSlowStretchesDeviceLatency)
{
    SsdArray::Options plain;
    plain.drives = 2;
    SsdArray a(testConfig(), core::Mechanism::NoRR, plain);
    const double healthy = probeRead(a, 0).responseUs; // drive 0

    SsdArray::Options slowed = plain;
    slowed.faults = {failSlow(0, 0, sim::kTickNever, 4.0)};
    SsdArray b(testConfig(), core::Mechanism::NoRR, slowed);
    const double slow = probeRead(b, 0).responseUs;

    EXPECT_GT(slow, healthy * 3.0);
    EXPECT_LT(slow, healthy * 5.0);

    // The other drive is untouched.
    SsdArray c(testConfig(), core::Mechanism::NoRR, slowed);
    const double other = probeRead(c, 1).responseUs; // drive 1
    EXPECT_DOUBLE_EQ(other, healthy);
}

TEST(ArrayFaults, UeccReadRetriesThenSucceedsOnPermanentError)
{
    // p = 1: every attempt draws a UECC. The retries burn out and
    // the read fails over; on RAID-0 there is no redundancy, so the
    // parent completes Failed.
    SsdArray::Options opt;
    opt.drives = 2;
    opt.faults = {uecc(0, 1.0)};
    opt.retryMax = 2;
    opt.retryBackoff = sim::usec(50);
    SsdArray a(testConfig(), core::Mechanism::NoRR, opt);
    const ssd::HostCompletion done = probeRead(a, 0);

    EXPECT_EQ(done.status, ssd::CompletionStatus::Failed);
    const ssd::RunStats st = a.stats();
    EXPECT_EQ(st.ueccReads, 3u);  // initial + 2 retries
    EXPECT_EQ(st.hostRetries, 2u);
    EXPECT_EQ(st.failedRequests, 1u);
    EXPECT_EQ(st.hostTimeouts, 0u);
}

TEST(ArrayFaults, UeccFailoverReconstructsOnRaid5)
{
    SsdArray::Options opt;
    opt.drives = 4;
    opt.raid = RaidLevel::Raid5;
    opt.stripeUnitPages = 2;
    opt.faults = {uecc(0, 1.0)};
    opt.retryMax = 1;
    SsdArray a(testConfig(), core::Mechanism::NoRR, opt);
    // LPN 0 is data unit 0 of row 0 and lives on drive 0.
    const ssd::HostCompletion done = probeRead(a, 0);

    EXPECT_EQ(done.status, ssd::CompletionStatus::Ok);
    const ssd::RunStats st = a.stats();
    EXPECT_GE(st.ueccReads, 2u);
    EXPECT_EQ(st.hostFailovers, 1u);
    EXPECT_EQ(st.degradedReads, 1u);
    EXPECT_EQ(st.failedRequests, 0u);
}

TEST(ArrayFaults, FailStopReadFailsOnRaid0)
{
    SsdArray::Options opt;
    opt.drives = 2;
    opt.faults = {failStop(0, 0)};
    opt.timeout = sim::usec(500);
    opt.retryBackoff = sim::usec(50);
    SsdArray a(testConfig(), core::Mechanism::NoRR, opt);

    std::vector<std::uint32_t> detected;
    a.onDriveFailed([&](std::uint32_t d) { detected.push_back(d); });
    const ssd::HostCompletion done = probeRead(a, 0);

    EXPECT_EQ(done.status, ssd::CompletionStatus::Failed);
    EXPECT_EQ(detected, (std::vector<std::uint32_t>{0}));
    const ssd::RunStats st = a.stats();
    EXPECT_GE(st.hostTimeouts, 1u);
    EXPECT_EQ(st.failedRequests, 1u);
}

TEST(ArrayFaults, FailStopReadReconstructsOnRaid5)
{
    SsdArray::Options opt;
    opt.drives = 4;
    opt.raid = RaidLevel::Raid5;
    opt.stripeUnitPages = 2;
    opt.faults = {failStop(0, 0)};
    opt.timeout = sim::usec(500);
    opt.retryBackoff = sim::usec(50);
    SsdArray a(testConfig(), core::Mechanism::NoRR, opt);
    const ssd::HostCompletion done = probeRead(a, 0);

    EXPECT_EQ(done.status, ssd::CompletionStatus::Ok);
    const ssd::RunStats st = a.stats();
    EXPECT_GE(st.hostTimeouts, 1u);
    EXPECT_EQ(st.hostFailovers, 1u);
    EXPECT_EQ(st.degradedReads, 1u);
    EXPECT_EQ(st.failedRequests, 0u);
}

TEST(ArrayFaults, LateCompletionAfterTimeoutIsDropped)
{
    // A timeout shorter than the device service time abandons the
    // sub; the eventual device completion must be swallowed without
    // completing the parent twice.
    SsdArray::Options opt;
    opt.drives = 2;
    opt.timeout = sim::usec(1); // expires before any device read
    opt.retryMax = 0;
    SsdArray a(testConfig(), core::Mechanism::NoRR, opt);
    a.precondition();
    int completions = 0;
    ssd::HostCompletion last;
    a.onHostComplete([&](const ssd::HostCompletion &c) {
        ++completions;
        last = c;
    });
    a.submit(read(1, 0));
    a.drain();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(last.status, ssd::CompletionStatus::Failed);
    EXPECT_EQ(a.stats().hostTimeouts, 1u);
}

TEST(ArrayFaults, FaultRunsAreDeterministic)
{
    auto run = [] {
        SsdArray::Options opt;
        opt.drives = 4;
        opt.raid = RaidLevel::Raid5;
        opt.stripeUnitPages = 2;
        opt.faults = {uecc(1, 0.3), failSlow(2, 0, sim::usec(5000),
                                             3.0)};
        opt.faultSeed = 99;
        opt.timeout = sim::usec(100000);
        SsdArray a(testConfig(), core::Mechanism::NoRR, opt);
        a.precondition();
        a.onHostComplete([](const ssd::HostCompletion &) {});
        for (std::uint64_t i = 0; i < 64; ++i)
            a.submit(read(i + 1, i * 3, 2));
        a.drain();
        return a.stats();
    };
    EXPECT_EQ(ssd::deterministicDiff(run(), run()),
              std::vector<std::string>{});
}

} // namespace
} // namespace ssdrr::host
