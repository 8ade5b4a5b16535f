/**
 * @file
 * Layer probes: each times one layer's public function in isolation,
 * on the workload's own drives (error model, FTL state after the run,
 * operating point, mechanism) and the read pages of its traces.
 */

#include <algorithm>
#include <chrono>
#include <memory>

#include "bench.hh"
#include "core/retry_controller.hh"
#include "nand/page_profile_cache.hh"
#include "sim/event_queue.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Keeps probe results observable so no loop is optimized away. */
volatile double g_sink = 0.0;

constexpr int kPasses = 3;

/**
 * Median over kPasses of @p pass()'s wall time, per call. @p prepare
 * runs untimed before each pass; @p pass returns a checksum.
 */
template <typename Prepare, typename Pass>
double
nsPerCall(std::size_t calls, Prepare &&prepare, Pass &&pass)
{
    if (calls == 0)
        return 0.0;
    double t[kPasses];
    for (double &ti : t) {
        prepare();
        const Clock::time_point t0 = Clock::now();
        const double sum = pass();
        ti = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                 .count();
        g_sink = g_sink + sum;
    }
    std::sort(t, t + kPasses);
    return t[kPasses / 2] / static_cast<double>(calls);
}

/** One probe page, resolved through the drive's FTL after the run. */
struct Page {
    std::uint32_t drive;
    ftl::Lpn lpn;
    std::uint64_t chip;
    std::uint64_t block;
    std::uint32_t page;
    nand::PageType type;
    nand::OperatingPoint op;
    nand::PageErrorProfile prof;
};

/** Tiny LCG: event-probe delays independent of the library's RNG. */
struct Lcg {
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    }
};

/**
 * EventQueue::schedule + run per event with @p depth events pending.
 * An open-loop replay schedules its whole trace up front, so @p hold
 * false schedules @p total events at rising ticks and runs them; a
 * closed-loop system holds @p depth events, each executed event
 * scheduling the next (the classic hold model) until @p total ran.
 */
double
eventProbe(std::uint64_t depth, std::uint64_t total, bool hold)
{
    struct State {
        sim::EventQueue *eq;
        Lcg rng;
        std::uint64_t remaining;
        void
        fire()
        {
            if (remaining == 0)
                return;
            --remaining;
            eq->scheduleAfter(1 + rng.next() % 100000,
                              [this] { fire(); });
        }
    };
    std::unique_ptr<sim::EventQueue> eq;
    State st{nullptr, Lcg{1}, 0};
    return nsPerCall(
        total,
        [&] {
            eq = std::make_unique<sim::EventQueue>();
            st = State{eq.get(), Lcg{1}, hold ? total - depth : 0};
        },
        [&] {
            State *s = &st;
            for (std::uint64_t i = 0; i < depth; ++i) {
                const sim::Tick when =
                    hold ? 1 + s->rng.next() % 100000 : 1 + 10 * i;
                eq->schedule(when, [s] { s->fire(); });
            }
            eq->run();
            return static_cast<double>(eq->executedEvents());
        });
}

} // namespace

ProbeResult
runProbes(const Workload &w, const Live &live)
{
    const ssd::Config &cfg = w.cfg.ssd;
    ProbeResult r;

    std::vector<Page> pages;
    pages.reserve(live.pages.size());
    for (const PageRef &ref : live.pages) {
        ssd::Ssd &d = *live.drives.at(ref.drive);
        const ftl::Ftl &ftl = d.ftl();
        Page p;
        p.drive = ref.drive;
        p.lpn = ref.lpn;
        const ftl::Ppn ppn = ftl.translate(ref.lpn);
        p.chip = ftl.layout().channelOf(ppn);
        p.block = ftl.layout().flatBlock(ppn);
        p.page = ppn.page;
        p.type = nand::pageTypeOf(ppn.page);
        p.op = ftl.opPoint(ppn, d.eventQueue().now(), cfg.temperatureC);
        p.prof = d.errorModel().pageProfile(p.chip, p.block, p.page, p.op);
        pages.push_back(p);
    }
    const std::size_t n = pages.size();
    auto nothing = [] {};

    r.translateNs = nsPerCall(n, nothing, [&] {
        double sum = 0.0;
        for (const Page &p : pages)
            sum += live.drives[p.drive]->ftl().translate(p.lpn).block;
        return sum;
    });

    if (cfg.profileCacheSlots == 0) {
        r.pageProfileNs = nsPerCall(n, nothing, [&] {
            double sum = 0.0;
            for (const Page &p : pages)
                sum += live.drives[p.drive]
                           ->errorModel()
                           .pageProfile(p.chip, p.block, p.page, p.op)
                           .finalErrors;
            return sum;
        });
    } else {
        // A fresh cache per drive and pass: the pass sees the trace's
        // own mix of first touches and re-reads.
        std::vector<std::unique_ptr<nand::PageProfileCache>> caches;
        r.profileCacheGetNs = nsPerCall(
            n,
            [&] {
                caches.clear();
                for (ssd::Ssd *d : live.drives)
                    caches.push_back(
                        std::make_unique<nand::PageProfileCache>(
                            d->errorModel(), cfg.profileCacheSlots));
            },
            [&] {
                double sum = 0.0;
                for (const Page &p : pages)
                    sum += caches[p.drive]
                               ->get(p.chip, p.block, p.page, p.op)
                               .finalErrors;
                return sum;
            });
    }

    // Reads arrive on one channel at the workload's own per-channel
    // rate, so the reservation timelines hold the same backlog.
    const ssd::RunStats &s = live.outcome->stats;
    const double channels =
        static_cast<double>(cfg.channels) * live.drives.size();
    const sim::Tick gap =
        s.retrySamples
            ? static_cast<sim::Tick>(sim::msec(s.simulatedMs) * channels /
                                     static_cast<double>(s.retrySamples))
            : 1;
    std::vector<core::RetryController> rcs;
    for (ssd::Ssd *d : live.drives)
        rcs.emplace_back(w.cfg.mech, cfg.timing, d->errorModel(),
                         &d->rpt());
    std::unique_ptr<ssd::Channel> ch;
    std::unique_ptr<ecc::EccEngine> ecc;
    r.planReadNs = nsPerCall(
        n,
        [&] {
            ch = std::make_unique<ssd::Channel>(0);
            ecc = std::make_unique<ecc::EccEngine>(cfg.timing.tECC,
                                                   cfg.eccCapability);
        },
        [&] {
            double sum = 0.0;
            sim::Tick start = 0;
            for (const Page &p : pages) {
                ch->releaseBefore(start);
                ecc->releaseBefore(start);
                sum += static_cast<double>(
                    rcs[p.drive]
                        .planRead(start, p.type, p.prof, p.op, *ch, *ecc)
                        .completion);
                start += gap;
            }
            return sum;
        });

    // Pending-event depth: the trace length for an open-loop replay,
    // the tenants' closed-loop windows otherwise.
    const bool open_loop = w.replay;
    std::uint64_t depth = 0;
    if (open_loop) {
        depth = live.outcome->attempted;
    } else {
        for (const host::TenantSpec &ts : w.cfg.tenants)
            depth += ts.qdLimit;
    }
    const std::uint64_t total =
        open_loop ? depth : std::max<std::uint64_t>(depth, 1u << 20);
    r.eventNs = eventProbe(depth, total, !open_loop);
    return r;
}

} // namespace perfbench
