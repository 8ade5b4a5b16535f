#include "host/array.hh"

#include "sim/logging.hh"

namespace ssdrr::host {

SsdArray::SsdArray(const ssd::Config &cfg, core::Mechanism mech,
                   std::uint32_t drives)
    : SsdArray(cfg, mech, [&] {
          Options opt;
          opt.drives = drives;
          return opt;
      }())
{
}

SsdArray::SsdArray(const ssd::Config &cfg, core::Mechanism mech,
                   const Options &opt)
    : mech_(mech),
      layout_(makeArrayLayout(opt.raid, opt.drives,
                              opt.stripeUnitPages, opt.failedDrives)),
      timeout_(opt.timeout), retry_max_(opt.retryMax),
      retry_backoff_(opt.retryBackoff)
{
    SSDRR_ASSERT(opt.drives >= 1, "array needs at least one drive");
    for (std::uint32_t d : opt.failedDrives)
        dead_mask_ |= std::uint64_t{1} << d;
    if (!opt.faults.empty()) {
        faults_ = std::make_unique<sim::FaultInjector>(
            opt.faults, opt.faultSeed, opt.drives);
        // A fail-stopped drive stops completing; only the deadline
        // machinery can rescue its in-flight subrequests.
        SSDRR_ASSERT(!faults_->anyFailStop() || timeout_ > 0,
                     "fail-stop faults require a host timeout");
        // Detection: the host learns of a fail-stop when commands to
        // the drive stop answering — modeled as a deterministic,
        // traffic-independent event at the fail tick + timeout.
        for (std::uint32_t d = 0; d < opt.drives; ++d) {
            const sim::Tick t = faults_->failStopTick(d);
            if (t == sim::kTickNever)
                continue;
            eq_.schedule(t + timeout_,
                         [this, d] { onDriveDetected(d); });
        }
    }
    if (!opt.fabric.empty() || opt.hostLink > 0) {
        // Fabric engine. A host-link turnaround is a flat fabric of
        // one unreported host0->dN hop per drive, built in ticks so
        // no latency is lost to a microsecond round trip. The
        // conservative window is the cheapest link's latency — no
        // hop can deliver faster than that.
        SSDRR_ASSERT(opt.fabric.empty() || opt.hostLink == 0,
                     "fabric and hostLink are mutually exclusive");
        report_links_ = !opt.fabric.empty();
        fabric::Topology topo =
            report_links_
                ? fabric::Topology::compile(opt.fabric, opt.drives)
                : fabric::Topology::flat(opt.drives, opt.hostLink);
        exec_ = std::make_unique<sim::ParallelExecutor>(
            topo.minLinkLatency(), opt.threads == 0 ? 1 : opt.threads,
            opt.batchMailbox);
        const sim::ParallelExecutor::DomainId host_dom =
            exec_->addDomain(eq_);
        // Registers the switch domains, in node-declaration order.
        fabric_ = std::make_unique<fabric::Fabric>(std::move(topo),
                                                   *exec_, host_dom, eq_);
    }
    for (std::uint32_t d = 0; d < opt.drives; ++d) {
        ssd::Config dc = cfg;
        // Distinct per-drive seeds: real drives do not share error
        // patterns, and identical seeds would correlate retry storms
        // across the stripe.
        dc.seed = cfg.seed + d * 0x9e3779b9ull;
        if (fabric_) {
            // The drive owns a private queue; the executor
            // synchronizes it against the other domains at
            // link-latency-wide windows.
            ssds_.push_back(std::make_unique<ssd::Ssd>(dc, mech));
            sim::EventQueue &q = ssds_.back()->eventQueue();
            fabric_->attachDrive(d, exec_->addDomain(q), q);
            ssds_.back()->onHostComplete(
                [this, d](const ssd::HostCompletion &c) {
                    driveComplete(d, c);
                });
        } else {
            ssds_.push_back(std::make_unique<ssd::Ssd>(dc, mech, eq_));
            ssds_.back()->onHostComplete(
                [this](const ssd::HostCompletion &c) {
                    subComplete(c);
                });
        }
    }
    logical_pages_ =
        layout_->logicalPages(ssds_.front()->config().logicalPages());
}

void
SsdArray::precondition()
{
    for (auto &s : ssds_)
        s->precondition();
}

void
SsdArray::dispatch(std::uint32_t d, const ssd::HostRequest &sub)
{
    if (!fabric_) {
        ssds_[d]->submit(sub);
        return;
    }
    // The command rides the precomputed path to the drive's port,
    // contending for every shared hop. Writes serialize their payload
    // on the way down; read commands are latency-only. The drive
    // accounts its device-side latency from the (contention-dependent)
    // delivery tick.
    const std::uint64_t bytes =
        sub.isRead ? 0
                   : static_cast<std::uint64_t>(sub.pages) * pageBytes();
    ssd::HostRequest delivered = sub;
    fabric_->toDrive(d, bytes, sub.isRead,
                     [this, d, delivered]() mutable {
                         delivered.arrival = ssds_[d]->eventQueue().now();
                         ssds_[d]->submit(delivered);
                     });
}

void
SsdArray::issueSub(std::uint64_t parent_id, sim::Tick arrival,
                   std::uint32_t channel_mask,
                   const ArrayLayout::SubOp &op, std::uint32_t attempt)
{
    if (attempt == 1) {
        // Layout accounting counts logical ops once; reissues of the
        // same op are host retries, not extra reconstruction fan-out.
        if (op.isRead) {
            if (op.cls == ArrayLayout::OpClass::Rebuild)
                ++reconstruction_reads_;
        } else if (op.cls == ArrayLayout::OpClass::Parity) {
            ++parity_writes_;
        }
    }
    ssd::HostRequest sub;
    sub.id = next_sub_id_++;
    sub.arrival = arrival;
    sub.lpn = op.lpn;
    sub.pages = op.pages;
    sub.isRead = op.isRead;
    sub.channelMask = channel_mask;

    SubState st;
    st.parent = parent_id;
    st.op = op;
    st.channelMask = channel_mask;
    st.attempt = attempt;
    // A fail-stopped drive swallows the command: nothing is
    // dispatched and only the deadline rescues the slot (the array
    // constructor asserts a timeout exists alongside fail-stops).
    const bool drive_up =
        !faults_ || !faults_->failStopped(op.drive, eq_.now());
    st.expectCompletion = drive_up;
    if (timeout_ > 0) {
        const std::uint64_t sub_id = sub.id;
        st.timeoutEv = eq_.scheduleAfter(
            timeout_, [this, sub_id] { onSubTimeout(sub_id); });
    }
    subs_.emplace(sub.id, std::move(st));
    if (drive_up)
        dispatch(op.drive, sub);
}

void
SsdArray::submit(const ssd::HostRequest &req)
{
    SSDRR_ASSERT(req.pages > 0, "empty request");
    SSDRR_ASSERT(req.lpn + req.pages <= logical_pages_,
                 "request beyond array capacity: lpn=", req.lpn,
                 " pages=", req.pages);
    SSDRR_ASSERT(parents_.count(req.id) == 0,
                 "duplicate outstanding request id ", req.id);

    layout_->plan(req.lpn, req.pages, req.isRead, plan_scratch_);
    const ArrayLayout::Plan &plan = plan_scratch_;
    SSDRR_ASSERT(!plan.ops.empty() || !plan.writes.empty(),
                 "layout produced an empty plan for request ", req.id);

    // A plan with no phase-1 ops (a RAID-5 write whose parity drive
    // failed) issues its writes immediately as the only phase.
    const std::vector<ArrayLayout::SubOp> &phase1 =
        plan.ops.empty() ? plan.writes : plan.ops;
    Parent &p = parents_[req.id];
    p.arrival = req.arrival;
    p.remaining = static_cast<std::uint32_t>(phase1.size());
    p.pages = req.pages;
    p.channelMask = req.channelMask;
    p.isRead = req.isRead;
    p.degraded = plan.degraded;
    if (!plan.ops.empty())
        p.phase2 = plan.writes;

    for (const ArrayLayout::SubOp &op : phase1)
        issueSub(req.id, req.arrival, req.channelMask, op);
}

void
SsdArray::driveComplete(std::uint32_t d, const ssd::HostCompletion &c)
{
    // Runs on the drive's worker thread, inside the drive's window.
    // Route the completion up the fabric; subComplete then executes
    // on the host domain at the delivery tick. Uses only the
    // completion record and immutable config — host-side maps stay
    // host-domain-confined. Read completions carry the page payload
    // back up the tree; write acknowledgements are latency-only.
    const std::uint64_t bytes =
        c.isRead ? static_cast<std::uint64_t>(c.pages) * pageBytes() : 0;
    fabric_->toHost(d, bytes, c.isRead, [this, c] { subComplete(c); });
}

void
SsdArray::subComplete(const ssd::HostCompletion &c)
{
    // Every completion must be a subrequest we issued: member drives
    // are driven only through submit(), and drive-internal writes
    // (refresh) carry kNoHost, which never reaches the hook.
    auto sit = subs_.find(c.id);
    SSDRR_ASSERT(sit != subs_.end(),
                 "completion for unknown subrequest ", c.id);
    SubState &st = sit->second;
    if (st.abandoned) {
        // Deadline expired while the device was still working; the
        // slot was already retried or failed over. Drop the late
        // completion (the device's work was wasted, realistically).
        subs_.erase(sit);
        return;
    }
    if (faults_) {
        if (faults_->failStopped(st.op.drive, c.finish)) {
            // The drive stopped completing before it raised this —
            // the completion is lost. The deadline (guaranteed by
            // the constructor) rescues the slot; nothing further
            // will arrive for this sub id.
            st.expectCompletion = false;
            return;
        }
        if (!st.stretched) {
            const double m = faults_->slowdownAt(st.op.drive, c.finish);
            if (m > 1.0) {
                // Fail-slow: stretch the device service time
                // (finish - delivered arrival) by the window's
                // multiplier and redeliver on the host queue. The
                // deadline may expire during the stretch.
                st.stretched = true;
                const auto extra = static_cast<sim::Tick>(
                    (m - 1.0) *
                    static_cast<double>(c.finish - c.arrival));
                eq_.scheduleAfter(extra,
                                  [this, c] { subComplete(c); });
                return;
            }
        }
        // Seeded transient-UECC draw, keyed on the subrequest id so
        // every retry attempt re-draws independently.
        if (st.op.isRead && faults_->ueccAt(st.op.drive, c.finish, c.id)) {
            ++uecc_reads_;
            resolveFailedSub(c.id, /*timed_out=*/false);
            return;
        }
    }
    if (st.timeoutEv != 0)
        eq_.cancel(st.timeoutEv);
    const std::uint64_t parent_id = st.parent;
    subs_.erase(sit);
    finishSlot(parent_id);
}

void
SsdArray::finishSlot(std::uint64_t parent_id)
{
    auto pit = parents_.find(parent_id);
    SSDRR_ASSERT(pit != parents_.end(), "orphan subrequest of parent ",
                 parent_id);
    Parent &p = pit->second;
    SSDRR_ASSERT(p.remaining > 0, "parent already complete");
    if (--p.remaining > 0)
        return;

    if (!p.phase2.empty() && !p.failed) {
        // Two-phase plan: every pre-read is in, release the writes.
        // Re-seat remaining before issuing (issueSub never touches
        // parents_, but keep the bookkeeping ordered anyway).
        const std::vector<ArrayLayout::SubOp> writes =
            std::move(p.phase2);
        p.phase2.clear();
        p.remaining = static_cast<std::uint32_t>(writes.size());
        for (const ArrayLayout::SubOp &op : writes)
            issueSub(parent_id, eq_.now(), p.channelMask, op);
        return;
    }

    // A failed parent skips its phase-2 writes (the data is gone;
    // there is nothing consistent to write) and completes with
    // status Failed. Its latency still records: the time until the
    // host returns the error is a real response time.
    const double resp_us = sim::toUsec(eq_.now() - p.arrival);
    if (p.isRead) {
        resp_read_.add(resp_us);
        if (p.degraded)
            resp_degraded_.add(resp_us);
    } else {
        resp_write_.add(resp_us);
    }
    ssd::HostCompletion done{parent_id, p.arrival, eq_.now(),
                             p.isRead, resp_us, p.pages};
    if (p.failed) {
        ++failed_requests_;
        done.status = ssd::CompletionStatus::Failed;
    }
    parents_.erase(pit);
    if (on_complete_)
        on_complete_(done);
}

void
SsdArray::onSubTimeout(std::uint64_t sub_id)
{
    auto sit = subs_.find(sub_id);
    SSDRR_ASSERT(sit != subs_.end(), "timeout for unknown subrequest ",
                 sub_id);
    sit->second.timeoutEv = 0;
    ++host_timeouts_;
    resolveFailedSub(sub_id, /*timed_out=*/true);
}

void
SsdArray::resolveFailedSub(std::uint64_t sub_id, bool timed_out)
{
    auto sit = subs_.find(sub_id);
    SSDRR_ASSERT(sit != subs_.end(), "resolve of unknown subrequest ",
                 sub_id);
    const SubState st = sit->second; // copy: the entry is retired now
    if (timed_out && st.expectCompletion) {
        // The device is still working on it; keep the entry so the
        // late completion is recognized and dropped.
        sit->second.abandoned = true;
    } else {
        // UECC (we are inside the completion), or a sub that was
        // never dispatched / whose completion was swallowed: nothing
        // further arrives under this id.
        if (st.timeoutEv != 0)
            eq_.cancel(st.timeoutEv);
        subs_.erase(sit);
    }

    // Retry with exponential backoff — unless the host already knows
    // the drive is dead (detected fail-stop), where waiting out more
    // deadlines would be pointless.
    if (!driveDead(st.op.drive) && st.attempt <= retry_max_) {
        ++host_retries_;
        const sim::Tick backoff = retry_backoff_
                                  << (st.attempt - 1);
        const std::uint64_t parent_id = st.parent;
        const std::uint32_t mask = st.channelMask;
        const ArrayLayout::SubOp op = st.op;
        const std::uint32_t attempt = st.attempt + 1;
        eq_.scheduleAfter(backoff, [this, parent_id, mask, op, attempt] {
            issueSub(parent_id, eq_.now(), mask, op, attempt);
        });
        return;
    }
    failover(st);
}

void
SsdArray::failover(const SubState &st)
{
    auto pit = parents_.find(st.parent);
    SSDRR_ASSERT(pit != parents_.end(), "failover for unknown parent ",
                 st.parent);
    Parent &p = pit->second;

    const bool raid5 = layout_->level() == RaidLevel::Raid5;
    if (raid5 && st.op.isRead &&
        st.op.cls == ArrayLayout::OpClass::Data) {
        // Convert the lost data read into the existing degraded-read
        // reconstruction join: the same drive-local range of every
        // surviving stripe mate (data mates + parity) reconstructs
        // the lost chunk.
        bool mates_alive = true;
        for (std::uint32_t d = 0; d < drives() && mates_alive; ++d)
            if (d != st.op.drive && driveDead(d))
                mates_alive = false;
        if (mates_alive) {
            ++host_failovers_;
            p.degraded = true;
            // The failed slot stays un-decremented; it is replaced
            // by drives-1 reconstruction reads.
            p.remaining += drives() - 2;
            ArrayLayout::SubOp mate = st.op;
            mate.cls = ArrayLayout::OpClass::Rebuild;
            for (std::uint32_t d = 0; d < drives(); ++d) {
                if (d == st.op.drive)
                    continue;
                mate.drive = d;
                issueSub(st.parent, eq_.now(), st.channelMask, mate);
            }
            return;
        }
        // A second dead drive: the chunk is unrecoverable.
        p.failed = true;
        finishSlot(st.parent);
        return;
    }
    if (raid5 && !st.op.isRead) {
        // A lost write on a redundant layout is absorbed: the data
        // (or parity) chunk goes unwritten but the stripe's
        // redundancy covers it — served degraded / unprotected.
        ++host_failovers_;
        p.degraded = true;
        finishSlot(st.parent);
        return;
    }
    if (raid5 && st.op.cls == ArrayLayout::OpClass::Parity) {
        // Lost parity pre-read: the read-modify-write proceeds
        // without parity protection (like a failed parity drive).
        ++host_failovers_;
        p.degraded = true;
        finishSlot(st.parent);
        return;
    }
    // No redundancy left (RAID-0, or a reconstruction input died):
    // the parent fails.
    p.failed = true;
    finishSlot(st.parent);
}

void
SsdArray::onDriveDetected(std::uint32_t d)
{
    if (driveDead(d))
        return;
    dead_mask_ |= std::uint64_t{1} << d;
    // Route new plans around the drive when the layout has the
    // redundancy for it; without it (RAID-0, tolerance exhausted)
    // plans keep addressing the dead drive and its requests fail.
    layout_->markFailed(d);
    if (on_drive_failed_)
        on_drive_failed_(d);
}

void
SsdArray::drain()
{
    if (exec_)
        exec_->run();
    else
        eq_.run();
    SSDRR_ASSERT(parents_.empty(), "drained with ", parents_.size(),
                 " array requests still pending");
}

ssd::RunStats
SsdArray::stats() const
{
    ssd::RunStats s;
    // Shared queue: counted once. Fabric: the host queue plus every
    // drive's private queue (switch queues are added below).
    s.executedEvents = eq_.executedEvents();
    for (const auto &d : ssds_) {
        const ssd::RunStats ds = d->stats();
        s.suspensions += ds.suspensions;
        s.gcCollections += ds.gcCollections;
        s.timingFallbacks += ds.timingFallbacks;
        s.readFailures += ds.readFailures;
        s.refreshes += ds.refreshes;
        s.profileCacheHits += ds.profileCacheHits;
        s.profileCacheMisses += ds.profileCacheMisses;
        // Pooled mean over every retry sample (host + GC reads):
        // weight each drive's mean by its own sample count.
        s.avgRetrySteps +=
            ds.avgRetrySteps * static_cast<double>(ds.retrySamples);
        s.retrySamples += ds.retrySamples;
        s.channelUtilization += ds.channelUtilization;
        s.eccUtilization += ds.eccUtilization;
        if (exec_)
            s.executedEvents += ds.executedEvents;
    }
    if (s.retrySamples > 0)
        s.avgRetrySteps /= static_cast<double>(s.retrySamples);
    // Reads/writes count requests at the array surface (a request
    // striped over several drives counts once), matching the latency
    // distributions below.
    s.reads = resp_read_.count();
    s.writes = resp_write_.count();
    if (exec_) {
        s.executorWindowsRun = exec_->windowsRun();
        s.executorWindowsSkipped = exec_->windowsSkipped();
        s.executorParks = exec_->parks();
        s.executorSpins = exec_->spins();
        // Switch queues drove the run too; their events count like
        // the host's and the drives'.
        s.executedEvents += fabric_->switchExecutedEvents();
    }
    if (report_links_) {
        for (const fabric::LinkReport &r : fabric_->linkReports()) {
            ssd::RunStats::FabricLinkStats ls;
            ls.link = r.link;
            ls.messages = r.messages;
            ls.bytesCarried = r.bytesCarried;
            ls.busyUs = r.busyUs;
            ls.waitUs = r.waitUs;
            ls.maxQueueDepth = r.maxQueueDepth;
            s.fabricLinks.push_back(std::move(ls));
        }
        if (s.reads > 0)
            s.avgFabricWaitUs =
                sim::toUsec(fabric_->readWaitTicks()) /
                static_cast<double>(s.reads);
    }
    s.channelUtilization /= ssds_.size();
    s.eccUtilization /= ssds_.size();
    s.simulatedMs = sim::toMsec(eq_.now());

    // Layout accounting: reconstruction fan-out and parity traffic.
    s.degradedReads = resp_degraded_.count();
    s.reconstructionReads = reconstruction_reads_;
    s.parityWrites = parity_writes_;

    // Fault-timeline robustness accounting (all zero on a faultless
    // run with no timeout). Rebuild counters are filled by the
    // scenario layer, which owns the rebuild agent.
    s.hostTimeouts = host_timeouts_;
    s.hostRetries = host_retries_;
    s.hostFailovers = host_failovers_;
    s.ueccReads = uecc_reads_;
    s.failedRequests = failed_requests_;
    if (resp_degraded_.count()) {
        s.avgDegradedReadUs = resp_degraded_.mean();
        s.p50DegradedReadUs = resp_degraded_.percentile(50.0);
        s.p99DegradedReadUs = resp_degraded_.percentile(99.0);
        s.p999DegradedReadUs = resp_degraded_.percentile(99.9);
    }

    // The all-request distribution is the merge of the read and
    // write histograms (every parent is exactly one of the two), so
    // the array keeps two histograms instead of triple-recording.
    sim::Histogram resp_all = resp_read_;
    resp_all.merge(resp_write_);
    s.avgResponseUs = resp_all.mean();
    s.avgReadResponseUs = resp_read_.mean();
    s.avgWriteResponseUs = resp_write_.mean();
    if (resp_all.count()) {
        s.p99ResponseUs = resp_all.percentile(99.0);
        s.maxResponseUs = resp_all.max();
    }
    if (resp_read_.count()) {
        s.p50ReadResponseUs = resp_read_.percentile(50.0);
        s.p99ReadResponseUs = resp_read_.percentile(99.0);
        s.p999ReadResponseUs = resp_read_.percentile(99.9);
    }
    return s;
}

} // namespace ssdrr::host
