#include "ssd/ssd.hh"

#include "sim/logging.hh"

namespace ssdrr::ssd {

namespace {

core::Rpt
buildRpt(const nand::ErrorModel &model)
{
    return core::RptBuilder(model).buildDefault();
}

/** The chip calibration, with the SSD's ECC design point applied. */
nand::Calibration
calibrationFor(const Config &cfg)
{
    nand::Calibration cal;
    cal.eccCapability = cfg.eccCapability;
    return cal;
}

} // namespace

Ssd::Ssd(const Config &cfg, core::Mechanism mech)
    : Ssd(cfg, mech, static_cast<sim::EventQueue *>(nullptr))
{
}

Ssd::Ssd(const Config &cfg, core::Mechanism mech, sim::EventQueue &eq)
    : Ssd(cfg, mech, &eq)
{
}

Ssd::Ssd(const Config &cfg, core::Mechanism mech, sim::EventQueue *shared)
    : cfg_(cfg), mech_(mech),
      owned_eq_(shared ? nullptr : std::make_unique<sim::EventQueue>()),
      eq_(shared ? *shared : *owned_eq_),
      model_(calibrationFor(cfg), cfg.seed),
      profile_cache_(model_, cfg.profileCacheSlots), rpt_(buildRpt(model_)),
      rc_(mech, cfg.timing, model_, &rpt_),
      ftl_(cfg.layout(), cfg.logicalPages(), cfg.basePeKilo,
           cfg.baseRetentionMonths, cfg.gcThreshold)
{
    cfg_.validate();
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        chips_.push_back(std::make_unique<nand::Chip>(
            eq_, cfg_.chipGeometry(), cfg_.timing, c));
        channels_.push_back(std::make_unique<Channel>(c));
        eccs_.push_back(std::make_unique<ecc::EccEngine>(
            cfg_.timing.tECC, cfg_.eccCapability));
    }

    std::vector<nand::Chip *> chip_ptrs;
    std::vector<Channel *> ch_ptrs;
    std::vector<ecc::EccEngine *> ecc_ptrs;
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        chip_ptrs.push_back(chips_[c].get());
        ch_ptrs.push_back(channels_[c].get());
        ecc_ptrs.push_back(eccs_[c].get());
    }
    tsu_ = std::make_unique<Tsu>(eq_, cfg_, std::move(chip_ptrs),
                                 std::move(ch_ptrs), std::move(ecc_ptrs),
                                 rc_);

    tsu_->onReadDone([this](const Txn &txn, const core::ReadPlan &plan) {
        retry_steps_.add(plan.retrySteps);
        if (plan.timingFallback)
            ++timing_fallbacks_;
        if (!plan.success)
            ++read_failures_;
        if (txn.kind == TxnKind::HostRead) {
            finishHostPage(txn.hostId);
            if (cfg_.refreshThresholdMonths > 0.0 &&
                txn.op.retentionMonths >= cfg_.refreshThresholdMonths)
                refreshPage(txn.lpn);
        } else if (txn.kind == TxnKind::GcRead) {
            // Relocation: program the moved page at its destination.
            auto it = gc_dest_.find(txn.id);
            SSDRR_ASSERT(it != gc_dest_.end(), "orphan GC read");
            const ftl::Ppn dest = it->second;
            gc_dest_.erase(it);
            Txn wr = txnFor(dest);
            wr.kind = TxnKind::GcWrite;
            wr.id = next_txn_id_++;
            wr.lpn = txn.lpn;
            wr.gcTag = txn.gcTag;
            tsu_->enqueue(std::move(wr));
        }
    });

    tsu_->onWriteDone([this](const Txn &txn) {
        if (txn.kind == TxnKind::HostWrite) {
            finishHostPage(txn.hostId);
        } else if (txn.kind == TxnKind::GcWrite) {
            auto it = gc_.find(txn.gcTag);
            SSDRR_ASSERT(it != gc_.end(), "orphan GC write");
            if (--it->second.pendingMoves == 0) {
                // All relocations done: erase the victim block.
                Txn er;
                er.kind = TxnKind::Erase;
                er.id = next_txn_id_++;
                er.ppn = ftl::Ppn{it->second.plane, it->second.block, 0};
                er.channel = ftl_.layout().channelOf(er.ppn);
                er.dieGlobal = ftl_.layout().dieOf(er.ppn);
                gc_.erase(it);
                tsu_->enqueue(std::move(er));
            }
        }
    });

    tsu_->onEraseDone([this](const Txn &txn) {
        // FTL metadata was updated eagerly at GC-planning time; the
        // erase transaction models only the tBERS occupancy. Drop the
        // erased block's cached page profiles — correctness rides on
        // the cache's operating-point comparison either way, but a
        // freed block should not pin dead entries.
        profile_cache_.invalidateBlock(txn.channel,
                                       ftl_.layout().flatBlock(txn.ppn));
    });
}

Txn
Ssd::txnFor(const ftl::Ppn &ppn)
{
    Txn t;
    t.ppn = ppn;
    t.channel = ftl_.layout().channelOf(ppn);
    t.dieGlobal = ftl_.layout().dieOf(ppn);
    t.type = nand::pageTypeOf(ppn.page);
    return t;
}

void
Ssd::buildReadTxn(ftl::Lpn lpn, std::uint64_t host_id, TxnKind kind,
                  std::uint64_t gc_tag)
{
    const ftl::Ppn ppn = ftl_.translate(lpn);
    Txn t = txnFor(ppn);
    t.kind = kind;
    t.id = next_txn_id_++;
    t.hostId = host_id;
    t.gcTag = gc_tag;
    t.lpn = lpn;
    t.op = ftl_.opPoint(ppn, eq_.now(), cfg_.temperatureC);
    t.profile = profile_cache_.get(t.channel,
                                   ftl_.layout().flatBlock(ppn),
                                   ppn.page, t.op);
    tsu_->enqueue(std::move(t));
}

void
Ssd::buildWriteTxn(ftl::Lpn lpn, std::uint64_t host_id,
                   std::uint32_t channel_mask)
{
    ftl::WriteAlloc alloc = ftl_.hostWrite(lpn, eq_.now(), channel_mask);
    Txn t = txnFor(alloc.ppn);
    t.kind = TxnKind::HostWrite;
    t.id = next_txn_id_++;
    t.hostId = host_id;
    t.lpn = lpn;
    tsu_->enqueue(std::move(t));
    if (!alloc.gc.empty())
        scheduleGc(std::move(alloc.gc));
}

void
Ssd::refreshPage(ftl::Lpn lpn)
{
    // Read-reclaim (Section 9 [14, 15, 28]): rewrite the just-read
    // cold page so its retention age restarts. The rewrite is an
    // internal write transaction (no host request attached) and may
    // trigger GC like any other write.
    ++refreshes_;
    ftl::WriteAlloc alloc = ftl_.hostWrite(lpn, eq_.now());
    Txn t = txnFor(alloc.ppn);
    t.kind = TxnKind::HostWrite;
    t.id = next_txn_id_++;
    t.hostId = kNoHost;
    t.lpn = lpn;
    tsu_->enqueue(std::move(t));
    if (!alloc.gc.empty())
        scheduleGc(std::move(alloc.gc));
}

void
Ssd::scheduleGc(std::vector<ftl::GcWork> work)
{
    for (auto &w : work) {
        const std::uint64_t tag = next_gc_tag_++;
        if (w.moves.empty()) {
            // Victim had no valid pages: erase directly.
            Txn er;
            er.kind = TxnKind::Erase;
            er.id = next_txn_id_++;
            er.ppn = ftl::Ppn{w.plane, w.victimBlock, 0};
            er.channel = ftl_.layout().channelOf(er.ppn);
            er.dieGlobal = ftl_.layout().dieOf(er.ppn);
            tsu_->enqueue(std::move(er));
            continue;
        }
        gc_[tag] = GcState{static_cast<std::uint32_t>(w.moves.size()),
                           w.plane, w.victimBlock};
        for (const ftl::GcMove &m : w.moves) {
            // Read the old copy (with retry!), then program the new.
            Txn rd = txnFor(m.from);
            rd.kind = TxnKind::GcRead;
            rd.id = next_txn_id_++;
            rd.lpn = m.lpn;
            rd.gcTag = tag;
            rd.op = ftl_.opPoint(m.from, eq_.now(), cfg_.temperatureC);
            // The victim page keeps its pre-move age: GC reads of
            // cold data pay the full retry cost.
            rd.profile = profile_cache_.get(
                rd.channel, ftl_.layout().flatBlock(m.from), m.from.page,
                rd.op);
            gc_dest_[rd.id] = m.to;
            tsu_->enqueue(std::move(rd));
        }
    }
}

void
Ssd::finishHostPage(std::uint64_t host_id)
{
    if (host_id == kNoHost)
        return;
    auto it = pending_.find(host_id);
    SSDRR_ASSERT(it != pending_.end(), "unknown host request ", host_id);
    Pending &p = it->second;
    SSDRR_ASSERT(p.remaining > 0, "request already complete");
    if (--p.remaining > 0)
        return;
    const double resp_us = sim::toUsec(eq_.now() - p.arrival);
    // Reads and writes record once each; the all-request view is a
    // histogram merge at reporting time.
    if (p.isRead) {
        resp_read_.add(resp_us);
        ++host_reads_;
    } else {
        resp_write_.add(resp_us);
        ++host_writes_;
    }
    const HostCompletion done{host_id, p.arrival, eq_.now(), p.isRead,
                              resp_us, p.pages};
    pending_.erase(it);
    if (on_complete_)
        on_complete_(done);
}

void
Ssd::submit(const HostRequest &req)
{
    SSDRR_ASSERT(req.pages > 0, "empty request");
    SSDRR_ASSERT(req.lpn + req.pages <= ftl_.logicalPages(),
                 "request beyond logical capacity: lpn=", req.lpn,
                 " pages=", req.pages);
    pending_[req.id] =
        Pending{req.arrival, req.pages, req.pages, req.isRead};
    for (std::uint32_t i = 0; i < req.pages; ++i) {
        if (req.isRead)
            buildReadTxn(req.lpn + i, req.id, TxnKind::HostRead);
        else
            buildWriteTxn(req.lpn + i, req.id, req.channelMask);
    }
}

void
Ssd::drain()
{
    eq_.run();
    SSDRR_ASSERT(pending_.empty(), "drained with ", pending_.size(),
                 " requests still pending");
}

void
Ssd::precondition()
{
    if (ftl_.map().mappedCount() == 0)
        ftl_.precondition();
}

RunStats
Ssd::replay(const workload::Trace &trace)
{
    precondition();

    const auto &records = trace.records();
    for (const workload::TraceRecord &rec : records)
        SSDRR_ASSERT(rec.lpn + rec.pages <= ftl_.logicalPages(),
                     "trace touches LPNs beyond the SSD capacity");
    if (!records.empty()) {
        // Arrivals are rebased to the current simulated time, so a
        // second replay on a warmed-up SSD continues instead of
        // scheduling into the past. Record i runs under sequence
        // number seq0 + i, the key scheduling the whole trace up
        // front would have given it, so pushing it onto the heap
        // only one burst ahead changes no tie: at any tick, arrivals
        // still run before the work scheduled while the trace plays.
        scheduleReplayBurst(records, 0, eq_.now(),
                            eq_.reserveSeqs(records.size()));
    }
    drain();
    return stats();
}

void
Ssd::scheduleReplayBurst(const std::vector<workload::TraceRecord> &records,
                         std::size_t first, sim::Tick base,
                         std::uint64_t seq0)
{
    const sim::Tick arrival = records[first].arrival;
    std::size_t end = first + 1;
    while (end < records.size() && records[end].arrival == arrival)
        ++end;
    for (std::size_t i = first; i < end; ++i) {
        // The burst's first record pushes the next burst, which
        // arrives strictly later (Trace arrivals are non-decreasing),
        // so it never lands on the tick being drained.
        const std::size_t next = i == first ? end : records.size();
        eq_.scheduleReserved(
            base + arrival, seq0 + i,
            [this, &records, i, next, base, seq0] {
                if (next < records.size())
                    scheduleReplayBurst(records, next, base, seq0);
                const workload::TraceRecord &rec = records[i];
                HostRequest req;
                req.id = i + 1;
                req.arrival = base + rec.arrival;
                req.lpn = rec.lpn;
                req.pages = rec.pages;
                req.isRead = rec.isRead;
                submit(req);
            });
    }
}

sim::Histogram
Ssd::responseTimes() const
{
    sim::Histogram all = resp_read_;
    all.merge(resp_write_);
    return all;
}

RunStats
Ssd::stats() const
{
    RunStats s;
    const sim::Histogram resp_all = responseTimes();
    s.avgReadResponseUs = resp_read_.mean();
    s.avgWriteResponseUs = resp_write_.mean();
    s.avgResponseUs = resp_all.mean();
    s.p99ResponseUs = resp_all.count() ? resp_all.percentile(99.0) : 0.0;
    s.maxResponseUs = resp_all.count() ? resp_all.max() : 0.0;
    if (resp_read_.count()) {
        s.p50ReadResponseUs = resp_read_.percentile(50.0);
        s.p99ReadResponseUs = resp_read_.percentile(99.0);
        s.p999ReadResponseUs = resp_read_.percentile(99.9);
    }
    s.avgRetrySteps = retry_steps_.mean();
    s.retrySamples = retry_steps_.count();
    s.reads = host_reads_;
    s.writes = host_writes_;
    std::uint64_t sus = 0;
    for (const auto &c : chips_)
        sus += c->suspendCount();
    s.suspensions = sus;
    s.gcCollections = ftl_.gcCollections();
    s.timingFallbacks = timing_fallbacks_;
    s.readFailures = read_failures_;
    s.refreshes = refreshes_;
    s.profileCacheHits = profile_cache_.hits();
    s.profileCacheMisses = profile_cache_.misses();
    s.executedEvents = eq_.executedEvents();
    s.simulatedMs = sim::toMsec(eq_.now());
    if (eq_.now() > 0) {
        sim::Tick ch_busy = 0, ecc_busy = 0;
        for (const auto &c : channels_)
            ch_busy += c->totalBusy();
        for (const auto &e : eccs_)
            ecc_busy += e->totalBusy();
        const double span = static_cast<double>(eq_.now()) *
                            static_cast<double>(channels_.size());
        s.channelUtilization = static_cast<double>(ch_busy) / span;
        s.eccUtilization = static_cast<double>(ecc_busy) / span;
    }
    return s;
}

std::vector<std::string>
deterministicDiff(const RunStats &a, const RunStats &b)
{
    std::vector<std::string> diff;
    RunStats::forEachField(
        [&](const char *name, auto field, bool deterministic) {
            if (deterministic && a.*field != b.*field)
                diff.emplace_back(name);
        });
    if (a.fabricLinks.size() != b.fabricLinks.size()) {
        diff.emplace_back("fabricLinks");
        return diff;
    }
    for (std::size_t i = 0; i < a.fabricLinks.size(); ++i)
        RunStats::FabricLinkStats::forEachField(
            [&](const char *name, auto field) {
                if (a.fabricLinks[i].*field != b.fabricLinks[i].*field)
                    diff.push_back("fabricLinks[" + std::to_string(i) +
                                   "]." + name);
            });
    return diff;
}

} // namespace ssdrr::ssd
