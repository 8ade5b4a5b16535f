#include "fabric/fabric.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace ssdrr::fabric {

Fabric::Fabric(Topology topo, sim::ParallelExecutor &exec,
               sim::ParallelExecutor::DomainId hostDom,
               sim::EventQueue &hostQueue)
    : topo_(std::move(topo)), exec_(exec)
{
    ports_.resize(topo_.nodes().size());
    ports_[topo_.hostNode()] = {hostDom, &hostQueue};
    for (std::uint32_t sw : topo_.switchNodes()) {
        switch_queues_.push_back(std::make_unique<sim::EventQueue>());
        ports_[sw] = {exec_.addDomain(*switch_queues_.back()),
                      switch_queues_.back().get()};
    }
    dirs_.resize(topo_.links().size());

    down_.resize(topo_.pathCount());
    up_.resize(topo_.pathCount());
    for (std::uint32_t d = 0; d < topo_.pathCount(); ++d) {
        const auto &hops = topo_.pathTo(d);
        std::uint32_t at = topo_.hostNode();
        for (const Topology::Hop &h : hops) {
            Seg seg;
            seg.fromNode = at;
            seg.toNode = h.next;
            seg.link = h.link;
            seg.dir = h.forward ? 0 : 1;
            down_[d].push_back(seg);
            at = h.next;
        }
        for (auto it = down_[d].rbegin(); it != down_[d].rend(); ++it) {
            Seg seg;
            seg.fromNode = it->toNode;
            seg.toNode = it->fromNode;
            seg.link = it->link;
            seg.dir = it->dir ^ 1;
            up_[d].push_back(seg);
        }
    }
}

void
Fabric::attachDrive(std::uint32_t drive,
                    sim::ParallelExecutor::DomainId dom,
                    sim::EventQueue &queue)
{
    ports_[topo_.attachment(drive)] = {dom, &queue};
}

void
Fabric::toDrive(std::uint32_t drive, std::uint64_t bytes, bool read,
                sim::InlineCallback done)
{
    route(down_[drive], 0, bytes, read, std::move(done));
}

void
Fabric::toHost(std::uint32_t drive, std::uint64_t bytes, bool read,
               sim::InlineCallback done)
{
    route(up_[drive], 0, bytes, read, std::move(done));
}

void
Fabric::route(const std::vector<Seg> &segs, std::size_t idx,
              std::uint64_t bytes, bool read, sim::InlineCallback done)
{
    const Seg &seg = segs[idx];
    const Topology::Link &link = topo_.links()[seg.link];
    const Port &from = ports_[seg.fromNode];
    SSDRR_ASSERT(from.queue != nullptr, "fabric port not attached");

    const sim::Tick now = from.queue->now();
    DirState &st = dirs_[seg.link][seg.dir];
    const sim::Tick start = std::max(now, st.busyUntil);
    const sim::Tick ser =
        sim::usec(static_cast<double>(bytes) / 1024.0 * link.usPerKb);
    st.busyUntil = start + ser;

    while (!st.inflight.empty() && st.inflight.front() <= now)
        st.inflight.pop_front();
    st.inflight.push_back(start + ser);
    st.maxDepth = std::max(st.maxDepth,
                           static_cast<std::uint32_t>(st.inflight.size()));
    st.messages += 1;
    st.bytes += bytes;
    st.busy += ser;
    st.wait += start - now;
    if (read)
        st.readWait += start - now;

    const sim::Tick deliver = start + ser + link.latency;
    const sim::ParallelExecutor::DomainId to = ports_[seg.toNode].dom;
    if (idx + 1 == segs.size()) {
        // Last hop: deliver @p done itself. Wrapping it in another
        // hop step would overflow the callback's inline buffer.
        exec_.send(from.dom, to, deliver, std::move(done));
        return;
    }
    exec_.send(from.dom, to, deliver,
               [this, &segs, idx, bytes, read,
                done = std::move(done)]() mutable {
                   route(segs, idx + 1, bytes, read, std::move(done));
               });
}

std::uint64_t
Fabric::switchExecutedEvents() const
{
    std::uint64_t total = 0;
    for (const auto &q : switch_queues_)
        total += q->executedEvents();
    return total;
}

std::vector<LinkReport>
Fabric::linkReports() const
{
    std::vector<LinkReport> out;
    out.reserve(dirs_.size());
    for (std::size_t l = 0; l < dirs_.size(); ++l) {
        LinkReport r;
        const Topology::Link &link = topo_.links()[l];
        r.link = topo_.nodes()[link.a].name + "<->" +
                 topo_.nodes()[link.b].name;
        for (const DirState &st : dirs_[l]) {
            r.messages += st.messages;
            r.bytesCarried += st.bytes;
            r.busyUs += sim::toUsec(st.busy);
            r.waitUs += sim::toUsec(st.wait);
            r.maxQueueDepth = std::max(r.maxQueueDepth, st.maxDepth);
        }
        out.push_back(std::move(r));
    }
    return out;
}

sim::Tick
Fabric::readWaitTicks() const
{
    sim::Tick total = 0;
    for (const auto &dirs : dirs_)
        for (const DirState &st : dirs)
            total += st.readWait;
    return total;
}

} // namespace ssdrr::fabric
