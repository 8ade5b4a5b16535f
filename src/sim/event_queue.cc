#include "sim/event_queue.hh"

#include <utility>

#include "sim/logging.hh"

namespace ssdrr::sim {

namespace {

constexpr std::uint64_t kSlotBits = 32;
constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

constexpr EventId
makeId(std::uint32_t gen, std::uint32_t slot)
{
    return (static_cast<std::uint64_t>(gen) << kSlotBits) | slot;
}

/** Counts a run()/step() as in progress for its lifetime, including
 *  when a callback's panic unwinds through it. */
class DrainScope
{
  public:
    explicit DrainScope(std::uint32_t &depth) : depth_(depth) { ++depth_; }
    ~DrainScope() { --depth_; }
    DrainScope(const DrainScope &) = delete;
    DrainScope &operator=(const DrainScope &) = delete;

  private:
    std::uint32_t &depth_;
};

} // namespace

void
EventQueue::reserve(std::size_t events)
{
    heap_.reserve(events);
    slots_.reserve(events);
    free_slots_.reserve(events);
}

std::uint32_t
EventQueue::allocSlot(Callback &&cb)
{
    std::uint32_t idx;
    if (!free_slots_.empty()) {
        idx = free_slots_.back();
        free_slots_.pop_back();
    } else {
        SSDRR_ASSERT(slots_.size() <= kSlotMask,
                     "event slot table exhausted");
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[idx];
    SSDRR_DEBUG_ASSERT(s.state == SlotState::Free,
                       "allocating a live slot ", idx);
    s.state = SlotState::Pending;
    s.cb = std::move(cb);
    return idx;
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Slot &s = slots_[idx];
    SSDRR_DEBUG_ASSERT(s.state != SlotState::Free, "double free of slot ",
                       idx);
    s.cb = nullptr;
    s.state = SlotState::Free;
    // Stamp the reuse: any EventId minted for the previous occupancy
    // is now stale and can never cancel a future event in this slot.
    ++s.gen;
    free_slots_.push_back(idx);
}

void
EventQueue::heapPush(HeapEntry e)
{
    // Sift-up on a plain vector: entries are 24-byte PODs, so moving
    // them is trivial (no allocation, no callback relocation). The
    // sift propagates a hole — each displaced parent is written once
    // and the new entry lands in its final position, instead of
    // three-move swaps at every level. Final layout is identical to
    // the swap formulation.
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

EventQueue::HeapEntry
EventQueue::heapPop()
{
    SSDRR_DEBUG_ASSERT(!heap_.empty(), "pop from empty heap");
    const HeapEntry top = heap_.front();
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;
    // Hole-propagating sift-down of the detached last entry: the
    // smaller child moves up while it precedes `last`, then `last`
    // drops into the hole. Same comparisons and final layout as the
    // swap formulation, one write per level instead of three.
    std::size_t i = 0;
    while (true) {
        const std::size_t l = 2 * i + 1;
        if (l >= n)
            break;
        std::size_t best = l;
        const std::size_t r = l + 1;
        if (r < n && before(heap_[r], heap_[l]))
            best = r;
        if (!before(heap_[best], last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
    return top;
}

EventId
EventQueue::push(Tick when, std::uint64_t seq, Callback &&cb)
{
    SSDRR_ASSERT(when >= now_, "scheduling into the past: when=", when,
                 " now=", now_);
    SSDRR_ASSERT(cb, "scheduling a null callback");
    const std::uint32_t slot = allocSlot(std::move(cb));
    const EventId id = makeId(slots_[slot].gen, slot);
    heapPush(HeapEntry{when, seq, slot});
    ++pending_;
    return id;
}

EventId
EventQueue::scheduleReserved(Tick when, std::uint64_t seq, Callback cb)
{
    SSDRR_ASSERT(seq > 0 && seq < next_seq_,
                 "scheduling with an unreserved sequence number ", seq);
    SSDRR_ASSERT(drain_depth_ == 0 || when != now_,
                 "reserved entry onto the tick being drained: when=",
                 when);
    return push(when, seq, std::move(cb));
}

EventId
EventQueue::scheduleBatch(Tick when, std::vector<Callback> cbs)
{
    SSDRR_ASSERT(!cbs.empty(), "scheduling an empty batch");
    if (cbs.size() == 1)
        return schedule(when, std::move(cbs.front()));
    // One event carries the whole batch; run() counts it once, so the
    // batch callback accounts for the other size()-1 executions to
    // keep executedEvents() identical to individual scheduling.
    return schedule(when, [this, cbs = std::move(cbs)]() mutable {
        executed_ += cbs.size() - 1;
        for (Callback &cb : cbs)
            cb();
    });
}

bool
EventQueue::cancel(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
    const auto gen = static_cast<std::uint32_t>(id >> kSlotBits);
    if (slot >= slots_.size())
        return false;
    Slot &s = slots_[slot];
    if (s.gen != gen) {
        // Stale id: the event already executed or was cancelled, and
        // the slot may since have been reused. The generation stamp
        // makes this detectable, so (unlike the old lazy-marker
        // design) cancelling an executed id is harmless and
        // pending() stays exact.
        return false;
    }
    if (s.state != SlotState::Pending)
        return false;
    s.state = SlotState::Cancelled;
    s.cb = nullptr; // release the capture eagerly
    SSDRR_DEBUG_ASSERT(pending_ > 0, "cancel with no pending events");
    --pending_;
    // Keep nextPendingTick() a pure probe: if the killed event was
    // the heap root, prune here (amortized O(log n) against this
    // cancel) rather than leaving a tombstone for readers to skip.
    // The heap can be empty mid-drain (the victim may already be
    // extracted into run()'s batch; executeEntry() then skips it).
    if (!heap_.empty() && heap_.front().slot == slot)
        pruneCancelledTop();
    return true;
}

void
EventQueue::pruneCancelledTop()
{
    while (!heap_.empty() &&
           slots_[heap_.front().slot].state == SlotState::Cancelled) {
        const std::uint32_t slot = heap_.front().slot;
        heapPop();
        freeSlot(slot);
    }
}

void
EventQueue::executeEntry(const HeapEntry &e)
{
    Slot &s = slots_[e.slot];
    if (s.state == SlotState::Cancelled) {
        // Cancelled after extraction by an earlier callback of the
        // same drained tick; cancel() already dropped pending_.
        freeSlot(e.slot);
        return;
    }
    SSDRR_DEBUG_ASSERT(s.state == SlotState::Pending,
                       "heap entry references a free slot ", e.slot);
    Callback cb = std::move(s.cb);
    freeSlot(e.slot);
    SSDRR_DEBUG_ASSERT(pending_ > 0, "execute with pending_ == 0");
    --pending_;
    ++executed_;
    cb();
}

Tick
EventQueue::nextPendingTick() const
{
    if (heap_.empty()) {
        SSDRR_DEBUG_ASSERT(pending_ == 0, "empty heap but pending_ = ",
                           pending_);
        return kTickNever;
    }
    SSDRR_DEBUG_ASSERT(slots_[heap_.front().slot].state ==
                           SlotState::Pending,
                       "cancelled entry at heap root");
    return heap_.front().when;
}

void
EventQueue::advanceTo(Tick t)
{
    SSDRR_ASSERT(t >= now_, "advanceTo into the past: t=", t,
                 " now=", now_);
    SSDRR_ASSERT(nextPendingTick() >= t,
                 "advanceTo would skip a pending event");
    now_ = t;
}

Tick
EventQueue::run(Tick until)
{
    // Drain-tick loop. Each iteration picks the earliest tick t and
    // retires *every* entry at t before looking at the clock again:
    // the lone-event case (by far the most common) runs straight off
    // the heap, and a same-tick burst is extracted in one maintenance
    // pass and executed from a flat scratch vector in seq order.
    // Callbacks that schedule *at* t get seq numbers above every
    // extracted entry, so the outer loop re-draining t preserves the
    // exact pop-one-at-a-time order; callbacks that cancel a not-yet-
    // run same-tick event are honored by executeEntry()'s slot-state
    // re-check.
    const DrainScope draining(drain_depth_);
    while (true) {
        // Cancelled entries surface only while popping; re-establish
        // the pending-root invariant before reading the clock so a
        // tombstone inside the horizon can't hide a pending event
        // beyond it (and so exits leave nextPendingTick() pure).
        pruneCancelledTop();
        if (heap_.empty() || heap_.front().when > until)
            break;
        const Tick t = heap_.front().when;
        SSDRR_DEBUG_ASSERT(t >= now_, "time went backwards");
        now_ = t;

        const HeapEntry e = heapPop();
        if (heap_.empty() || heap_.front().when != t) {
            // Lone event at t; the pruned root was Pending.
            executeEntry(e);
            continue;
        }

        // Burst: extract the whole tick, then run it. The scratch's
        // capacity is reused across ticks but stolen into a local so
        // a reentrant run()/step() from a callback can't clobber it.
        std::vector<HeapEntry> batch = std::move(drain_);
        batch.clear();
        batch.push_back(e);
        do {
            batch.push_back(heapPop());
        } while (!heap_.empty() && heap_.front().when == t);
        for (const HeapEntry &b : batch)
            executeEntry(b);
        batch.clear();
        drain_ = std::move(batch);
    }
    return now_;
}

bool
EventQueue::step()
{
    pruneCancelledTop();
    if (heap_.empty()) {
        SSDRR_DEBUG_ASSERT(pending_ == 0, "empty heap but pending_ = ",
                           pending_);
        return false;
    }
    const HeapEntry e = heapPop();
    now_ = e.when;
    {
        const DrainScope draining(drain_depth_);
        executeEntry(e);
    }
    pruneCancelledTop();
    return true;
}

} // namespace ssdrr::sim
