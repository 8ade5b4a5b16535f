/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single-threaded event queue keyed by (tick, sequence). Events
 * scheduled at the same tick execute in scheduling order, which keeps
 * whole-SSD simulations deterministic. Cancellation is supported via
 * EventId (used by program/erase suspension and the PR2 RESET path).
 *
 * Hot-path design (the simulator executes hundreds of millions of
 * events per trace):
 *  - Callbacks are InlineCallback (64-byte small-buffer optimized,
 *    move-only), so scheduling and popping an event performs no heap
 *    allocation for typical captures and never clones a capture.
 *  - The heap holds 24-byte POD entries (when, seq, slot); callbacks
 *    live in a generation-stamped slot table on the side, so sifting
 *    the heap moves trivial data only. Sifts propagate a hole instead
 *    of swapping, writing each displaced entry once.
 *  - cancel() and pending() are O(1): an EventId encodes its slot
 *    index and the slot's generation, so stale ids — including ids
 *    of events that already executed and whose slot was reused — are
 *    rejected without hashing and without corrupting pending().
 *  - run() is a drain-tick loop: it extracts every entry at the top
 *    tick in one heap maintenance pass, advances now() once, and
 *    executes the extracted batch in sequence order, instead of
 *    paying a probe + pop + horizon re-check per event. Same-tick
 *    producers additionally collapse whole bursts into one heap
 *    entry via scheduleBatch().
 *  - The heap holds only what is near: a producer with a long,
 *    already-ordered stream (trace replay) reserves the stream's
 *    sequence numbers up front with reserveSeqs() and pushes each
 *    item with scheduleReserved() shortly before it is due, so the
 *    heap stays shallow and the (tick, seq) order is unchanged.
 *  - Cancelled entries are pruned off the heap root eagerly (by
 *    cancel() itself and by the run/step loops), never left for a
 *    reader to clean up, so nextPendingTick() is a pure O(1) probe —
 *    cheap enough for the parallel executor to poll every window.
 *
 * Ownership and thread-safety contract:
 *  - An EventQueue is owned by exactly one simulation domain (a
 *    stand-alone Ssd, one drive of a linked host::SsdArray, or the
 *    array's host side) and is NOT internally synchronized. All
 *    calls — schedule, cancel, run, step — must come from the one
 *    thread currently executing that domain.
 *  - Under sim::ParallelExecutor, domains run on worker threads but
 *    only between window barriers; the executor's barriers establish
 *    the happens-before edges, so a queue is still touched by at
 *    most one thread at a time. Cross-domain communication must go
 *    through ParallelExecutor::send, never by scheduling directly
 *    onto another domain's queue.
 *
 * Determinism contract: events execute in (tick, seq) order, where
 * seq is the queue-local scheduling (or reservation) order. Any run
 * that performs the same schedule() and reserveSeqs() calls in the
 * same order executes callbacks in the same order — this, plus the
 * executor's sorted mailbox delivery, is what makes multi-threaded
 * runs bit-identical to single-threaded ones.
 */

#ifndef SSDRR_SIM_EVENT_QUEUE_HH
#define SSDRR_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace ssdrr::sim {

/**
 * Handle for cancelling a scheduled event. Encodes (generation,
 * slot); 0 is never a valid id. Ids of executed or cancelled events
 * become stale and are rejected by cancel().
 */
using EventId = std::uint64_t;

class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when (must be >= now()).
     * @return handle usable with cancel().
     */
    EventId
    schedule(Tick when, Callback cb)
    {
        return push(when, next_seq_++, std::move(cb));
    }

    /** Schedule @p cb at now() + @p delay. */
    EventId
    scheduleAfter(Tick delay, Callback cb)
    {
        return push(now_ + delay, next_seq_++, std::move(cb));
    }

    /**
     * Reserve @p n consecutive sequence numbers for later
     * scheduleReserved() calls.
     * @return the first of them; the block is [first, first + n).
     */
    std::uint64_t
    reserveSeqs(std::uint64_t n)
    {
        const std::uint64_t first = next_seq_;
        next_seq_ += n;
        return first;
    }

    /**
     * Schedule @p cb at @p when with the reserved sequence number
     * @p seq, so it ties with same-tick events exactly as if it had
     * been scheduled at the moment @p seq was reserved: it runs after
     * events scheduled before the reservation and before every event
     * scheduled after it. This lets a producer hold back work that
     * is already ordered (a trace's later arrivals) and push it onto
     * the heap only when it is close, without changing the execution
     * order. Entries may be pushed in any order.
     *
     * Panics if @p seq was never reserved, or if @p when is the tick
     * a running callback is draining: that tick's entries have been
     * extracted already, so a reserved (smaller) sequence number
     * could no longer run in order.
     */
    EventId scheduleReserved(Tick when, std::uint64_t seq, Callback cb);

    /**
     * Schedule a batch of callbacks at absolute time @p when (must be
     * >= now()) as ONE heap event that runs them in vector order —
     * the doorbell-batching primitive: a window's worth of mailbox
     * crossings bound for the same (queue, tick) pays one slot, one
     * heap entry, and one sift instead of cbs.size() of each.
     *
     * Observable behavior is identical to scheduling each callback
     * individually in vector order at a point where no other
     * schedule() call can interleave: the callbacks run back-to-back
     * at the same now(), anything they schedule at the same tick gets
     * a later sequence number either way, and executedEvents()
     * advances by cbs.size() (the batch accounts each callback as its
     * own executed event), so event counts stay bit-identical to the
     * unbatched schedule.
     *
     * The batch cannot be cancelled piecemeal (no per-callback ids);
     * callers batch only messages that are never cancelled (mailbox
     * deliveries). @p cbs must be non-empty with no null callbacks.
     */
    EventId scheduleBatch(Tick when, std::vector<Callback> cbs);

    /**
     * Cancel a pending event.
     * @retval true if the event was pending and is now cancelled.
     * @retval false if it already ran, was cancelled, or never
     *         existed (all three are detected reliably: executed
     *         events bump their slot's generation, so their ids are
     *         stale and never alias a newer event).
     */
    bool cancel(EventId id);

    /** Number of pending (non-cancelled) events. O(1). */
    std::size_t pending() const { return pending_; }

    /** True if no runnable events remain. */
    bool empty() const { return pending_ == 0; }

    /**
     * Run events until the queue drains or @p until is reached.
     * Events scheduled exactly at @p until are executed.
     *
     * Drain-tick batching: each iteration extracts *all* entries at
     * the earliest tick in one heap maintenance pass and executes
     * them back-to-back in sequence order. Observable behavior is
     * identical to the pop-one-at-a-time loop — entries extract in
     * (tick, seq) order, anything a callback schedules at the same
     * tick gets a larger seq than every extracted entry (so the next
     * drain pass picks it up in order), and a callback cancelling a
     * later same-tick event is honored because each extracted entry
     * re-checks its slot state immediately before running.
     * @return the tick of the last executed event (now()).
     */
    Tick run(Tick until = kTickNever);

    /** Execute at most one event. @retval false if queue was empty. */
    bool step();

    /** Total number of events executed since construction. */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Tick of the earliest pending event, or kTickNever if the queue
     * is empty.
     *
     * O(1) and mutation-free by contract (hence const): the parallel
     * executor probes every domain's queue once per window to pick
     * the next window start, and the idle-window fast-forward probes
     * them all again, so this must stay a pure read of the heap
     * root. The invariant that the root is never a cancelled entry
     * at public API boundaries is maintained by the writers instead:
     * cancel() prunes eagerly when it kills the root, and run()/
     * step() re-prune after popping (debug builds assert it here).
     */
    Tick nextPendingTick() const;

    /**
     * Move now() forward to @p t without executing anything. Only
     * legal when no pending event precedes @p t; used after a
     * windowed multi-queue run to align every domain's clock to the
     * global end time, so time-normalized statistics (utilization,
     * simulated duration) use one common denominator.
     */
    void advanceTo(Tick t);

    /**
     * Pre-size the heap and slot table for an expected number of
     * simultaneously pending events (optional; both grow on demand).
     */
    void reserve(std::size_t events);

  private:
    /** Heap payload: trivially relocatable, 24 bytes. */
    struct HeapEntry {
        Tick when;
        std::uint64_t seq; ///< schedule order; breaks same-tick ties
        std::uint32_t slot;
    };

    enum class SlotState : std::uint8_t { Free, Pending, Cancelled };

    struct Slot {
        Callback cb;
        std::uint32_t gen = 1;
        SlotState state = SlotState::Free;
    };

    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** The one out-of-line insertion path behind schedule(),
     *  scheduleAfter() and scheduleReserved(); allocSlot() and
     *  heapPush() have no other caller, so they inline into it. */
    EventId push(Tick when, std::uint64_t seq, Callback &&cb);
    std::uint32_t allocSlot(Callback &&cb);
    void freeSlot(std::uint32_t idx);
    void heapPush(HeapEntry e);
    HeapEntry heapPop();
    /** Pop cancelled entries off the heap root (restores the
     *  root-is-pending invariant nextPendingTick() relies on). */
    void pruneCancelledTop();
    /** Move a popped entry's callback out and run it, honoring a
     *  cancellation that raced in after extraction. */
    void executeEntry(const HeapEntry &e);

    Tick now_ = 0;
    std::uint64_t next_seq_ = 1;
    /** run()/step() calls in progress: nonzero while a callback
     *  executes, i.e. while now() is the tick being drained. */
    std::uint32_t drain_depth_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
    std::vector<HeapEntry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    /** Scratch for run()'s drain-tick extraction (capacity reused
     *  across ticks; stolen/restored around callbacks so a reentrant
     *  run() sees an empty vector). */
    std::vector<HeapEntry> drain_;
};

} // namespace ssdrr::sim

#endif // SSDRR_SIM_EVENT_QUEUE_HH
