/**
 * @file
 * Top-level SSD model: host interface, FTL, TSU, chips, channels,
 * ECC engines and the configured read-retry mechanism.
 *
 * This is the system the paper evaluates in Section 7: a trace is
 * replayed against an SSD preconditioned to a (PEC, retention)
 * operating point, and the per-request response time is collected
 * under each retry mechanism.
 */

#ifndef SSDRR_SSD_SSD_HH
#define SSDRR_SSD_SSD_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mechanism.hh"
#include "core/retry_controller.hh"
#include "core/rpt.hh"
#include "ecc/engine.hh"
#include "ftl/ftl.hh"
#include "nand/chip.hh"
#include "nand/error_model.hh"
#include "nand/page_profile_cache.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "ssd/channel.hh"
#include "ssd/config.hh"
#include "ssd/transaction.hh"
#include "ssd/tsu.hh"
#include "workload/trace.hh"

namespace ssdrr::ssd {

/** One host I/O request (page-granular). */
struct HostRequest {
    std::uint64_t id = 0;
    sim::Tick arrival = 0;
    ftl::Lpn lpn = 0;      ///< first logical page
    std::uint32_t pages = 1;
    bool isRead = true;
    /**
     * Channel-affinity mask for writes (bit c = channel c allowed;
     * 0 = unrestricted). The FTL allocates the new physical page on
     * a plane of an allowed channel; reads are unaffected (they go
     * wherever the page currently lives). Set by the host layer for
     * tenants pinned to a channel subset.
     */
    std::uint32_t channelMask = 0;
};

/**
 * How a host request (or array subrequest) completed. Devices always
 * raise Ok — uncorrectable reads are injected above the device by the
 * fault timeline (sim/fault_injector.hh), which flips subrequest
 * completions to Uecc at the host boundary; Failed marks an array
 * request whose data could not be recovered (retries exhausted and no
 * reconstruction path).
 */
enum class CompletionStatus : std::uint8_t {
    Ok,
    Uecc,   ///< read completed uncorrectable (transient fault window)
    Failed, ///< unrecoverable: retries exhausted, no redundancy left
};

/**
 * Completion record delivered to the host-side completion hook when
 * the last page of a host request finishes. The host interface layer
 * (src/host/) uses this to route completions back to the submitting
 * queue pair; @c arrival is echoed from the request so queueing delay
 * ahead of the device is included in @c responseUs.
 */
struct HostCompletion {
    std::uint64_t id = 0;    ///< HostRequest::id
    sim::Tick arrival = 0;   ///< HostRequest::arrival
    sim::Tick finish = 0;    ///< completion time
    bool isRead = true;
    double responseUs = 0.0; ///< finish - arrival, in microseconds
    /** HostRequest::pages, echoed so the host layer can charge
     *  size-proportional completion transfer time. */
    std::uint32_t pages = 1;
    CompletionStatus status = CompletionStatus::Ok;
};

/** End-of-run result summary. */
struct RunStats {
    double avgReadResponseUs = 0.0;
    double avgWriteResponseUs = 0.0;
    double avgResponseUs = 0.0;
    double p99ResponseUs = 0.0;
    double maxResponseUs = 0.0;
    /** Read-latency distribution points (tail-latency reporting). */
    double p50ReadResponseUs = 0.0;
    double p99ReadResponseUs = 0.0;
    double p999ReadResponseUs = 0.0;
    double avgRetrySteps = 0.0;
    /** Read transactions behind avgRetrySteps (host + GC reads). */
    std::uint64_t retrySamples = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t suspensions = 0;
    std::uint64_t gcCollections = 0;
    std::uint64_t timingFallbacks = 0;
    std::uint64_t readFailures = 0;
    /** Read-reclaim rewrites issued (refresh policy, Section 9). */
    std::uint64_t refreshes = 0;
    // ----- array-layout accounting (RAID-5; zero on single drives
    // and RAID-0 arrays) -----
    /** Host reads served through degraded-mode reconstruction. */
    std::uint64_t degradedReads = 0;
    /** Stripe-mate subreads issued to reconstruct failed-drive data
     *  (degraded reads and reconstruct-writes). */
    std::uint64_t reconstructionReads = 0;
    /** Parity-update device writes (they feed wear and GC like any
     *  host write). */
    std::uint64_t parityWrites = 0;
    /** Degraded-read latency distribution points (a per-class view;
     *  degraded reads are also counted in the read histogram). */
    double avgDegradedReadUs = 0.0;
    double p50DegradedReadUs = 0.0;
    double p99DegradedReadUs = 0.0;
    double p999DegradedReadUs = 0.0;
    double simulatedMs = 0.0;
    /** Mean busy fraction of the channel buses over the run. */
    double channelUtilization = 0.0;
    /** Mean busy fraction of the per-channel ECC engines. */
    double eccUtilization = 0.0;
    /** Page-profile cache hits/misses (read-path memoization). */
    std::uint64_t profileCacheHits = 0;
    std::uint64_t profileCacheMisses = 0;
    // ----- host filter chain accounting (host/filter/; zero when
    // the chain is empty) -----
    /** DRAM read-cache hits / misses (requests) and evicted pages. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
    /** Readahead pages prefetched / later consumed by demand reads. */
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchUseful = 0;
    /** Requests split into pieces / merged away by coalescing. */
    std::uint64_t splitRequests = 0;
    std::uint64_t coalescedRequests = 0;
    /** Requests held by a delay filter. */
    std::uint64_t delayedRequests = 0;
    /** Requests that waited for a throttle-filter token. */
    std::uint64_t throttledRequests = 0;
    // ----- fault timeline + host robustness accounting (zero when
    // the scenario declares no faults and no host.timeoutUs) -----
    /** Subrequest deadlines that expired (host.timeoutUs). */
    std::uint64_t hostTimeouts = 0;
    /** Subrequests reissued after a timeout or UECC completion. */
    std::uint64_t hostRetries = 0;
    /** Subrequests converted to a reconstruction join (or absorbed
     *  by redundancy) after retries ran out. */
    std::uint64_t hostFailovers = 0;
    /** Subrequest reads that completed uncorrectable. */
    std::uint64_t ueccReads = 0;
    /** Array requests that completed with CompletionStatus::Failed. */
    std::uint64_t failedRequests = 0;
    /** Rebuild-to-spare reconstruction reads completed. */
    std::uint64_t rebuildReads = 0;
    /** Fraction of the scheduled rebuild region completed (0..1). */
    double rebuildProgress = 0.0;
    /** Wall-clock (simulated) time from failure detection to rebuild
     *  completion, in milliseconds (0 when no rebuild finished). */
    double timeToRebuildMs = 0.0;
    // ----- storage-fabric accounting (fabric/; empty/zero when the
    // scenario declares no fabric and the flat host link is used) -----
    /** Per-link queueing counters, in fabric.links declaration order
     *  (both directions of a link merged). */
    struct FabricLinkStats {
        std::string link;               ///< "a<->b" label
        std::uint64_t messages = 0;     ///< hops carried
        std::uint64_t bytesCarried = 0; ///< payload bytes serialized
        double busyUs = 0.0;            ///< total serialization time
        double waitUs = 0.0;            ///< total FIFO queueing wait
        std::uint32_t maxQueueDepth = 0;
    };
    std::vector<FabricLinkStats> fabricLinks;
    /** Mean fabric FIFO wait charged to each array read (dispatch +
     *  completion hops summed over the read's subrequests). */
    double avgFabricWaitUs = 0.0;
    /** Host-surface read view (above the chain: cache hits included,
     *  prefetches excluded). Zero when the chain is empty. */
    std::uint64_t hostReads = 0;
    double avgHostReadUs = 0.0;
    double p50HostReadUs = 0.0;
    double p99HostReadUs = 0.0;
    double p999HostReadUs = 0.0;
    /**
     * Events executed on the event queue driving this SSD. Drives
     * sharing a queue (legacy host::SsdArray) all report the
     * queue-global count and the array-level stats() reports it
     * once; drives on private queues (sharded array) report their
     * own count and the array sums host + drive queues.
     */
    std::uint64_t executedEvents = 0;
    // ----- parallel-executor accounting (zero on the legacy
    // single-queue engine) -----
    /** Synchronization windows the executor ran. Deterministic:
     *  window placement derives from queue state only. */
    std::uint64_t executorWindowsRun = 0;
    /** Windows fast-forwarded: only one domain had work before the
     *  window end, so it ran inline on the coordinator and the
     *  worker fleet was never engaged. Deterministic, identical for
     *  every worker count. */
    std::uint64_t executorWindowsSkipped = 0;
    /** Condvar parks across workers + coordinator. Timing-dependent
     *  (report-only — never compare across runs or thread counts). */
    std::uint64_t executorParks = 0;
    /** Bounded-spin iterations across workers + coordinator.
     *  Timing-dependent, report-only. */
    std::uint64_t executorSpins = 0;
};

class Ssd
{
  public:
    /** Move-only (SBO): completions fire once per host request on
     *  the simulation hot path. */
    using CompletionFn = sim::InlineFunction<void(const HostCompletion &)>;

    /**
     * Stand-alone SSD owning its event queue. Used for single-drive
     * trace replay and as one drive (= one simulation domain) of a
     * sharded host::SsdArray, whose sim::ParallelExecutor advances
     * the owned queue in synchronization windows. In the sharded
     * case every Ssd method — including the completion hook — runs
     * on whichever worker thread is executing this drive's window;
     * the drive touches no state outside itself, so no locking is
     * needed (the contract the CI tsan job checks).
     */
    Ssd(const Config &cfg, core::Mechanism mech);

    /**
     * SSD driven by an external, shared event queue. Used by the
     * legacy host layer to co-simulate several drives
     * (host::SsdArray) and the host interface on one timeline.
     */
    Ssd(const Config &cfg, core::Mechanism mech, sim::EventQueue &eq);

    const Config &config() const { return cfg_; }
    core::Mechanism mechanism() const { return mech_; }
    sim::EventQueue &eventQueue() { return eq_; }
    const nand::ErrorModel &errorModel() const { return model_; }
    const core::Rpt &rpt() const { return rpt_; }
    ftl::Ftl &ftl() { return ftl_; }

    /**
     * Register the host completion hook. Invoked once per host
     * request, when its last page completes; this is how the host
     * layer observes completions (replacing the internal-only
     * finishHostPage bookkeeping as the notification path).
     */
    void onHostComplete(CompletionFn fn) { on_complete_ = std::move(fn); }

    /**
     * Map every logical page (aged preconditioning). replay() does
     * this lazily; hosts using submit() directly call it up front.
     */
    void precondition();

    /** Submit one request at the current simulated time. */
    void submit(const HostRequest &req);

    /**
     * Replay a whole trace: submits every record at its arrival time
     * (rebased to now()), runs the event loop to completion, and
     * returns the run summary. Request ids are record index + 1.
     *
     * Every record's LPN range is checked before any event runs. The
     * event queue holds only the next arrival burst (the records that
     * share one arrival tick), not the whole trace, yet events run in
     * exactly the order that scheduling every record up front would
     * give: same-tick arrivals run in trace order, ahead of
     * completions due at that tick. The queued bursts read
     * @p trace, so if a panic escapes replay() the drive must not be
     * run again.
     */
    RunStats replay(const workload::Trace &trace);

    /** Drain all outstanding work (after manual submit()s). */
    void drain();

    /** Current aggregated statistics. */
    RunStats stats() const;

    /**
     * Response-time distributions in microseconds. Reads and writes
     * are recorded separately; the all-request view is derived by
     * merging them (no per-sample double-recording).
     */
    sim::Histogram responseTimes() const;
    const sim::Histogram &readResponseTimes() const { return resp_read_; }
    const sim::Histogram &writeResponseTimes() const { return resp_write_; }

    /** Read-path page-profile memoization (hit/miss stats). */
    const nand::PageProfileCache &profileCache() const
    {
        return profile_cache_;
    }

    /** Channel bus @p c (per-channel utilization observability). */
    const Channel &channelAt(std::uint32_t c) const
    {
        return *channels_.at(c);
    }

  private:
    Ssd(const Config &cfg, core::Mechanism mech, sim::EventQueue *shared);

    struct Pending {
        sim::Tick arrival = 0;
        std::uint32_t remaining = 0;
        std::uint32_t pages = 0; ///< original request size
        bool isRead = true;
    };

    void buildReadTxn(ftl::Lpn lpn, std::uint64_t host_id, TxnKind kind,
                      std::uint64_t gc_tag = 0);
    /** Read-reclaim: rewrite @p lpn to reset its retention age. */
    void refreshPage(ftl::Lpn lpn);
    void buildWriteTxn(ftl::Lpn lpn, std::uint64_t host_id,
                       std::uint32_t channel_mask);
    void scheduleGc(std::vector<ftl::GcWork> work);
    /** Push the replay burst that starts at @p records[first] onto
     *  the queue under sequence numbers @p seq0 + index. */
    void scheduleReplayBurst(const std::vector<workload::TraceRecord> &records,
                             std::size_t first, sim::Tick base,
                             std::uint64_t seq0);
    void finishHostPage(std::uint64_t host_id);
    Txn txnFor(const ftl::Ppn &ppn);

    Config cfg_;
    core::Mechanism mech_;
    std::unique_ptr<sim::EventQueue> owned_eq_; ///< null when shared
    sim::EventQueue &eq_;
    nand::ErrorModel model_;
    nand::PageProfileCache profile_cache_;
    core::Rpt rpt_;
    core::RetryController rc_;
    ftl::Ftl ftl_;
    std::vector<std::unique_ptr<nand::Chip>> chips_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<std::unique_ptr<ecc::EccEngine>> eccs_;
    std::unique_ptr<Tsu> tsu_;

    std::unordered_map<std::uint64_t, Pending> pending_;
    struct GcState {
        std::uint32_t pendingMoves = 0;
        std::uint32_t plane = 0;
        std::uint32_t block = 0;
    };
    std::unordered_map<std::uint64_t, GcState> gc_;
    std::unordered_map<std::uint64_t, ftl::Ppn> gc_dest_;
    std::uint64_t next_txn_id_ = 1;
    std::uint64_t next_gc_tag_ = 1;
    CompletionFn on_complete_;

    sim::Histogram resp_read_;
    sim::Histogram resp_write_;
    sim::Accumulator retry_steps_;
    std::uint64_t timing_fallbacks_ = 0;
    std::uint64_t read_failures_ = 0;
    std::uint64_t refreshes_ = 0;
    std::uint64_t host_reads_ = 0;
    std::uint64_t host_writes_ = 0;
};

} // namespace ssdrr::ssd

#endif // SSDRR_SSD_SSD_HH
