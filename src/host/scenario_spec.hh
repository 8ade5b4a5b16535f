/**
 * @file
 * Declarative scenario API v2: a single serializable description of
 * a multi-tenant run.
 *
 * A ScenarioSpec fully describes a scenario — SSD geometry preset
 * and wear overrides, mechanism sweep, array shape, host-interface
 * options, and per-tenant specs (including the QoS contract, channel
 * affinity, and time-horizon stop condition) — as plain data. Specs
 * load from and save to JSON (sim/json.hh, dependency-free), are
 * schema-validated with actionable error messages (unknown keys,
 * type mismatches, and semantic conflicts all name the offending
 * JSON path), and can be composed fluently from C++ through
 * ScenarioBuilder.
 *
 * The same spec behaves identically everywhere it is consumed
 * (ssdrr_sim --scenario, ssdrr_sweep, benches, tests, examples):
 * toConfig() materializes the exact ScenarioConfig the hand-wired
 * paths used to build. The command line edits a spec document by
 * path (host/scenario_edit.hh, `ssdrr_sim --set path=value`) rather
 * than through per-field flags.
 */

#ifndef SSDRR_HOST_SCENARIO_SPEC_HH
#define SSDRR_HOST_SCENARIO_SPEC_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "host/scenario.hh"
#include "sim/json.hh"

namespace ssdrr::host {

/**
 * A malformed or semantically invalid scenario spec. what() carries
 * the full actionable message (JSON path, offending value, and what
 * would be accepted instead).
 */
class SpecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Serializable SSD description: a geometry preset plus the
 * evaluation knobs the paper sweeps. toConfig() materializes the
 * full ssd::Config.
 */
struct SsdSpec {
    /** "small" (fast tests/benches) or "paper" (512-GiB class). */
    std::string geometry = "small";
    /** Preconditioned wear in kilo-P/E-cycles. */
    double pecKilo = 0.0;
    /** Preconditioned retention age in months. */
    double retentionMonths = 0.0;
    double temperatureC = 30.0;
    /** Read-reclaim refresh threshold in months (0 = off). */
    double refreshMonths = 0.0;
    bool suspension = true;
    std::uint64_t seed = 42;

    /** @throws SpecError on an unknown geometry preset. */
    ssd::Config toConfig() const;

    bool operator==(const SsdSpec &o) const;
    bool operator!=(const SsdSpec &o) const { return !(*this == o); }
};

/**
 * One fault event on the scenario's timeline (JSON array "faults").
 * Times are microseconds of simulated time; the fault machinery is
 * deterministic, so the same spec reproduces the same faults for any
 * thread count (see sim/fault_injector.hh).
 */
struct FaultSpec {
    /** "failStop", "failSlow", or "uecc". */
    std::string type = "failStop";
    /** Member drive the fault hits. */
    std::uint32_t drive = 0;
    /** Fault start in microseconds of simulated time. */
    double atUs = 0.0;
    /** Window end for failSlow/uecc (0 = open-ended; must stay 0
     *  for failStop, which is permanent). */
    double untilUs = 0.0;
    /** failSlow: device-latency multiplier (> 1). */
    double multiplier = 1.0;
    /** uecc: per-read probability in (0, 1]. */
    double probability = 0.0;
    /** failStop: start a rebuild-to-spare on detection. */
    bool rebuild = false;
    /** failStop + rebuild: stripe rows to rebuild (bounds the
     *  modeled rebuild region; 0 = the whole array). */
    std::uint64_t rebuildRows = 0;

    /** @throws SpecError on an unknown type name. */
    sim::FaultEvent toEvent() const;

    bool operator==(const FaultSpec &o) const;
    bool operator!=(const FaultSpec &o) const { return !(*this == o); }
};

/**
 * The full, serializable description of one scenario run (possibly
 * swept over several mechanisms).
 */
struct ScenarioSpec {
    /** Optional display label (free-form). */
    std::string name;
    SsdSpec ssd;
    /** Mechanism sweep, in run order. */
    std::vector<std::string> mechanisms = {"Baseline"};
    std::uint32_t drives = 1;
    // ----- array layout (JSON object "array") -----
    /** "raid0" (striping, the default) or "raid5" (rotating parity,
     *  degraded-read reconstruction; needs drives >= 3). */
    std::string raidLevel = "raid0";
    /** RAID-5 stripe-unit pages (chunk size; ignored by raid0). */
    std::uint32_t stripeUnitPages = 1;
    /** Failed member drives; must respect the layout's fault
     *  tolerance (none for raid0, one for raid5). */
    std::vector<std::uint32_t> failedDrives;
    // ----- fault timeline (JSON array "faults") -----
    /** Seeded mid-run faults; empty (default) is bit-identical to
     *  the pre-fault engine. Must not name drives already listed in
     *  array.failedDrives. */
    std::vector<FaultSpec> faults;
    /**
     * Worker threads for the fabric engine. 1 (default) runs
     * everything on the calling thread; N > 1 simulates the drives
     * concurrently and requires hostLinkUs > 0 or a fabric (the
     * engine's synchronization window is the fabric's cheapest
     * link, which for hostLinkUs is the turnaround). 0 is sugar for
     * "use the machine's hardware concurrency", resolved at toConfig()
     * time — the spec keeps the literal 0 so it round-trips through
     * --dump-scenario machine-independently; it carries the same
     * link/fabric requirement as N > 1. Results are bit-identical
     * for every value of threads.
     */
    std::uint32_t threads = 1;
    // ----- storage fabric (JSON object "fabric") -----
    /**
     * Host<->drive interconnect topology: nodes, links, and the
     * drive attachment map (see fabric/topology.hh). Non-empty
     * routes every dispatch/completion hop-by-hop with per-link FIFO
     * contention, reports every link, and excludes hostLinkUs > 0.
     * Empty (default) leaves the coupling to hostLinkUs.
     */
    fabric::TopologySpec fabric;
    // ----- host-interface options -----
    std::uint32_t queueDepth = 16;
    /** "rr", "wrr", or "slo" (see host::Arbitration). */
    std::string arbitration = "rr";
    /** 0 = auto (8 command slots per drive). */
    std::uint32_t maxDeviceInflight = 0;
    /**
     * Per-subrequest deadline in microseconds ("host.timeoutUs").
     * On expiry the sub is reissued with exponential backoff
     * (retryMax attempts, retryBackoffUs base) and finally failed
     * over (RAID-5 reads reconstruct; unrecoverable requests
     * complete Failed). 0 (default) disables deadline tracking —
     * bit-identical to the pre-timeout engine. Required > 0 when the
     * timeline has a failStop fault.
     */
    double timeoutUs = 0.0;
    /** Reissue attempts after a timeout/UECC before failover. */
    std::uint32_t retryMax = 2;
    /** Backoff before the first reissue; doubles per attempt. */
    double retryBackoffUs = 100.0;
    /**
     * Host dispatch/completion turnaround in microseconds (the
     * PCIe/NVMe doorbell-fetch and interrupt paths). 0 = instantaneous
     * coupling on one shared event queue; > 0 is sugar for a flat
     * fabric — one host0->dN link per drive of this latency with no
     * serialization charge — whose links are not reported (and
     * enables threads > 1).
     */
    double hostLinkUs = 0.0;
    /**
     * Link transfer cost in microseconds per KiB moved, charged per
     * host command on dispatch and completion in addition to the
     * fixed hostLinkUs turnaround. 0 (default) keeps the legacy
     * event stream on either engine. Sugar for an implicit "xfer"
     * filter appended below host.filters.
     */
    double transferUsPerKb = 0.0;
    /**
     * Ordered host-side filter chain (JSON array "host.filters").
     * Requests travel down it first-to-last before the array;
     * completions travel up it last-to-first. Empty (default) is a
     * wire — bit-identical to the pre-chain engine. See
     * host/filter/filter.hh for the filter types and their knobs.
     */
    std::vector<filter::FilterSpec> filters;
    std::vector<TenantSpec> tenants;

    /**
     * Check every field and cross-field constraint.
     * @throws SpecError naming the first offending field
     */
    void validate() const;

    sim::json::Value toJson() const;
    /** Pretty-printed JSON document (the --dump-scenario format). */
    std::string toJsonText() const;

    /** @throws SpecError on schema violations (validate() is NOT
     *  implied; call it after loading, or use loadFile). */
    static ScenarioSpec fromJson(const sim::json::Value &v);
    /** Parse + schema-check + validate. @throws SpecError */
    static ScenarioSpec fromJsonText(const std::string &text);
    /** Read + parse + validate a spec file. @throws SpecError */
    static ScenarioSpec loadFile(const std::string &path);
    /** Write toJsonText() to @p path. @throws SpecError on I/O. */
    void saveFile(const std::string &path) const;

    /**
     * Materialize the runnable config for one mechanism of the
     * sweep. @p mech must parse as one of mechanisms (callers
     * iterate the sweep). The result is exactly what the legacy
     * hand-wired consumers built, so runs are bit-identical.
     */
    ScenarioConfig toConfig(core::Mechanism mech,
                            TraceCache *cache = nullptr) const;

    bool operator==(const ScenarioSpec &o) const;
    bool operator!=(const ScenarioSpec &o) const
    {
        return !(*this == o);
    }
};

/** Tenant equality (spec round-trip checks). */
bool operator==(const TenantSpec &a, const TenantSpec &b);
inline bool
operator!=(const TenantSpec &a, const TenantSpec &b)
{
    return !(a == b);
}

/** Validate + run one mechanism of a spec's sweep. */
ScenarioResult runScenario(const ScenarioSpec &spec,
                           core::Mechanism mech,
                           TraceCache *cache = nullptr);

/**
 * Fluent composer for C++ callers:
 *
 *   const ScenarioSpec spec =
 *       ScenarioBuilder()
 *           .geometry("small").pec(1.0).retention(6.0).seed(13)
 *           .drives(2).queueDepth(16).arbitration("wrr")
 *           .mechanism(core::Mechanism::Baseline)
 *           .mechanism(core::Mechanism::PnAR2)
 *           .tenant("kv", "YCSB-C", 600)
 *           .qdLimit(4).weight(3).sloUs(500.0)
 *           .tenant("log", "stg_0", 600)
 *           .build();
 *
 * tenant() appends a tenant and makes it current; the per-tenant
 * setters after it (mode()/qdLimit()/weight()/iops()/rateIops()/
 * burst()/sloUs()/channels()/horizonUs()) modify that tenant.
 * build() validates and returns the spec (throws SpecError).
 */
class ScenarioBuilder
{
  public:
    ScenarioBuilder();

    // ----- SSD -----
    ScenarioBuilder &name(std::string label);
    ScenarioBuilder &geometry(std::string preset);
    ScenarioBuilder &pec(double kilo);
    ScenarioBuilder &retention(double months);
    ScenarioBuilder &temperature(double celsius);
    ScenarioBuilder &refresh(double months);
    ScenarioBuilder &suspension(bool on);
    ScenarioBuilder &seed(std::uint64_t s);

    // ----- sweep / array / host -----
    /** Append a mechanism to the sweep (empty sweep = Baseline). */
    ScenarioBuilder &mechanism(const std::string &name);
    ScenarioBuilder &mechanism(core::Mechanism m);
    ScenarioBuilder &drives(std::uint32_t n);
    /** Array layout: "raid0" (default) or "raid5". */
    ScenarioBuilder &raid(const std::string &level);
    /** RAID-5 stripe-unit pages (chunk size). */
    ScenarioBuilder &stripeUnitPages(std::uint32_t pages);
    /** Failed member drives (degraded mode). */
    ScenarioBuilder &failedDrives(const std::vector<std::uint32_t> &d);
    /** Worker threads (needs hostLinkUs() > 0 or a fabric when not
     *  exactly 1; 0 = use hardware concurrency). */
    ScenarioBuilder &threads(std::uint32_t n);
    /** Storage-fabric topology (excludes hostLinkUs() > 0). */
    ScenarioBuilder &fabric(const fabric::TopologySpec &topo);
    /** Sugar: generate a preset topology ("flat", "tree:SxD") for
     *  the drive count set so far — call after drives(). */
    ScenarioBuilder &fabricPreset(const std::string &preset);
    /** Append a fault event to the timeline. */
    ScenarioBuilder &fault(const FaultSpec &spec);
    /** Sugar: drive stops completing at @p at_us; optionally start
     *  a rebuild-to-spare over @p rebuild_rows stripe rows on
     *  detection (0 = whole array; pass rebuild=false to skip). */
    ScenarioBuilder &failStop(std::uint32_t drive, double at_us,
                              bool rebuild = false,
                              std::uint64_t rebuild_rows = 0);
    /** Sugar: drive latency multiplied in [at_us, until_us). */
    ScenarioBuilder &failSlow(std::uint32_t drive, double at_us,
                              double until_us, double multiplier);
    /** Sugar: seeded UECC reads in [at_us, until_us). */
    ScenarioBuilder &ueccFault(std::uint32_t drive, double at_us,
                               double until_us, double probability);
    /** Per-subrequest deadline in microseconds (0 = off). */
    ScenarioBuilder &timeoutUs(double us);
    /** Reissue attempts before failover. */
    ScenarioBuilder &retryMax(std::uint32_t attempts);
    /** Base reissue backoff in microseconds (doubles per attempt). */
    ScenarioBuilder &retryBackoffUs(double us);
    /** Host dispatch/completion turnaround in microseconds. */
    ScenarioBuilder &hostLinkUs(double us);
    /** Per-KiB link transfer cost in microseconds. */
    ScenarioBuilder &transferUsPerKb(double us);
    ScenarioBuilder &queueDepth(std::uint32_t d);
    ScenarioBuilder &arbitration(const std::string &policy);
    ScenarioBuilder &arbitration(Arbitration policy);
    ScenarioBuilder &maxDeviceInflight(std::uint32_t n);

    // ----- host filter chain -----
    /** Append a filter to host.filters (order = chain order). */
    ScenarioBuilder &addFilter(const filter::FilterSpec &spec);
    /** Sugar: append a DRAM read cache of @p sizeBytes. */
    ScenarioBuilder &dramCache(std::uint64_t sizeBytes);
    /** Sugar: append a readahead filter with @p windowPages. */
    ScenarioBuilder &readahead(std::uint32_t windowPages);

    // ----- tenants -----
    /** Append a tenant; subsequent per-tenant setters apply to it. */
    ScenarioBuilder &tenant(std::string name, std::string workload,
                            std::uint64_t requests);
    ScenarioBuilder &tenant(const TenantSpec &spec);
    ScenarioBuilder &mode(InjectionMode m);
    ScenarioBuilder &openLoop() { return mode(InjectionMode::OpenLoop); }
    ScenarioBuilder &qdLimit(std::uint32_t qd);
    ScenarioBuilder &weight(std::uint32_t w);
    ScenarioBuilder &iops(double rate);
    ScenarioBuilder &rateIops(double rate);
    ScenarioBuilder &burst(double commands);
    ScenarioBuilder &sloUs(double us);
    /** Pin the current tenant to these channels of every drive. */
    ScenarioBuilder &channels(const std::vector<std::uint32_t> &chans);
    ScenarioBuilder &horizonUs(double us);

    /** Validate and return the finished spec. @throws SpecError */
    ScenarioSpec build() const;
    /** The spec as composed so far, without validation. */
    const ScenarioSpec &peek() const { return spec_; }

  private:
    TenantSpec &current();

    ScenarioSpec spec_;
};

} // namespace ssdrr::host

#endif // SSDRR_HOST_SCENARIO_SPEC_HH
