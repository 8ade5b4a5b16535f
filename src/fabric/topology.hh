/**
 * @file
 * Storage-fabric topology: the host <-> drive interconnect as a graph.
 *
 * A TopologySpec is the declarative description (mirroring the
 * scenario JSON `fabric` object): named nodes of kind host / switch /
 * drive, undirected links between them, and a per-drive attachment
 * map. validate() enforces the structural invariants the runtime
 * relies on and reports violations with the offending JSON path
 * (`fabric.nodes[i]`, `fabric.links[i]`, `fabric.drives[i]`) so the
 * scenario loader can surface them verbatim.
 *
 * Topology::compile() turns a valid spec into the runtime form:
 * integer node/link ids, the unique host->drive hop sequence for every
 * drive (the graph is a tree, so paths are unique and no shortest-path
 * search is needed), and the minimum link latency in ticks — which is
 * exactly the conservative window width a ParallelExecutor needs when
 * every fabric node is its own domain: no message can cross between
 * domains faster than the cheapest link.
 *
 * Invariants established by validate()/compile():
 *  - exactly one node of kind "host"; node names unique and non-empty;
 *  - every link joins two distinct known nodes; latencies are >= 1
 *    tick (a zero-tick link would force a zero-width window);
 *  - the link graph is a tree rooted at the host: no cycles, every
 *    node reachable from the host;
 *  - the drive attachment map covers each array drive exactly once,
 *    points only at kind-"drive" nodes, and uses every drive node.
 */

#ifndef SSDRR_FABRIC_TOPOLOGY_HH
#define SSDRR_FABRIC_TOPOLOGY_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ssdrr::fabric {

/** Structural error in a fabric description. The message names the
 *  offending JSON path (e.g. "fabric.links[2].to: unknown node"). */
class TopologyError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

struct NodeSpec {
    std::string name;
    std::string kind; ///< "host" | "switch" | "drive"
};

inline bool
operator==(const NodeSpec &a, const NodeSpec &b)
{
    return a.name == b.name && a.kind == b.kind;
}

struct LinkSpec {
    std::string from;
    std::string to;
    double latencyUs = 1.0; ///< per-hop propagation latency
    double usPerKb = 0.0;   ///< serialization charge per KiB carried
};

inline bool
operator==(const LinkSpec &a, const LinkSpec &b)
{
    return a.from == b.from && a.to == b.to &&
           a.latencyUs == b.latencyUs && a.usPerKb == b.usPerKb;
}

/** Declarative fabric description (the scenario `fabric` object). */
struct TopologySpec {
    std::vector<NodeSpec> nodes;
    std::vector<LinkSpec> links;
    /** Drive attachment map: array drive index -> node name. */
    std::vector<std::string> drives;

    /** True when no fabric was declared (host.hostLinkUs applies). */
    bool empty() const { return nodes.empty() && links.empty() &&
                                drives.empty(); }

    /**
     * Check every structural invariant against an array of
     * @p driveCount drives. Throws TopologyError naming the offending
     * `fabric.*` JSON path on the first violation.
     */
    void validate(std::uint32_t driveCount) const;
};

inline bool
operator==(const TopologySpec &a, const TopologySpec &b)
{
    return a.nodes == b.nodes && a.links == b.links &&
           a.drives == b.drives;
}

inline bool
operator!=(const TopologySpec &a, const TopologySpec &b)
{
    return !(a == b);
}

/**
 * Generate a canonical topology for an array of @p driveCount drives.
 * Presets:
 *  - "flat"      one host port linked directly to every drive;
 *  - "tree:SxD"  one host port, S switches, D drives behind each
 *                switch (S*D must equal @p driveCount). The S uplinks
 *                are shared by D drives each, so they oversubscribe
 *                as soon as D > 1.
 * Throws TopologyError for an unknown preset name or a drive-count
 * mismatch.
 */
TopologySpec makePreset(const std::string &name, std::uint32_t driveCount);

/** Compiled, integer-indexed form of a validated TopologySpec. */
class Topology
{
  public:
    enum class Kind : std::uint8_t { Host, Switch, Drive };

    struct Node {
        std::string name;
        Kind kind = Kind::Switch;
    };

    struct Link {
        std::uint32_t a = 0;     ///< node index (spec "from")
        std::uint32_t b = 0;     ///< node index (spec "to")
        sim::Tick latency = 0;   ///< per-hop propagation, ticks
        double usPerKb = 0.0;    ///< serialization charge per KiB
    };

    /** One step of a host->drive path. */
    struct Hop {
        std::uint32_t link = 0; ///< link index
        bool forward = true;    ///< true: a->b traversal, false: b->a
        std::uint32_t next = 0; ///< node index arrived at
    };

    /**
     * Validate @p spec (as TopologySpec::validate) and build the
     * runtime form for an array of @p driveCount drives.
     */
    static Topology compile(const TopologySpec &spec,
                            std::uint32_t driveCount);

    /**
     * One host port "host0" linked directly to each of @p driveCount
     * drives "d0".."dN-1", every link exactly @p latency ticks (>= 1)
     * with no serialization charge. Built in ticks, so no latency is
     * lost to the microsecond round trip a LinkSpec would impose.
     */
    static Topology flat(std::uint32_t driveCount, sim::Tick latency);

    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<Link> &links() const { return links_; }
    std::uint32_t hostNode() const { return host_; }
    /** Node indices of kind Switch, in node-declaration order. */
    const std::vector<std::uint32_t> &switchNodes() const
    {
        return switches_;
    }
    /** Attachment node index of array drive @p d. */
    std::uint32_t attachment(std::uint32_t d) const
    {
        return attach_[d];
    }
    /** Number of drives the topology was compiled for. */
    std::uint32_t pathCount() const
    {
        return static_cast<std::uint32_t>(paths_.size());
    }
    /** Unique host->drive hop sequence for array drive @p d. */
    const std::vector<Hop> &pathTo(std::uint32_t d) const
    {
        return paths_[d];
    }
    /** Node names along host->drive path (host first), for tests. */
    std::vector<std::string> pathNames(std::uint32_t d) const;
    /** Cheapest link's latency: the conservative window width. */
    sim::Tick minLinkLatency() const { return min_latency_; }
    /** Human-readable "from->to" label for link @p l, honoring the
     *  traversal direction. */
    std::string linkName(std::uint32_t l, bool forward) const;

  private:
    Topology() = default;

    std::vector<Node> nodes_;
    std::vector<Link> links_;
    std::vector<std::uint32_t> switches_;
    std::vector<std::uint32_t> attach_;
    std::vector<std::vector<Hop>> paths_;
    std::uint32_t host_ = 0;
    sim::Tick min_latency_ = 0;
};

} // namespace ssdrr::fabric

#endif // SSDRR_FABRIC_TOPOLOGY_HH
