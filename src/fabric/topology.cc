#include "fabric/topology.hh"

#include <cmath>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "sim/logging.hh"

namespace ssdrr::fabric {

namespace {

[[noreturn]] void
fail(const std::string &msg)
{
    throw TopologyError(msg);
}

std::string
pathNodes(std::size_t i)
{
    return "fabric.nodes[" + std::to_string(i) + "]";
}

std::string
pathLinks(std::size_t i)
{
    return "fabric.links[" + std::to_string(i) + "]";
}

std::string
pathDrives(std::size_t i)
{
    return "fabric.drives[" + std::to_string(i) + "]";
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Union-find over node indices, for cycle detection. */
class DisjointSet
{
  public:
    explicit DisjointSet(std::size_t n) : parent_(n)
    {
        for (std::size_t i = 0; i < n; ++i)
            parent_[i] = static_cast<std::uint32_t>(i);
    }

    std::uint32_t
    find(std::uint32_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    /** @retval false if @p a and @p b were already connected. */
    bool
    join(std::uint32_t a, std::uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return false;
        parent_[a] = b;
        return true;
    }

  private:
    std::vector<std::uint32_t> parent_;
};

std::unordered_map<std::string, std::uint32_t>
checkNodes(const TopologySpec &spec)
{
    std::unordered_map<std::string, std::uint32_t> index;
    bool have_host = false;
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        const NodeSpec &n = spec.nodes[i];
        if (n.name.empty())
            fail(pathNodes(i) + ".name: must not be empty");
        if (n.kind != "host" && n.kind != "switch" && n.kind != "drive")
            fail(pathNodes(i) + ".kind: unknown kind \"" + n.kind +
                 "\" (expected \"host\", \"switch\", or \"drive\")");
        if (!index.emplace(n.name, static_cast<std::uint32_t>(i)).second)
            fail(pathNodes(i) + ".name: duplicate node name \"" +
                 n.name + "\"");
        if (n.kind == "host") {
            if (have_host)
                fail(pathNodes(i) + ".kind: second \"host\" node \"" +
                     n.name + "\" (a fabric has exactly one host)");
            have_host = true;
        }
    }
    if (!have_host)
        fail("fabric.nodes: no node of kind \"host\"");
    return index;
}

void
checkLinks(const TopologySpec &spec,
           const std::unordered_map<std::string, std::uint32_t> &index)
{
    DisjointSet ds(spec.nodes.size());
    for (std::size_t i = 0; i < spec.links.size(); ++i) {
        const LinkSpec &l = spec.links[i];
        auto from = index.find(l.from);
        if (from == index.end())
            fail(pathLinks(i) + ".from: unknown node \"" + l.from +
                 "\"");
        auto to = index.find(l.to);
        if (to == index.end())
            fail(pathLinks(i) + ".to: unknown node \"" + l.to + "\"");
        if (from->second == to->second)
            fail(pathLinks(i) + ": self-loop on node \"" + l.from +
                 "\"");
        if (!std::isfinite(l.latencyUs) || l.latencyUs <= 0.0)
            fail(pathLinks(i) + ".latencyUs: must be > 0, got " +
                 num(l.latencyUs));
        if (sim::usec(l.latencyUs) < 1)
            fail(pathLinks(i) + ".latencyUs: " + num(l.latencyUs) +
                 " rounds to zero ticks; the conservative window "
                 "derived from the cheapest link would be empty");
        if (!std::isfinite(l.usPerKb) || l.usPerKb < 0.0)
            fail(pathLinks(i) + ".usPerKb: must be >= 0, got " +
                 num(l.usPerKb));
        if (!ds.join(from->second, to->second))
            fail(pathLinks(i) + ": link \"" + l.from + "\" -> \"" +
                 l.to + "\" creates a cycle (the fabric must be a "
                 "tree rooted at the host)");
    }
}

/** BFS from the host; returns per-node (parent node, via link) or
 *  UINT32_MAX for unreachable. */
struct Reach {
    static constexpr std::uint32_t kNone = 0xffffffffu;
    std::vector<std::uint32_t> parent;
    std::vector<std::uint32_t> via;
};

Reach
reachFromHost(const TopologySpec &spec,
              const std::unordered_map<std::string, std::uint32_t> &index,
              std::uint32_t host)
{
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        adj(spec.nodes.size()); // node -> (neighbor, link idx)
    for (std::size_t i = 0; i < spec.links.size(); ++i) {
        std::uint32_t a = index.at(spec.links[i].from);
        std::uint32_t b = index.at(spec.links[i].to);
        adj[a].emplace_back(b, static_cast<std::uint32_t>(i));
        adj[b].emplace_back(a, static_cast<std::uint32_t>(i));
    }
    Reach r;
    r.parent.assign(spec.nodes.size(), Reach::kNone);
    r.via.assign(spec.nodes.size(), Reach::kNone);
    std::deque<std::uint32_t> queue{host};
    r.parent[host] = host;
    while (!queue.empty()) {
        std::uint32_t n = queue.front();
        queue.pop_front();
        for (auto [next, link] : adj[n]) {
            if (r.parent[next] != Reach::kNone)
                continue;
            r.parent[next] = n;
            r.via[next] = link;
            queue.push_back(next);
        }
    }
    return r;
}

void
checkReachability(const TopologySpec &spec, const Reach &r,
                  std::uint32_t host)
{
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        if (r.parent[i] != Reach::kNone)
            continue;
        const NodeSpec &n = spec.nodes[i];
        fail(pathNodes(i) + ": " +
             (n.kind == "drive" ? "drive node" : "node") + " \"" +
             n.name + "\" is unreachable from the host \"" +
             spec.nodes[host].name + "\"");
    }
}

void
checkDrives(const TopologySpec &spec,
            const std::unordered_map<std::string, std::uint32_t> &index,
            std::uint32_t driveCount)
{
    if (spec.drives.size() != driveCount)
        fail("fabric.drives: " + std::to_string(spec.drives.size()) +
             " attachment entries for an array of " +
             std::to_string(driveCount) + " drives");
    std::unordered_set<std::uint32_t> attached;
    for (std::size_t i = 0; i < spec.drives.size(); ++i) {
        auto it = index.find(spec.drives[i]);
        if (it == index.end())
            fail(pathDrives(i) + ": unknown node \"" + spec.drives[i] +
                 "\"");
        const NodeSpec &n = spec.nodes[it->second];
        if (n.kind != "drive")
            fail(pathDrives(i) + ": node \"" + n.name +
                 "\" has kind \"" + n.kind + "\" (must be \"drive\")");
        if (!attached.insert(it->second).second)
            fail(pathDrives(i) + ": node \"" + n.name +
                 "\" attached to more than one drive");
    }
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        if (spec.nodes[i].kind == "drive" &&
            !attached.count(static_cast<std::uint32_t>(i))) {
            fail(pathNodes(i) + ": drive node \"" + spec.nodes[i].name +
                 "\" is not mapped to any array drive in "
                 "fabric.drives");
        }
    }
}

} // namespace

void
TopologySpec::validate(std::uint32_t driveCount) const
{
    if (empty())
        fail("fabric: empty object (declare nodes, links, and drives, "
             "or omit the fabric entirely)");
    auto index = checkNodes(*this);
    std::uint32_t host = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].kind == "host")
            host = static_cast<std::uint32_t>(i);
    checkLinks(*this, index);
    checkReachability(*this, reachFromHost(*this, index, host), host);
    checkDrives(*this, index, driveCount);
}

TopologySpec
makePreset(const std::string &name, std::uint32_t driveCount)
{
    constexpr double kLatencyUs = 1.0;
    constexpr double kUsPerKb = 0.05;
    TopologySpec spec;
    if (name == "flat") {
        spec.nodes.push_back({"host0", "host"});
        for (std::uint32_t d = 0; d < driveCount; ++d) {
            std::string dn = "d" + std::to_string(d);
            spec.nodes.push_back({dn, "drive"});
            spec.links.push_back({"host0", dn, kLatencyUs, kUsPerKb});
            spec.drives.push_back(dn);
        }
        return spec;
    }
    if (name.rfind("tree:", 0) == 0) {
        unsigned s = 0, d = 0;
        char tail = '\0';
        int got = std::sscanf(name.c_str() + 5, "%ux%u%c", &s, &d,
                              &tail);
        if (got != 2 || s == 0 || d == 0)
            throw TopologyError("fabric preset \"" + name +
                                "\": expected \"tree:SxD\" with "
                                "positive switch and drive counts");
        if (static_cast<std::uint64_t>(s) * d != driveCount)
            throw TopologyError(
                "fabric preset \"" + name + "\": describes " +
                std::to_string(static_cast<std::uint64_t>(s) * d) +
                " drives but the array has " +
                std::to_string(driveCount));
        spec.nodes.push_back({"host0", "host"});
        for (unsigned i = 0; i < s; ++i) {
            std::string sw = "sw" + std::to_string(i);
            spec.nodes.push_back({sw, "switch"});
            spec.links.push_back({"host0", sw, kLatencyUs, kUsPerKb});
        }
        for (unsigned i = 0; i < s; ++i) {
            for (unsigned j = 0; j < d; ++j) {
                std::string dn = "d" + std::to_string(i * d + j);
                spec.nodes.push_back({dn, "drive"});
                spec.links.push_back({"sw" + std::to_string(i), dn,
                                      kLatencyUs, kUsPerKb});
                spec.drives.push_back(dn);
            }
        }
        return spec;
    }
    throw TopologyError("fabric preset \"" + name +
                        "\": unknown (expected \"flat\" or "
                        "\"tree:SxD\")");
}

Topology
Topology::compile(const TopologySpec &spec, std::uint32_t driveCount)
{
    spec.validate(driveCount);

    Topology t;
    std::unordered_map<std::string, std::uint32_t> index;
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        const NodeSpec &n = spec.nodes[i];
        Kind k = n.kind == "host"
                     ? Kind::Host
                     : (n.kind == "switch" ? Kind::Switch : Kind::Drive);
        if (k == Kind::Host)
            t.host_ = static_cast<std::uint32_t>(i);
        if (k == Kind::Switch)
            t.switches_.push_back(static_cast<std::uint32_t>(i));
        t.nodes_.push_back({n.name, k});
        index.emplace(n.name, static_cast<std::uint32_t>(i));
    }

    t.min_latency_ = sim::kTickNever;
    for (const LinkSpec &l : spec.links) {
        Link link;
        link.a = index.at(l.from);
        link.b = index.at(l.to);
        link.latency = sim::usec(l.latencyUs);
        link.usPerKb = l.usPerKb;
        if (link.latency < t.min_latency_)
            t.min_latency_ = link.latency;
        t.links_.push_back(link);
    }

    Reach r = reachFromHost(spec, index, t.host_);
    t.attach_.resize(driveCount);
    t.paths_.resize(driveCount);
    for (std::uint32_t d = 0; d < driveCount; ++d) {
        std::uint32_t node = index.at(spec.drives[d]);
        t.attach_[d] = node;
        std::vector<Hop> path;
        for (std::uint32_t n = node; n != t.host_; n = r.parent[n]) {
            Hop hop;
            hop.link = r.via[n];
            hop.forward = t.links_[hop.link].b == n;
            hop.next = n;
            path.push_back(hop);
        }
        t.paths_[d].assign(path.rbegin(), path.rend());
    }
    return t;
}

Topology
Topology::flat(std::uint32_t driveCount, sim::Tick latency)
{
    SSDRR_ASSERT(latency >= 1, "flat fabric link latency must be at "
                               "least one tick");
    Topology t;
    t.nodes_.push_back({"host0", Kind::Host});
    t.min_latency_ = latency;
    for (std::uint32_t d = 0; d < driveCount; ++d) {
        const std::uint32_t node = d + 1;
        t.nodes_.push_back({"d" + std::to_string(d), Kind::Drive});
        t.links_.push_back({t.host_, node, latency, 0.0});
        t.attach_.push_back(node);
        t.paths_.push_back({Hop{d, true, node}});
    }
    return t;
}

std::vector<std::string>
Topology::pathNames(std::uint32_t d) const
{
    std::vector<std::string> names{nodes_[host_].name};
    for (const Hop &h : paths_[d])
        names.push_back(nodes_[h.next].name);
    return names;
}

std::string
Topology::linkName(std::uint32_t l, bool forward) const
{
    const Link &link = links_[l];
    const std::string &a = nodes_[link.a].name;
    const std::string &b = nodes_[link.b].name;
    return forward ? a + "->" + b : b + "->" + a;
}

} // namespace ssdrr::fabric
