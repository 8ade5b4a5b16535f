#include "host/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/mechanism.hh"
#include "host/scenario_edit.hh"
#include "sim/logging.hh"

namespace ssdrr::host {

using sim::json::Value;

namespace {

[[noreturn]] void
sweepFail(const std::string &msg)
{
    throw SpecError(msg);
}

constexpr const char *kMechanismAxis = "mechanism";

std::string
valueLabel(const Value &v)
{
    return v.isString() ? v.asString() : v.dump(0);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fixed3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

} // namespace

SweepSpec
SweepSpec::fromJson(const Value &v)
{
    if (!v.isObject())
        sweepFail("sweep: expected an object with \"base\" and "
                  "\"axes\", got " +
                  std::string(v.typeName()));
    for (const auto &[key, val] : v.members()) {
        (void)val;
        if (key != "base" && key != "axes")
            sweepFail("sweep: unknown key \"" + key +
                      "\" (expected base, axes)");
    }
    SweepSpec sweep;
    const Value *base = v.find("base");
    if (!base || !base->isObject())
        sweepFail("base: expected the scenario document object" +
                  (base ? ", got " + std::string(base->typeName())
                        : std::string(" (missing)")));
    sweep.base = *base;

    if (const Value *axes = v.find("axes")) {
        if (!axes->isObject())
            sweepFail("axes: expected an object mapping scenario "
                      "paths to value lists, got " +
                      std::string(axes->typeName()));
        for (const auto &[path, vals] : axes->members()) {
            if (!vals.isArray() || vals.elements().empty())
                sweepFail("axes." + path +
                          ": expected a non-empty array of values" +
                          (vals.isArray()
                               ? std::string(" (it is empty)")
                               : ", got " +
                                     std::string(vals.typeName())));
            SweepAxis axis;
            axis.path = path;
            axis.values = vals.elements();
            sweep.axes.push_back(std::move(axis));
        }
    }

    // Fail fast, naming the defect: the base must be a well-formed
    // scenario on its own, and every axis value must survive a
    // structural parse when applied alone — so a typo'd path (which
    // materializes as an unknown key) or a mistyped value is caught
    // here with "axes.<path>[i]" context instead of deep inside some
    // cell's run. Semantic validation (cross-field constraints) is
    // deferred to materialize(), where the full combination exists.
    try {
        (void)ScenarioSpec::fromJson(sweep.base);
    } catch (const SpecError &e) {
        sweepFail("base: " + std::string(e.what()));
    }
    for (const SweepAxis &axis : sweep.axes) {
        for (std::size_t j = 0; j < axis.values.size(); ++j) {
            try {
                (void)applyScenarioEdits(sweep.base,
                                         {{axis.path, axis.values[j]}},
                                         /*validate=*/false);
            } catch (const SpecError &e) {
                sweepFail("axes." + axis.path + "[" +
                          std::to_string(j) +
                          "]: " + std::string(e.what()));
            }
        }
    }

    constexpr std::size_t kMaxCells = 100000;
    if (sweep.cells() > kMaxCells)
        sweepFail("sweep expands to " +
                  std::to_string(sweep.cells()) +
                  " cells (limit " + std::to_string(kMaxCells) +
                  ")");
    return sweep;
}

SweepSpec
SweepSpec::fromJsonText(const std::string &text)
{
    std::string err;
    const Value v = sim::json::parse(text, &err);
    if (!err.empty())
        sweepFail("sweep: " + err);
    return fromJson(v);
}

SweepSpec
SweepSpec::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sweepFail("cannot open sweep file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return fromJsonText(buf.str());
    } catch (const SpecError &e) {
        sweepFail(path + ": " + e.what());
    }
}

std::size_t
SweepSpec::cells() const
{
    std::size_t n = 1;
    for (const SweepAxis &a : axes)
        n *= a.values.size();
    return n;
}

std::vector<std::size_t>
SweepSpec::coordinates(std::size_t cell) const
{
    SSDRR_ASSERT(cell < cells(), "cell ", cell, " out of range");
    std::vector<std::size_t> c(axes.size());
    std::size_t rem = cell;
    for (std::size_t i = axes.size(); i-- > 0;) {
        c[i] = rem % axes[i].values.size();
        rem /= axes[i].values.size();
    }
    return c;
}

std::string
SweepSpec::label(std::size_t cell) const
{
    const std::vector<std::size_t> c = coordinates(cell);
    std::string out;
    for (std::size_t i = 0; i < axes.size(); ++i) {
        if (i)
            out += ' ';
        out += axes[i].path + '=' + valueLabel(axes[i].values[c[i]]);
    }
    return out;
}

ScenarioSpec
SweepSpec::materialize(std::size_t cell) const
{
    const std::vector<std::size_t> c = coordinates(cell);
    std::vector<ScenarioEdit> edits;
    for (std::size_t i = 0; i < axes.size(); ++i)
        edits.push_back({axes[i].path, axes[i].values[c[i]]});
    try {
        return applyScenarioEdits(base, edits);
    } catch (const SpecError &e) {
        sweepFail("cell " + std::to_string(cell) + " (" + label(cell) +
                  "): " + e.what());
    }
}

sim::json::Value
runSweepCell(const SweepSpec &sweep, std::size_t cell,
             TraceCache *cache)
{
    const ScenarioSpec spec = sweep.materialize(cell);
    const std::vector<std::size_t> c = sweep.coordinates(cell);
    Value rows = Value::array();
    for (const std::string &mname : spec.mechanisms) {
        const core::Mechanism mech = core::parseMechanism(mname);
        const ScenarioResult res = runScenario(spec, mech, cache);
        const ssd::RunStats &st = res.array;
        Value row = Value::object();
        row.set("cell", Value(std::uint64_t{cell}));
        row.set("label", Value(sweep.label(cell)));
        Value axv = Value::object();
        for (std::size_t i = 0; i < sweep.axes.size(); ++i)
            axv.set(sweep.axes[i].path, sweep.axes[i].values[c[i]]);
        row.set("axes", std::move(axv));
        row.set("mechanism", Value(mname));
        row.set("status", Value("ok"));
        row.set("reads", Value(st.reads));
        row.set("writes", Value(st.writes));
        row.set("retrySamples", Value(st.retrySamples));
        row.set("avgRetrySteps", Value(st.avgRetrySteps));
        row.set("p50ReadUs", Value(st.p50ReadResponseUs));
        row.set("p99ReadUs", Value(st.p99ReadResponseUs));
        row.set("p999ReadUs", Value(st.p999ReadResponseUs));
        row.set("simulatedMs", Value(st.simulatedMs));
        row.set("executedEvents", Value(st.executedEvents));
        row.set("cacheHits", Value(st.cacheHits));
        row.set("cacheMisses", Value(st.cacheMisses));
        row.set("prefetchIssued", Value(st.prefetchIssued));
        row.set("prefetchUseful", Value(st.prefetchUseful));
        row.set("hostTimeouts", Value(st.hostTimeouts));
        row.set("hostRetries", Value(st.hostRetries));
        row.set("hostFailovers", Value(st.hostFailovers));
        row.set("ueccReads", Value(st.ueccReads));
        row.set("failedRequests", Value(st.failedRequests));
        row.set("degradedReads", Value(st.degradedReads));
        row.set("rebuildReads", Value(st.rebuildReads));
        std::uint64_t fabric_msgs = 0;
        for (const auto &l : st.fabricLinks)
            fabric_msgs += l.messages;
        row.set("fabricMessages", Value(fabric_msgs));
        row.set("avgFabricWaitUs", Value(st.avgFabricWaitUs));
        rows.push(std::move(row));
    }
    return rows;
}

sim::json::Value
sweepErrorRow(const SweepSpec &sweep, std::size_t cell, int exit_code,
              const std::string &message)
{
    const std::vector<std::size_t> c = sweep.coordinates(cell);
    Value row = Value::object();
    row.set("cell", Value(std::uint64_t{cell}));
    row.set("label", Value(sweep.label(cell)));
    Value axv = Value::object();
    for (std::size_t i = 0; i < sweep.axes.size(); ++i)
        axv.set(sweep.axes[i].path, sweep.axes[i].values[c[i]]);
    row.set("axes", std::move(axv));
    row.set("status", Value("error"));
    row.set("exit", Value(static_cast<double>(exit_code)));
    row.set("message", Value(message));
    return row;
}

sim::json::Value
aggregateSweep(const SweepSpec &sweep,
               const std::vector<sim::json::Value> &cell_results)
{
    SSDRR_ASSERT(cell_results.size() == sweep.cells(),
                 "expected one result per cell");
    Value doc = Value::object();
    doc.set("schema", Value("ssdrr-sweep-aggregate-v1"));
    doc.set("cells", Value(std::uint64_t{sweep.cells()}));
    Value axes = Value::object();
    for (const SweepAxis &a : sweep.axes) {
        Value vals = Value::array();
        for (const Value &v : a.values)
            vals.push(v);
        axes.set(a.path, std::move(vals));
    }
    doc.set("axes", std::move(axes));
    Value rows = Value::array();
    for (std::size_t i = 0; i < cell_results.size(); ++i) {
        const Value &r = cell_results[i];
        if (r.isArray()) {
            for (const Value &row : r.elements())
                rows.push(row);
        } else if (r.isObject()) {
            rows.push(r);
        } else {
            rows.push(sweepErrorRow(sweep, i, -1,
                                    "missing cell result"));
        }
    }
    doc.set("rows", std::move(rows));
    doc.set("digest", Value(hex16(fnv1a(doc.find("rows")->dump(0)))));
    return doc;
}

std::string
sweepDigest(const sim::json::Value &aggregate)
{
    const Value *d = aggregate.find("digest");
    SSDRR_ASSERT(d && d->isString(), "aggregate has no digest");
    return d->asString();
}

std::string
sweepTable(const sim::json::Value &aggregate)
{
    const Value *rows = aggregate.find("rows");
    const Value *axes = aggregate.find("axes");
    SSDRR_ASSERT(rows && rows->isArray() && axes && axes->isObject(),
                 "not a sweep aggregate");
    std::vector<std::string> axis_paths;
    for (const auto &[path, vals] : axes->members()) {
        (void)vals;
        // The fixed mechanism column already shows this axis.
        if (path != kMechanismAxis)
            axis_paths.push_back(path);
    }

    std::vector<std::string> head = {"cell", "mechanism"};
    for (const std::string &p : axis_paths)
        head.push_back(p);
    for (const char *col :
         {"status", "reads", "p50us", "p99us", "p999us", "simMs",
          "events", "note"})
        head.push_back(col);

    const auto cellStr = [](const Value *v) {
        if (!v)
            return std::string("-");
        if (v->isString())
            return v->asString();
        if (v->isNumber()) {
            const double n = v->asNumber();
            if (n == static_cast<std::uint64_t>(n))
                return std::to_string(
                    static_cast<std::uint64_t>(n));
            return fixed3(n);
        }
        return v->dump(0);
    };

    std::vector<std::vector<std::string>> table = {head};
    for (const Value &row : rows->elements()) {
        std::vector<std::string> cells;
        cells.push_back(cellStr(row.find("cell")));
        cells.push_back(cellStr(row.find("mechanism")));
        const Value *axv = row.find("axes");
        for (const std::string &p : axis_paths)
            cells.push_back(cellStr(axv ? axv->find(p) : nullptr));
        cells.push_back(cellStr(row.find("status")));
        const bool ok = row.find("mechanism") != nullptr;
        const auto stat = [&](const char *key, bool fixed) {
            const Value *v = row.find(key);
            if (!ok || !v || !v->isNumber())
                return std::string("-");
            return fixed ? fixed3(v->asNumber()) : cellStr(v);
        };
        cells.push_back(stat("reads", false));
        cells.push_back(stat("p50ReadUs", true));
        cells.push_back(stat("p99ReadUs", true));
        cells.push_back(stat("p999ReadUs", true));
        cells.push_back(stat("simulatedMs", true));
        cells.push_back(stat("executedEvents", false));
        const Value *msg = row.find("message");
        std::string note =
            msg && msg->isString() ? msg->asString() : "";
        const Value *exit = row.find("exit");
        if (exit && exit->isNumber())
            note = "exit " +
                   std::to_string(
                       static_cast<int>(exit->asNumber())) +
                   (note.empty() ? "" : ": " + note);
        cells.push_back(note);
        table.push_back(std::move(cells));
    }

    std::vector<std::size_t> width(head.size(), 0);
    for (const auto &r : table)
        for (std::size_t i = 0; i < r.size(); ++i)
            width[i] = std::max(width[i], r[i].size());

    // cell + the numeric stats right-align; labels left-align. The
    // note column is last and un-padded so error text never trails
    // whitespace.
    std::string out;
    for (const auto &r : table) {
        for (std::size_t i = 0; i < r.size(); ++i) {
            if (i)
                out += "  ";
            if (i + 1 == r.size()) {
                out += r[i];
            } else if (i == 0 || i + 7 >= head.size()) {
                out.append(width[i] - r[i].size(), ' ');
                out += r[i];
            } else {
                out += r[i];
                out.append(width[i] - r[i].size(), ' ');
            }
        }
        // rstrip: an empty note must not leave padding behind.
        while (!out.empty() && out.back() == ' ')
            out.pop_back();
        out += '\n';
    }
    out += "digest: " + sweepDigest(aggregate) + "\n";
    return out;
}

} // namespace ssdrr::host
