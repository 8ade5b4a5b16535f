#include "host/scenario_edit.hh"

#include <utility>

#include "core/mechanism.hh"
#include "fabric/topology.hh"

namespace ssdrr::host {

using sim::json::Value;

namespace {

constexpr const char *kMechanismPath = "mechanism";
constexpr const char *kFabricPresetPath = "fabric.preset";

[[noreturn]] void
editFail(const std::string &path, const std::string &msg)
{
    throw SpecError(path + ": " + msg);
}

/** find() that lets us descend into a document we own mutably. */
Value *
mutFind(Value &obj, const std::string &key)
{
    return const_cast<Value *>(
        static_cast<const Value &>(obj).find(key));
}

/** One "name[i][j]" piece of a dotted path. */
struct PathSeg {
    std::string key;
    std::vector<std::size_t> indices;
};

std::vector<PathSeg>
parsePath(const std::string &path)
{
    std::vector<PathSeg> segs;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t dot = path.find('.', pos);
        if (dot == std::string::npos)
            dot = path.size();
        const std::string token = path.substr(pos, dot - pos);
        PathSeg seg;
        std::size_t br = token.find('[');
        seg.key = token.substr(0, br);
        if (seg.key.empty())
            editFail(path, "empty key segment");
        while (br != std::string::npos) {
            const std::size_t close = token.find(']', br);
            const std::string digits =
                close == std::string::npos
                    ? std::string()
                    : token.substr(br + 1, close - br - 1);
            if (digits.empty() ||
                digits.find_first_not_of("0123456789") !=
                    std::string::npos)
                editFail(path,
                         "malformed array index in \"" + token + "\"");
            seg.indices.push_back(std::stoul(digits));
            br = token.find('[', close);
            if (br != std::string::npos && br != close + 1)
                editFail(path,
                         "malformed array index in \"" + token + "\"");
        }
        segs.push_back(std::move(seg));
        pos = dot + 1;
    }
    return segs;
}

/** Assign @p val at the literal @p path inside @p root. */
void
setJsonPath(Value &root, const std::string &path, const Value &val)
{
    const std::vector<PathSeg> segs = parsePath(path);
    Value *cur = &root;
    std::string seen;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        const PathSeg &s = segs[i];
        const bool last = i + 1 == segs.size();
        if (!cur->isObject())
            editFail(path, (seen.empty() ? "the document" : seen) +
                               " is not an object");
        Value *child = mutFind(*cur, s.key);
        if (last && s.indices.empty()) {
            cur->set(s.key, val);
            return;
        }
        if (!child) {
            if (!s.indices.empty())
                editFail(path, "\"" + s.key +
                                   "\" does not exist in the document");
            cur->set(s.key, Value::object());
            child = mutFind(*cur, s.key);
        }
        seen += (seen.empty() ? "" : ".") + s.key;
        for (std::size_t idx : s.indices) {
            if (!child->isArray())
                editFail(path, seen + " is not an array");
            if (idx >= child->elements().size())
                editFail(path,
                         "index " + std::to_string(idx) +
                             " out of range for " + seen + " (size " +
                             std::to_string(child->elements().size()) +
                             ")");
            child = &const_cast<Value &>(child->elements()[idx]);
            seen += "[" + std::to_string(idx) + "]";
        }
        if (last) {
            *child = val;
            return;
        }
        cur = child;
    }
}

} // namespace

ScenarioEdit
parseScenarioEdit(const std::string &text)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos)
        throw SpecError("expected path=value, got \"" + text + "\"");
    if (eq == 0)
        throw SpecError("empty path in \"" + text + "\"");
    ScenarioEdit edit;
    edit.path = text.substr(0, eq);
    const std::string raw = text.substr(eq + 1);
    std::string err;
    edit.value = sim::json::parse(raw, &err);
    if (!err.empty())
        edit.value = Value(raw);
    return edit;
}

ScenarioSpec
applyScenarioEdits(Value doc, const std::vector<ScenarioEdit> &edits,
                   bool validate)
{
    std::string preset;
    for (const ScenarioEdit &e : edits) {
        if (e.path == kMechanismPath) {
            if (!e.value.isString() ||
                !core::tryParseMechanism(e.value.asString(), nullptr))
                editFail(e.path,
                         "expected a mechanism name, got " +
                             (e.value.isString()
                                  ? "\"" + e.value.asString() + "\""
                                  : std::string(e.value.typeName())));
            Value mechs = Value::array();
            mechs.push(e.value);
            doc.set("mechanisms", std::move(mechs));
        } else if (e.path == kFabricPresetPath) {
            // Document-invisible: the topology depends on the final
            // drive count, so it materializes after the parse.
            if (!e.value.isString())
                editFail(e.path, "expected a topology preset name, got " +
                                     std::string(e.value.typeName()));
            preset = e.value.asString();
        } else {
            setJsonPath(doc, e.path, e.value);
        }
    }
    ScenarioSpec spec = ScenarioSpec::fromJson(doc);
    if (!validate)
        return spec;
    if (!preset.empty()) {
        try {
            spec.fabric = fabric::makePreset(preset, spec.drives);
        } catch (const fabric::TopologyError &e) {
            editFail(kFabricPresetPath, e.what());
        }
    }
    spec.validate();
    return spec;
}

} // namespace ssdrr::host
