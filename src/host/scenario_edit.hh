/**
 * @file
 * Path edits of a scenario document: the one grammar behind
 * `ssdrr_sim --scenario FILE --set path=value` and the axes of an
 * `ssdrr_sweep` grid.
 *
 * A path is dot-separated keys into the scenario JSON document, with
 * [N] indexing into arrays: "ssd.pecKilo", "tenants[0].workload",
 * "host.filters[1].sizeBytes". Intermediate objects are created on
 * demand, so an edit can introduce an optional section ("fabric",
 * "host.filters"); array elements must already exist — an edit never
 * grows an array implicitly, that is always a typo'd index. Assigning
 * a whole array ("tenants", "faults", "host.filters") replaces it.
 *
 * Two sugars cover fields whose spec encoding is not a single scalar:
 *   - "mechanism": one mechanism name; the scenario runs exactly that
 *     mechanism (its "mechanisms" list becomes [name]).
 *   - "fabric.preset": a topology preset name ("flat", "tree:SxD"),
 *     materialized against the drive count once every edit is in, so
 *     a later "drives" edit is honored.
 */

#ifndef SSDRR_HOST_SCENARIO_EDIT_HH
#define SSDRR_HOST_SCENARIO_EDIT_HH

#include <string>
#include <vector>

#include "host/scenario_spec.hh"
#include "sim/json.hh"

namespace ssdrr::host {

/** One `path=value` assignment into a scenario document. */
struct ScenarioEdit {
    std::string path;
    sim::json::Value value;
};

/**
 * Parse a command-line "path=value" edit. The value is parsed as
 * JSON (numbers, true/false, [...] and {...}); text that does not
 * parse is taken as a JSON string, so `mechanism=PnAR2` and
 * `fabric.preset=tree:2x2` need no quoting.
 * @throws SpecError when there is no '=' or the path is empty
 */
ScenarioEdit parseScenarioEdit(const std::string &text);

/**
 * Apply @p edits to the scenario document @p doc in order (a later
 * edit of the same path wins) and parse the result. With @p validate
 * (the default) a "fabric.preset" edit is then materialized against
 * the final drive count and the spec is fully validated; without it
 * only the structural parse runs (keys and types, no cross-field
 * constraints).
 * @throws SpecError naming the offending path
 */
ScenarioSpec applyScenarioEdits(sim::json::Value doc,
                                const std::vector<ScenarioEdit> &edits,
                                bool validate = true);

} // namespace ssdrr::host

#endif // SSDRR_HOST_SCENARIO_EDIT_HH
