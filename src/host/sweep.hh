/**
 * @file
 * Grid-of-scenarios sweep: a base ScenarioSpec plus named axes, each
 * a JSON path into the scenario document with a list of values. The
 * cross product of the axis values is expanded into concrete,
 * validated ScenarioSpecs — one cell per combination — and the
 * per-cell results are folded into a single deterministic aggregate
 * (JSON document + aligned text table + digest) whose bytes never
 * depend on how many worker processes ran the cells or in which
 * order they finished.
 *
 * Sweep file schema:
 *
 *     {
 *       "base": { <any scenario-spec document> },
 *       "axes": {
 *         "mechanism": ["Baseline", "PnAR2"],
 *         "ssd.pecKilo": [1, 3],
 *         "tenants[0].workload": ["usr_1", "YCSB-C"]
 *       }
 *     }
 *
 * Axis paths are scenario edit paths (host/scenario_edit.hh, the
 * grammar of `ssdrr_sim --set`): dot-separated keys with [N] array
 * indexing, plus the "mechanism" and "fabric.preset" sugars. A cell
 * is the base with one edit per axis, applied in axis order.
 *
 * Expansion is row-major with the first axis slowest, in the file's
 * axis order (the JSON codec preserves insertion order). Every axis
 * value is structurally checked at load time against the scenario
 * schema, so a typo'd path or a mistyped value fails fast with the
 * axis named ("axes.<path>[i]: ..."); full semantic validation runs
 * per cell at materialization, prefixed with the cell's label.
 */

#ifndef SSDRR_HOST_SWEEP_HH
#define SSDRR_HOST_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "host/scenario_spec.hh"
#include "sim/json.hh"

namespace ssdrr::host {

/** One sweep dimension: a scenario-JSON path and its value list. */
struct SweepAxis {
    std::string path;
    std::vector<sim::json::Value> values;
};

struct SweepSpec {
    /** The scenario document every cell starts from. */
    sim::json::Value base;
    /** Axes in file order; first varies slowest. */
    std::vector<SweepAxis> axes;

    /** Parse + structurally check a sweep document. @throws SpecError
     *  naming "base" or "axes.<path>[i]" on any defect. */
    static SweepSpec fromJson(const sim::json::Value &v);
    static SweepSpec fromJsonText(const std::string &text);
    static SweepSpec loadFile(const std::string &path);

    /** Cross-product size (1 when there are no axes). */
    std::size_t cells() const;

    /** Per-axis value indices of @p cell (row-major, first axis
     *  slowest). @p cell must be < cells(). */
    std::vector<std::size_t> coordinates(std::size_t cell) const;

    /** "path=value path=value ..." — stable human-readable cell key
     *  used in error messages, result rows, and the text table. */
    std::string label(std::size_t cell) const;

    /**
     * Materialize and validate the concrete spec for one cell.
     * @throws SpecError with the cell label prefixed when the
     * combination is semantically invalid (an axis can be
     * structurally fine yet invalid against another axis's value —
     * e.g. a failed-drive index beyond the cell's drive count).
     */
    ScenarioSpec materialize(std::size_t cell) const;
};

/**
 * Run one cell through every mechanism of its materialized spec.
 * Returns a JSON array of row objects (cell index, label, axis
 * values, mechanism, status "ok", and the result's headline stats
 * and robustness counters). @throws SpecError / sim errors on an
 * invalid or failing cell — callers map that to an error row.
 */
sim::json::Value runSweepCell(const SweepSpec &sweep, std::size_t cell,
                              TraceCache *cache = nullptr);

/**
 * Build an error row for a cell that failed to run (nonzero child
 * exit, or an in-process exception): status "error", the exit code,
 * and the failure message — so one bad cell degrades its rows, not
 * the whole table.
 */
sim::json::Value sweepErrorRow(const SweepSpec &sweep,
                               std::size_t cell, int exit_code,
                               const std::string &message);

/**
 * Fold per-cell results (indexed by cell; each either the array
 * runSweepCell returned or a sweepErrorRow object) into the
 * aggregate document: {"schema", "cells", "axes", "rows", "digest"}.
 * Rows are ordered by (cell, mechanism) regardless of the order
 * results were produced, so the dump is byte-stable under any job
 * count or completion order.
 */
sim::json::Value
aggregateSweep(const SweepSpec &sweep,
               const std::vector<sim::json::Value> &cell_results);

/** The aggregate's FNV-1a digest (16 hex chars), as stored in its
 *  "digest" member: computed over the compact dump of "rows". */
std::string sweepDigest(const sim::json::Value &aggregate);

/** Aligned-column text rendering of an aggregate (ends with the
 *  digest line), byte-stable for a given aggregate. */
std::string sweepTable(const sim::json::Value &aggregate);

} // namespace ssdrr::host

#endif // SSDRR_HOST_SWEEP_HH
