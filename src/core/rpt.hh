/**
 * @file
 * Read-timing Parameter Table (RPT) - AR2's profiling artifact
 * (paper Section 6.2, Figure 13).
 *
 * SSD manufacturers profile each chip offline and store, per
 * (P/E-cycle, retention-age) bin, the best safe tPRE value. The
 * controller queries the table when a read failure occurs and
 * applies the reduction with one SET FEATURE command.
 *
 * RptBuilder emulates the offline profiling pass using the
 * ErrorModel: for each bin it evaluates the most pessimistic corner
 * (max PEC, max retention) at the 85C profiling temperature with
 * the 14-bit safety margin (7 temperature + 7 outlier bits).
 */

#ifndef SSDRR_CORE_RPT_HH
#define SSDRR_CORE_RPT_HH

#include <vector>

#include "nand/error_model.hh"
#include "nand/timing.hh"
#include "nand/types.hh"

namespace ssdrr::core {

/**
 * Each axis is a list of increasing bin upper edges. A value v falls
 * in the first bin i with v <= edges[i] (upper edges are inclusive),
 * and a value beyond the last edge clamps to the last, most
 * conservative bin.
 */
class Rpt
{
  public:
    Rpt(std::vector<double> pe_edges, std::vector<double> ret_edges,
        std::vector<double> reductions);

    /** Safe timing reduction for an operating point. */
    nand::TimingReduction lookup(const nand::OperatingPoint &op) const
    {
        return reduction(index(op));
    }

    /** Entry index (pe-major) of the bin holding @p op. */
    std::size_t index(const nand::OperatingPoint &op) const;

    /** Timing reduction of entry @p i (see index()). */
    nand::TimingReduction reduction(std::size_t i) const;

    std::size_t peBins() const { return pe_edges_.size(); }
    std::size_t retBins() const { return ret_edges_.size(); }
    std::size_t entries() const { return reductions_.size(); }

    /** Storage footprint: 4 bytes per entry (paper: ~144 B/chip). */
    std::size_t storageBytes() const { return entries() * 4; }

    double entryAt(std::size_t pe_bin, std::size_t ret_bin) const;
    double peEdge(std::size_t i) const { return pe_edges_[i]; }
    double retEdge(std::size_t i) const { return ret_edges_[i]; }

  private:
    std::size_t binOf(const std::vector<double> &edges, double v) const;

    std::vector<double> pe_edges_;
    std::vector<double> ret_edges_;
    std::vector<double> reductions_; // pe-major
};

/**
 * ErrorModel::timingTerms of every entry of @p rpt, by Rpt::index.
 * The RPT is immutable, so controllers compute these once and skip
 * the expm1() calls of deltaErrors() on every adaptive read.
 */
std::vector<nand::TimingTerms> timingTerms(const Rpt &rpt,
                                           const nand::ErrorModel &model);

class RptBuilder
{
  public:
    explicit RptBuilder(const nand::ErrorModel &model) : model_(model) {}

    /** Paper-like 6x6 grid (36 combinations, 144 bytes). */
    Rpt buildDefault() const;

    /** Custom grid. */
    Rpt build(const std::vector<double> &pe_edges,
              const std::vector<double> &ret_edges) const;

  private:
    const nand::ErrorModel &model_;
};

} // namespace ssdrr::core

#endif // SSDRR_CORE_RPT_HH
