#include "core/rpt.hh"

#include "sim/logging.hh"

namespace ssdrr::core {

Rpt::Rpt(std::vector<double> pe_edges, std::vector<double> ret_edges,
         std::vector<double> reductions)
    : pe_edges_(std::move(pe_edges)), ret_edges_(std::move(ret_edges)),
      reductions_(std::move(reductions))
{
    SSDRR_ASSERT(!pe_edges_.empty() && !ret_edges_.empty(),
                 "RPT needs at least one bin per axis");
    SSDRR_ASSERT(reductions_.size() == pe_edges_.size() * ret_edges_.size(),
                 "RPT entry count mismatch");
    for (std::size_t i = 1; i < pe_edges_.size(); ++i)
        SSDRR_ASSERT(pe_edges_[i] > pe_edges_[i - 1],
                     "PE edges must increase");
    for (std::size_t i = 1; i < ret_edges_.size(); ++i)
        SSDRR_ASSERT(ret_edges_[i] > ret_edges_[i - 1],
                     "retention edges must increase");
}

std::size_t
Rpt::binOf(const std::vector<double> &edges, double v) const
{
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (v <= edges[i])
            return i;
    }
    // Beyond the profiled range: clamp to the most conservative bin.
    return edges.size() - 1;
}

std::size_t
Rpt::index(const nand::OperatingPoint &op) const
{
    const std::size_t pe = binOf(pe_edges_, op.peKilo);
    const std::size_t rt = binOf(ret_edges_, op.retentionMonths);
    return pe * ret_edges_.size() + rt;
}

nand::TimingReduction
Rpt::reduction(std::size_t i) const
{
    SSDRR_ASSERT(i < reductions_.size(), "RPT entry out of range");
    nand::TimingReduction red;
    red.pre = reductions_[i];
    return red;
}

double
Rpt::entryAt(std::size_t pe_bin, std::size_t ret_bin) const
{
    SSDRR_ASSERT(pe_bin < pe_edges_.size() && ret_bin < ret_edges_.size(),
                 "RPT bin out of range");
    return reductions_[pe_bin * ret_edges_.size() + ret_bin];
}

std::vector<nand::TimingTerms>
timingTerms(const Rpt &rpt, const nand::ErrorModel &model)
{
    std::vector<nand::TimingTerms> terms;
    terms.reserve(rpt.entries());
    for (std::size_t i = 0; i < rpt.entries(); ++i)
        terms.push_back(model.timingTerms(rpt.reduction(i)));
    return terms;
}

Rpt
RptBuilder::build(const std::vector<double> &pe_edges,
                  const std::vector<double> &ret_edges) const
{
    std::vector<double> reductions;
    reductions.reserve(pe_edges.size() * ret_edges.size());
    for (double pe : pe_edges) {
        for (double ret : ret_edges) {
            // Profile the pessimistic bin corner at 85C; the safety
            // margin inside maxSafePreReduction covers temperature
            // and outlier pages (Section 5.2.3).
            nand::OperatingPoint corner{pe, ret, 85.0};
            reductions.push_back(model_.maxSafePreReduction(corner));
        }
    }
    return Rpt(pe_edges, ret_edges, std::move(reductions));
}

Rpt
RptBuilder::buildDefault() const
{
    // 6 x 6 = 36 combinations (paper Section 6.2: "with 36
    // (PEC, tRET) combinations ... 144 bytes per chip"), spanning
    // the paper's evaluated range: up to 2K P/E cycles and a 1-year
    // retention age (Figures 5, 11, 14).
    const std::vector<double> pe_edges = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
    const std::vector<double> ret_edges = {1.0, 2.0, 3.0, 6.0, 9.0, 12.0};
    return build(pe_edges, ret_edges);
}

} // namespace ssdrr::core
