/**
 * @file
 * Tests for the Read-timing Parameter Table and its offline builder
 * (paper Section 6.2, Figure 13).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/rpt.hh"

namespace ssdrr::core {
namespace {

TEST(Rpt, LookupSelectsCorrectBin)
{
    // 2 PE bins x 2 retention bins with distinct values.
    const Rpt rpt({1.0, 2.0}, {6.0, 12.0}, {0.54, 0.47, 0.47, 0.40});
    EXPECT_DOUBLE_EQ(rpt.lookup({0.5, 3.0, 30.0}).pre, 0.54);
    EXPECT_DOUBLE_EQ(rpt.lookup({0.5, 9.0, 30.0}).pre, 0.47);
    EXPECT_DOUBLE_EQ(rpt.lookup({1.5, 3.0, 30.0}).pre, 0.47);
    EXPECT_DOUBLE_EQ(rpt.lookup({1.5, 9.0, 30.0}).pre, 0.40);
}

TEST(Rpt, BinEdgesAreInclusiveUpper)
{
    const Rpt rpt({1.0, 2.0}, {6.0, 12.0}, {0.54, 0.47, 0.47, 0.40});
    EXPECT_DOUBLE_EQ(rpt.lookup({1.0, 6.0, 30.0}).pre, 0.54)
        << "exactly at the edge belongs to the lower bin";
}

TEST(Rpt, BeyondProfiledRangeClampsToMostConservativeBin)
{
    const Rpt rpt({1.0, 2.0}, {6.0, 12.0}, {0.54, 0.47, 0.47, 0.40});
    EXPECT_DOUBLE_EQ(rpt.lookup({5.0, 24.0, 30.0}).pre, 0.40);
}

TEST(Rpt, IndexHonorsInclusiveEdgesAndClampsOnBothAxes)
{
    // Entries are pe-major: index = pe_bin * 2 + ret_bin.
    const Rpt rpt({1.0, 2.0}, {6.0, 12.0}, {0.54, 0.47, 0.46, 0.40});
    EXPECT_EQ(rpt.index({1.0, 6.0, 30.0}), 0u) << "on both first edges";
    EXPECT_EQ(rpt.index({1.0, 12.0, 30.0}), 1u);
    EXPECT_EQ(rpt.index({2.0, 6.0, 30.0}), 2u);
    EXPECT_EQ(rpt.index({2.0, 12.0, 30.0}), 3u) << "on both last edges";
    EXPECT_EQ(rpt.index({1.0000001, 6.0000001, 30.0}), 3u)
        << "just above an edge is the next bin";
    EXPECT_EQ(rpt.index({2.5, 3.0, 30.0}), 2u) << "P/E beyond the last edge";
    EXPECT_EQ(rpt.index({0.5, 24.0, 30.0}), 1u)
        << "retention beyond the last edge";
    EXPECT_EQ(rpt.index({9.0, 99.0, 30.0}), 3u);
    for (const nand::OperatingPoint op :
         {nand::OperatingPoint{1.0, 6.0, 30.0}, {2.0, 12.0, 85.0},
          {9.0, 99.0, 55.0}})
        EXPECT_EQ(rpt.lookup(op).pre, rpt.reduction(rpt.index(op)).pre);
    EXPECT_THROW(rpt.reduction(4), std::logic_error);
}

TEST(Rpt, LookupOnlyReducesPrecharge)
{
    const Rpt rpt({1.0}, {6.0}, {0.47});
    const nand::TimingReduction r = rpt.lookup({0.5, 3.0, 30.0});
    EXPECT_GT(r.pre, 0.0);
    EXPECT_DOUBLE_EQ(r.eval, 0.0) << "AR2 never touches tEVAL (5.2.1)";
    EXPECT_DOUBLE_EQ(r.disch, 0.0) << "AR2 never touches tDISCH (5.2.2)";
}

TEST(Rpt, StorageFootprintMatchesPaper)
{
    // Section 6.2: "with 36 (PEC, tRET) combinations, we estimate
    // the table size to be only 144 bytes per chip".
    const nand::ErrorModel model;
    const Rpt rpt = RptBuilder(model).buildDefault();
    EXPECT_EQ(rpt.entries(), 36u);
    EXPECT_EQ(rpt.storageBytes(), 144u);
    EXPECT_EQ(rpt.peBins(), 6u);
    EXPECT_EQ(rpt.retBins(), 6u);
}

TEST(Rpt, DefaultTableEntriesWithinPaperRange)
{
    // Fig. 11: min 40%, max 54% reduction across all conditions.
    const nand::ErrorModel model;
    const Rpt rpt = RptBuilder(model).buildDefault();
    for (std::size_t pe = 0; pe < rpt.peBins(); ++pe) {
        for (std::size_t rt = 0; rt < rpt.retBins(); ++rt) {
            const double x = rpt.entryAt(pe, rt);
            EXPECT_GE(x, 0.40) << "bin (" << pe << "," << rt << ")";
            EXPECT_LE(x, 0.54) << "bin (" << pe << "," << rt << ")";
        }
    }
}

TEST(Rpt, EntriesMonotoneInBothAxes)
{
    // Worse conditions never allow a larger reduction.
    const nand::ErrorModel model;
    const Rpt rpt = RptBuilder(model).buildDefault();
    for (std::size_t pe = 0; pe < rpt.peBins(); ++pe)
        for (std::size_t rt = 0; rt + 1 < rpt.retBins(); ++rt)
            EXPECT_GE(rpt.entryAt(pe, rt), rpt.entryAt(pe, rt + 1));
    for (std::size_t rt = 0; rt < rpt.retBins(); ++rt)
        for (std::size_t pe = 0; pe + 1 < rpt.peBins(); ++pe)
            EXPECT_GE(rpt.entryAt(pe, rt), rpt.entryAt(pe + 1, rt));
}

TEST(Rpt, BuilderHonorsCustomGrid)
{
    const nand::ErrorModel model;
    const Rpt rpt = RptBuilder(model).build({2.0}, {12.0});
    EXPECT_EQ(rpt.entries(), 1u);
    // Single worst-case bin must equal the model's direct answer.
    EXPECT_DOUBLE_EQ(rpt.entryAt(0, 0),
                     model.maxSafePreReduction({2.0, 12.0, 85.0}));
}

TEST(Rpt, LookupAgreesWithModelAtBinCorners)
{
    // The table is profiled at each bin's pessimistic corner: a
    // lookup anywhere in the bin returns a reduction that is safe at
    // the corner, hence safe in the whole bin (monotonicity).
    const nand::ErrorModel model;
    const Rpt rpt = RptBuilder(model).buildDefault();
    for (double pe : {0.1, 0.7, 1.2, 1.9}) {
        for (double ret : {0.5, 2.5, 5.0, 11.0}) {
            const nand::OperatingPoint op{pe, ret, 85.0};
            const double table = rpt.lookup(op).pre;
            const double direct = model.maxSafePreReduction(op);
            EXPECT_LE(table, direct + 1e-9)
                << "table must never be more aggressive than direct "
                   "profiling at ("
                << pe << ", " << ret << ")";
        }
    }
}

bool
sameBits(double a, double b)
{
    std::uint64_t x, y;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

/**
 * dM_ERR as one formula, with each term added only when its
 * reduction is present: the reference the TimingTerms split must
 * reproduce bit for bit.
 */
double
referenceDeltaErrors(const nand::Calibration &cal,
                     const nand::TimingReduction &red,
                     const nand::OperatingPoint &op)
{
    const double ret = std::log1p(op.retentionMonths / cal.nTau);
    const double g = (1.0 + cal.gPe * op.peKilo) * (1.0 + cal.gRet * ret);
    const double x_pre_eff = red.pre + cal.dischCoupling * red.disch;
    double d = 0.0;
    if (x_pre_eff > 0.0) {
        d += cal.aPre * g * std::expm1(x_pre_eff / cal.xPre);
        if (x_pre_eff > cal.cliffStart)
            d += cal.cliffSlope * (x_pre_eff - cal.cliffStart);
    }
    if (red.eval > 0.0)
        d += cal.aEval * g * std::expm1(red.eval / cal.xEval);
    if (red.disch > 0.0)
        d += cal.aDisch * g * std::expm1(red.disch / cal.xDisch);
    const double f = std::clamp((85.0 - op.temperatureC) / 55.0, 0.0, 1.5);
    d += std::min(cal.tTemp * d, cal.tTempCap) * f;
    return std::min(d, 4096.0);
}

TEST(TimingTerms, PrecomputedRptTermsMatchDeltaErrorsBitwise)
{
    const nand::ErrorModel model;
    const Rpt rpt = RptBuilder(model).buildDefault();
    const std::vector<nand::TimingTerms> terms = timingTerms(rpt, model);
    ASSERT_EQ(terms.size(), rpt.entries());

    // Beyond the RPT (which cuts tPRE only): no reduction, reductions
    // past the precharge cliff (directly, and through the tDISCH
    // coupling), and nonzero tEVAL/tDISCH cuts.
    auto red = [](double pre, double eval, double disch) {
        nand::TimingReduction r;
        r.pre = pre;
        r.eval = eval;
        r.disch = disch;
        return r;
    };
    const std::vector<nand::TimingReduction> extra_reds = {
        red(0.0, 0.0, 0.0),   red(0.6, 0.0, 0.0),  red(0.54, 0.0, 0.2),
        red(0.0, 0.1, 0.0),   red(0.0, 0.0, 0.27), red(0.0, 0.2, 0.07),
        red(0.47, 0.1, 0.27), red(0.9, 0.5, 0.5),
    };
    const nand::Calibration &cal = model.cal();
    ASSERT_GT(0.54 + cal.dischCoupling * 0.2, cal.cliffStart);

    int checked = 0;
    for (double pe : {0.0, 1.0, 2.0, 3.0}) {
        for (double ret : {0.0, 1.0, 6.0, 12.0, 24.0}) {
            for (double temp : {30.0, 55.0, 85.0}) {
                const nand::OperatingPoint op{pe, ret, temp};
                for (std::size_t i = 0; i < rpt.entries(); ++i) {
                    const nand::TimingReduction r = rpt.reduction(i);
                    const double want = referenceDeltaErrors(cal, r, op);
                    EXPECT_TRUE(sameBits(model.deltaErrors(r, op), want))
                        << "entry " << i;
                    EXPECT_TRUE(sameBits(model.deltaErrors(terms[i], op),
                                         want))
                        << "entry " << i;
                    ++checked;
                }
                for (const nand::TimingReduction &r : extra_reds) {
                    const double want = referenceDeltaErrors(cal, r, op);
                    EXPECT_TRUE(sameBits(model.deltaErrors(r, op), want))
                        << r.pre << "/" << r.eval << "/" << r.disch;
                    EXPECT_TRUE(sameBits(
                        model.deltaErrors(model.timingTerms(r), op), want))
                        << r.pre << "/" << r.eval << "/" << r.disch;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 60 * (36 + 8));
}

TEST(Rpt, ConstructionValidatesShape)
{
    EXPECT_THROW(Rpt({}, {1.0}, {}), std::logic_error);
    EXPECT_THROW(Rpt({1.0}, {1.0}, {0.4, 0.4}), std::logic_error)
        << "entry count mismatch";
    EXPECT_THROW(Rpt({2.0, 1.0}, {1.0}, {0.4, 0.4}), std::logic_error)
        << "edges must increase";
    EXPECT_THROW(Rpt({1.0}, {2.0, 2.0}, {0.4, 0.4}), std::logic_error);
}

TEST(Rpt, EntryAtValidatesBin)
{
    const Rpt rpt({1.0}, {1.0}, {0.4});
    EXPECT_THROW(rpt.entryAt(1, 0), std::logic_error);
    EXPECT_THROW(rpt.entryAt(0, 1), std::logic_error);
}

} // namespace
} // namespace ssdrr::core
