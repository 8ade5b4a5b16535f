/**
 * @file
 * Behavioural and property tests for the NAND error model beyond the
 * paper's numeric anchors (those live in error_model_anchor_test.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/rpt.hh"
#include "nand/error_model.hh"

namespace ssdrr::nand {
namespace {

TEST(ErrorModel, ProfilesAreDeterministicPerCoordinates)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 55.0};
    const PageErrorProfile a = m.pageProfile(2, 30, 7, op);
    const PageErrorProfile b = m.pageProfile(2, 30, 7, op);
    EXPECT_EQ(a.retrySteps, b.retrySteps);
    EXPECT_DOUBLE_EQ(a.finalErrors, b.finalErrors);
    EXPECT_DOUBLE_EQ(a.decayRatio, b.decayRatio);
}

TEST(ErrorModel, DifferentPagesDiffer)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    int distinct = 0;
    const PageErrorProfile first = m.pageProfile(0, 0, 0, op);
    for (int p = 1; p < 50; ++p) {
        const PageErrorProfile prof = m.pageProfile(0, 0, p, op);
        if (prof.retrySteps != first.retrySteps ||
            prof.finalErrors != first.finalErrors)
            ++distinct;
    }
    EXPECT_GT(distinct, 40) << "process variation must differentiate pages";
}

TEST(ErrorModel, DifferentSeedsGiveDifferentPopulations)
{
    const ErrorModel m1(Calibration{}, 1);
    const ErrorModel m2(Calibration{}, 2);
    const OperatingPoint op{1.0, 6.0, 85.0};
    int distinct = 0;
    for (int p = 0; p < 50; ++p) {
        if (m1.pageProfile(0, 0, p, op).retrySteps !=
            m2.pageProfile(0, 0, p, op).retrySteps)
            ++distinct;
    }
    EXPECT_GT(distinct, 10);
}

TEST(ErrorModel, RetryStepsClampToTableSize)
{
    const ErrorModel m;
    // An absurdly aged condition cannot exceed the retry table.
    const OperatingPoint op{3.0, 12.0, 85.0};
    for (int p = 0; p < 200; ++p) {
        const PageErrorProfile prof = m.pageProfile(0, 0, p, op);
        EXPECT_LE(prof.retrySteps, m.cal().retryTableSteps);
        EXPECT_GE(prof.retrySteps, 0);
    }
}

TEST(ErrorModel, FinalErrorsBoundedByMax)
{
    const ErrorModel m;
    const OperatingPoint op{2.0, 12.0, 30.0};
    const double cap = m.finalErrorsMax(op);
    for (int p = 0; p < 500; ++p) {
        const PageErrorProfile prof = m.pageProfile(0, p / 64, p % 64, op);
        EXPECT_LE(prof.finalErrors, cap);
        EXPECT_GT(prof.finalErrors, 0.0);
    }
}

TEST(ErrorModel, StepErrorsDecayTowardFinal)
{
    // Errors saturate at a 50% RBER (4096/KiB) far from VOPT, then
    // decay strictly monotonically once below the saturation cap.
    constexpr double kSaturation = 4096.0;
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 0, 3, op);
    ASSERT_GT(prof.retrySteps, 1);
    for (int k = 1; k <= prof.retrySteps; ++k) {
        const double prev = m.stepErrors(prof, k - 1);
        const double cur = m.stepErrors(prof, k);
        EXPECT_LE(cur, prev) << "k=" << k;
        if (prev < kSaturation) {
            EXPECT_LT(cur, prev)
                << "strict decay below saturation, k=" << k;
        }
    }
    // The last two steps are always below saturation (the walk is
    // about to succeed), so strict decay is guaranteed there.
    EXPECT_LT(m.stepErrors(prof, prof.retrySteps),
              m.stepErrors(prof, prof.retrySteps - 1));
}

TEST(ErrorModel, OvershootGrowsAgain)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 0, 3, op);
    const int n = prof.retrySteps;
    EXPECT_GT(m.stepErrors(prof, n + 1), m.stepErrors(prof, n));
    EXPECT_GT(m.stepErrors(prof, n + 2), m.stepErrors(prof, n + 1));
}

TEST(ErrorModel, ExtraErrorsShiftEveryStep)
{
    constexpr double kSaturation = 4096.0;
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 0, 3, op);
    int checked = 0;
    for (int k = 0; k <= prof.retrySteps + 1; ++k) {
        const double base = m.stepErrors(prof, k);
        if (base + 10.0 >= kSaturation)
            continue; // additivity clips at the saturation cap
        EXPECT_NEAR(m.stepErrors(prof, k, 10.0), base + 10.0, 1e-9)
            << "extra errors are additive below the cap, k=" << k;
        ++checked;
    }
    EXPECT_GE(checked, 2) << "at least the final steps are testable";
}

TEST(ErrorModel, SimulateReadMatchesProfileWithoutReduction)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 3.0, 85.0};
    for (int p = 0; p < 200; ++p) {
        const PageErrorProfile prof = m.pageProfile(0, 1, p, op);
        const ReadOutcome out = m.simulateRead(prof);
        EXPECT_TRUE(out.success);
        EXPECT_EQ(out.retrySteps, prof.retrySteps)
            << "default timing must need exactly the profiled steps";
        EXPECT_LE(out.lastStepErrors, m.cal().eccCapability);
    }
}

TEST(ErrorModel, SmallExtraErrorsKeepStepCount)
{
    // The AR2 premise: if finalErrors + dM <= capability, the same
    // number of steps still succeeds.
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 2, 5, op);
    const double slack = m.cal().eccCapability - prof.finalErrors;
    ASSERT_GT(slack, 1.0);
    const ReadOutcome out = m.simulateRead(prof, slack * 0.5);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.retrySteps, prof.retrySteps);
}

TEST(ErrorModel, ExcessiveExtraErrorsFailTheWalk)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 2, 5, op);
    // More extra errors than the capability minus the floor: no step
    // can ever succeed.
    const ReadOutcome out =
        m.simulateRead(prof, m.cal().eccCapability + 1.0);
    EXPECT_FALSE(out.success);
    EXPECT_EQ(out.retrySteps, m.cal().retryTableSteps);
}

TEST(ErrorModel, CustomCapabilityThreshold)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 2, 5, op);
    // With an enormous capability the first read always succeeds.
    const ReadOutcome out = m.simulateRead(prof, 0.0, 1e9);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.retrySteps, 0);
}

TEST(ErrorModel, InvalidOperatingPointPanics)
{
    const ErrorModel m;
    EXPECT_THROW(m.meanRetrySteps({-1.0, 0.0, 85.0}), std::logic_error);
    EXPECT_THROW(m.finalErrorsMax({0.0, -1.0, 85.0}), std::logic_error);
    EXPECT_THROW(m.pageProfile(0, 0, 0, {0.0, 0.0, 300.0}),
                 std::logic_error);
}

TEST(ErrorModel, InvalidReductionPanics)
{
    const ErrorModel m;
    TimingReduction bad;
    bad.pre = 1.5;
    EXPECT_THROW(m.deltaErrors(bad, OperatingPoint{}), std::logic_error);
}

TEST(ErrorModel, StepErrorsRejectsNegativeStep)
{
    const ErrorModel m;
    const PageErrorProfile prof =
        m.pageProfile(0, 0, 0, OperatingPoint{1.0, 6.0, 85.0});
    EXPECT_THROW(m.stepErrors(prof, -1), std::logic_error);
}

/**
 * The retry walk by definition, from the public stepErrors():
 * @p errs holds stepErrors(prof, k, extra) for every table step k,
 * and the walk ends at the first step within @p cap, or fails at the
 * last table step.
 */
ReadOutcome
linearWalk(const std::vector<double> &errs, double cap)
{
    for (std::size_t k = 0; k < errs.size(); ++k) {
        if (errs[k] <= cap)
            return ReadOutcome{static_cast<int>(k), true, errs[k]};
    }
    return ReadOutcome{static_cast<int>(errs.size()) - 1, false,
                       errs.back()};
}

std::vector<double>
stepErrorTable(const ErrorModel &m, const PageErrorProfile &prof,
               double extra)
{
    std::vector<double> errs;
    for (int k = 0; k <= m.cal().retryTableSteps; ++k)
        errs.push_back(m.stepErrors(prof, k, extra));
    return errs;
}

/** Counts simulateRead() disagreements with linearWalk(). */
class WalkChecker
{
  public:
    explicit WalkChecker(const ErrorModel &m) : m_(m) {}

    /**
     * Check @p prof at every capability in @p caps (-1 = model's).
     * With no extra errors, a memoized profile's default walk is
     * checked both from the memo and from a walk.
     */
    void
    check(const PageErrorProfile &prof, double extra,
          const std::vector<double> &caps)
    {
        const std::vector<double> errs = stepErrorTable(m_, prof, extra);
        const int vopt = std::min(prof.retrySteps, m_.cal().retryTableSteps);
        PageErrorProfile bare = prof;
        bare.baseRetrySteps = -1;
        for (double capability : caps) {
            const double cap =
                capability < 0.0 ? m_.cal().eccCapability : capability;
            const ReadOutcome want = linearWalk(errs, cap);
            ++walks;
            if (!want.success)
                ++failures;
            else if (want.retrySteps < vopt)
                ++bisected;
            compare(prof, extra, capability, want);
            if (extra == 0.0 && prof.baseRetrySteps >= 0)
                compare(bare, extra, capability, want);
        }
    }

    long walks = 0;
    long failures = 0;
    long bisected = 0; ///< walks that end before VOPT
    long mismatches = 0;
    std::string first;

  private:
    void
    compare(const PageErrorProfile &prof, double extra, double capability,
            const ReadOutcome &want)
    {
        const ReadOutcome got = m_.simulateRead(prof, extra, capability);
        if (got.retrySteps == want.retrySteps && got.success == want.success &&
            got.lastStepErrors == want.lastStepErrors)
            return;
        if (mismatches++ == 0) {
            std::ostringstream os;
            os << "N=" << prof.retrySteps << " f=" << prof.finalErrors
               << " r=" << prof.decayRatio << " extra=" << extra
               << " cap=" << capability
               << " memo=" << (prof.baseRetrySteps >= 0) << ": want ("
               << want.retrySteps << ", " << want.success << ", "
               << want.lastStepErrors << ") got (" << got.retrySteps
               << ", " << got.success << ", " << got.lastStepErrors << ")";
            first = os.str();
        }
    }

    const ErrorModel &m_;
};

TEST(ErrorModelWalk, BisectionMatchesLinearWalkOnProfileGrid)
{
    const ErrorModel m;
    const core::Rpt rpt = core::RptBuilder(m).buildDefault();
    const std::vector<double> caps = {-1.0, 40.0, 72.0, 120.0};
    WalkChecker checker(m);
    for (double pe : {0.0, 1.0, 2.0, 3.0}) {
        for (double ret : {0.0, 1.0, 6.0, 12.0, 24.0}) {
            for (double temp : {30.0, 55.0, 85.0}) {
                const OperatingPoint op{pe, ret, temp};
                // Every RPT entry's dM_ERR at op, deduplicated (equal
                // extras give equal walks).
                std::vector<double> extras = {0.0, 100.0, 5000.0};
                for (std::size_t i = 0; i < rpt.entries(); ++i)
                    extras.push_back(m.deltaErrors(rpt.reduction(i), op));
                std::sort(extras.begin(), extras.end());
                extras.erase(std::unique(extras.begin(), extras.end()),
                             extras.end());
                for (int p = 0; p < 2000; ++p) {
                    const PageErrorProfile prof =
                        m.pageProfile(1, p / 64, p % 64, op);
                    for (double extra : extras)
                        checker.check(prof, extra, caps);
                }
            }
        }
    }
    EXPECT_EQ(checker.mismatches, 0) << "first: " << checker.first;
    // The grid reaches the failed walk and the bisection.
    EXPECT_GT(checker.failures, 0);
    EXPECT_GT(checker.bisected, 0);
    EXPECT_GT(checker.walks, checker.failures + checker.bisected);
}

TEST(ErrorModelWalk, BisectionMatchesLinearWalkOnEdgeProfiles)
{
    const ErrorModel m;
    const int table = m.cal().retryTableSteps;
    ASSERT_EQ(table, 44);
    auto make = [](int n, double f, double r) {
        PageErrorProfile prof;
        prof.retrySteps = n;
        prof.finalErrors = f;
        prof.decayRatio = r;
        return prof;
    };
    const std::vector<PageErrorProfile> profiles = {
        make(0, 30.0, 2.2),  // no retry
        make(44, 40.0, 2.2), // the table's last step
        make(50, 30.0, 2.2), // beyond the table: every step fails
        make(12, 90.0, 2.2), // even VOPT exceeds 72: every step fails
        // N - k > 40 for the first steps: stepErrors clamps the pow
        // exponent, so those steps share one error count.
        make(44, 10.0, 1.05),
        make(50, 10.0, 1.05),
        make(60, 1.0, 1.1),
    };
    const std::vector<double> caps = {-1.0, 1.0,  20.0, 40.0, 60.0,
                                      70.0, 72.0, 120.0, 1e9};
    WalkChecker checker(m);
    for (const PageErrorProfile &prof : profiles)
        for (double extra : {0.0, 5.0, 100.0, 5000.0})
            checker.check(prof, extra, caps);
    EXPECT_EQ(checker.mismatches, 0) << "first: " << checker.first;
    EXPECT_GT(checker.bisected, 0);

    // Spot values (capability 72).
    EXPECT_EQ(m.simulateRead(profiles[0]).retrySteps, 0);
    EXPECT_EQ(m.simulateRead(profiles[1]).retrySteps, 44);
    const ReadOutcome beyond = m.simulateRead(profiles[2]);
    EXPECT_FALSE(beyond.success);
    EXPECT_EQ(beyond.retrySteps, table);
    EXPECT_EQ(beyond.lastStepErrors, m.stepErrors(profiles[2], table));
    const ReadOutcome dirty = m.simulateRead(profiles[3]);
    EXPECT_FALSE(dirty.success);
    EXPECT_EQ(dirty.retrySteps, table);
    EXPECT_EQ(dirty.lastStepErrors, m.stepErrors(profiles[3], table));
    // 10 * 1.05^40 = 70.4 <= 72: the clamped first step already fits.
    EXPECT_EQ(m.stepErrors(profiles[4], 0), m.stepErrors(profiles[4], 4));
    EXPECT_EQ(m.simulateRead(profiles[4]).retrySteps, 0);
}

TEST(ErrorModelWalk, RatioBoundsAreEnforced)
{
    Calibration flat;
    flat.decayRatio = 1.0;
    EXPECT_THROW(ErrorModel{flat}, std::logic_error);
    Calibration shrinking;
    shrinking.overshootRatio = 0.9;
    EXPECT_THROW(ErrorModel{shrinking}, std::logic_error);
    Calibration level;
    level.overshootRatio = 1.0;
    EXPECT_NO_THROW(ErrorModel{level});
    Calibration no_table;
    no_table.retryTableSteps = -1;
    EXPECT_THROW(ErrorModel{no_table}, std::logic_error);

    const ErrorModel m;
    PageErrorProfile prof;
    prof.retrySteps = 5;
    prof.finalErrors = 30.0;
    prof.decayRatio = 1.0;
    EXPECT_THROW(m.simulateRead(prof), std::logic_error);
    prof.decayRatio = 0.5;
    EXPECT_THROW(m.simulateRead(prof, 3.0), std::logic_error);
}

/**
 * Property sweep: the three characterization surfaces must be
 * monotone in P/E cycles and retention age, across the paper's whole
 * evaluated grid. (Worse conditions never improve anything.)
 */
class SurfaceMonotonicity
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
  protected:
    ErrorModel model_;
};

TEST_P(SurfaceMonotonicity, WorsePecNeverImproves)
{
    const auto [pe, ret] = GetParam();
    const OperatingPoint op{pe, ret, 85.0};
    const OperatingPoint worse{pe + 0.5, ret, 85.0};
    EXPECT_GE(model_.meanRetrySteps(worse), model_.meanRetrySteps(op));
    EXPECT_GE(model_.finalErrorsMax(worse), model_.finalErrorsMax(op));
    TimingReduction red;
    red.pre = 0.40;
    EXPECT_GE(model_.deltaErrors(red, worse), model_.deltaErrors(red, op));
    EXPECT_LE(model_.maxSafePreReduction(worse),
              model_.maxSafePreReduction(op));
}

TEST_P(SurfaceMonotonicity, LongerRetentionNeverImproves)
{
    const auto [pe, ret] = GetParam();
    const OperatingPoint op{pe, ret, 85.0};
    const OperatingPoint worse{pe, ret + 2.0, 85.0};
    EXPECT_GE(model_.meanRetrySteps(worse), model_.meanRetrySteps(op));
    EXPECT_GE(model_.finalErrorsMax(worse), model_.finalErrorsMax(op));
    TimingReduction red;
    red.pre = 0.40;
    EXPECT_GE(model_.deltaErrors(red, worse), model_.deltaErrors(red, op));
    EXPECT_LE(model_.maxSafePreReduction(worse),
              model_.maxSafePreReduction(op));
}

TEST_P(SurfaceMonotonicity, DeltaErrorsMonotoneInReduction)
{
    const auto [pe, ret] = GetParam();
    const OperatingPoint op{pe, ret, 85.0};
    double prev = 0.0;
    for (double x = 0.05; x < 0.6; x += 0.05) {
        TimingReduction red;
        red.pre = x;
        const double d = model_.deltaErrors(red, op);
        EXPECT_GE(d, prev) << "x=" << x;
        prev = d;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SurfaceMonotonicity,
    ::testing::Combine(::testing::Values(0.0, 0.5, 1.0, 1.5, 2.0),
                       ::testing::Values(0.0, 1.0, 3.0, 6.0, 9.0, 12.0)));

/**
 * Property: for any operating point, the RPT-profiled reduction is
 * actually safe for the page population it covers (the AR2 design
 * invariant: no step-count inflation with the profiled reduction).
 */
class ProfiledReductionSafety
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{
  protected:
    ErrorModel model_;
};

TEST_P(ProfiledReductionSafety, ReducedWalkKeepsStepCount)
{
    const auto [pe, ret, temp] = GetParam();
    const OperatingPoint op{pe, ret, temp};
    const double x = model_.maxSafePreReduction(op);
    if (x == 0.0)
        GTEST_SKIP() << "no safe reduction at this point";
    TimingReduction red;
    red.pre = x;
    const double extra = model_.deltaErrors(red, op);
    int inflated = 0;
    for (int p = 0; p < 800; ++p) {
        const PageErrorProfile prof =
            model_.pageProfile(0, p / 64, p % 64, op);
        const ReadOutcome out = model_.simulateRead(prof, extra);
        EXPECT_TRUE(out.success);
        if (out.retrySteps != prof.retrySteps)
            ++inflated;
    }
    // The 14-bit safety margin absorbs temperature + outliers: the
    // profiled reduction must essentially never add steps.
    EXPECT_EQ(inflated, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProfiledReductionSafety,
    ::testing::Combine(::testing::Values(0.0, 1.0, 2.0),
                       ::testing::Values(0.0, 3.0, 12.0),
                       ::testing::Values(30.0, 55.0, 85.0)));

} // namespace
} // namespace ssdrr::nand
