#include "nand/error_model.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace ssdrr::nand {

namespace {

/** Errors saturate at a 50% raw bit-error rate over 8192 bits/KiB. */
constexpr double kErrorCap = 4096.0;

void
checkOp(const OperatingPoint &op)
{
    SSDRR_ASSERT(op.peKilo >= 0.0, "negative P/E cycles");
    SSDRR_ASSERT(op.retentionMonths >= 0.0, "negative retention age");
    SSDRR_ASSERT(op.temperatureC > -40.0 && op.temperatureC < 125.0,
                 "implausible temperature ", op.temperatureC);
}

} // namespace

ErrorModel::ErrorModel(Calibration cal, std::uint64_t seed)
    : cal_(cal), seed_(seed)
{
    SSDRR_ASSERT(cal_.eccCapability > 0.0, "ECC capability must be > 0");
    // simulateRead()'s bisection relies on the two ratio bounds.
    SSDRR_ASSERT(cal_.decayRatio > 1.0, "decay ratio must be > 1");
    SSDRR_ASSERT(cal_.overshootRatio >= 1.0, "overshoot ratio must be >= 1");
    SSDRR_ASSERT(cal_.retryTableSteps >= 0, "negative retry table size");
}

double
ErrorModel::retentionTerm(const OperatingPoint &op) const
{
    return std::log1p(op.retentionMonths / cal_.nTau);
}

ErrorModel::Surfaces
ErrorModel::surfaces(const OperatingPoint &op) const
{
    checkOp(op);
    const double ret = retentionTerm(op);
    Surfaces s;
    s.meanRetrySteps = cal_.nRet * ret * (1.0 + cal_.nPeCoup * op.peKilo) +
                       cal_.nPe * op.peKilo;
    s.finalErrorsMax = cal_.mBase + cal_.mPe * op.peKilo + cal_.mRet * ret +
                       temperatureAdder(op.temperatureC);
    s.finalErrorsMean = cal_.mMeanFrac * s.finalErrorsMax;
    return s;
}

double
ErrorModel::meanRetrySteps(const OperatingPoint &op) const
{
    return surfaces(op).meanRetrySteps;
}

double
ErrorModel::temperatureAdder(double temp_c) const
{
    // Lower temperature reduces channel mobility and raises RBER
    // (Section 5.1): +5 errors at 30C, +3 at 55C, relative to 85C.
    const double f = std::clamp((85.0 - temp_c) / 55.0, 0.0, 1.5);
    return cal_.mTemp * f;
}

double
ErrorModel::temperaturePenalty(double d, double temp_c) const
{
    // Additional timing-reduction errors at temperatures below the
    // 85C profiling point. Proportional to dM for small penalties
    // but capped per Fig. 10: at most tTempCap (7) extra errors at
    // 30C even under the worst profiled condition.
    const double f = std::clamp((85.0 - temp_c) / 55.0, 0.0, 1.5);
    return std::min(cal_.tTemp * d, cal_.tTempCap) * f;
}

double
ErrorModel::finalErrorsMax(const OperatingPoint &op) const
{
    return surfaces(op).finalErrorsMax;
}

double
ErrorModel::finalErrorsMean(const OperatingPoint &op) const
{
    return surfaces(op).finalErrorsMean;
}

double
ErrorModel::eccMargin(const OperatingPoint &op) const
{
    return cal_.eccCapability - finalErrorsMax(op);
}

double
ErrorModel::conditionScale(const OperatingPoint &op) const
{
    return (1.0 + cal_.gPe * op.peKilo) *
           (1.0 + cal_.gRet * retentionTerm(op));
}

TimingTerms
ErrorModel::timingTerms(const TimingReduction &red) const
{
    SSDRR_ASSERT(red.pre >= 0.0 && red.pre < 1.0 && red.eval >= 0.0 &&
                     red.eval < 1.0 && red.disch >= 0.0 && red.disch < 1.0,
                 "timing reductions must be fractions in [0, 1)");
    // A shortened discharge leaves residual BL charge that the next
    // precharge must absorb, so it effectively shortens tPRE further
    // (Section 2.2 / Fig. 9's superlinear combined effect).
    const double x_pre_eff = red.pre + cal_.dischCoupling * red.disch;

    TimingTerms t;
    if (x_pre_eff > 0.0) {
        t.pre = std::expm1(x_pre_eff / cal_.xPre);
        if (x_pre_eff > cal_.cliffStart)
            t.cliff = cal_.cliffSlope * (x_pre_eff - cal_.cliffStart);
    }
    if (red.eval > 0.0)
        t.eval = std::expm1(red.eval / cal_.xEval);
    if (red.disch > 0.0)
        t.disch = std::expm1(red.disch / cal_.xDisch);
    return t;
}

double
ErrorModel::deltaErrors(const TimingTerms &terms,
                        const OperatingPoint &op) const
{
    checkOp(op);
    const double g = conditionScale(op);

    // An absent term is +0.0, and adding it leaves the sum (which
    // starts at +0.0) bit-identical to skipping it.
    double d = 0.0;
    d += cal_.aPre * g * terms.pre;
    d += terms.cliff;
    d += cal_.aEval * g * terms.eval;
    d += cal_.aDisch * g * terms.disch;

    d += temperaturePenalty(d, op.temperatureC);
    return std::min(d, kErrorCap);
}

double
ErrorModel::maxSafePreReduction(const OperatingPoint &op) const
{
    // Profiling happens at 85C; the safety margin covers lower
    // operating temperatures and outlier pages (Section 5.2.3).
    OperatingPoint profile_op = op;
    profile_op.temperatureC = 85.0;

    const double budget =
        cal_.eccCapability - cal_.safetyMarginBits -
        finalErrorsMax(profile_op);
    if (budget <= 0.0)
        return 0.0;

    const int max_k =
        static_cast<int>(std::round(cal_.maxReduction / cal_.reductionStep));
    for (int k = max_k; k >= 1; --k) {
        const double x = cal_.reductionStep * k;
        TimingReduction red;
        red.pre = x;
        if (deltaErrors(red, profile_op) <= budget)
            return x;
    }
    return 0.0;
}

PageErrorProfile
ErrorModel::pageProfile(std::uint64_t chip, std::uint64_t block,
                        std::uint64_t page, const OperatingPoint &op) const
{
    checkOp(op);
    // Stable per-page variation streams. Two independent factors:
    // how far VOPT drifts (retry count) and how dirty the page is at
    // VOPT (final errors).
    sim::Rng rng(sim::hashStream(seed_, chip, block, page));
    const double n_var = rng.logNormal(0.0, cal_.nSigma);
    const double e_var = rng.logNormal(0.0, cal_.mSigma);
    const double jitter = rng.normal(0.0, 0.35);

    PageErrorProfile prof;

    const Surfaces surf = surfaces(op);
    double n = surf.meanRetrySteps * n_var + jitter;
    prof.retrySteps = std::clamp(static_cast<int>(std::lround(n)), 0,
                                 cal_.retryTableSteps);

    const double e_max = surf.finalErrorsMax;
    double e = surf.finalErrorsMean * e_var;
    prof.finalErrors = std::clamp(e, 0.5, e_max);

    // Enforce the Fig. 4b invariant against the chip's design-point
    // ECC: the next-to-last step must fail a 72-bit code, i.e.,
    // E(N-1) = finalErrors * r > designCapability. A stronger
    // evaluated ECC can then legitimately stop the walk a step
    // earlier; a weaker one walks further (or fails).
    prof.decayRatio =
        std::max(cal_.decayRatio,
                 cal_.failGuard * cal_.designCapability /
                     prof.finalErrors);

    // Memoize the default-condition retry walk once per profile, for
    // every later read of the page that reuses it.
    const ReadOutcome base = simulateRead(prof);
    prof.baseRetrySteps = base.retrySteps;
    prof.baseSuccess = base.success;
    prof.baseLastStepErrors = base.lastStepErrors;
    prof.baseCapability = cal_.eccCapability;
    return prof;
}

double
ErrorModel::stepErrors(const PageErrorProfile &prof, int k,
                       double extra) const
{
    SSDRR_ASSERT(k >= 0, "negative retry step");
    SSDRR_ASSERT(prof.finalErrors > 0.0, "profile not initialized");
    double base;
    if (k <= prof.retrySteps) {
        // Walking toward VOPT: errors decay geometrically and reach
        // the final-step floor at k == retrySteps.
        const double dist = static_cast<double>(prof.retrySteps - k);
        base = prof.finalErrors *
               std::pow(prof.decayRatio, std::min(dist, 40.0));
    } else {
        // Overshooting past VOPT: errors grow again.
        const double dist = static_cast<double>(k - prof.retrySteps);
        base = prof.finalErrors *
               std::pow(cal_.overshootRatio, std::min(dist, 40.0));
    }
    return std::min(base + extra, kErrorCap);
}

ReadOutcome
ErrorModel::simulateRead(const PageErrorProfile &prof, double extra,
                         double capability) const
{
    const double cap = capability < 0.0 ? cal_.eccCapability : capability;
    if (prof.baseRetrySteps >= 0 && extra == 0.0 &&
        cap == prof.baseCapability) {
        // Default-condition walk memoized at profile construction
        // (the common case: every non-adaptive step decision).
        return ReadOutcome{prof.baseRetrySteps, prof.baseSuccess,
                           prof.baseLastStepErrors};
    }
    SSDRR_ASSERT(prof.decayRatio > 1.0, "profile decay ratio must be > 1");

    // Errors are non-increasing in k up to VOPT (decayRatio > 1) and
    // never below their VOPT value past it (overshootRatio >= 1), so
    // the first fitting step is at most m = min(N, table), and none
    // fits if step m does not.
    const int table = cal_.retryTableSteps;
    const int m = std::max(0, std::min(prof.retrySteps, table));
    const double e_m = stepErrors(prof, m, extra);
    if (e_m > cap) {
        return ReadOutcome{table, false,
                           m == table ? e_m : stepErrors(prof, table, extra)};
    }
    if (m == 0)
        return ReadOutcome{0, true, e_m};

    // Step m fits. On generated profiles step m-1 fails at the
    // design capability (the Fig. 4b invariant), so check it first.
    double e_hi = stepErrors(prof, m - 1, extra);
    if (e_hi > cap)
        return ReadOutcome{m, true, e_m};

    // Bisect [0, m-1] for the first fitting step; hi always fits.
    int lo = 0;
    int hi = m - 1;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        const double e = stepErrors(prof, mid, extra);
        if (e <= cap) {
            hi = mid;
            e_hi = e;
        } else {
            lo = mid + 1;
        }
    }
    return ReadOutcome{hi, true, e_hi};
}

} // namespace ssdrr::nand
