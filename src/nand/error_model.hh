/**
 * @file
 * Calibrated NAND error model: the in-silico stand-in for the
 * paper's 160-chip characterization.
 *
 * The model exposes three layers:
 *  1. Population surfaces - mean retry-step count, max/mean
 *     final-step errors, and the added errors from read-timing
 *     reduction, all as closed forms of the operating point.
 *  2. Per-page profiles - deterministic per-(chip, block, page)
 *     process variation sampled from hash-derived streams, giving
 *     each simulated page a stable retry-count / error fingerprint
 *     (the paper maps each simulated block to a profiled real block;
 *     we map it to a profiled synthetic block).
 *  3. Read outcomes - the per-retry-step error sequence and the
 *     resulting number of retry steps for a given timing reduction,
 *     which is what the SSD-level simulator consumes.
 */

#ifndef SSDRR_NAND_ERROR_MODEL_HH
#define SSDRR_NAND_ERROR_MODEL_HH

#include <cstdint>

#include "nand/calibration.hh"
#include "nand/timing.hh"
#include "nand/types.hh"

namespace ssdrr::nand {

/** Stable error fingerprint of one physical page. */
struct PageErrorProfile {
    /** Retry steps needed with default timing (N_RR; 0 = no retry). */
    int retrySteps = 0;
    /** Raw bit errors per KiB in the final (successful) step. */
    double finalErrors = 0.0;
    /** Per-step error decay ratio r (E(k) = finalErrors*r^(N-k)). */
    double decayRatio = 2.2;

    /**
     * Memoized default-condition retry walk (extra = 0 at the
     * model's own ECC capability), filled by ErrorModel::pageProfile.
     * RetryController::decideSteps takes this walk on every read, so
     * a profile served again by PageProfileCache skips its
     * stepErrors() calls. Hand-built profiles (tests, benches) leave
     * baseRetrySteps < 0 and take the walk - bit-identical either
     * way, since these fields are produced by that same walk.
     */
    int baseRetrySteps = -1; ///< < 0: not memoized
    bool baseSuccess = true;
    double baseLastStepErrors = 0.0;
    /** ECC capability the memoized walk was computed against. */
    double baseCapability = -1.0;
};

/** Outcome of reading a page with a given timing reduction. */
struct ReadOutcome {
    /** Retry steps actually performed (0 = first read succeeded). */
    int retrySteps = 0;
    /** True if some step brought errors within ECC capability. */
    bool success = true;
    /** Errors per KiB observed in the last step performed. */
    double lastStepErrors = 0.0;
};

/**
 * The factors of dM_ERR that depend only on the timing reduction:
 * the expm1() of each shortened parameter and the precharge cliff.
 * ErrorModel::deltaErrors scales them by the operating point's
 * condition factor and temperature penalty. An absent reduction
 * contributes 0.
 */
struct TimingTerms {
    double pre = 0.0;   ///< expm1(x_pre_eff / xPre)
    double cliff = 0.0; ///< cliffSlope * (x_pre_eff - cliffStart), if > 0
    double eval = 0.0;  ///< expm1(eval / xEval)
    double disch = 0.0; ///< expm1(disch / xDisch)
};

class ErrorModel
{
  public:
    explicit ErrorModel(Calibration cal = {},
                        std::uint64_t seed = 0xC0FFEEull);

    const Calibration &cal() const { return cal_; }
    std::uint64_t seed() const { return seed_; }

    // ----- Layer 1: population surfaces -----

    /** Mean retry-step count N_RR at @p op (Fig. 5). */
    double meanRetrySteps(const OperatingPoint &op) const;

    /** Max errors/KiB in the final retry step, M_ERR (Fig. 7). */
    double finalErrorsMax(const OperatingPoint &op) const;

    /** Mean errors/KiB in the final retry step across pages. */
    double finalErrorsMean(const OperatingPoint &op) const;

    /** ECC-capability margin in the final step (footnote 5). */
    double eccMargin(const OperatingPoint &op) const;

    /**
     * Added errors/KiB from reduced read timing, dM_ERR
     * (Figs. 8-10). Includes the tPRE/tDISCH coupling and the
     * temperature multiplier.
     */
    double deltaErrors(const TimingReduction &red,
                       const OperatingPoint &op) const
    {
        return deltaErrors(timingTerms(red), op);
    }

    /** The operating-point-free factors of deltaErrors(@p red, ...). */
    TimingTerms timingTerms(const TimingReduction &red) const;

    /**
     * deltaErrors() from precomputed @p terms (bit-identical to
     * passing the reduction they were computed from). Callers with a
     * fixed reduction table (the RPT) compute the terms once.
     */
    double deltaErrors(const TimingTerms &terms,
                       const OperatingPoint &op) const;

    /**
     * Largest tPRE reduction (on the calibration grid) such that
     * M_ERR + dM_ERR stays below capability minus the safety margin
     * at the profiling temperature of 85C (Fig. 11). Returns 0 if no
     * reduction is safe.
     */
    double maxSafePreReduction(const OperatingPoint &op) const;

    // ----- Layer 2: per-page profiles -----

    /**
     * Deterministic profile of page (@p chip, @p block, @p page) at
     * @p op. The variation factors depend only on the coordinates
     * (a weak page is weak at every operating point).
     */
    PageErrorProfile pageProfile(std::uint64_t chip, std::uint64_t block,
                                 std::uint64_t page,
                                 const OperatingPoint &op) const;

    // ----- Layer 3: read outcomes -----

    /**
     * Errors/KiB observed at step @p k (0 = initial read, k >= 1 =
     * k-th retry) for @p prof, with @p extra added errors from
     * timing reduction.
     */
    double stepErrors(const PageErrorProfile &prof, int k,
                      double extra = 0.0) const;

    /**
     * Simulate the retry walk: first step k in [0, retryTableSteps]
     * whose errors fit within @p capability, or a failed walk ending
     * at the last table step. @p extra is dM_ERR from timing
     * reduction.
     *
     * The step is found by bisection, in O(log retryTableSteps)
     * stepErrors() calls and usually two: stepErrors() never rises
     * on the way to VOPT (decayRatio > 1) and never falls below its
     * VOPT value past it (overshootRatio >= 1).
     */
    ReadOutcome simulateRead(const PageErrorProfile &prof,
                             double extra = 0.0,
                             double capability = -1.0) const;

  private:
    /** The Layer-1 surfaces at one operating point. */
    struct Surfaces {
        double meanRetrySteps;  ///< N_RR
        double finalErrorsMax;  ///< M_ERR
        double finalErrorsMean; ///< mean final-step errors
    };
    /** All three from one retention log (pageProfile's path). */
    Surfaces surfaces(const OperatingPoint &op) const;
    /** log1p(t / nTau): the retention-age term of every surface. */
    double retentionTerm(const OperatingPoint &op) const;
    /** Condition scaling factor g(op) for timing-reduction errors. */
    double conditionScale(const OperatingPoint &op) const;
    /** Extra timing-reduction errors at @p temp_c given dM = @p d. */
    double temperaturePenalty(double d, double temp_c) const;
    double temperatureAdder(double temp_c) const;

    Calibration cal_;
    std::uint64_t seed_;
};

} // namespace ssdrr::nand

#endif // SSDRR_NAND_ERROR_MODEL_HH
