/**
 * @file
 * Predictive read extensions (paper Section 8, "Discussion").
 *
 * The paper sketches two future directions that both rest on an
 * online error model able to predict a page's RBER before reading
 * it:
 *
 *  1. Latency reduction for regular reads - if a page is predicted
 *     to decode cleanly with margin to spare, read it with reduced
 *     timing parameters from the start (AR2's idea applied to reads
 *     that need no retry at all).
 *  2. Speculative retry start - if a page is predicted to fail its
 *     default-timing read anyway, skip that read and start the
 *     (pipelined, reduced-timing) retry walk immediately, removing
 *     the doomed initial read from the critical path.
 *
 * ErrorPredictor models such an online estimator with a tunable
 * accuracy: it sees the true page profile and, with probability
 * (1 - accuracy), mispredicts in a structured way (misses a retry
 * page or flags a clean one). PredictiveController plans reads with
 * either or both extensions enabled, falling back to the regular
 * PnAR2 walk on misprediction; mispredictions cost time but never
 * correctness.
 */

#ifndef SSDRR_CORE_PREDICTIVE_HH
#define SSDRR_CORE_PREDICTIVE_HH

#include <vector>

#include "core/retry_controller.hh"
#include "core/rpt.hh"
#include "ecc/engine.hh"
#include "nand/error_model.hh"
#include "nand/page_profile_cache.hh"
#include "sim/rng.hh"
#include "ssd/channel.hh"

namespace ssdrr::core {

/** What the online error model claims about a page before reading. */
struct ErrorPrediction {
    /** Predicted to fail the default-timing read (needs retry). */
    bool willRetry = false;
    /** Predicted errors/KiB at the final (or only) step. */
    double predictedErrors = 0.0;
};

/**
 * Online error-model stand-in with tunable accuracy.
 *
 * accuracy = 1 reproduces the true profile (a perfect model such as
 * the Sentinel-cell estimator [56] approaches this); lower values
 * flip the retry classification with probability (1 - accuracy).
 * Predictions are deterministic per (chip, block, page) coordinates.
 */
class ErrorPredictor
{
  public:
    ErrorPredictor(const nand::ErrorModel &model, double accuracy,
                   std::uint64_t seed = 0xFEEDull);

    double accuracy() const { return accuracy_; }

    /**
     * Route profile computations through @p cache (the SSD's
     * page-profile cache). Predictions are unchanged; only the
     * recomputation cost disappears.
     */
    void attachProfileCache(nand::PageProfileCache *cache)
    {
        cache_ = cache;
    }

    ErrorPrediction predict(std::uint64_t chip, std::uint64_t block,
                            std::uint64_t page,
                            const nand::OperatingPoint &op) const;

  private:
    const nand::ErrorModel &model_;
    double accuracy_;
    std::uint64_t seed_;
    nand::PageProfileCache *cache_ = nullptr;
};

/** Extension toggles for PredictiveController. */
struct PredictiveConfig {
    /** Reduce tR for reads predicted clean (Section 8, para. 1). */
    bool reducedRegularReads = true;
    /** Skip the doomed default read for reads predicted to retry
     *  (Section 8, para. 2). */
    bool speculativeRetryStart = true;
};

/**
 * Read planner implementing the Section 8 extensions on top of the
 * PnAR2 machinery. Produces the same ReadPlan contract as
 * RetryController::planRead.
 */
class PredictiveController
{
  public:
    PredictiveController(const nand::TimingParams &timing,
                         const nand::ErrorModel &model, const Rpt &rpt,
                         const ErrorPredictor &predictor,
                         PredictiveConfig cfg = {});

    const PredictiveConfig &config() const { return cfg_; }

    /**
     * Plan a read of page (@p chip, @p block, @p page) starting at
     * @p start; identical resource semantics to
     * RetryController::planRead.
     */
    ReadPlan planRead(sim::Tick start, nand::PageType type,
                      std::uint64_t chip, std::uint64_t block,
                      std::uint64_t page, const nand::OperatingPoint &op,
                      ssd::Channel &ch, ecc::EccEngine &ecc) const;

    /** Reads planned so far whose prediction turned out wrong. */
    std::uint64_t mispredictions() const { return mispredictions_; }
    /** Reads that skipped the default initial read. */
    std::uint64_t speculativeStarts() const { return spec_starts_; }
    /** Regular reads performed with reduced timing. */
    std::uint64_t reducedRegularCount() const { return reduced_regular_; }

    /** Route profile computations through the SSD's profile cache. */
    void attachProfileCache(nand::PageProfileCache *cache)
    {
        cache_ = cache;
    }

  private:
    ReadPlan planSpeculativeWalk(sim::Tick start, sim::Tick s_red,
                                 sim::Tick s_def, int n_red,
                                 bool fallback_walk, ssd::Channel &ch,
                                 ecc::EccEngine &ecc) const;

    nand::TimingParams timing_;
    const nand::ErrorModel &model_;
    const Rpt &rpt_;
    /** timingTerms(rpt_, model_), by Rpt::index. */
    std::vector<nand::TimingTerms> rpt_terms_;
    const ErrorPredictor &predictor_;
    RetryController pnar2_;
    PredictiveConfig cfg_;
    nand::PageProfileCache *cache_ = nullptr;
    mutable std::uint64_t mispredictions_ = 0;
    mutable std::uint64_t spec_starts_ = 0;
    mutable std::uint64_t reduced_regular_ = 0;
};

} // namespace ssdrr::core

#endif // SSDRR_CORE_PREDICTIVE_HH
