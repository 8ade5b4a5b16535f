/**
 * @file
 * The read-retry controller: computes the full timeline of one page
 * read under a given mechanism (paper Figures 12 and 13).
 *
 * Given a page's error profile and operating point, the controller
 * determines how many retry steps the read takes and lays the
 * sense / data-transfer / ECC phases onto the die, the channel bus
 * and the channel's ECC engine, honoring each mechanism's pipelining
 * and timing rules:
 *
 *   Baseline : step k+1 sensed only after step k's ECC verdict.
 *   PR2      : step k+1 sensed right after step k's sensing
 *              (CACHE READ); the speculative extra step is killed
 *              with RESET (tRST) once ECC succeeds.
 *   AR2      : after the first failure, SET FEATURE (tSET) shortens
 *              tPRE per the RPT; steps remain serialized; the
 *              timing is rolled back after the final step.
 *   PnAR2    : AR2's reduced tR + PR2's pipelining.
 *   NoRR     : the error profile is ignored; no retry ever occurs.
 *   PSO      : the step count is first reduced per psoSteps() [84].
 */

#ifndef SSDRR_CORE_RETRY_CONTROLLER_HH
#define SSDRR_CORE_RETRY_CONTROLLER_HH

#include <vector>

#include "core/mechanism.hh"
#include "core/rpt.hh"
#include "ecc/engine.hh"
#include "nand/error_model.hh"
#include "nand/timing.hh"
#include "ssd/channel.hh"

namespace ssdrr::core {

/** Complete timeline of one page read. */
struct ReadPlan {
    /** Retry steps executed (excluding the initial read and any
     *  speculative step that was RESET). */
    int retrySteps = 0;
    /** Extra steps caused by over-aggressive timing reduction. */
    int extraSteps = 0;
    /** True if AR2 had to redo the retry with default timing. */
    bool timingFallback = false;
    /** True if the page was eventually read correctly. */
    bool success = true;
    /** Tick when the die array becomes free again. */
    sim::Tick dieEnd = 0;
    /** Tick when corrected data is available to the host. */
    sim::Tick completion = 0;
};

class RetryController
{
  public:
    /**
     * @param mech retry mechanism to model
     * @param timing chip timing parameters
     * @param model calibrated error model (chip characterization)
     * @param rpt profiled timing table (required iff the mechanism
     *        uses adaptive timing)
     */
    RetryController(Mechanism mech, const nand::TimingParams &timing,
                    const nand::ErrorModel &model, const Rpt *rpt);

    Mechanism mechanism() const { return mech_; }

    /**
     * Plan a read starting at @p start.
     *
     * @param type page type (determines tR)
     * @param prof the page's error profile
     * @param op operating point at read time
     * @param ch channel bus (data transfers are reserved on it)
     * @param ecc channel ECC engine (decodes are reserved on it)
     */
    ReadPlan planRead(sim::Tick start, nand::PageType type,
                      const nand::PageErrorProfile &prof,
                      const nand::OperatingPoint &op, ssd::Channel &ch,
                      ecc::EccEngine &ecc) const;

  private:
    struct StepDecision {
        /** Retry steps performed with reduced (RPT) timing. */
        int reducedSteps = 0;
        /** Retry steps performed with default timing (the whole walk
         *  for non-adaptive mechanisms; the redo after a fallback). */
        int defaultSteps = 0;
        /** True if the reduced walk exhausted the table and the
         *  retry must be redone with default timing. */
        bool fallback = false;
        bool success = true;
        nand::TimingReduction reduction;
    };

    /** Decide the step count and timing reduction for this read. */
    StepDecision decideSteps(const nand::PageErrorProfile &prof,
                             const nand::OperatingPoint &op) const;

    ReadPlan planSequential(sim::Tick start, sim::Tick s_first,
                            sim::Tick s_retry, const StepDecision &dec,
                            ssd::Channel &ch, ecc::EccEngine &ecc,
                            bool set_feature) const;

    ReadPlan planPipelined(sim::Tick start, sim::Tick s_first,
                           sim::Tick s_retry, const StepDecision &dec,
                           ssd::Channel &ch, ecc::EccEngine &ecc,
                           bool set_feature) const;

    Mechanism mech_;
    nand::TimingParams timing_;
    const nand::ErrorModel &model_;
    const Rpt *rpt_;
    /** timingTerms(*rpt_, model_), by Rpt::index (empty without RPT). */
    std::vector<nand::TimingTerms> rpt_terms_;
};

} // namespace ssdrr::core

#endif // SSDRR_CORE_RETRY_CONTROLLER_HH
