#include "core/predictive.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ssdrr::core {

ErrorPredictor::ErrorPredictor(const nand::ErrorModel &model,
                               double accuracy, std::uint64_t seed)
    : model_(model), accuracy_(accuracy), seed_(seed)
{
    SSDRR_ASSERT(accuracy >= 0.0 && accuracy <= 1.0,
                 "predictor accuracy must be in [0, 1], got ", accuracy);
}

ErrorPrediction
ErrorPredictor::predict(std::uint64_t chip, std::uint64_t block,
                        std::uint64_t page,
                        const nand::OperatingPoint &op) const
{
    const nand::PageErrorProfile prof =
        cache_ ? cache_->get(chip, block, page, op)
               : model_.pageProfile(chip, block, page, op);

    ErrorPrediction pred;
    pred.willRetry = prof.retrySteps > 0;
    pred.predictedErrors = prof.finalErrors;

    // Structured misprediction: flip the retry classification with
    // probability (1 - accuracy), deterministically per page.
    sim::Rng rng(sim::hashStream(seed_, chip, block, page));
    if (!rng.chance(accuracy_)) {
        pred.willRetry = !pred.willRetry;
        // A model that misclassifies also misestimates the error
        // count; bias it toward the decision it (wrongly) made.
        pred.predictedErrors =
            pred.willRetry ? prof.finalErrors * 2.0 + 40.0
                           : std::max(1.0, prof.finalErrors * 0.25);
    }
    return pred;
}

PredictiveController::PredictiveController(const nand::TimingParams &timing,
                                           const nand::ErrorModel &model,
                                           const Rpt &rpt,
                                           const ErrorPredictor &predictor,
                                           PredictiveConfig cfg)
    : timing_(timing), model_(model), rpt_(rpt),
      rpt_terms_(timingTerms(rpt, model)), predictor_(predictor),
      pnar2_(Mechanism::PnAR2, timing, model, &rpt), cfg_(cfg)
{
}

ReadPlan
PredictiveController::planSpeculativeWalk(sim::Tick start, sim::Tick s_red,
                                          sim::Tick s_def, int n_red,
                                          bool fallback_walk,
                                          ssd::Channel &ch,
                                          ecc::EccEngine &ecc) const
{
    // Speculative retry start (Fig. 13 without the initial default
    // read): SET FEATURE immediately, then pipelined reduced-timing
    // sensing from the first VREF entry. Only the successful step's
    // transfer and decode sit on the critical path; intermediate
    // transfers drain into pipeline gaps exactly as in PnAR2.
    ReadPlan plan;
    const sim::Tick d = timing_.tDMA;

    sim::Tick sense_start = start + timing_.tSET;
    sim::Tick sense_end = 0;
    sim::Tick prev_dma_end = 0;
    sim::Tick dma_end = 0;
    sim::Tick ecc_end = 0;
    const int total = n_red + (fallback_walk ? n_red : 0);
    for (int k = 0; k < total; ++k) {
        const bool reduced = k < n_red;
        if (fallback_walk && k == n_red)
            sense_start += timing_.tSET; // roll back to default tR
        sense_end = sense_start + (reduced ? s_red : s_def);
        const sim::Tick ready = std::max(sense_end, prev_dma_end);
        dma_end = ch.acquire(ready, d) + d;
        ecc_end = ecc.acquire(dma_end) + ecc.tEcc();
        prev_dma_end = dma_end;
        sense_start = ready;
    }

    plan.retrySteps = total - 1; // first sensing replaces the read
    plan.extraSteps = fallback_walk ? n_red : 0;
    plan.timingFallback = fallback_walk;
    plan.success = true;
    plan.completion = ecc_end;
    const sim::Tick spec_end = sense_start + s_red;
    const sim::Tick reset_end = ecc_end + timing_.tRST;
    plan.dieEnd =
        std::max(dma_end, std::min(spec_end, reset_end)) + timing_.tSET;
    return plan;
}

ReadPlan
PredictiveController::planRead(sim::Tick start, nand::PageType type,
                               std::uint64_t chip, std::uint64_t block,
                               std::uint64_t page,
                               const nand::OperatingPoint &op,
                               ssd::Channel &ch, ecc::EccEngine &ecc) const
{
    const nand::PageErrorProfile prof =
        cache_ ? cache_->get(chip, block, page, op)
               : model_.pageProfile(chip, block, page, op);
    const ErrorPrediction pred =
        predictor_.predict(chip, block, page, op);

    const std::size_t entry = rpt_.index(op);
    const nand::TimingReduction red = rpt_.reduction(entry);
    const sim::Tick s_def = timing_.tR(type);
    const sim::Tick s_red = timing_.tR(type, red);
    const double extra = model_.deltaErrors(rpt_terms_[entry], op);

    if (pred.willRetry && cfg_.speculativeRetryStart && !red.none()) {
        // Walk the retry table with reduced timing from the start.
        const nand::ReadOutcome out = model_.simulateRead(prof, extra);
        ++spec_starts_;
        if (prof.retrySteps == 0)
            ++mispredictions_; // the default read would have passed
        if (out.success) {
            // n_red sensings: the walk reaches the same final VREF
            // entry, and the (wasted) step-0 sensing replaces the
            // initial default read.
            return planSpeculativeWalk(start, s_red, s_def,
                                       out.retrySteps + 1, false, ch,
                                       ecc);
        }
        // Reduced walk exhausted (outlier page): redo with default
        // timing, pipelined.
        return planSpeculativeWalk(start, s_red, s_def,
                                   model_.cal().retryTableSteps + 1, true,
                                   ch, ecc);
    }

    if (!pred.willRetry && cfg_.reducedRegularReads && !red.none() &&
        pred.predictedErrors + extra + model_.cal().safetyMarginBits <=
            model_.cal().eccCapability) {
        // Regular read with reduced timing. If the page actually
        // decodes at step 0 even with the extra errors, we saved
        // (1 - rho) * tR; otherwise fall back to a default-timing
        // read and the regular PnAR2 walk after it.
        ++reduced_regular_;
        const double e0 = model_.stepErrors(prof, 0, extra);
        if (e0 <= model_.cal().eccCapability) {
            ReadPlan plan;
            const sim::Tick sense_end = start + timing_.tSET + s_red;
            const sim::Tick dma_end =
                ch.acquire(sense_end, timing_.tDMA) + timing_.tDMA;
            plan.completion = ecc.acquire(dma_end) + ecc.tEcc();
            plan.dieEnd = dma_end + timing_.tSET;
            plan.success = true;
            return plan;
        }
        // Mispredicted: pay the wasted reduced read, then run the
        // regular walk from scratch.
        ++mispredictions_;
        const sim::Tick wasted = timing_.tSET + s_red + timing_.tDMA +
                                 ecc.tEcc() + timing_.tSET;
        ReadPlan plan = pnar2_.planRead(start + wasted, type, prof, op,
                                        ch, ecc);
        plan.extraSteps += 1;
        return plan;
    }

    // No extension applies: regular PnAR2.
    if (pred.willRetry != (prof.retrySteps > 0))
        ++mispredictions_;
    return pnar2_.planRead(start, type, prof, op, ch, ecc);
}

} // namespace ssdrr::core
