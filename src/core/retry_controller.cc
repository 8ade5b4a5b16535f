#include "core/retry_controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ssdrr::core {

RetryController::RetryController(Mechanism mech,
                                 const nand::TimingParams &timing,
                                 const nand::ErrorModel &model,
                                 const Rpt *rpt)
    : mech_(mech), timing_(timing), model_(model), rpt_(rpt),
      rpt_terms_(rpt ? timingTerms(*rpt, model)
                     : std::vector<nand::TimingTerms>{})
{
    SSDRR_ASSERT(!usesAdaptiveTiming(mech) || rpt_ != nullptr,
                 name(mech), " requires a profiled RPT");
}

RetryController::StepDecision
RetryController::decideSteps(const nand::PageErrorProfile &prof,
                             const nand::OperatingPoint &op) const
{
    const double cap = model_.cal().eccCapability;
    StepDecision dec;

    if (mech_ == Mechanism::NoRR) {
        // Ideal upper bound: reads never retry.
        return dec;
    }

    const nand::ReadOutcome base = model_.simulateRead(prof, 0.0);
    if (!base.success) {
        // The page is unreadable even after the full table walk; the
        // data would be handed to higher-level recovery (RAID/parity).
        dec.success = false;
        dec.defaultSteps = model_.cal().retryTableSteps;
        return dec;
    }

    int n = base.retrySteps;
    if (usesStepReduction(mech_))
        n = transformedSteps(mech_, n);

    if (!usesAdaptiveTiming(mech_) || n == 0) {
        dec.defaultSteps = n;
        return dec;
    }

    // AR2 path: the initial read always uses default timing; once it
    // fails the controller queries the RPT and shortens tPRE for the
    // retry steps.
    const std::size_t entry = rpt_->index(op);
    dec.reduction = rpt_->reduction(entry);
    if (dec.reduction.none()) {
        dec.defaultSteps = n;
        return dec;
    }

    const double extra = model_.deltaErrors(rpt_terms_[entry], op);
    const double final_with_extra = prof.finalErrors + extra;
    if (final_with_extra <= cap) {
        // Profiling did its job: the same number of steps succeeds
        // with the shortened sensing (Section 6.2).
        dec.reducedSteps = n;
        return dec;
    }

    // Worst case (never observed across the paper's 10^7 pages, but
    // modeled for completeness): the reduced-timing walk exhausts the
    // table, and the controller redoes the retry with default timing.
    dec.fallback = true;
    dec.reducedSteps = model_.cal().retryTableSteps;
    dec.defaultSteps = n;
    return dec;
}

ReadPlan
RetryController::planSequential(sim::Tick start, sim::Tick s_first,
                                sim::Tick s_retry,
                                const StepDecision &dec, ssd::Channel &ch,
                                ecc::EccEngine &ecc,
                                bool set_feature) const
{
    ReadPlan plan;
    const sim::Tick d = timing_.tDMA;

    // Initial read: sense, transfer, decode.
    sim::Tick sense_end = start + s_first;
    sim::Tick dma_end = ch.acquire(sense_end, d) + d;
    sim::Tick ecc_end = ecc.acquire(dma_end) + ecc.tEcc();
    sim::Tick last_dma_end = dma_end;

    const int total = dec.reducedSteps + dec.defaultSteps;
    if (total == 0) {
        plan.success = dec.success;
        plan.completion = ecc_end;
        plan.dieEnd = dma_end;
        return plan;
    }

    sim::Tick t = ecc_end; // failure verdict of the previous step
    if (set_feature)
        t += timing_.tSET; // apply the RPT's tPRE once (Fig. 13)

    for (int k = 0; k < dec.reducedSteps; ++k) {
        sense_end = t + s_retry;
        dma_end = ch.acquire(sense_end, d) + d;
        ecc_end = ecc.acquire(dma_end) + ecc.tEcc();
        last_dma_end = dma_end;
        t = ecc_end;
    }

    if (dec.fallback)
        t += timing_.tSET; // roll back to default timing for the redo

    for (int k = 0; k < dec.defaultSteps; ++k) {
        sense_end = t + s_first;
        dma_end = ch.acquire(sense_end, d) + d;
        ecc_end = ecc.acquire(dma_end) + ecc.tEcc();
        last_dma_end = dma_end;
        t = ecc_end;
    }

    plan.retrySteps = total;
    plan.extraSteps = dec.fallback ? dec.reducedSteps : 0;
    plan.timingFallback = dec.fallback;
    plan.success = dec.success;
    plan.completion = ecc_end;
    plan.dieEnd = last_dma_end + (set_feature ? timing_.tSET : 0);
    return plan;
}

ReadPlan
RetryController::planPipelined(sim::Tick start, sim::Tick s_first,
                               sim::Tick s_retry,
                               const StepDecision &dec, ssd::Channel &ch,
                               ecc::EccEngine &ecc,
                               bool set_feature) const
{
    ReadPlan plan;
    const sim::Tick d = timing_.tDMA;
    const int total = dec.reducedSteps + dec.defaultSteps;

    // Initial read.
    sim::Tick sense_end = start + s_first;
    sim::Tick dma_end = ch.acquire(sense_end, d) + d;
    sim::Tick ecc_end = ecc.acquire(dma_end) + ecc.tEcc();

    if (total == 0) {
        // PR2 already speculatively issued retry step 1 (CACHE READ,
        // default timing) at sense_end; the RESET after ECC success
        // kills it (Fig. 12(b), "unnecessary" step).
        plan.success = dec.success;
        plan.completion = ecc_end;
        const sim::Tick spec_end = sense_end + s_first;
        const sim::Tick reset_end = ecc_end + timing_.tRST;
        plan.dieEnd = std::max(dma_end, std::min(spec_end, reset_end));
        return plan;
    }

    // When the mechanism adapts timing, the first retry can only be
    // issued after the initial failure verdict + SET FEATURE
    // (Fig. 13); pure PR2 pipelines it right after the first sensing
    // (Fig. 12(b)).
    sim::Tick sense_start;
    if (set_feature)
        sense_start = ecc_end + timing_.tSET;
    else
        sense_start = sense_end;

    sim::Tick prev_dma_end = dma_end;
    sim::Tick last_sense_len = s_first;
    for (int k = 0; k < total; ++k) {
        const bool reduced = k < dec.reducedSteps;
        const sim::Tick s = reduced ? s_retry : s_first;
        if (dec.fallback && k == dec.reducedSteps) {
            // Reduced walk exhausted: roll timing back, then redo.
            sense_start += timing_.tSET;
        }
        sense_end = sense_start + s;
        // The sensed data moves to the output register only once the
        // previous transfer has drained it (cache-register rule).
        const sim::Tick ready = std::max(sense_end, prev_dma_end);
        dma_end = ch.acquire(ready, d) + d;
        ecc_end = ecc.acquire(dma_end) + ecc.tEcc();
        prev_dma_end = dma_end;
        // The next speculative sensing starts as soon as the cache
        // register is free again.
        sense_start = ready;
        last_sense_len = s;
    }

    plan.retrySteps = total;
    plan.extraSteps = dec.fallback ? dec.reducedSteps : 0;
    plan.timingFallback = dec.fallback;
    plan.success = dec.success;
    plan.completion = ecc_end;

    // A speculative extra step is in flight; RESET terminates it.
    const sim::Tick spec_end = sense_start + last_sense_len;
    const sim::Tick reset_end = ecc_end + timing_.tRST;
    sim::Tick die_end = std::max(dma_end, std::min(spec_end, reset_end));
    if (set_feature)
        die_end += timing_.tSET; // roll back to default timing
    plan.dieEnd = die_end;
    return plan;
}

ReadPlan
RetryController::planRead(sim::Tick start, nand::PageType type,
                          const nand::PageErrorProfile &prof,
                          const nand::OperatingPoint &op, ssd::Channel &ch,
                          ecc::EccEngine &ecc) const
{
    const StepDecision dec = decideSteps(prof, op);
    const sim::Tick s_def = timing_.tR(type);
    const sim::Tick s_red = timing_.tR(type, dec.reduction);
    const bool set_feature =
        usesAdaptiveTiming(mech_) && !dec.reduction.none() &&
        (dec.reducedSteps + dec.defaultSteps) > 0;

    if (usesPipelining(mech_))
        return planPipelined(start, s_def, s_red, dec, ch, ecc,
                             set_feature);
    return planSequential(start, s_def, s_red, dec, ch, ecc,
                          set_feature);
}

} // namespace ssdrr::core
