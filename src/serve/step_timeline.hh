/**
 * @file
 * Closed-form pricing of one serving step's forward timeline.
 *
 * Every simulated MoE layer of a serving step is barrier-synchronous
 * across the pool's n devices: attention (uniform time, the batch is
 * data parallel), then the dispatch All-to-All, then the expert FFN
 * (per-device time, layout dependent), then the combine All-to-All.
 * Each All-to-All waits for every device, so the step is a chain of
 * barrier phases and its makespan is
 *
 *     t = 0
 *     per layer: t = t + attn; t = t + t_disp;
 *                t = t + max_d(expert_d); t = t + t_comb
 *
 * This is bit-identical to scheduling the 4n tasks per layer on
 * per-device compute/dispatch streams with a discrete-event engine:
 * IEEE round-to-nearest addition is monotone, so
 * max_d(t + e_d) == t + max_d(e_d) exactly, and every other phase
 * starts at the barrier that closed the previous one. The busy sums
 * add the same terms in the same order as that engine's per-category
 * accumulation (per layer: n x attn, n x t_disp, n x expert_d,
 * n x t_comb) and divide by n once at the end, so they match it
 * bit for bit too.
 *
 * Cost is O(n * layers) with no allocation.
 */

#ifndef LAER_SERVE_STEP_TIMELINE_HH
#define LAER_SERVE_STEP_TIMELINE_HH

#include <vector>

#include "core/types.hh"

namespace laer
{

/** Makespan and per-device mean busy time of one priced step. */
struct StepTimeline
{
    Seconds makespan = 0.0;   //!< finish of the last combine barrier
    Seconds a2aBusy = 0.0;    //!< dispatch + combine busy per device
    Seconds expertBusy = 0.0; //!< expert FFN busy per device
    Seconds attnBusy = 0.0;   //!< attention busy per device
};

/**
 * Price the barrier-synchronous forward timeline of one step.
 *
 * @param devices   Pool size n (> 0).
 * @param attn      Attention time per device per layer.
 * @param dispatch  Dispatch All-to-All time, one entry per layer.
 * @param combine   Combine All-to-All time, one entry per layer.
 * @param expert    Expert FFN time per device, layer-major:
 *                  expert[l * n + d] (size layers * n).
 * @return the makespan and the per-device mean busy sums.
 * @throws FatalError if n < 1, the sizes disagree, or any duration is
 *         negative or NaN.
 */
StepTimeline priceStepTimeline(int devices, Seconds attn,
                               const std::vector<Seconds> &dispatch,
                               const std::vector<Seconds> &combine,
                               const std::vector<Seconds> &expert);

} // namespace laer

#endif // LAER_SERVE_STEP_TIMELINE_HH
