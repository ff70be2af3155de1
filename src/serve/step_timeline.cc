#include "serve/step_timeline.hh"

#include <algorithm>

#include "core/error.hh"

namespace laer
{

namespace
{

/** A task duration: non-negative and not NaN. */
void
checkDuration(Seconds secs)
{
    LAER_CHECK(secs >= 0.0, "negative task duration");
}

} // namespace

StepTimeline
priceStepTimeline(int devices, Seconds attn,
                  const std::vector<Seconds> &dispatch,
                  const std::vector<Seconds> &combine,
                  const std::vector<Seconds> &expert)
{
    LAER_CHECK(devices > 0, "step timeline needs at least one device");
    const auto n = static_cast<std::size_t>(devices);
    const std::size_t layers = dispatch.size();
    LAER_CHECK(combine.size() == layers,
               "dispatch and combine layer counts differ");
    LAER_CHECK(expert.size() == layers * n,
               "expert times must be layers x devices");
    checkDuration(attn);

    StepTimeline out;
    Seconds t = 0.0;
    for (std::size_t l = 0; l < layers; ++l) {
        const Seconds t_disp = dispatch[l];
        const Seconds t_comb = combine[l];
        checkDuration(t_disp);
        checkDuration(t_comb);
        const Seconds *e = expert.data() + l * n;

        // Each accumulator sees its terms in the reference order; the
        // three are independent, so one pass interleaves them.
        Seconds e_max = 0.0;
        for (std::size_t d = 0; d < n; ++d) {
            checkDuration(e[d]);
            e_max = std::max(e_max, e[d]);
            out.attnBusy += attn;
            out.a2aBusy += t_disp;
            out.expertBusy += e[d];
        }
        for (std::size_t d = 0; d < n; ++d)
            out.a2aBusy += t_comb;

        t = t + attn;
        t = t + t_disp;
        t = t + e_max;
        t = t + t_comb;
    }
    out.makespan = t;
    out.a2aBusy /= devices;
    out.expertBusy /= devices;
    out.attnBusy /= devices;
    return out;
}

} // namespace laer
