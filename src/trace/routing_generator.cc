#include "trace/routing_generator.hh"

#include <algorithm>
#include <cmath>

#include "core/error.hh"

namespace laer
{

RoutingModel
RoutingModel::wikitext(int n_devices, int n_experts, int top_k,
                       TokenCount tokens_per_device)
{
    RoutingModel m;
    m.numDevices = n_devices;
    m.numExperts = n_experts;
    m.topK = top_k;
    m.tokensPerDevice = tokens_per_device;
    m.skew = 0.75;
    m.drift = 0.985;
    m.deviceJitter = 0.15;
    return m;
}

RoutingModel
RoutingModel::c4(int n_devices, int n_experts, int top_k,
                 TokenCount tokens_per_device)
{
    RoutingModel m;
    m.numDevices = n_devices;
    m.numExperts = n_experts;
    m.topK = top_k;
    m.tokensPerDevice = tokens_per_device;
    m.skew = 0.55;
    m.drift = 0.95;
    m.deviceJitter = 0.25;
    return m;
}

RoutingGenerator::RoutingGenerator(const RoutingModel &model)
    : model_(model), rng_(model.seed)
{
    LAER_CHECK(model_.numDevices > 0 && model_.numExperts > 0,
               "routing generator needs devices and experts");
    LAER_CHECK(model_.topK >= 1 && model_.topK <= model_.numExperts,
               "top-k out of range");
    LAER_CHECK(model_.drift >= 0.0 && model_.drift < 1.0,
               "drift must be in [0, 1)");
    // Initialise logits at the stationary distribution of the AR(1)
    // process so iteration 0 is already representative.
    logits_.resize(model_.numExperts);
    for (auto &l : logits_)
        l = rng_.gaussian(0.0, model_.skew);
}

std::vector<double>
RoutingGenerator::popularity() const
{
    std::vector<double> p(logits_.size());
    double max_logit = logits_[0];
    for (double l : logits_)
        max_logit = std::max(max_logit, l);
    double sum = 0.0;
    for (std::size_t i = 0; i < logits_.size(); ++i) {
        p[i] = std::exp(logits_[i] - max_logit);
        sum += p[i];
    }
    for (auto &v : p)
        v /= sum;
    return p;
}

RoutingMatrix
RoutingGenerator::next()
{
    return nextForTokens(std::vector<TokenCount>(
        model_.numDevices, model_.tokensPerDevice));
}

RoutingMatrix
RoutingGenerator::nextForTokens(const std::vector<TokenCount> &tokens)
{
    LAER_CHECK(static_cast<int>(tokens.size()) == model_.numDevices,
               "token vector must have one entry per device");
    // AR(1) logit evolution with stationary std = skew:
    //   l <- drift * l + sqrt(1 - drift^2) * skew * noise
    const double rho = model_.drift;
    const double sigma = std::sqrt(1.0 - rho * rho) * model_.skew;
    for (auto &l : logits_)
        l = rho * l + rng_.gaussian(0.0, sigma);

    // Auxiliary-loss feedback: shrink logits toward 0 (uniform
    // routing). The rate is calibrated so weight 1e-2 balances within
    // ~10^2 iterations (paper Fig. 2) while 1e-4 damps mildly.
    if (model_.auxLossWeight > 0.0) {
        const double shrink =
            std::exp(-300.0 * model_.auxLossWeight);
        for (auto &l : logits_)
            l *= shrink;
    }

    const std::vector<double> global = popularity();
    RoutingMatrix routing(model_.numDevices, model_.numExperts);

    // Per-device jitter: Dirichlet around the global popularity. The
    // concentrations are the same for every device of this step, so
    // their sampler constants are computed once.
    const double conc = 1.0 / std::max(1e-6, model_.deviceJitter);
    shapes_.clear();
    bool any_plain = false;
    for (std::size_t j = 0; j < global.size(); ++j) {
        shapes_.emplace_back(std::max(
            1e-3, global[j] * conc * static_cast<double>(model_.numExperts)));
        any_plain = any_plain || !shapes_.back().boosted;
    }
    for (DeviceId d = 0; d < model_.numDevices; ++d) {
        const TokenCount routed =
            tokens[d] * static_cast<TokenCount>(model_.topK);
        // A zero-token device routes nothing and its row stays zero.
        // With sparseDraw its draw is dropped from the stream. The
        // dense path keeps the stream of the full draw (a zero-trial
        // multinomial draws nothing) and, when it can, passes over
        // the Dirichlet with skipGamma. That is exact only if the full
        // draw's checks could not have fired. A non-boosted shape's
        // variate is d * v with d >= 2/3 and v = (1 + c x)^3, where
        // 1 + c x is a positive double, hence >= 2^-53: the variate is
        // >= 2^-160 > 0. So the Dirichlet sum is > 0, and the
        // multinomial's probabilities are >= 0 with a positive sum.
        // Boosted variates may underflow to zero, so a step whose
        // shapes are all boosted runs the full draw.
        if (routed == 0) {
            if (model_.sparseDraw)
                continue;
            if (any_plain) {
                for (const Rng::GammaShape &g : shapes_)
                    rng_.skipGamma(g);
                continue;
            }
        }
        rng_.dirichlet(shapes_, local_);
        rng_.multinomial(routed, local_, routing.row(d));
    }
    return routing;
}

} // namespace laer
