#include "core/rng.hh"

#include <algorithm>
#include <cmath>

#include "core/error.hh"
#include "core/types.hh"

namespace laer
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &lane : s_)
        lane = splitMix64(sm);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return (nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int
Rng::uniformInt(int lo, int hi)
{
    LAER_ASSERT(lo <= hi, "empty integer range");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(nextU64() % span);
}

double
Rng::gaussianRadius()
{
    double u1 = uniform();
    while (u1 <= 1e-300)
        u1 = uniform();
    return std::sqrt(-2.0 * std::log(u1));
}

double
Rng::gaussian()
{
    // Box-Muller; discards the second variate for simplicity.
    const double r = gaussianRadius();
    const double u2 = uniform();
    return r * std::cos(2.0 * kPi * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

Rng::GammaShape::GammaShape(double shape)
{
    LAER_ASSERT(shape > 0.0, "gamma shape must be positive");
    boosted = shape < 1.0;
    invShape = 1.0 / shape;
    d = (boosted ? shape + 1.0 : shape) - 1.0 / 3.0;
    c = 1.0 / std::sqrt(9.0 * d);
}

namespace
{

// Marsaglia-Tsang acceptance of the candidate x (v = (1 + c x)^3 > 0)
// against the uniform u: the cheap squeeze first, then the exact test.
bool
gammaAccepts(const Rng::GammaShape &g, double x, double v, double u)
{
    return u < 1.0 - 0.0331 * x * x * x * x ||
           std::log(u) < 0.5 * x * x + g.d * (1.0 - v + std::log(v));
}

} // namespace

double
Rng::gamma(double shape)
{
    return gamma(GammaShape(shape));
}

double
Rng::gamma(const GammaShape &g)
{
    if (g.boosted) {
        // Boost to shape + 1 and scale back (Marsaglia-Tsang trick).
        const double u = uniform();
        return gammaSqueeze(g) * std::pow(u, g.invShape);
    }
    return gammaSqueeze(g);
}

double
Rng::gammaSqueeze(const GammaShape &g)
{
    // Marsaglia-Tsang squeeze method.
    for (;;) {
        const double x = gaussian();
        double v = 1.0 + g.c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        const double u = uniform();
        if (gammaAccepts(g, x, v, u))
            return g.d * v;
    }
}

void
Rng::skipGamma(const GammaShape &g)
{
    if (g.boosted)
        uniform(); // the boost's scale draw; its pow is not needed
    for (;;) {
        // gaussian() draws the radius s, then u2, and returns
        // x = s * cos(2 pi u2) with |x| <= s after rounding. So
        // c s < 1 proves 1 + c x > 0 (gamma() goes on to draw u), and
        // the squeeze at s accepting proves gamma()'s squeeze accepts.
        const double s = gaussianRadius();
        const double u2 = uniform();
        const bool bounded = g.c * s < 1.0;
        double x = 0.0;
        if (!bounded) {
            x = s * std::cos(2.0 * kPi * u2);
            if (1.0 + g.c * x <= 0.0)
                continue;
        }
        const double u = uniform();
        if (bounded) {
            if (u < 1.0 - 0.0331 * s * s * s * s)
                return;
            x = s * std::cos(2.0 * kPi * u2);
        }
        double v = 1.0 + g.c * x;
        v = v * v * v;
        if (gammaAccepts(g, x, v, u))
            return;
    }
}

std::vector<double>
Rng::dirichlet(int n, double alpha)
{
    return dirichlet(std::vector<double>(n, alpha));
}

std::vector<double>
Rng::dirichlet(const std::vector<double> &alphas)
{
    std::vector<GammaShape> shapes;
    shapes.reserve(alphas.size());
    for (double a : alphas)
        shapes.emplace_back(a);
    std::vector<double> out;
    dirichlet(shapes, out);
    return out;
}

void
Rng::dirichlet(const std::vector<GammaShape> &shapes,
               std::vector<double> &out)
{
    out.resize(shapes.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        out[i] = gamma(shapes[i]);
        sum += out[i];
    }
    LAER_ASSERT(sum > 0.0, "degenerate Dirichlet draw");
    for (auto &v : out)
        v /= sum;
}

int
Rng::zipf(int n, double s)
{
    LAER_ASSERT(n > 0, "zipf needs a positive support size");
    double norm = 0.0;
    for (int k = 0; k < n; ++k)
        norm += 1.0 / std::pow(k + 1.0, s);
    double u = uniform() * norm;
    for (int k = 0; k < n; ++k) {
        u -= 1.0 / std::pow(k + 1.0, s);
        if (u <= 0.0)
            return k;
    }
    return n - 1;
}

std::vector<std::int64_t>
Rng::multinomial(std::int64_t total, const std::vector<double> &probs)
{
    std::vector<std::int64_t> counts(probs.size(), 0);
    multinomial(total, probs, counts.data());
    return counts;
}

void
Rng::multinomial(std::int64_t total, const std::vector<double> &probs,
                 std::int64_t *counts)
{
    // Sequential conditional-binomial sampling would need a binomial
    // sampler; for the token counts we care about (1e3..1e6 trials over
    // <= 64 buckets) a normal approximation with exact-count repair is
    // statistically indistinguishable and much faster.
    const int n = static_cast<int>(probs.size());
    LAER_ASSERT(n > 0, "multinomial needs at least one bucket");
    double psum = 0.0;
    for (double p : probs) {
        LAER_ASSERT(p >= 0.0, "multinomial probabilities must be >= 0");
        psum += p;
    }
    LAER_ASSERT(psum > 0.0, "multinomial probabilities sum to zero");

    std::fill(counts, counts + n, 0);
    if (total <= 0)
        return;

    std::int64_t assigned = 0;
    for (int i = 0; i < n; ++i) {
        const double p = probs[i] / psum;
        const double mean = static_cast<double>(total) * p;
        const double var = mean * (1.0 - p);
        double draw = mean;
        if (var > 0.0)
            draw = gaussian(mean, std::sqrt(var));
        std::int64_t c = static_cast<std::int64_t>(std::llround(draw));
        if (c < 0)
            c = 0;
        if (c > total)
            c = total;
        counts[i] = c;
        assigned += c;
    }
    // Repair rounding drift so the counts sum exactly to `total`,
    // spreading the correction over the largest buckets.
    std::int64_t drift = total - assigned;
    while (drift != 0) {
        for (int i = 0; i < n && drift != 0; ++i) {
            if (drift > 0) {
                ++counts[i];
                --drift;
            } else if (counts[i] > 0) {
                --counts[i];
                ++drift;
            }
        }
    }
}

std::vector<int>
Rng::permutation(int n)
{
    std::vector<int> idx(n);
    for (int i = 0; i < n; ++i)
        idx[i] = i;
    for (int i = n - 1; i > 0; --i) {
        const int j = uniformInt(0, i);
        std::swap(idx[i], idx[j]);
    }
    return idx;
}

} // namespace laer
