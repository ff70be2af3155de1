/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component (routing generator, layout perturbations,
 * synthetic datasets) draws from an Rng seeded explicitly so that each
 * experiment is bit-reproducible. The generator is xoshiro256**, which
 * is fast, small, and has no measurable bias for our use cases.
 */

#ifndef LAER_CORE_RNG_HH
#define LAER_CORE_RNG_HH

#include <cstdint>
#include <vector>

namespace laer
{

/**
 * Seedable random source with the distributions the project needs.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    int uniformInt(int lo, int hi);

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Marsaglia-Tsang constants of one Gamma(shape, 1) sampler,
     * computed once and reused for every draw of that shape. A shape
     * below 1 is boosted: the sampler draws Gamma(shape + 1) and
     * scales it by u^(1/shape), so `d` and `c` belong to shape + 1.
     */
    struct GammaShape
    {
        /** Precompute the constants; shape must be positive. */
        explicit GammaShape(double shape);

        bool boosted;    //!< shape < 1
        double invShape; //!< 1 / shape (used when boosted)
        double d;        //!< shape - 1/3 of the (boosted) shape
        double c;        //!< 1 / sqrt(9 d)
    };

    /** Sample from Gamma(shape, 1) — used to build Dirichlet draws. */
    double gamma(double shape);

    /** Sample from Gamma with precomputed constants. */
    double gamma(const GammaShape &g);

    /**
     * Advance the stream exactly as gamma(g) would, without producing
     * the variate. Most candidates are settled from the Box-Muller
     * radius alone, before any cos/log of the acceptance tests (the
     * bound is proven in docs/PERF.md); the boost's pow is never
     * evaluated. The discarded variate of a non-boosted shape would
     * have been strictly positive.
     */
    void skipGamma(const GammaShape &g);

    /**
     * Dirichlet draw: probability vector of size n with concentration
     * alpha (symmetric). Small alpha -> highly skewed vectors.
     */
    std::vector<double> dirichlet(int n, double alpha);

    /** Dirichlet draw with per-component concentrations. */
    std::vector<double> dirichlet(const std::vector<double> &alphas);

    /** Dirichlet draw into `out` (resized to shapes.size()). */
    void dirichlet(const std::vector<GammaShape> &shapes,
                   std::vector<double> &out);

    /**
     * Zipf-distributed integer in [0, n): P(k) proportional to
     * 1 / (k + 1)^s. Uses inverse-CDF over a precomputable table-free
     * loop; n is expected to stay small (vocabulary buckets, experts).
     */
    int zipf(int n, double s);

    /**
     * Multinomial draw: distribute `total` trials over `probs`
     * (which need not be normalised). Returns per-bucket counts.
     */
    std::vector<std::int64_t>
    multinomial(std::int64_t total, const std::vector<double> &probs);

    /** Multinomial draw into counts[0, probs.size()). */
    void multinomial(std::int64_t total, const std::vector<double> &probs,
                     std::int64_t *counts);

    /** Fisher-Yates shuffle of an index vector [0, n). */
    std::vector<int> permutation(int n);

  private:
    /** Box-Muller radius sqrt(-2 ln u1) of the next normal draw. */
    double gaussianRadius();

    /** Marsaglia-Tsang sampler of the (boosted) shape d + 1/3. */
    double gammaSqueeze(const GammaShape &g);

    std::uint64_t s_[4];
};

} // namespace laer

#endif // LAER_CORE_RNG_HH
