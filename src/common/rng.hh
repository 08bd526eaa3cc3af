/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The synthetic workload generator must be exactly reproducible from a
 * seed (the same event must regenerate bit-identically when ESP
 * pre-executes it), so we use a self-contained xorshift128+ generator
 * rather than std::mt19937, whose distributions are not guaranteed to
 * be identical across standard library implementations.
 */

#ifndef ESPSIM_COMMON_RNG_HH
#define ESPSIM_COMMON_RNG_HH

#include <cstdint>

#include "common/logging.hh"

namespace espsim
{

/**
 * Integer threshold of a Bernoulli trial with probability @p p.
 *
 * real() is x * 2^-53 for the 53-bit x = next() >> 11, and the
 * product is exact, so real() < p holds exactly when
 * x < ceil(p * 2^53) (scaling by a power of two is exact too). Hence
 * chance(p) == trial(bernoulliCut(p)) for every generator state:
 * p <= 0 and NaN give 0 (never), p >= 1 gives 2^53 (always).
 */
constexpr std::uint64_t
bernoulliCut(double p)
{
    constexpr std::uint64_t one = std::uint64_t{1} << 53;
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return one;
    const double scaled = p * 0x1.0p53;
    const auto whole = static_cast<std::uint64_t>(scaled);
    return static_cast<double>(whole) < scaled ? whole + 1 : whole;
}

/** xorshift128+ deterministic PRNG with convenience distributions. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) { reseed(seed); }

    /** Re-initialise the state from a seed via splitmix64. */
    void
    reseed(std::uint64_t seed)
    {
        // splitmix64 to spread low-entropy seeds over the state.
        auto next = [&seed]() {
            seed += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            return z ^ (z >> 31);
        };
        s0 = next();
        s1 = next();
        if (s0 == 0 && s1 == 0)
            s1 = 1;
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0;
        const std::uint64_t y = s1;
        s0 = y;
        x ^= x << 23;
        s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1 + y;
    }

    /**
     * next() when @p draw holds; otherwise the state stays as it is.
     * Branch-free, for the walk's coin-flip selections.
     */
    std::uint64_t
    nextIf(bool draw)
    {
        const std::uint64_t keep = std::uint64_t{draw} - 1;
        std::uint64_t x = s0;
        const std::uint64_t y = s1;
        x ^= x << 23;
        const std::uint64_t n1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        s0 = (s0 & keep) | (y & ~keep);
        s1 = (s1 & keep) | (n1 & ~keep);
        return n1 + y;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            panic("Rng::below called with bound 0");
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        if (hi < lo)
            panic("Rng::range called with hi < lo");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p) { return real() < p; }

    /**
     * Bernoulli trial against a precomputed bernoulliCut(p): the same
     * outcome, and the same draw, as chance(p), with no floating point.
     */
    bool trial(std::uint64_t cut) { return (next() >> 11) < cut; }

    /**
     * Zipf-like skewed pick from [0, n): low indices are much more
     * likely. Cheap approximation (squared uniform) adequate for
     * hot/cold code and data selection.
     */
    std::uint64_t
    skewed(std::uint64_t n)
    {
        const double u = real();
        return static_cast<std::uint64_t>(u * u * static_cast<double>(n));
    }

  private:
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
};

} // namespace espsim

#endif // ESPSIM_COMMON_RNG_HH
