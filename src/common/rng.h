/**
 * @file
 * Deterministic random-number generation for simulators and samplers.
 *
 * All randomness in the library flows through Rng instances that are
 * explicitly seeded, so every test, bench, and example is reproducible.
 *
 * Stream contract: an Rng(seed) draws exactly the words of
 * std::mt19937_64(seed), uniform() is exactly the
 * std::generate_canonical<double, 53> double of the next word, and
 * the normal, log-normal and integer draws are the std distributions
 * run over those words. A Bernoulli precomputed into an integer
 * threshold takes the same words and returns the same results as
 * bernoulli(). docs/performance.md ("Readout sampling") has the
 * derivation.
 */
#ifndef JIGSAW_COMMON_RNG_H
#define JIGSAW_COMMON_RNG_H

#include <array>
#include <cstdint>
#include <random>
#include <vector>

namespace jigsaw {

/**
 * MT19937-64 with the seeding, twist and tempering of
 * std::mt19937_64, word for word. The twist selects the matrix term
 * with a mask rather than a branch on the low bit (libstdc++ compiles
 * its `(y & 1) ? a : 0` to a jump that mispredicts half the time),
 * which is where the speed comes from. Satisfies
 * UniformRandomBitGenerator, so the std distributions run over it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next tempered word. */
    result_type
    operator()()
    {
        if (next_ >= kStateSize)
            twist();
        std::uint64_t z = state_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr std::size_t kStateSize = 312;

    /** Regenerate the whole state block (next_ back to 0). */
    void twist();

    std::array<std::uint64_t, kStateSize> state_{};
    std::size_t next_ = kStateSize;
};

/**
 * Explicitly seeded generator with the distribution helpers the
 * library needs. Copyable; copies continue the same stream state.
 */
class Rng
{
  public:
    /** Construct from an explicit 64-bit seed. */
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /**
     * The double std::generate_canonical<double, 53> makes of word
     * @p w: w / 2^64 after rounding w to a double, clamped below 1.
     */
    static double
    canonical(std::uint64_t w)
    {
        const double u = static_cast<double>(w) * 0x1p-64;
        return u < 1.0 ? u : 0x1.fffffffffffffp-1;
    }

    /** Uniform double in [0, 1). */
    double uniform() { return canonical(engine_()); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Normal sample with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Log-normal sample parameterized by log-space mu and sigma. */
    double
    logNormal(double mu, double sigma)
    {
        return std::lognormal_distribution<double>(mu, sigma)(engine_);
    }

    /** Uniform 64-bit word. */
    std::uint64_t word() { return engine_(); }

    /**
     * Sample an index from an unnormalized weight vector.
     * Returns weights.size()-1 on accumulated round-off.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /**
     * Choose @p k distinct indices uniformly from [0, n) via partial
     * Fisher-Yates; result order is random.
     */
    std::vector<int> sampleWithoutReplacement(int n, int k);

    /** Derive an independent child generator (for parallel streams). */
    Rng
    fork()
    {
        return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL);
    }

  private:
    Mt19937_64 engine_;
};

/**
 * A Bernoulli(p) trial precomputed as an integer threshold on raw
 * words. canonical() is monotone in the word, so uniform() < p holds
 * exactly when the word is below t(p), the smallest word whose
 * canonical double is >= p; draw() therefore consumes the same words
 * and returns the same results as Rng::bernoulli(p), without the
 * double conversion. Like bernoulli(), p <= 0 and p >= 1 draw no
 * word: they are stored as t = 0 and t = 2^64 - 1, which no p in
 * (0, 1) yields (t(p) <= 2^64 - 3071 there).
 */
class Bernoulli
{
  public:
    /** Threshold for success probability @p p (NaN is rejected). */
    explicit Bernoulli(double p = 0.0);

    /** One trial; consumes a word only when 0 < p < 1. */
    bool
    draw(Rng &rng) const
    {
        if (drawsWord()) [[likely]]
            return rng.word() < t_;
        return t_ == kAlways;
    }

    /** True when draw() consumes a word (0 < p < 1). */
    bool drawsWord() const { return t_ - 1 < kAlways - 1; }

    /** The stored threshold word (see the class comment). */
    std::uint64_t threshold() const { return t_; }

  private:
    static constexpr std::uint64_t kAlways = ~std::uint64_t(0);
    std::uint64_t t_ = 0;
};

} // namespace jigsaw

#endif // JIGSAW_COMMON_RNG_H
