#include "common/rng.h"

#include <cmath>
#include <numeric>

#include "common/error.h"

namespace jigsaw {

namespace {

constexpr std::size_t kShift = 156; ///< MT19937-64 middle offset m.
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t(0) << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/** One twisted state word; the mask stands in for a branch. */
inline std::uint64_t
twisted(std::uint64_t self, std::uint64_t next, std::uint64_t far)
{
    const std::uint64_t y = (self & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

} // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
        const std::uint64_t prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
}

void
Mt19937_64::twist()
{
    constexpr std::size_t n = kStateSize;
    for (std::size_t k = 0; k < n - kShift; ++k)
        state_[k] = twisted(state_[k], state_[k + 1], state_[k + kShift]);
    for (std::size_t k = n - kShift; k < n - 1; ++k)
        state_[k] = twisted(state_[k], state_[k + 1],
                            state_[k + kShift - n]);
    state_[n - 1] = twisted(state_[n - 1], state_[0], state_[kShift - 1]);
    next_ = 0;
}

Bernoulli::Bernoulli(double p)
{
    fatalIf(std::isnan(p), "Bernoulli: probability is NaN");
    if (p <= 0.0) {
        t_ = 0;
        return;
    }
    if (p >= 1.0) {
        t_ = kAlways;
        return;
    }
    // Smallest word whose canonical double is >= p. The predicate is
    // false at 0 (canonical 0 < p) and true at 2^64 - 1 (canonical
    // 1 - 2^-53 >= p for every double p < 1), so bisect between.
    std::uint64_t lo = 0;
    std::uint64_t hi = kAlways;
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        (Rng::canonical(mid) >= p ? hi : lo) = mid;
    }
    t_ = hi;
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    fatalIf(weights.empty(), "discrete(): empty weight vector");
    double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    fatalIf(total <= 0.0, "discrete(): non-positive total weight");
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

std::vector<int>
Rng::sampleWithoutReplacement(int n, int k)
{
    fatalIf(k > n || k < 0, "sampleWithoutReplacement(): k out of range");
    std::vector<int> pool(static_cast<std::size_t>(n));
    std::iota(pool.begin(), pool.end(), 0);
    for (int i = 0; i < k; ++i) {
        const auto j = static_cast<std::size_t>(uniformInt(i, n - 1));
        std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    }
    pool.resize(static_cast<std::size_t>(k));
    return pool;
}

} // namespace jigsaw
