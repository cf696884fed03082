/**
 * @file
 * Walker alias-table sampler over a sparse PMF.
 *
 * Setup is O(support); each draw is O(1) and consumes exactly one
 * word from the Rng, so sampling a histogram of T trials is O(T)
 * after an O(support) build — replacing the per-draw binary search of
 * the old cumulative-distribution sampler. Entries are sorted by
 * outcome at build time so a table built from the same PMF samples the
 * same stream regardless of hash-map iteration order.
 */
#ifndef JIGSAW_COMMON_ALIAS_H
#define JIGSAW_COMMON_ALIAS_H

#include <stdexcept>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"

namespace jigsaw {

class Pmf;

/** Precomputed alias table for O(1) categorical sampling. */
class AliasTable
{
  public:
    /** Empty table; sample() on it is an error. */
    AliasTable() = default;

    /** Build from the non-zero entries of @p pmf (need not be normalized). */
    explicit AliasTable(const Pmf &pmf);

    /** Build from explicit (outcome, weight) pairs. */
    explicit AliasTable(
        std::vector<std::pair<BasisState, double>> entries);

    /** True when the table has no entries. */
    bool empty() const { return outcomes_.empty(); }

    /** Number of entries in the table. */
    std::size_t size() const { return outcomes_.size(); }

    /**
     * Draw one outcome from one word of @p rng: its canonical double
     * scaled by the bin count picks the bin (integer part) and the
     * side of the bin's threshold (fraction).
     */
    BasisState
    sample(Rng &rng) const
    {
        if (outcomes_.empty()) [[unlikely]]
            throw std::invalid_argument("AliasTable::sample: empty table");
        const double u = Rng::canonical(rng.word()) *
                         static_cast<double>(outcomes_.size());
        std::size_t bin = static_cast<std::size_t>(u);
        if (bin >= outcomes_.size())
            bin = outcomes_.size() - 1;
        const double frac = u - static_cast<double>(bin);
        return frac < threshold_[bin] ? outcomes_[bin] : alias_[bin];
    }

  private:
    void build(std::vector<std::pair<BasisState, double>> entries);

    std::vector<BasisState> outcomes_; ///< Outcome of each bin.
    std::vector<BasisState> alias_;    ///< Alias outcome of each bin.
    std::vector<double> threshold_;    ///< Bin-local acceptance bound.
};

} // namespace jigsaw

#endif // JIGSAW_COMMON_ALIAS_H
