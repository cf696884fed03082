#include "common/alias.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/histogram.h"

namespace jigsaw {

AliasTable::AliasTable(const Pmf &pmf)
{
    std::vector<std::pair<BasisState, double>> entries;
    entries.reserve(pmf.support());
    for (const auto &[outcome, p] : pmf.probabilities()) {
        if (p > 0.0)
            entries.emplace_back(outcome, p);
    }
    build(std::move(entries));
}

AliasTable::AliasTable(std::vector<std::pair<BasisState, double>> entries)
{
    build(std::move(entries));
}

void
AliasTable::build(std::vector<std::pair<BasisState, double>> entries)
{
    if (entries.empty())
        return;
    // Outcome order, not hash order, so sampling is reproducible for
    // any two PMFs holding the same distribution.
    std::sort(entries.begin(), entries.end());

    const std::size_t n = entries.size();
    double total = 0.0;
    for (const auto &[outcome, w] : entries) {
        fatalIf(w < 0.0 || !std::isfinite(w),
                "AliasTable: weights must be finite and non-negative");
        total += w;
    }
    fatalIf(total <= 0.0, "AliasTable: total weight must be positive");

    outcomes_.resize(n);
    alias_.resize(n);
    threshold_.assign(n, 1.0);

    // Scale so the average bin weight is exactly 1, then pair each
    // under-full bin with an over-full donor (Vose's stable variant).
    std::vector<double> scaled(n);
    const double scale = static_cast<double>(n) / total;
    for (std::size_t i = 0; i < n; ++i) {
        outcomes_[i] = entries[i].first;
        alias_[i] = entries[i].first;
        scaled[i] = entries[i].second * scale;
    }

    std::vector<std::size_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        (scaled[i] < 1.0 ? small : large).push_back(i);

    while (!small.empty() && !large.empty()) {
        const std::size_t s = small.back();
        const std::size_t l = large.back();
        small.pop_back();
        threshold_[s] = scaled[s];
        alias_[s] = outcomes_[l];
        scaled[l] -= 1.0 - scaled[s];
        if (scaled[l] < 1.0) {
            large.pop_back();
            small.push_back(l);
        }
    }
    // Leftovers are full bins up to round-off; threshold_ stays 1.
}

} // namespace jigsaw
