/**
 * @file
 * Machine-readable perf trajectory for the bench harness.
 *
 * Benches append named timing entries — optionally as naive/optimized
 * pairs — and counter entries with a unit, and write them as a small
 * JSON document (BENCH_perf.json by convention) so successive PRs can
 * diff wall times. The format is described in docs/performance.md.
 */
#ifndef JIGSAW_BENCH_PERF_JSON_H
#define JIGSAW_BENCH_PERF_JSON_H

#include <optional>
#include <string>
#include <vector>

namespace jigsaw {
namespace bench {

/** Collects timing entries and serializes them to JSON. */
class PerfReport
{
  public:
    /** @p workload is a free-form description of what was measured. */
    explicit PerfReport(std::string workload);

    /** Record a before/after pair (milliseconds). */
    void addComparison(const std::string &name, double naive_ms,
                       double optimized_ms);

    /** Record a single timing with no baseline (milliseconds). */
    void addTiming(const std::string &name, double ms);

    /** Units of a counter entry. */
    enum class CounterUnit
    {
        Count, ///< An event count, written as an integer.
        Pct,   ///< A percentage in [0, 100].
    };

    /**
     * Record a counter — never a time, so it is written as "value"
     * with its "unit" instead of under "ms", and never enters
     * overallSpeedup().
     */
    void addCounter(const std::string &name, double value,
                    CounterUnit unit);

    /** Sum of naive_ms over comparisons / sum of optimized_ms. */
    double overallSpeedup() const;

    /** Serialize to a JSON string. */
    std::string toJson() const;

    /** Write the JSON to @p path; returns false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Entry
    {
        std::string name;
        double naiveMs;     ///< < 0 when the entry has no baseline.
        double optimizedMs; ///< The timing, or a counter's value.
        /** Set for counter entries. */
        std::optional<CounterUnit> unit;
    };

    std::string workload_;
    std::vector<Entry> entries_;
};

} // namespace bench
} // namespace jigsaw

#endif // JIGSAW_BENCH_PERF_JSON_H
