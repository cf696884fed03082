/**
 * @file
 * The benchmark's three workloads and the helpers they share.
 *
 * Each run*() makes its inputs from RunConfig::seed, measures an
 * untraced pass for RunConfig::seconds, and with RunConfig::trace
 * repeats the same repetitions with layer spans on. Correctness
 * references are computed after the timed regions and outside every
 * set-up sample.
 */
#ifndef JIGSAW_E2E_WORKLOADS_H
#define JIGSAW_E2E_WORKLOADS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/service.h"
#include "obs/exposition.h"
#include "report.h"

namespace e2e {

Result runPaperSweep(const RunConfig &config);
Result runStreamBursty(const RunConfig &config);
Result runVqaLoop(const RunConfig &config);

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Exact (bitwise) PMF equality: same support, same stored doubles. */
inline bool
pmfsIdentical(const jigsaw::Pmf &a, const jigsaw::Pmf &b)
{
    if (a.nQubits() != b.nQubits() || a.support() != b.support())
        return false;
    for (const auto &[outcome, p] : a.probabilities()) {
        if (p != b.prob(outcome))
            return false;
    }
    return true;
}

/** SplitMix64 step: derives independent seeds from the run seed. */
inline std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a 64-bit draw (library-independent). */
inline double
unitInterval(std::uint64_t bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/** Add the process-wide counter deltas of a pass (transpile memo and
 *  SIMD dispatch) under their per-layer names. */
inline void
addProcessCounters(std::map<std::string, std::uint64_t> &counters,
                   const jigsaw::obs::ProcessCounters &d)
{
    counters["compiler.transpile_hits"] += d.transpileCacheHits;
    counters["compiler.transpile_misses"] += d.transpileCacheMisses;
    counters["compiler.transpile_rebinds"] += d.transpileSkeletonRebinds;
    counters["simd.calls_scalar"] += d.simdDispatchScalar;
    counters["simd.calls_avx2"] += d.simdDispatchAvx2;
    counters["simd.calls_avx512"] += d.simdDispatchAvx512;
}

/**
 * Repetitions the traced pass replays: the first ones whose untraced
 * timed time reaches half of @p seconds (at least one), so a traced
 * run costs about one and a half untraced runs.
 */
inline std::size_t
tracedRepetitions(const std::vector<double> &rep_ms, double seconds)
{
    std::size_t k = 0;
    double sum = 0.0;
    while (k < rep_ms.size() && (k == 0 || sum < 500.0 * seconds))
        sum += rep_ms[k++];
    return k;
}

/** Untraced timed milliseconds of the first @p k repetitions. */
inline double
firstRepetitionsMs(const std::vector<double> &rep_ms, std::size_t k)
{
    double sum = 0.0;
    for (std::size_t r = 0; r < k; ++r)
        sum += rep_ms[r];
    return sum;
}

/** A scheduler's counters after one repetition, under their
 *  per-layer names (scheduler and executor-cache counters). */
inline void
addStreamStats(std::map<std::string, std::uint64_t> &counters,
               const jigsaw::core::StreamStats &stats)
{
    counters["scheduler.merged_windows"] += stats.mergedWindows;
    counters["scheduler.merged_jobs"] += stats.mergedJobs;
    counters["scheduler.cross_program_groups"] += stats.crossProgramGroups;
    counters["scheduler.lone_dispatches"] += stats.loneDispatches;
    counters["scheduler.retries"] += stats.retries;
    counters["scheduler.shed"] += stats.shed;
    counters["scheduler.expired"] += stats.expired;
    counters["sim.pmf_cache_hits"] += stats.executorPmfHits;
    counters["sim.pmf_cache_misses"] += stats.executorPmfMisses;
    counters["sim.prefix_state_hits"] += stats.prefixStateHits;
    counters["sim.prefix_state_misses"] += stats.prefixStateMisses;
}

} // namespace e2e

#endif // JIGSAW_E2E_WORKLOADS_H
