#include "suite_runner.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/error.h"
#include "core/jigsaw.h"
#include "device/library.h"
#include "mitigation/edm.h"
#include "perf_json.h"
#include "sim/simulators.h"
#include "workloads/registry.h"

namespace jigsaw {
namespace bench {

namespace {

/** Run @p fn, add its wall milliseconds to @p acc, return its value. */
template <typename Fn>
auto
timed(double &acc, Fn &&fn)
{
    const auto start = std::chrono::steady_clock::now();
    auto result = fn();
    acc += std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
    return result;
}

} // namespace

const SuiteCell &
SuiteRun::cell(int d, int w) const
{
    for (const SuiteCell &c : cells) {
        if (c.deviceIndex == d && c.workloadIndex == w)
            return c;
    }
    fatalIf(true, "SuiteRun: no such cell");
    return cells.front(); // unreachable
}

SuiteRun
runEvaluationSuite(std::uint64_t trials, std::uint64_t seed,
                   bool qaoa_only, bool quiet)
{
    SuiteRun run;
    run.devices = device::evaluationDevices();
    run.workloads = qaoa_only ? workloads::qaoaBenchmarks()
                              : workloads::paperBenchmarks();
    const obs::ProcessCounters counters0 =
        obs::ProcessCounters::snapshot();
    const auto sweep_start = std::chrono::steady_clock::now();

    for (int d = 0; d < static_cast<int>(run.devices.size()); ++d) {
        const device::DeviceModel &dev =
            run.devices[static_cast<std::size_t>(d)];
        for (int w = 0; w < static_cast<int>(run.workloads.size()); ++w) {
            const workloads::Workload &workload =
                *run.workloads[static_cast<std::size_t>(w)];
            if (!quiet) {
                std::cerr << "  [suite] " << dev.name() << " / "
                          << workload.name() << "\n";
            }
            const std::uint64_t cell_seed =
                seed + 1000003ULL * static_cast<std::uint64_t>(d) +
                10007ULL * static_cast<std::uint64_t>(w);
            sim::NoisySimulator executor(dev, {.seed = cell_seed});

            const Pmf baseline = timed(run.baselineMs, [&] {
                return core::runBaseline(workload.circuit(), dev,
                                         executor, trials);
            });
            const Pmf edm = timed(run.edmMs, [&] {
                return mitigation::runEdm(workload.circuit(), dev,
                                          executor, trials, 4)
                    .output;
            });

            core::JigsawOptions no_recomp;
            no_recomp.recompileCpms = false;
            const Pmf jigsaw_no_recomp = timed(run.jigsawNoRecompMs, [&] {
                return core::runJigsaw(workload.circuit(), dev, executor,
                                       trials, no_recomp)
                    .output;
            });
            const Pmf jigsaw = timed(run.jigsawMs, [&] {
                return core::runJigsaw(workload.circuit(), dev, executor,
                                       trials)
                    .output;
            });
            const Pmf jigsaw_m = timed(run.jigsawMMs, [&] {
                return core::runJigsaw(workload.circuit(), dev, executor,
                                       trials, core::jigsawMOptions())
                    .output;
            });

            run.cells.push_back({d, w, baseline, edm, jigsaw_no_recomp,
                                 jigsaw, jigsaw_m});
            run.executorCacheHits += executor.cacheHits();
            run.executorCacheMisses += executor.cacheMisses();
            run.batchEvolutions += executor.batchStats().baseEvolutions;
            run.marginalsServed += executor.batchStats().marginalsServed;
            run.evolutionsSaved +=
                executor.batchStats().evolutionsSaved();
            run.prefixStateHits += executor.skeletonCacheHits();
            run.prefixStateMisses += executor.skeletonCacheMisses();
        }
    }
    run.totalMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - sweep_start)
                      .count();
    run.counters = obs::ProcessCounters::snapshot().since(counters0);

    if (const char *path = std::getenv("JIGSAW_SUITE_TIMINGS_JSON")) {
        if (path[0] != '\0' && !writeSuiteTimings(run, path) && !quiet)
            std::cerr << "  [suite] cannot write timings to " << path
                      << "\n";
    }
    return run;
}

bool
writeSuiteTimings(const SuiteRun &run, const std::string &path)
{
    PerfReport report("evaluation sweep: " +
                      std::to_string(run.devices.size()) + " devices x " +
                      std::to_string(run.workloads.size()) +
                      " workloads");
    report.addTiming("suite/baseline", run.baselineMs);
    report.addTiming("suite/edm", run.edmMs);
    report.addTiming("suite/jigsaw_no_recompile", run.jigsawNoRecompMs);
    report.addTiming("suite/jigsaw", run.jigsawMs);
    report.addTiming("suite/jigsaw_m", run.jigsawMMs);
    report.addTiming("suite/total", run.totalMs);
    // Counters, not milliseconds: cache and batch effectiveness of the
    // sweep (see docs/performance.md).
    const auto count = [&report](const std::string &name,
                                 std::uint64_t value) {
        report.addCounter(name, static_cast<double>(value),
                          PerfReport::CounterUnit::Count);
    };
    count("suite/executor_cache_hits", run.executorCacheHits);
    count("suite/executor_cache_misses", run.executorCacheMisses);
    count("suite/batch_evolutions", run.batchEvolutions);
    count("suite/batch_marginals_served", run.marginalsServed);
    count("suite/batch_evolutions_saved", run.evolutionsSaved);
    // Process-wide counters (the transpile memo and the SIMD
    // kernel-dispatch totals) come from the shared ProcessCounters
    // snapshot, so these entries, the Prometheus exposition, and the
    // perf bench's dispatch-mix table can never disagree on a name or
    // a source.
    for (const obs::ProcessCounters::Entry &entry :
         run.counters.transpileEntries())
        count(std::string("suite/") + entry.name, entry.value);
    count("suite/prefix_state_hits", run.prefixStateHits);
    count("suite/prefix_state_misses", run.prefixStateMisses);
    for (const obs::ProcessCounters::Entry &entry :
         run.counters.simdEntries())
        count(entry.name, entry.value);
    return report.write(path);
}

double
geomeanFloored(const std::vector<double> &xs, double floor)
{
    fatalIf(xs.empty(), "geomeanFloored: empty vector");
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(std::max(x, floor));
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace bench
} // namespace jigsaw
