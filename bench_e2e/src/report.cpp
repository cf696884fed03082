#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/parallel.h"
#include "common/simd.h"

namespace e2e {

namespace {

/** End-to-end metrics, in report order. */
const LayerMetric kEndToEnd[] = {
    {"jobs_per_s", "1/s"},     {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},     {"output_fidelity", "ratio"},
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/** Full-precision JSON number (non-finite values print as null). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The active kernel table's backend, named through simd::backendName. */
const char *
activeBackendName()
{
    using namespace jigsaw::simd;
    const KernelTable *active = &activeKernels();
    if (active == avx512Kernels())
        return backendName(kBackendAvx512);
    if (active == avx2Kernels())
        return backendName(kBackendAvx2);
    return backendName(kBackendScalar);
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

struct Line
{
    std::string name;
    std::string unit;
    double value;
    std::size_t samples; ///< 0 when the value is not a sample statistic.
};

} // namespace

void
Result::check(std::string name, bool passed, std::string detail)
{
    checks.push_back({std::move(name), passed, std::move(detail)});
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(samples.size())));
    return samples[idx - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1)
        return upper;
    return 0.5 * (upper + *std::max_element(samples.begin(),
                                            samples.begin() + mid));
}

std::size_t
sampleCount(const std::vector<std::vector<double>> &reps)
{
    std::size_t n = 0;
    for (const std::vector<double> &rep : reps)
        n += rep.size();
    return n;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> table = {
        {"compiler.compile_ms", "ms"},
        {"compiler.transpile_hits", "count"},
        {"compiler.transpile_misses", "count"},
        {"compiler.transpile_hit_frac", "ratio"},
        {"compiler.transpile_rebinds", "count"},
        {"compiler.cpm_routings_computed", "count"},
        {"compiler.cpm_routings_reused", "count"},
        {"sim.execute_ms", "ms"},
        {"sim.pmf_cache_hits", "count"},
        {"sim.pmf_cache_misses", "count"},
        {"sim.batch_evolutions", "count"},
        {"sim.marginals_served", "count"},
        {"sim.prefix_state_hits", "count"},
        {"sim.prefix_state_misses", "count"},
        {"sim.prefix_hit_frac", "ratio"},
        {"simd.calls_scalar", "count"},
        {"simd.calls_avx2", "count"},
        {"simd.calls_avx512", "count"},
        {"core.plan_ms", "ms"},
        {"core.schedule_ms", "ms"},
        {"core.baseline_ms", "ms"},
        {"core.reconstruct_ms", "ms"},
        {"core.output_support", "count"},
        {"scheduler.admission_ms", "ms"},
        {"scheduler.window_ms", "ms"},
        {"scheduler.dispatch_ms", "ms"},
        {"scheduler.submit_p99_ms", "ms"},
        {"scheduler.merged_windows", "count"},
        {"scheduler.merged_jobs", "count"},
        {"scheduler.merged_job_frac", "ratio"},
        {"scheduler.cross_program_groups", "count"},
        {"scheduler.lone_dispatches", "count"},
        {"scheduler.retries", "count"},
        {"load.gen_lag_p99_ms", "ms"},
        {"wall_ms", "ms"},
        {"residual_ms", "ms"},
        {"trace_overhead_ms", "ms"},
    };
    return table;
}

int
printReport(const RunConfig &config, const Result &result)
{
    bool finite = true;
    const auto known = [](const std::string &name) {
        for (const LayerMetric &m : layerMetrics())
            if (name == m.name)
                return true;
        return false;
    };
    std::vector<Check> checks = result.checks;
    for (const auto &[name, value] : result.layers) {
        (void)value;
        if (!known(name))
            checks.push_back({"layer name " + name, false,
                              "not in the per-layer table"});
    }

    // The contract metrics of this mode.
    std::vector<Line> lines;
    if (!config.trace) {
        double fidelity = 0.0;
        for (const double f : result.fidelities)
            fidelity += f;
        if (!result.fidelities.empty())
            fidelity /= static_cast<double>(result.fidelities.size());
        // Latency percentiles are taken within each repetition, then
        // the median over repetitions, so a repetition that ran while
        // the host was slow moves them no more than jobs_per_s.
        std::vector<double> p50, p90;
        for (const std::vector<double> &rep : result.latenciesMs) {
            p50.push_back(percentile(rep, 0.5));
            p90.push_back(percentile(rep, 0.9));
        }
        const std::size_t n_lat = sampleCount(result.latenciesMs);
        const double values[] = {
            median(result.jobsPerS),
            median(p50),
            median(p90),
            median(result.setupS),
            result.peakRssMb,
            fidelity,
        };
        const std::size_t samples[] = {
            result.jobsPerS.size(), n_lat, n_lat, result.setupS.size(), 1,
            result.fidelities.size()};
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
            lines.push_back({kEndToEnd[i].name, kEndToEnd[i].unit,
                             values[i], samples[i]});
        }
    } else {
        const auto count = [&](const char *name) -> std::uint64_t {
            const auto it = result.counters.find(name);
            return it == result.counters.end() ? 0 : it->second;
        };
        const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
            return whole > 0 ? static_cast<double>(part) /
                                   static_cast<double>(whole)
                             : 0.0;
        };
        std::map<std::string, double> layers = result.layers;
        layers["compiler.transpile_hit_frac"] =
            ratio(count("compiler.transpile_hits"),
                  count("compiler.transpile_hits") +
                      count("compiler.transpile_misses"));
        layers["sim.prefix_hit_frac"] =
            ratio(count("sim.prefix_state_hits"),
                  count("sim.prefix_state_hits") +
                      count("sim.prefix_state_misses"));
        layers["scheduler.merged_job_frac"] = ratio(
            count("scheduler.merged_jobs"), count("scheduler.jobs"));
        for (const LayerMetric &m : layerMetrics()) {
            double value = 0.0;
            if (std::string(m.unit) == "count") {
                const auto it = result.counters.find(m.name);
                if (it != result.counters.end())
                    value = static_cast<double>(it->second);
            } else {
                const auto it = layers.find(m.name);
                if (it != layers.end())
                    value = it->second;
            }
            lines.push_back({m.name, m.unit, value, 0});
        }
    }
    for (const Line &line : lines)
        finite = finite && std::isfinite(line.value);
    if (!finite)
        checks.push_back({"finite metrics", false, "a metric is NaN/inf"});
    bool correct = result.failed == 0;
    for (const Check &c : checks)
        correct = correct && c.passed;

    // Human-readable lines.
    std::cout << "bench_e2e " << config.workload << " seed=" << config.seed
              << " seconds=" << config.seconds
              << " trace=" << (config.trace ? 1 : 0) << "\n";
    for (const Line &line : lines) {
        std::cout << "  " << line.name << " = " << line.value << " "
                  << line.unit;
        if (line.samples > 0)
            std::cout << " (n=" << line.samples << ")";
        std::cout << "\n";
    }
    // Failed + shed + expired + mismatched over attempted: carried by
    // the result line's failed/attempted fields, not a gated metric.
    const double failed_frac =
        result.attempted > 0 ? static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted)
                             : 0.0;
    std::cout << "  failed_frac = " << failed_frac << " ratio ("
              << result.failed << " of " << result.attempted << ")\n";
    for (const auto &[name, value] : result.info)
        std::cout << "  [info] " << name << " = " << value << "\n";
    for (const Check &c : checks) {
        std::cout << "  check " << c.name << ": "
                  << (c.passed ? "ok" : "FAILED");
        if (!c.detail.empty())
            std::cout << " (" << c.detail << ")";
        std::cout << "\n";
    }

    // One JSON report line: machine, metrics with units and sample
    // counts, counters, descriptors, checks.
    std::ostringstream report;
    report << "{\"report\": {\"workload\": " << jsonString(config.workload)
           << ", \"machine\": {\"nproc\": "
           << std::thread::hardware_concurrency()
           << ", \"pool_threads\": " << jigsaw::parallelThreads()
           << ", \"simd_backend\": " << jsonString(activeBackendName())
           << ", \"compiler\": " << jsonString(compilerName())
           << ", \"build_type\": " << jsonString(E2E_BUILD_TYPE)
           << ", \"commit\": " << jsonString(config.commit)
           << ", \"source_sha256\": " << jsonString(config.sourceHash)
           << ", \"seed\": " << config.seed
           << ", \"seconds\": " << jsonNumber(config.seconds)
           << ", \"trace\": " << (config.trace ? 1 : 0) << "}";
    report << ", \"metrics\": {";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        report << (i ? ", " : "") << jsonString(lines[i].name)
               << ": {\"value\": " << jsonNumber(lines[i].value)
               << ", \"unit\": " << jsonString(lines[i].unit);
        if (lines[i].samples > 0)
            report << ", \"samples\": " << lines[i].samples;
        report << "}";
    }
    report << "}, \"failed_frac\": " << jsonNumber(failed_frac)
           << ", \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : result.counters) {
        report << (first ? "" : ", ") << jsonString(name) << ": " << value;
        first = false;
    }
    report << "}, \"info\": {";
    first = true;
    for (const auto &[name, value] : result.info) {
        report << (first ? "" : ", ") << jsonString(name) << ": "
               << jsonNumber(value);
        first = false;
    }
    report << "}, \"descriptors\": [";
    for (std::size_t i = 0; i < result.descriptors.size(); ++i) {
        const Descriptor &d = result.descriptors[i];
        report << (i ? ", " : "") << "{\"circuit\": "
               << jsonString(d.circuit) << ", \"qubits\": " << d.qubits
               << ", \"measured_bits\": " << d.measuredBits
               << ", \"gates\": " << d.gates
               << ", \"two_qubit_gates\": " << d.twoQubitGates
               << ", \"depth\": " << d.depth
               << ", \"critical_two_qubit_depth\": "
               << d.criticalTwoQubitDepth
               << ", \"gate_density\": " << jsonNumber(d.gateDensity)
               << ", \"measurement_density\": "
               << jsonNumber(d.measurementDensity) << "}";
    }
    report << "], \"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        report << (i ? ", " : "") << "{\"name\": "
               << jsonString(checks[i].name) << ", \"passed\": "
               << (checks[i].passed ? "true" : "false")
               << ", \"detail\": " << jsonString(checks[i].detail) << "}";
    }
    report << "]}}";
    std::cout << report.str() << "\n";

    // The contract line, last.
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::cout << (i ? ", " : "") << jsonString(lines[i].name)
                  << ": {\"value\": " << jsonNumber(lines[i].value)
                  << ", \"unit\": " << jsonString(lines[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace e2e
