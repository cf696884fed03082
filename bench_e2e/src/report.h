/**
 * @file
 * Result bookkeeping and output of the layered end-to-end benchmark.
 *
 * A workload run fills one Result: the end-to-end samples of its
 * untraced pass, the per-layer times of its traced pass (when asked
 * for), integer counters, circuit-shape descriptors of its inputs and
 * the outcome of every correctness check. printReport() turns it into
 * the human-readable metric lines, one JSON report line (machine
 * block, counters block, descriptors, checks) and, last, the
 * one-line JSON result the benchmark contract asks for.
 */
#ifndef JIGSAW_E2E_REPORT_H
#define JIGSAW_E2E_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test scale: tiny inputs, one repetition per pass. */
    bool tiny = false;
    std::string commit = "unknown";
    std::string sourceHash = "unknown";
};

/** Circuit-shape descriptors of one input circuit (descriptive only). */
struct Descriptor
{
    std::string circuit;
    int qubits = 0;
    int measuredBits = 0;
    std::size_t gates = 0;         ///< Unitary gates (no measure/barrier).
    std::size_t twoQubitGates = 0;
    int depth = 0;                 ///< Longest gate dependency chain.
    int criticalTwoQubitDepth = 0; ///< Two-qubit gates on that chain.
    double gateDensity = 0.0;        ///< QASMBench (g1 + 2 g2) / (d n).
    double measurementDensity = 0.0; ///< QASMBench measures / (d n).
};

struct Check
{
    std::string name;
    bool passed = false;
    std::string detail;
};

/** Everything one workload run measured. */
struct Result
{
    /** @name End to end (untraced pass). @{ */
    /** Programs or iterations completed per second of timed wall
     *  time, one sample per repetition. */
    std::vector<double> jobsPerS;
    /** Per-job latencies, one vector per repetition. */
    std::vector<std::vector<double>> latenciesMs;
    std::vector<double> setupS;  ///< One sample per set-up.
    double peakRssMb = 0.0;
    std::vector<double> fidelities; ///< Per checked output, 1 - TVD.
    /** @} */
    std::uint64_t attempted = 0;
    /** Failed + shed + expired + output-mismatch jobs. */
    std::uint64_t failed = 0;
    std::vector<Check> checks;
    /** Per-layer times and ratios of the traced pass (name -> value;
     *  names from the canonical table in report.cpp). */
    std::map<std::string, double> layers;
    /** Integer counters of the measured pass (traced pass when
     *  tracing, else the untraced one). */
    std::map<std::string, std::uint64_t> counters;
    std::vector<Descriptor> descriptors;
    /** Descriptive results that are neither gated nor per-layer. */
    std::map<std::string, double> info;

    void check(std::string name, bool passed, std::string detail = {});
};

/** Nearest-rank percentile (q in [0, 1]); 0 for an empty sample. */
double percentile(std::vector<double> samples, double q);

/** Median of @p samples (mean of the middle two for an even count);
 *  0 for an empty sample. */
double median(std::vector<double> samples);

/** Number of samples over all repetitions. */
std::size_t sampleCount(const std::vector<std::vector<double>> &reps);

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** Every per-layer metric name with its unit, in report order. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};
const std::vector<LayerMetric> &layerMetrics();

/**
 * Print the run's metric lines, its JSON report line and the final
 * contract line. Returns the process exit code: 0 when every check
 * passed and every reported value is finite, 1 otherwise.
 */
int printReport(const RunConfig &config, const Result &result);

} // namespace e2e

#endif // JIGSAW_E2E_REPORT_H
