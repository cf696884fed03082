/**
 * @file
 * vqa-loop: one closed-loop variational client.
 *
 * The client compiles a 12-qubit Ising ansatz once through
 * JigsawService::compileParametric (bench_parametric_vqa's shape:
 * H layer, then an RZZ chain and an RZ layer, toronto, 4096 trials),
 * then per iteration proposes seeded angles, submits them with
 * submitIteration and waits for the result. windowMs = 0, the latency
 * configuration: every iteration dispatches alone, so the timed region
 * exercises the transpile re-bind and the split-prefix evolution cache
 * and bypasses cold compilation and merging.
 */
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "compiler/transpiler.h"
#include "core/jigsaw.h"
#include "core/service.h"
#include "descriptors.h"
#include "device/library.h"
#include "metrics/metrics.h"
#include "obs/trace.h"
#include "sim/simulators.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/workload.h"

namespace e2e {

namespace {

using namespace jigsaw;
using circuit::QuantumCircuit;

struct Scale
{
    int qubits = 12;
    std::uint64_t trials = 4096;
    /** Per repetition; each repetition is one fresh client session:
     *  a new service and compileParametric, then the iterations. */
    std::size_t iterations = 100;
};

Scale
scaleFor(bool tiny)
{
    Scale s;
    if (tiny) {
        s.qubits = 6;
        s.trials = 1024;
        s.iterations = 12;
    }
    return s;
}

/** H layer, then an RZZ chain and an RZ layer: every parametric gate
 *  is diagonal, the split-prefix cache's shape. */
QuantumCircuit
isingAnsatz(int n, const std::vector<double> &angles)
{
    QuantumCircuit qc(n);
    for (int q = 0; q < n; ++q)
        qc.h(q);
    std::size_t k = 0;
    for (int q = 0; q + 1 < n; ++q)
        qc.rzz(angles.at(k++), q, q + 1);
    for (int q = 0; q < n; ++q)
        qc.rz(angles.at(k++), q);
    qc.measureAll();
    return qc;
}

/** The optimizer's proposals: a seeded random walk from seeded start
 *  angles, one sequence per repetition. */
class Proposals
{
  public:
    Proposals(int n, std::uint64_t seed, std::size_t rep)
        : rng_(mixSeed(seed * 7919ULL + rep)),
          angles_(static_cast<std::size_t>(2 * n - 1))
    {
        for (double &a : angles_)
            a = M_PI * unitInterval(rng_());
    }

    const std::vector<double> &next()
    {
        for (double &a : angles_)
            a += 0.1 * (unitInterval(rng_()) - 0.5);
        return angles_;
    }

    const std::vector<double> &current() const { return angles_; }

  private:
    std::mt19937_64 rng_;
    std::vector<double> angles_;
};

/** A reference-checked iteration: its binding and its output. */
struct Sampled
{
    std::vector<double> angles;
    Pmf output = Pmf(1);
};

struct Pass
{
    double timedMs = 0.0;
    std::vector<double> repMs; ///< Timed milliseconds per repetition.
    std::vector<double> jobsPerS; ///< One sample per repetition.
    std::size_t iterations = 0;
    std::size_t failed = 0;
    std::vector<std::vector<double>> latenciesMs; ///< Per repetition.
    std::vector<double> lagMs;
    std::vector<double> submitMs;
    std::vector<double> setupS;
    std::vector<Sampled> sampled;
    std::vector<double> fidelities; ///< Per iteration.
    std::map<std::string, std::uint64_t> counters;
    JobAttribution attribution;
};

std::uint64_t
executorSeed(std::uint64_t seed)
{
    return mixSeed(seed ^ 0x5641ULL);
}

void
runRepetition(Pass &pass, const Scale &s, std::uint64_t seed,
              std::size_t rep, bool traced, const Pmf &ideal)
{
    const device::DeviceModel dev = device::toronto();
    const Clock::time_point setup_start = Clock::now();
    Proposals proposals(s.qubits, seed, rep);
    compiler::clearTranspileCache();
    core::ServiceOptions options;
    options.stream.windowMs = 0.0;
    std::shared_ptr<obs::TraceRecorder> recorder;
    if (traced) {
        recorder = std::make_shared<obs::TraceRecorder>();
        options.stream.trace = recorder;
    }
    core::JigsawService service(options);
    const core::ParametricHandle handle =
        service.compileParametric(core::ServiceProgram(
            isingAnsatz(s.qubits, proposals.current()), dev, s.trials, {},
            executorSeed(seed)));
    const Clock::time_point start = Clock::now();
    pass.setupS.push_back(msBetween(setup_start, start) / 1000.0);

    const obs::ProcessCounters before = obs::ProcessCounters::snapshot();
    std::vector<JobTiming> timings;
    Clock::time_point previous = start;
    // One seeded iteration per repetition is checked against a cold run.
    const std::size_t checked = mixSeed(seed + rep) % s.iterations;
    std::vector<double> &latencies = pass.latenciesMs.emplace_back();
    for (std::size_t it = 0; it < s.iterations; ++it) {
        const std::vector<double> &angles = proposals.next();
        const Clock::time_point submit_at = Clock::now();
        const core::SubmitResult r = service.submitIteration(handle, angles);
        const Clock::time_point submitted = Clock::now();
        ++pass.iterations;
        if (!r.admitted) {
            ++pass.failed;
            continue;
        }
        const Pmf out = service.wait(r.handle).output;
        const Clock::time_point done = Clock::now();
        latencies.push_back(msBetween(submit_at, done));
        pass.submitMs.push_back(msBetween(submit_at, submitted));
        pass.lagMs.push_back(msBetween(previous, submit_at));
        previous = done;
        if (recorder) {
            timings.push_back({r.handle.id, recorder->toMs(submit_at),
                               msBetween(submit_at, submitted),
                               service.poll(r.handle).value().totalMs});
        }
        if (it == checked)
            pass.sampled.push_back({angles, out});
        pass.fidelities.push_back(metrics::fidelity(out, ideal));
        std::uint64_t &support = pass.counters["core.output_support"];
        support = std::max<std::uint64_t>(support, out.support());
        service.release(r.handle);
    }
    const double rep_ms = msBetween(start, Clock::now());
    pass.timedMs += rep_ms;
    pass.repMs.push_back(rep_ms);
    pass.jobsPerS.push_back(1000.0 * static_cast<double>(latencies.size()) /
                            rep_ms);
    addProcessCounters(pass.counters,
                       obs::ProcessCounters::snapshot().since(before));

    pass.counters["scheduler.jobs"] += s.iterations;
    addStreamStats(pass.counters, service.streamStats());
    if (recorder)
        accumulate(pass.attribution, attributeJobs(*recorder, timings));
}

} // namespace

Result
runVqaLoop(const RunConfig &config)
{
    Result result;
    const Scale s = scaleFor(config.tiny);
    // The ideal output does not depend on the angles: the diagonal
    // tail only changes phases.
    const Pmf ideal = workloads::computeIdealPmf(
        isingAnsatz(s.qubits, std::vector<double>(2 * s.qubits - 1, 0.0)));

    Pass plain;
    std::size_t reps = 0;
    const std::size_t min_reps = config.tiny ? 1 : 2;
    while (reps < min_reps || plain.timedMs < 1000.0 * config.seconds)
        runRepetition(plain, s, config.seed, reps++, false, ideal);
    result.peakRssMb = peakRssMb();
    result.jobsPerS = plain.jobsPerS;
    result.latenciesMs = plain.latenciesMs;
    result.setupS = plain.setupS;
    result.fidelities = plain.fidelities;
    result.attempted = plain.iterations;
    result.failed = plain.failed;
    result.counters = plain.counters;
    result.check("every iteration admitted", plain.failed == 0,
                 std::to_string(plain.failed) + " shed");

    // References: each sampled binding through a cold runJigsaw with a
    // fresh executor seeded like the service's draw stream.
    const device::DeviceModel dev = device::toronto();
    std::size_t bad = 0;
    for (const Sampled &sample : plain.sampled) {
        compiler::clearTranspileCache();
        sim::NoisySimulator executor(dev, {.seed = executorSeed(config.seed)});
        const Pmf cold = core::runJigsaw(isingAnsatz(s.qubits, sample.angles),
                                         dev, executor, s.trials)
                             .output;
        bad += pmfsIdentical(cold, sample.output) ? 0 : 1;
    }
    result.failed += bad;
    result.check("sampled iterations equal cold runJigsaw",
                 bad == 0 && !plain.sampled.empty(),
                 std::to_string(bad) + " of " +
                     std::to_string(plain.sampled.size()) + " differ");
    result.descriptors.push_back(describe(
        "Ising-ansatz-" + std::to_string(s.qubits),
        isingAnsatz(s.qubits, std::vector<double>(2 * s.qubits - 1, 0.0))));
    if (!config.trace)
        return result;

    Pass traced;
    const std::size_t replay = tracedRepetitions(plain.repMs, config.seconds);
    for (std::size_t r = 0; r < replay; ++r)
        runRepetition(traced, s, config.seed, r, true, ideal);
    result.attempted += traced.iterations;
    std::size_t traced_bad = traced.failed;
    for (std::size_t i = 0; i < traced.sampled.size(); ++i) {
        traced_bad += pmfsIdentical(plain.sampled[i].output,
                                    traced.sampled[i].output)
                          ? 0
                          : 1;
    }
    result.failed += traced_bad;
    result.check("traced outputs equal untraced", traced_bad == 0,
                 std::to_string(traced_bad) + " differing");
    result.counters = traced.counters;

    reportJobAttribution(result, traced.attribution, config.tiny);
    result.layers["trace_overhead_ms"] =
        traced.timedMs - firstRepetitionsMs(plain.repMs, replay);
    result.layers["scheduler.submit_p99_ms"] = percentile(traced.submitMs, 0.99);
    result.layers["load.gen_lag_p99_ms"] = percentile(traced.lagMs, 0.99);
    result.info["claim.no_transpile_misses_when_timed"] =
        result.counters.at("compiler.transpile_misses") == 0 ? 1.0 : 0.0;
    return result;
}

} // namespace e2e
