/**
 * @file
 * paper-sweep: the Figure-8 evaluation as a researcher runs it.
 *
 * Every (device, program) cell of device::evaluationDevices() x
 * workloads::paperBenchmarks() runs the baseline, JigSaw and JigSaw-M
 * with 32768 trials against one seeded NoisySimulator per cell, as
 * bench/suite_runner.cpp does. Each repetition starts from freshly
 * built inputs and an empty transpile memo, because a sweep runs in a
 * fresh process. The scheduler is not involved.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "compiler/transpiler.h"
#include "core/jigsaw.h"
#include "core/session.h"
#include "descriptors.h"
#include "device/library.h"
#include "metrics/metrics.h"
#include "sim/simulators.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace e2e {

namespace {

using namespace jigsaw;

struct Inputs
{
    std::vector<device::DeviceModel> devices;
    std::vector<std::unique_ptr<workloads::Workload>> programs;
    std::uint64_t trials = 32768;
};

Inputs
buildInputs(bool tiny)
{
    Inputs in;
    in.devices = device::evaluationDevices();
    in.programs = workloads::paperBenchmarks();
    if (tiny) {
        // BV-6 and QAOA-8 on one device.
        in.devices.erase(in.devices.begin() + 1, in.devices.end());
        in.programs.resize(2);
        in.trials = 2048;
    }
    return in;
}

/** Outputs of one cell. */
struct Cell
{
    Pmf baseline = Pmf(1);
    Pmf jigsaw = Pmf(1);
    Pmf jigsawM = Pmf(1);
};

/** One pass (untraced or traced) over a number of repetitions. */
struct Pass
{
    double timedMs = 0.0;
    std::vector<double> repMs; ///< Timed milliseconds per repetition.
    std::size_t reps = 0;
    /** Outputs of the pass's first repetition; later repetitions are
     *  compared against them and dropped, so memory does not grow with
     *  the repetition count. */
    std::vector<Cell> first;
    std::uint64_t mismatches = 0;
    std::vector<double> jobsPerS; ///< One sample per repetition.
    std::vector<std::vector<double>> latenciesMs; ///< Per repetition.
    std::vector<double> setupS;
    std::map<std::string, std::uint64_t> counters;
    SpanLog spans;
};

/** Run @p opts on one cell's program through the session's stage
 *  accessors, one span per stage (the traced path of runJigsaw). */
Pmf
tracedJigsaw(SpanLog &log, const workloads::Workload &program,
             const device::DeviceModel &dev, sim::Executor &executor,
             std::uint64_t trials, const core::JigsawOptions &opts,
             std::map<std::string, std::uint64_t> &counters)
{
    core::JigsawSession session(program.circuit(), dev, executor, trials,
                                opts);
    {
        SpanLog::Scope s(log, "core.plan_ms");
        session.plan();
    }
    {
        SpanLog::Scope s(log, "compiler.compile_ms");
        const core::CompiledJobs &jobs = session.compiled();
        counters["compiler.cpm_routings_computed"] += jobs.cpmRoutingsComputed;
        counters["compiler.cpm_routings_reused"] += jobs.cpmRoutingsReused;
    }
    {
        SpanLog::Scope s(log, "core.schedule_ms");
        session.schedule();
    }
    {
        SpanLog::Scope s(log, "sim.execute_ms");
        session.executed();
    }
    SpanLog::Scope s(log, "core.reconstruct_ms");
    return session.run().output;
}

/** Count cells of @p b whose outputs differ bitwise from @p a. */
std::uint64_t
mismatches(const std::vector<Cell> &a, const std::vector<Cell> &b)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        bad += pmfsIdentical(a[i].baseline, b[i].baseline) ? 0 : 1;
        bad += pmfsIdentical(a[i].jigsaw, b[i].jigsaw) ? 0 : 1;
        bad += pmfsIdentical(a[i].jigsawM, b[i].jigsawM) ? 0 : 1;
    }
    return bad;
}

/** One repetition; outputs are compared against @p reference when
 *  given, else kept as the pass's first repetition. Returns the
 *  repetition's inputs. */
Inputs
runRepetition(Pass &pass, std::uint64_t seed, bool tiny, bool traced,
              const std::vector<Cell> *reference)
{
    const Clock::time_point setup_start = Clock::now();
    Inputs in = buildInputs(tiny);
    compiler::clearTranspileCache();
    const core::JigsawOptions jigsaw_opts;
    const core::JigsawOptions jigsaw_m_opts = core::jigsawMOptions();
    const Clock::time_point start = Clock::now();
    pass.setupS.push_back(msBetween(setup_start, start) / 1000.0);

    const obs::ProcessCounters before = obs::ProcessCounters::snapshot();
    std::vector<Cell> cells;
    std::vector<double> &latencies = pass.latenciesMs.emplace_back();
    if (traced)
        pass.spans.begin("residual");
    for (std::size_t d = 0; d < in.devices.size(); ++d) {
        const device::DeviceModel &dev = in.devices[d];
        for (std::size_t w = 0; w < in.programs.size(); ++w) {
            const workloads::Workload &program = *in.programs[w];
            sim::NoisySimulator executor(
                dev, {.seed = mixSeed(seed ^ (d << 8) ^ w)});
            Cell cell;
            Clock::time_point t = Clock::now();
            const auto lap = [&] {
                const Clock::time_point now = Clock::now();
                latencies.push_back(msBetween(t, now));
                t = now;
            };
            if (traced) {
                {
                    SpanLog::Scope s(pass.spans, "core.baseline_ms");
                    cell.baseline = core::runBaseline(program.circuit(), dev,
                                                      executor, in.trials);
                }
                lap();
                cell.jigsaw =
                    tracedJigsaw(pass.spans, program, dev, executor,
                                 in.trials, jigsaw_opts, pass.counters);
                lap();
                cell.jigsawM =
                    tracedJigsaw(pass.spans, program, dev, executor,
                                 in.trials, jigsaw_m_opts, pass.counters);
                lap();
            } else {
                cell.baseline = core::runBaseline(program.circuit(), dev,
                                                  executor, in.trials);
                lap();
                cell.jigsaw = core::runJigsaw(program.circuit(), dev,
                                              executor, in.trials)
                                  .output;
                lap();
                cell.jigsawM = core::runJigsaw(program.circuit(), dev,
                                               executor, in.trials,
                                               jigsaw_m_opts)
                                   .output;
                lap();
            }
            pass.counters["sim.pmf_cache_hits"] += executor.cacheHits();
            pass.counters["sim.pmf_cache_misses"] += executor.cacheMisses();
            pass.counters["sim.prefix_state_hits"] +=
                executor.skeletonCacheHits();
            pass.counters["sim.prefix_state_misses"] +=
                executor.skeletonCacheMisses();
            pass.counters["sim.batch_evolutions"] +=
                executor.batchStats().baseEvolutions;
            pass.counters["sim.marginals_served"] +=
                executor.batchStats().marginalsServed;
            std::uint64_t &support = pass.counters["core.output_support"];
            support = std::max<std::uint64_t>(
                {support, cell.jigsaw.support(), cell.jigsawM.support()});
            cells.push_back(std::move(cell));
        }
    }
    if (traced)
        pass.spans.end();
    const double rep_ms = msBetween(start, Clock::now());
    pass.timedMs += rep_ms;
    pass.repMs.push_back(rep_ms);
    pass.jobsPerS.push_back(1000.0 * static_cast<double>(latencies.size()) /
                            rep_ms);
    addProcessCounters(pass.counters,
                       obs::ProcessCounters::snapshot().since(before));
    ++pass.reps;
    if (reference != nullptr)
        pass.mismatches += mismatches(*reference, cells);
    else if (pass.reps == 1)
        pass.first = std::move(cells);
    else
        pass.mismatches += mismatches(pass.first, cells);
    return in;
}

double
geomean(const std::vector<double> &xs)
{
    double log_sum = 0.0;
    for (const double x : xs)
        log_sum += std::log(x);
    return xs.empty() ? 0.0
                      : std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace

Result
runPaperSweep(const RunConfig &config)
{
    Result result;
    const std::size_t min_reps = 2; // the cross-repetition check needs two
    Pass plain;
    // The first repetition's inputs score its outputs below.
    const Inputs in =
        runRepetition(plain, config.seed, config.tiny, false, nullptr);
    while (plain.reps < min_reps ||
           (!config.tiny && plain.timedMs < 1000.0 * config.seconds))
        runRepetition(plain, config.seed, config.tiny, false, nullptr);
    result.peakRssMb = peakRssMb();
    result.jobsPerS = plain.jobsPerS;
    result.latenciesMs = plain.latenciesMs;
    result.setupS = plain.setupS;
    result.attempted = sampleCount(plain.latenciesMs);
    result.check("repetitions bitwise identical", plain.mismatches == 0,
                 std::to_string(plain.mismatches) + " differing outputs");
    result.failed += plain.mismatches;

    // Output quality of the first repetition: per-device geomean PST
    // gain over the baseline, and every JigSaw output's fidelity.
    const std::vector<Cell> &cells = plain.first;
    std::vector<double> all_js, all_jsm;
    for (std::size_t d = 0; d < in.devices.size(); ++d) {
        std::vector<double> js, jsm;
        for (std::size_t w = 0; w < in.programs.size(); ++w) {
            const workloads::Workload &program = *in.programs[w];
            const Cell &cell = cells[d * in.programs.size() + w];
            const double base =
                std::max(metrics::pst(cell.baseline, program), 1e-6);
            js.push_back(metrics::pst(cell.jigsaw, program) / base);
            jsm.push_back(metrics::pst(cell.jigsawM, program) / base);
            result.fidelities.push_back(metrics::fidelity(cell.jigsaw, program));
            result.fidelities.push_back(
                metrics::fidelity(cell.jigsawM, program));
        }
        const std::string dev = in.devices[d].name();
        result.info["pst_gain_jigsaw." + dev] = geomean(js);
        result.info["pst_gain_jigsaw_m." + dev] = geomean(jsm);
        if (!config.tiny) {
            result.check("PST gain > 1 on " + dev,
                         geomean(js) > 1.0 && geomean(jsm) > 1.0,
                         "JigSaw " + std::to_string(geomean(js)) +
                             ", JigSaw-M " + std::to_string(geomean(jsm)));
        }
        all_js.insert(all_js.end(), js.begin(), js.end());
        all_jsm.insert(all_jsm.end(), jsm.begin(), jsm.end());
    }
    result.info["pst_gain_jigsaw"] = geomean(all_js);
    result.info["pst_gain_jigsaw_m"] = geomean(all_jsm);
    for (const auto &program : in.programs)
        result.descriptors.push_back(
            describe(program->name(), program->circuit()));

    if (!config.trace) {
        result.counters = plain.counters;
        return result;
    }

    // Traced pass: the same repetitions with one span per layer call.
    Pass traced;
    const std::size_t replay = tracedRepetitions(plain.repMs, config.seconds);
    while (traced.reps < replay)
        runRepetition(traced, config.seed, config.tiny, true, &plain.first);
    result.attempted += sampleCount(traced.latenciesMs);
    result.check("traced outputs equal untraced", traced.mismatches == 0,
                 std::to_string(traced.mismatches) + " differing outputs");
    result.failed += traced.mismatches;

    result.counters = traced.counters;
    const std::map<std::string, double> &self = traced.spans.selfMs();
    double stage_ms = 0.0;
    for (const auto &[layer, ms] : self) {
        if (layer == "residual")
            continue;
        result.layers[layer] = ms;
        stage_ms += ms;
    }
    const double wall_ms = traced.spans.rootMs();
    result.layers["wall_ms"] = wall_ms;
    result.layers["residual_ms"] = wall_ms - stage_ms;
    result.layers["trace_overhead_ms"] =
        traced.timedMs - firstRepetitionsMs(plain.repMs, replay);

    // The claim this workload makes: cold compilation dominates.
    bool compile_largest = true;
    for (const auto &[layer, ms] : self) {
        compile_largest = compile_largest &&
                          (layer == "residual" ||
                           ms <= self.at("compiler.compile_ms"));
    }
    result.info["claim.compile_is_largest_stage"] = compile_largest ? 1 : 0;

    // Attribution bookkeeping: self times plus residual are the wall.
    const double self_sum = stage_ms + self.at("residual");
    result.check("attribution sums to wall",
                 traced.spans.open() == 0 &&
                     std::abs(self_sum - wall_ms) <= 1e-6 * wall_ms + 1e-9,
                 "self " + std::to_string(self_sum) + " ms vs wall " +
                     std::to_string(wall_ms) + " ms");
    return result;
}

} // namespace e2e
