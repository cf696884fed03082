/**
 * @file
 * stream-bursty: open-loop service traffic into the streaming
 * scheduler.
 *
 * The input is bench_stream_throughput's 12-qubit duplicated suite
 * (five circuits x {JigSaw without recompilation, JigSaw, JigSaw-M} x
 * seeded duplicates, toronto, 4096 trials). One generator thread
 * submits Poisson-timed bursts into a fresh StreamingScheduler per
 * repetition with default StreamOptions; a burst is one circuit under
 * its three schemes, priorities cycle High/Normal/Low per job. Bursts
 * matter: a smooth stream rarely forms merged windows, which would
 * leave the merge layer unmeasured. The transpile memo is warmed in
 * set-up, as in a long-lived serving process.
 */
#include <algorithm>
#include <map>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "compiler/transpiler.h"
#include "core/scheduler.h"
#include "core/service.h"
#include "core/session.h"
#include "descriptors.h"
#include "device/library.h"
#include "metrics/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/bv.h"
#include "workloads/ghz.h"
#include "workloads/qft.h"

namespace e2e {

namespace {

using namespace jigsaw;

struct Scale
{
    int qubits = 12;
    std::uint64_t trials = 4096;
    int duplicates = 3;        ///< Seeded executor seeds per (circuit, scheme).
    std::size_t bursts = 40;   ///< Per repetition (three jobs each).
    double jobsPerSecond = 40; ///< Mean offered rate.
};

Scale
scaleFor(bool tiny)
{
    Scale s;
    if (tiny) {
        s.qubits = 8; // QFT-6 still fits JigSaw-M's subset sizes
        s.trials = 1024;
        s.duplicates = 1;
        s.bursts = 4;
        s.jobsPerSecond = 120;
    }
    return s;
}

constexpr int kCircuits = 5;
constexpr int kSchemes = 3;

std::vector<std::unique_ptr<workloads::Workload>>
suiteCircuits(int w)
{
    std::vector<std::unique_ptr<workloads::Workload>> c;
    c.push_back(std::make_unique<workloads::Ghz>(w));
    c.push_back(std::make_unique<workloads::BernsteinVazirani>(w));
    c.push_back(std::make_unique<workloads::QftAdjoint>(w - 2));
    c.push_back(std::make_unique<workloads::Ghz>(w - 1));
    c.push_back(std::make_unique<workloads::BernsteinVazirani>(w - 1));
    return c;
}

std::vector<core::JigsawOptions>
schemes()
{
    core::JigsawOptions no_recomp;
    no_recomp.recompileCpms = false;
    return {no_recomp, core::JigsawOptions{}, core::jigsawMOptions()};
}

/** Program index of (circuit, duplicate, scheme). */
std::size_t
programIndex(const Scale &s, int c, int dup, int scheme)
{
    return static_cast<std::size_t>((c * s.duplicates + dup) * kSchemes +
                                    scheme);
}

std::vector<core::ServiceProgram>
buildPrograms(const Scale &s, std::uint64_t seed)
{
    const device::DeviceModel dev = device::toronto();
    const auto circuits = suiteCircuits(s.qubits);
    const auto opts = schemes();
    std::vector<core::ServiceProgram> programs;
    for (int c = 0; c < kCircuits; ++c)
        for (int dup = 0; dup < s.duplicates; ++dup)
            for (int sc = 0; sc < kSchemes; ++sc)
                programs.emplace_back(
                    circuits[static_cast<std::size_t>(c)]->circuit(), dev,
                    s.trials, opts[static_cast<std::size_t>(sc)],
                    mixSeed(seed ^ programIndex(s, c, dup, sc)));
    return programs;
}

struct Burst
{
    double dueMs = 0.0;
    int circuit = 0;
    int duplicate = 0;
};

/**
 * A Poisson burst process conditioned on its count: the bursts'
 * arrival times are sorted uniform draws over the repetition's span,
 * so every repetition offers exactly the mean rate and only the
 * arrival pattern varies with the seed.
 */
std::vector<Burst>
makeSchedule(const Scale &s, std::uint64_t seed, std::size_t rep)
{
    std::mt19937_64 rng(mixSeed(seed * 1000003ULL + rep));
    const double span_ms = 1000.0 * static_cast<double>(s.bursts * kSchemes) /
                           s.jobsPerSecond;
    std::vector<double> due(s.bursts);
    for (double &t : due)
        t = span_ms * unitInterval(rng());
    std::sort(due.begin(), due.end());
    std::vector<Burst> bursts(s.bursts);
    for (std::size_t b = 0; b < s.bursts; ++b) {
        bursts[b].dueMs = due[b];
        bursts[b].circuit = static_cast<int>(b % kCircuits);
        bursts[b].duplicate =
            static_cast<int>(rng() % static_cast<std::uint64_t>(s.duplicates));
    }
    return bursts;
}

struct Pass
{
    double timedMs = 0.0;
    std::vector<double> repMs; ///< Timed milliseconds per repetition.
    std::vector<double> jobsPerS; ///< One sample per repetition.
    std::size_t jobs = 0;
    std::size_t failed = 0;     ///< Shed, expired, failed or cancelled.
    std::size_t mismatches = 0; ///< Outputs differing from the first.
    std::vector<std::vector<double>> latenciesMs; ///< Per repetition.
    std::vector<double> lagMs;
    std::vector<double> submitMs;
    std::vector<double> setupS;
    std::vector<double> fidelities; ///< Per completed job.
    std::map<std::string, std::uint64_t> counters;
    JobAttribution attribution;
};

/** First output seen per program; later occurrences (any pass) must
 *  equal it bitwise, and it must equal the sequential reference. */
using OutputMap = std::map<std::size_t, Pmf>;

void
runRepetition(Pass &pass, const Scale &s, std::uint64_t seed,
              std::size_t rep, bool traced, OutputMap &outputs,
              const std::vector<std::unique_ptr<workloads::Workload>> &circuits)
{
    const Clock::time_point setup_start = Clock::now();
    const std::vector<core::ServiceProgram> programs = buildPrograms(s, seed);
    const std::vector<Burst> schedule = makeSchedule(s, seed, rep);
    compiler::clearTranspileCache();
    {
        // Warm the transpile memo with every (circuit, scheme) compile.
        sim::NoisySimulator scratch(device::toronto());
        for (int c = 0; c < kCircuits; ++c) {
            for (int sc = 0; sc < kSchemes; ++sc) {
                const core::ServiceProgram &p =
                    programs[programIndex(s, c, 0, sc)];
                core::JigsawSession(p.circuit, p.device, scratch, p.trials,
                                    p.options)
                    .compiled();
            }
        }
    }
    core::StreamOptions options;
    std::shared_ptr<obs::TraceRecorder> recorder;
    if (traced) {
        recorder = std::make_shared<obs::TraceRecorder>();
        options.trace = recorder;
    }
    core::StreamingScheduler scheduler(options);
    const Clock::time_point start = Clock::now();
    pass.setupS.push_back(msBetween(setup_start, start) / 1000.0);

    struct Submitted
    {
        core::JobHandle handle;
        std::size_t program = 0;
        Clock::time_point submitAt;
        double lagMs = 0.0;
        double submitCallMs = 0.0;
        bool admitted = false;
    };
    std::vector<Submitted> jobs;
    jobs.reserve(schedule.size() * kSchemes);
    const obs::ProcessCounters before = obs::ProcessCounters::snapshot();
    for (const Burst &burst : schedule) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(burst.dueMs));
        std::this_thread::sleep_until(due);
        for (int sc = 0; sc < kSchemes; ++sc) {
            Submitted job;
            job.program = programIndex(s, burst.circuit, burst.duplicate, sc);
            const auto priority = static_cast<core::Priority>(
                (pass.jobs + jobs.size()) % core::kPriorityClasses);
            job.submitAt = Clock::now();
            const core::SubmitResult r =
                scheduler.submit(programs[job.program], priority);
            const Clock::time_point submitted = Clock::now();
            job.handle = r.handle;
            job.admitted = r.admitted;
            job.lagMs = msBetween(due, job.submitAt);
            job.submitCallMs = msBetween(job.submitAt, submitted);
            pass.lagMs.push_back(job.lagMs);
            pass.submitMs.push_back(job.submitCallMs);
            jobs.push_back(job);
        }
    }
    scheduler.drain();
    const double rep_ms = msBetween(start, Clock::now());
    pass.timedMs += rep_ms;
    pass.repMs.push_back(rep_ms);
    addProcessCounters(pass.counters,
                       obs::ProcessCounters::snapshot().since(before));

    std::vector<JobTiming> timings;
    std::vector<double> &latencies = pass.latenciesMs.emplace_back();
    for (const Submitted &job : jobs) {
        ++pass.jobs;
        const std::optional<core::JobStatus> status =
            job.admitted ? scheduler.poll(job.handle) : std::nullopt;
        if (!status || status->state != core::JobState::Done) {
            ++pass.failed;
            continue;
        }
        latencies.push_back(job.lagMs + status->totalMs);
        const Pmf out = scheduler.wait(job.handle).output;
        const auto [first, fresh] = outputs.try_emplace(job.program, out);
        if (!fresh && !pmfsIdentical(first->second, out))
            ++pass.mismatches;
        const std::size_t c = job.program /
                              static_cast<std::size_t>(s.duplicates * kSchemes);
        pass.fidelities.push_back(metrics::fidelity(out, *circuits[c]));
        std::uint64_t &support = pass.counters["core.output_support"];
        support = std::max<std::uint64_t>(support, out.support());
        if (recorder) {
            timings.push_back({job.handle.id, recorder->toMs(job.submitAt),
                               job.submitCallMs, status->totalMs});
        }
    }

    pass.jobsPerS.push_back(1000.0 * static_cast<double>(latencies.size()) /
                            rep_ms);
    pass.counters["scheduler.jobs"] += jobs.size();
    addStreamStats(pass.counters, scheduler.stats());
    if (recorder)
        accumulate(pass.attribution, attributeJobs(*recorder, timings));
}

} // namespace

Result
runStreamBursty(const RunConfig &config)
{
    Result result;
    const Scale s = scaleFor(config.tiny);
    const auto circuits = suiteCircuits(s.qubits);
    OutputMap outputs;

    Pass plain;
    std::size_t reps = 0;
    while (reps == 0 || plain.timedMs < 1000.0 * config.seconds) {
        runRepetition(plain, s, config.seed, reps++, false, outputs,
                      circuits);
        if (config.tiny)
            break;
    }
    result.peakRssMb = peakRssMb();
    result.jobsPerS = plain.jobsPerS;
    result.latenciesMs = plain.latenciesMs;
    result.setupS = plain.setupS;
    result.fidelities = plain.fidelities;
    result.attempted = plain.jobs;
    result.failed = plain.failed + plain.mismatches;
    result.counters = plain.counters;
    result.check("every job completed", plain.failed == 0,
                 std::to_string(plain.failed) + " of " +
                     std::to_string(plain.jobs) + " did not");

    Pass traced;
    std::size_t replay = 0;
    if (config.trace) {
        replay = tracedRepetitions(plain.repMs, config.seconds);
        for (std::size_t r = 0; r < replay; ++r)
            runRepetition(traced, s, config.seed, r, true, outputs, circuits);
        result.attempted += traced.jobs;
        result.failed += traced.failed + traced.mismatches;
        result.counters = traced.counters;
        result.check("traced outputs equal untraced",
                     traced.failed == 0 && traced.mismatches == 0,
                     std::to_string(traced.mismatches) + " differing");
    }

    // References: every distinct program once through sequential
    // runJigsaw. Every job's output equals its program's first output
    // (counted above), so comparing first outputs covers them all.
    const std::vector<core::ServiceProgram> programs =
        buildPrograms(s, config.seed);
    std::vector<core::ServiceProgram> seen;
    for (const auto &[index, out] : outputs)
        seen.push_back(programs[index]);
    const std::vector<core::JigsawResult> reference =
        core::runProgramsSequentially(seen);
    std::size_t ref_bad = 0;
    std::size_t i = 0;
    for (const auto &[index, out] : outputs)
        ref_bad += pmfsIdentical(reference[i++].output, out) ? 0 : 1;
    result.failed += ref_bad;
    result.check("outputs equal sequential runJigsaw",
                 ref_bad == 0 && plain.mismatches == 0,
                 std::to_string(ref_bad) + " of " +
                     std::to_string(outputs.size()) +
                     " programs differ, " +
                     std::to_string(plain.mismatches) + " repeats differ");
    for (const auto &circuit : circuits)
        result.descriptors.push_back(
            describe(circuit->name(), circuit->circuit()));
    if (!config.trace)
        return result;

    reportJobAttribution(result, traced.attribution, config.tiny);
    result.layers["trace_overhead_ms"] =
        traced.timedMs - firstRepetitionsMs(plain.repMs, replay);
    result.layers["scheduler.submit_p99_ms"] = percentile(traced.submitMs, 0.99);
    result.layers["load.gen_lag_p99_ms"] = percentile(traced.lagMs, 0.99);
    result.info["claim.merged_jobs_positive"] =
        result.counters.at("scheduler.merged_jobs") > 0 ? 1.0 : 0.0;
    return result;
}

} // namespace e2e
