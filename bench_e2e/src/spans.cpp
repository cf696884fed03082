#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace e2e {

void
SpanLog::begin(const std::string &layer)
{
    stack_.push_back({layer, Clock::now(), 0.0});
}

void
SpanLog::end()
{
    if (stack_.empty())
        throw std::logic_error("SpanLog::end without begin");
    const Open span = stack_.back();
    stack_.pop_back();
    const double duration_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - span.start)
            .count();
    self_[span.layer] += duration_ms - span.childMs;
    if (stack_.empty())
        rootMs_ += duration_ms;
    else
        stack_.back().childMs += duration_ms;
}

namespace {

/** Per-layer metric a scheduler trace stage is attributed to; null
 *  for the zero-length dispatch mark and for stages this table does
 *  not know, whose time then stays in the residual. */
const char *
layerOf(const char *stage)
{
    if (!std::strcmp(stage, "plan"))
        return "core.plan_ms";
    if (!std::strcmp(stage, "compile"))
        return "compiler.compile_ms"; // the scheduler's compile span
                                      // also covers buildSchedule
    if (!std::strcmp(stage, "window"))
        return "scheduler.window_ms";
    if (!std::strcmp(stage, "execute"))
        return "sim.execute_ms";
    if (!std::strcmp(stage, "reconstruct"))
        return "core.reconstruct_ms";
    return nullptr;
}

/** Clock slack for spans recorded on different threads. */
constexpr double kToleranceMs = 0.5;

} // namespace

JobAttribution
attributeJobs(const jigsaw::obs::TraceRecorder &trace,
              const std::vector<JobTiming> &jobs)
{
    JobAttribution out;
    for (const char *name :
         {"core.plan_ms", "compiler.compile_ms", "scheduler.window_ms",
          "sim.execute_ms", "core.reconstruct_ms", "scheduler.admission_ms",
          "scheduler.dispatch_ms"})
        out.layerMs[name] = 0.0;

    for (const JobTiming &job : jobs) {
        const std::vector<jigsaw::obs::TraceSpan> spans = trace.spansFor(job.jobId);
        out.spans += spans.size();
        const double lifetime_ms = job.submitCallMs + job.totalMs;
        out.jobMs += lifetime_ms;
        double cursor = job.submitMs;
        bool malformed = spans.empty();
        bool first = true;
        for (const jigsaw::obs::TraceSpan &span : spans) {
            const double gap = span.startMs - cursor;
            if (gap < -kToleranceMs)
                malformed = true;
            // Waits the scheduler imposes: before the first stage
            // (admission) and between readiness and execution
            // (in-flight cap, then a free pool thread). Other gaps stay
            // in the residual.
            const double wait = std::max(gap, 0.0);
            if (first)
                out.layerMs["scheduler.admission_ms"] += wait;
            else if (!std::strcmp(span.stage, "dispatch") ||
                     !std::strcmp(span.stage, "execute"))
                out.layerMs["scheduler.dispatch_ms"] += wait;
            first = false;
            if (const char *layer = layerOf(span.stage))
                out.layerMs[layer] += span.durationMs;
            cursor = std::max(cursor, span.startMs + span.durationMs);
        }
        if (cursor > job.submitMs + lifetime_ms + kToleranceMs)
            malformed = true;
        out.malformedJobs += malformed ? 1 : 0;
    }
    double attributed = 0.0;
    for (const auto &[name, ms] : out.layerMs)
        attributed += ms;
    out.residualMs = out.jobMs - attributed;
    return out;
}

void
accumulate(JobAttribution &total, const JobAttribution &part)
{
    for (const auto &[layer, ms] : part.layerMs)
        total.layerMs[layer] += ms;
    total.jobMs += part.jobMs;
    total.residualMs += part.residualMs;
    total.malformedJobs += part.malformedJobs;
    total.spans += part.spans;
}

void
reportJobAttribution(Result &result, const JobAttribution &a,
                     bool check_identity)
{
    double parts = a.residualMs;
    for (const auto &[layer, ms] : a.layerMs) {
        result.layers[layer] = ms;
        parts += ms;
    }
    result.layers["wall_ms"] = a.jobMs;
    result.layers["residual_ms"] = a.residualMs;
    result.counters["attribution.malformed_jobs"] = a.malformedJobs;
    result.counters["attribution.spans"] = a.spans;
    if (check_identity) {
        result.check("attribution sums to job time",
                     a.malformedJobs == 0 &&
                         std::abs(parts - a.jobMs) <= 1e-6 * a.jobMs + 1e-9,
                     std::to_string(a.malformedJobs) + " malformed jobs");
    }
}

} // namespace e2e
