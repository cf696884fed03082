/**
 * @file
 * Layer attribution from outside the program.
 *
 * Two shapes, matching the two ways the workloads drive the library:
 *
 *  - SpanLog: nested spans recorded by the benchmark's own code around
 *    calls into each layer's public functions on one thread
 *    (the paper sweep). A span's self time is its duration minus the
 *    time its child spans cover; self times of all spans sum to the
 *    root span's duration, and the root's own self time is the
 *    residual no layer accounts for.
 *  - attributeJobs: per-job spans the scheduler's obs::TraceRecorder
 *    collected (plan, compile, window, dispatch, execute,
 *    reconstruct), plus the waits between them, summed over jobs. A
 *    job's submit-to-terminal time is split into those parts and a
 *    per-job residual, so these are job-times: a merged window's
 *    execution counts once for every member.
 */
#ifndef JIGSAW_E2E_SPANS_H
#define JIGSAW_E2E_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "report.h"

namespace e2e {

class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Open a span; close it with end() in last-in first-out order. */
    void begin(const std::string &layer);
    void end();

    /** RAII helper for one span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &layer) : log_(log)
        {
            log_.begin(layer);
        }
        ~Scope() { log_.end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
    };

    /** Summed self time per layer name, in milliseconds. */
    const std::map<std::string, double> &selfMs() const { return self_; }

    /** Summed duration of closed root (outermost) spans, in ms. */
    double rootMs() const { return rootMs_; }

    /** Spans still open (0 once every begin() met its end()). */
    std::size_t open() const { return stack_.size(); }

  private:
    struct Open
    {
        std::string layer;
        Clock::time_point start;
        double childMs = 0.0;
    };
    std::vector<Open> stack_;
    std::map<std::string, double> self_;
    double rootMs_ = 0.0;
};

/** What the benchmark saw of one scheduler job from outside. */
struct JobTiming
{
    std::uint64_t jobId = 0;
    /** When the submit call started, on the recorder's clock. */
    double submitMs = 0.0;
    /** How long the submit call took: the job's own clock starts
     *  somewhere inside it, after any wait for the scheduler lock. */
    double submitCallMs = 0.0;
    double totalMs = 0.0; ///< Job clock to terminal (JobStatus::totalMs).
};

/** Job-time attribution of a traced scheduler pass. */
struct JobAttribution
{
    std::map<std::string, double> layerMs; ///< Per-layer metric name.
    /** Sum over jobs of submit call plus JobStatus::totalMs: from the
     *  submit call to terminal, up to the call's tail after the job's
     *  clock started. */
    double jobMs = 0.0;
    double residualMs = 0.0; ///< jobMs minus every attributed part.
    /** Jobs whose spans overlap each other or leave their lifetime
     *  (beyond clock tolerance): attribution assumes neither. */
    std::size_t malformedJobs = 0;
    std::size_t spans = 0;
};

/** Split each job's lifetime into layer spans, waits and residual. */
JobAttribution attributeJobs(const jigsaw::obs::TraceRecorder &trace,
                             const std::vector<JobTiming> &jobs);

/** Add one repetition's attribution @p part into @p total. */
void accumulate(JobAttribution &total, const JobAttribution &part);

/**
 * Record a traced scheduler pass's attribution as per-layer values
 * (`wall_ms` is the summed job time). With @p check_identity, that the
 * parts and the residual add up to the job time and that no job's
 * spans were malformed becomes a correctness check.
 */
void reportJobAttribution(Result &result, const JobAttribution &a,
                          bool check_identity);

} // namespace e2e

#endif // JIGSAW_E2E_SPANS_H
