#include "core/service.h"

#include "common/error.h"
#include "core/scheduler.h"
#include "obs/exposition.h"
#include "sim/simulators.h"

namespace jigsaw {
namespace core {

namespace {

/** The executor whose draw stream the service reproduces for
 *  @p program: its own, or a fresh one seeded with executorSeed. */
std::shared_ptr<sim::Executor>
programExecutor(const ServiceProgram &program)
{
    if (program.executor)
        return program.executor;
    return std::make_shared<sim::NoisySimulator>(
        program.device,
        sim::NoisySimulatorOptions{.seed = program.executorSeed});
}

/** Merge every class histogram of @p byClass and take its quantile. */
double
mergedQuantile(
    const std::array<obs::HistogramData, kPriorityClasses> &byClass,
    double q)
{
    obs::HistogramData merged;
    for (const obs::HistogramData &hist : byClass)
        merged.merge(hist);
    return merged.quantile(q);
}

} // namespace

double
StreamStats::latencyPercentileMs(double q) const
{
    return mergedQuantile(latencyByClass, q);
}

double
StreamStats::latencyPercentileMs(Priority cls, double q) const
{
    return latencyByClass[static_cast<std::size_t>(cls)].quantile(q);
}

double
StreamStats::queueWaitPercentileMs(Priority cls, double q) const
{
    return queueWaitByClass[static_cast<std::size_t>(cls)].quantile(q);
}

double
StreamStats::executePercentileMs(Priority cls, double q) const
{
    return executeByClass[static_cast<std::size_t>(cls)].quantile(q);
}

std::vector<JigsawResult>
runProgramsSequentially(const std::vector<ServiceProgram> &programs)
{
    std::vector<JigsawResult> results;
    results.reserve(programs.size());
    for (const ServiceProgram &program : programs) {
        const std::shared_ptr<sim::Executor> executor =
            programExecutor(program);
        results.push_back(runJigsaw(program.circuit, program.device,
                                    *executor, program.trials,
                                    program.options));
    }
    return results;
}

JigsawService::JigsawService(ServiceOptions options)
    : options_(std::move(options))
{
}

JigsawService::~JigsawService() = default; // scheduler's dtor drains

StreamingScheduler &
JigsawService::scheduler()
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        scheduler_ = std::make_unique<StreamingScheduler>(options_.stream);
    return *scheduler_;
}

SubmitResult
JigsawService::submit(ServiceProgram program, Priority priority)
{
    return scheduler().submit(std::move(program), priority);
}

ParametricHandle
JigsawService::compileParametric(ServiceProgram prototype)
{
    return scheduler().compileParametric(std::move(prototype));
}

SubmitResult
JigsawService::submitIteration(ParametricHandle handle,
                               const std::vector<double> &angles,
                               Priority priority)
{
    return scheduler().submitIteration(handle, angles, priority);
}

std::optional<JobStatus>
JigsawService::poll(JobHandle handle) const
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        return std::nullopt;
    return scheduler_->poll(handle);
}

JigsawResult
JigsawService::wait(JobHandle handle)
{
    {
        // No scheduler means no job was ever submitted: reject the
        // handle without spinning up a dispatcher thread just to ask.
        std::lock_guard<std::mutex> lock(schedulerMutex_);
        fatalIf(scheduler_ == nullptr,
                "JigsawService: wait on unknown job handle");
    }
    return scheduler().wait(handle);
}

bool
JigsawService::cancel(JobHandle handle)
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        return false;
    return scheduler_->cancel(handle);
}

bool
JigsawService::release(JobHandle handle)
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        return false;
    return scheduler_->release(handle);
}

void
JigsawService::drain()
{
    StreamingScheduler *scheduler = nullptr;
    {
        std::lock_guard<std::mutex> lock(schedulerMutex_);
        scheduler = scheduler_.get();
    }
    if (scheduler != nullptr)
        scheduler->drain();
}

StreamStats
JigsawService::streamStats() const
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        return StreamStats{};
    return scheduler_->stats();
}

std::string
JigsawService::metricsText() const
{
    // The registry is process-wide: a live scheduler's collector (and
    // every other scheduler's) runs inside the render, so this is the
    // same body the HTTP endpoint serves. Deliberately does NOT
    // lazy-create the scheduler — metrics of an idle service are just
    // the process-wide families.
    return obs::renderProcessMetrics();
}

std::vector<JigsawResult>
JigsawService::run(const std::vector<ServiceProgram> &programs)
{
    return scheduler().run(programs);
}

} // namespace core
} // namespace jigsaw
