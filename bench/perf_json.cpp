#include "perf_json.h"

#include <fstream>
#include <sstream>
#include <utility>

namespace jigsaw {
namespace bench {

PerfReport::PerfReport(std::string workload)
    : workload_(std::move(workload))
{
}

void
PerfReport::addComparison(const std::string &name, double naive_ms,
                          double optimized_ms)
{
    entries_.push_back({name, naive_ms, optimized_ms, std::nullopt});
}

void
PerfReport::addTiming(const std::string &name, double ms)
{
    entries_.push_back({name, -1.0, ms, std::nullopt});
}

void
PerfReport::addCounter(const std::string &name, double value,
                       CounterUnit unit)
{
    entries_.push_back({name, -1.0, value, unit});
}

double
PerfReport::overallSpeedup() const
{
    double naive = 0.0;
    double optimized = 0.0;
    for (const Entry &e : entries_) {
        if (e.naiveMs < 0.0)
            continue;
        naive += e.naiveMs;
        optimized += e.optimizedMs;
    }
    return optimized > 0.0 ? naive / optimized : 0.0;
}

std::string
PerfReport::toJson() const
{
    std::ostringstream out;
    out.precision(6);
    out << std::fixed;
    out << "{\n  \"workload\": \"" << workload_ << "\",\n";
    out << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        out << "    {\"name\": \"" << e.name << "\"";
        if (e.unit == CounterUnit::Count) {
            out << ", \"value\": " << static_cast<long long>(e.optimizedMs)
                << ", \"unit\": \"count\"";
        } else if (e.unit == CounterUnit::Pct) {
            out << ", \"value\": " << e.optimizedMs
                << ", \"unit\": \"pct\"";
        } else if (e.naiveMs >= 0.0) {
            out << ", \"naive_ms\": " << e.naiveMs
                << ", \"optimized_ms\": " << e.optimizedMs
                << ", \"speedup\": "
                << (e.optimizedMs > 0.0 ? e.naiveMs / e.optimizedMs : 0.0);
        } else {
            out << ", \"ms\": " << e.optimizedMs;
        }
        out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"overall_speedup\": " << overallSpeedup() << "\n";
    out << "}\n";
    return out.str();
}

bool
PerfReport::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson();
    return static_cast<bool>(out);
}

} // namespace bench
} // namespace jigsaw
