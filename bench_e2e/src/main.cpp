/**
 * @file
 * Entry point of the layered end-to-end benchmark (jigsaw_e2e).
 *
 * Usage:
 *   jigsaw_e2e --workload NAME --seed N --seconds S --trace 0|1
 *              [--commit SHA] [--source-sha256 HEX]
 *   jigsaw_e2e --self-test
 *
 * NAME is paper-sweep, stream-bursty or vqa-loop. --trace 0 reports
 * the end-to-end metrics; --trace 1 repeats the run with layer spans
 * and reports the per-layer metrics. --self-test runs every workload
 * traced on tiny inputs and checks the attribution bookkeeping.
 * The last line of standard output is the JSON result; the exit code
 * is 0 only when every correctness check passed.
 */
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload paper-sweep|stream-bursty|vqa-loop"
                 " --seed N --seconds S --trace 0|1"
                 " [--commit SHA] [--source-sha256 HEX]\n"
              << "       " << argv0 << " --self-test\n";
    return 2;
}

e2e::Result
runWorkload(const e2e::RunConfig &config)
{
    if (config.workload == "paper-sweep")
        return e2e::runPaperSweep(config);
    if (config.workload == "stream-bursty")
        return e2e::runStreamBursty(config);
    return e2e::runVqaLoop(config);
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::RunConfig config;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--workload" && has_value) {
            config.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            config.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            config.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            config.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--commit" && has_value) {
            config.commit = argv[++i];
        } else if (arg == "--source-sha256" && has_value) {
            config.sourceHash = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }

    try {
        if (self_test) {
            int status = 0;
            config.tiny = true;
            config.trace = true;
            config.seconds = 0.0;
            for (const char *name :
                 {"paper-sweep", "stream-bursty", "vqa-loop"}) {
                config.workload = name;
                status |= e2e::printReport(config, runWorkload(config));
            }
            return status;
        }
        if (config.workload != "paper-sweep" &&
            config.workload != "stream-bursty" &&
            config.workload != "vqa-loop")
            return usage(argv[0]);
        if (!(config.seconds > 0.0 && config.seconds <= 600.0)) {
            std::cerr << "--seconds must be in (0, 600]\n";
            return 2;
        }
        return e2e::printReport(config, runWorkload(config));
    } catch (const std::exception &e) {
        std::cerr << "jigsaw_e2e: " << config.workload << " failed: "
                  << e.what() << "\n";
        return 1;
    }
}
