#include "compiler/cpm_batch.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "compiler/sabre.h"
#include "sim/eps.h"

namespace jigsaw {
namespace compiler {

CpmRecompiler::CpmRecompiler(const circuit::QuantumCircuit &logical,
                             device::DeviceModel dev,
                             TranspileOptions options)
    : logicalPrefix_(logical.withoutMeasurements()), dev_(std::move(dev)),
      options_(std::move(options)), placer_(logical, dev_),
      starts_(rankedStartQubits(dev_, options_.noiseAware))
{
    const int n_candidates =
        std::min<int>(options_.numCandidates,
                      static_cast<int>(starts_.size()));
    fatalIf(n_candidates < 1,
            "CpmRecompiler: need at least one candidate");
    starts_.resize(static_cast<std::size_t>(n_candidates));

    // The distance-only family never reads the measurement set, so
    // every subset shares these layouts.
    const std::vector<bool> no_measurements(
        static_cast<std::size_t>(placer_.nLogical()), false);
    tight_.reserve(starts_.size());
    for (int start : starts_)
        tight_.push_back(placer_.place(start, false, no_measurements));
}

const CpmRecompiler::RoutedPrefix &
CpmRecompiler::routedFor(const Layout &initial)
{
    const auto it = routedByLayout_.find(initial.logicalToPhysical());
    if (it != routedByLayout_.end()) {
        ++routingsReused_;
        return it->second;
    }
    ++routingsComputed_;
    RoutedCircuit routed = sabreRoute(logicalPrefix_, dev_.topology(),
                                      initial, options_.sabre);
    RoutedPrefix prefix{initial, std::move(routed.physical),
                        routed.finalLayout, routed.swapCount, 0.0};
    prefix.gateSuccess = sim::gateSuccessProbability(prefix.physical, dev_);
    return routedByLayout_
        .emplace(initial.logicalToPhysical(), std::move(prefix))
        .first->second;
}

CompiledCircuit
CpmRecompiler::recompile(const std::vector<int> &logical_qubits)
{
    fatalIf(logical_qubits.empty(),
            "CpmRecompiler: empty measurement subset");
    std::vector<bool> measured(static_cast<std::size_t>(placer_.nLogical()),
                               false);
    for (int lq : logical_qubits) {
        fatalIf(lq < 0 || lq >= placer_.nLogical(),
                "CpmRecompiler: measured qubit out of range");
        measured[static_cast<std::size_t>(lq)] = true;
    }

    // Candidate generation mirrors transpile()'s compileCandidates:
    // both greedy placement families per start, the distance-only one
    // added only when it differs from the noise-aware one. Candidate
    // order is preserved so tie-breaking matches transpile() exactly.
    // Each candidate is scored without building its circuit: the gate
    // prefix's success is shared by every subset routed through the
    // same layout, and the readout term only needs the physical qubits
    // the subset's measurements land on after routing.
    std::vector<const RoutedPrefix *> candidates;
    std::vector<double> readout;
    std::vector<CandidateScore> scores;
    std::vector<int> physical_qubits(logical_qubits.size());
    auto score = [&](const Layout &initial) {
        const RoutedPrefix &prefix = routedFor(initial);
        for (std::size_t j = 0; j < logical_qubits.size(); ++j)
            physical_qubits[j] =
                prefix.finalLayout.physicalOf(logical_qubits[j]);
        const double measurement_success =
            sim::measurementSuccessProbability(physical_qubits, dev_);
        candidates.push_back(&prefix);
        readout.push_back(measurement_success);
        scores.push_back(
            {prefix.swapCount, prefix.gateSuccess * measurement_success});
    };
    for (std::size_t i = 0; i < starts_.size(); ++i) {
        if (!options_.noiseAware) {
            score(tight_[i]);
            continue;
        }
        const Layout aware = placer_.place(starts_[i], true, measured);
        score(aware);
        if (tight_[i].logicalToPhysical() != aware.logicalToPhysical())
            score(tight_[i]);
    }

    // Materialize only the winner: the routed prefix with this
    // subset's measurements appended against the final layout —
    // exactly what sabreRoute emits for the CPM circuit, where the
    // measurements are terminal and clbit j reads logical_qubits[j].
    const std::size_t best = selectCandidate(scores, options_);
    const RoutedPrefix &prefix = *candidates[best];
    circuit::QuantumCircuit physical(
        dev_.nQubits(), static_cast<int>(logical_qubits.size()));
    for (const circuit::Gate &g : prefix.physical.gates())
        physical.append(g);
    for (std::size_t j = 0; j < logical_qubits.size(); ++j) {
        physical.measure(prefix.finalLayout.physicalOf(logical_qubits[j]),
                         static_cast<int>(j));
    }
    return CompiledCircuit{std::move(physical),
                           prefix.initialLayout,
                           prefix.finalLayout,
                           prefix.swapCount,
                           scores[best].eps,
                           prefix.gateSuccess,
                           readout[best]};
}

} // namespace compiler
} // namespace jigsaw
