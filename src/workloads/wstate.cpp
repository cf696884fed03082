#include "workloads/wstate.h"

#include <cmath>

namespace jigsaw {
namespace workloads {

namespace {

/**
 * Controlled-RY via the standard two-CX decomposition; keeps the
 * circuit inside the library's native gate set.
 */
void
controlledRy(circuit::QuantumCircuit &qc, double theta, int control,
             int target)
{
    qc.ry(theta / 2.0, target);
    qc.cx(control, target);
    qc.ry(-theta / 2.0, target);
    qc.cx(control, target);
}

/**
 * Cascade construction: the excitation starts on qubit 0 and each
 * stage hands the remaining amplitude down the chain, leaving 1/n of
 * the probability on every qubit.
 */
circuit::QuantumCircuit
buildWState(int n)
{
    circuit::QuantumCircuit qc(n, n);
    qc.x(0);
    for (int k = 0; k + 1 < n; ++k) {
        // cos(theta/2) = sqrt(1/(n-k)) keeps 1/(n-k) of the remaining
        // amplitude on qubit k.
        const double theta =
            2.0 * std::acos(std::sqrt(1.0 / static_cast<double>(n - k)));
        controlledRy(qc, theta, k, k + 1);
        qc.cx(k + 1, k);
    }
    qc.barrier();
    qc.measureAll();
    return qc;
}

} // namespace

WState::WState(int n)
    : n_(checkedRange(n, 2, 20, "WState: n out of range")),
      circuit_(buildWState(n)), ideal_(computeIdealPmf(circuit_))
{
}

std::string
WState::name() const
{
    return "W-" + std::to_string(n_);
}

const circuit::QuantumCircuit &
WState::circuit() const
{
    return circuit_;
}

std::vector<BasisState>
WState::correctOutcomes() const
{
    std::vector<BasisState> outcomes;
    outcomes.reserve(static_cast<std::size_t>(n_));
    for (int q = 0; q < n_; ++q)
        outcomes.push_back(1ULL << q);
    return outcomes;
}

const Pmf &
WState::idealPmf() const
{
    return ideal_;
}

} // namespace workloads
} // namespace jigsaw
