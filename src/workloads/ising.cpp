#include "workloads/ising.h"

namespace jigsaw {
namespace workloads {

namespace {

// H = -J sum Z_i Z_{i+1} - h sum X_i - g sum Z_i, first-order Trotter
// with time step dt. The field strengths keep |0...0> dominant.
constexpr double couplingJ = 1.0;
constexpr double fieldH = 0.3;
constexpr double fieldG = 0.2;
constexpr double timeStep = 0.15;

circuit::QuantumCircuit
buildIsing(int n, int steps)
{
    circuit::QuantumCircuit qc(n, n);
    for (int s = 0; s < steps; ++s) {
        for (int q = 0; q + 1 < n; ++q)
            qc.rzz(-2.0 * couplingJ * timeStep, q, q + 1);
        for (int q = 0; q < n; ++q) {
            qc.rx(-2.0 * fieldH * timeStep, q);
            qc.rz(-2.0 * fieldG * timeStep, q);
        }
    }
    qc.barrier();
    qc.measureAll();
    return qc;
}

} // namespace

IsingChain::IsingChain(int n, int steps)
    : n_(checkedRange(n, 2, 20, "IsingChain: n out of range")),
      steps_(steps < 0 ? n : steps),
      circuit_(buildIsing(n, steps_)),
      ideal_(computeIdealPmf(circuit_)),
      mode_(ideal_.mode())
{
}

std::string
IsingChain::name() const
{
    return "Ising-" + std::to_string(n_);
}

const circuit::QuantumCircuit &
IsingChain::circuit() const
{
    return circuit_;
}

std::vector<BasisState>
IsingChain::correctOutcomes() const
{
    return {mode_};
}

const Pmf &
IsingChain::idealPmf() const
{
    return ideal_;
}

} // namespace workloads
} // namespace jigsaw
