#include "workloads/ghz.h"

namespace jigsaw {
namespace workloads {

namespace {

circuit::QuantumCircuit
buildGhz(int n)
{
    circuit::QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q)
        qc.cx(q, q + 1);
    qc.barrier();
    qc.measureAll();
    return qc;
}

} // namespace

Ghz::Ghz(int n)
    : n_(checkedRange(n, 2, 24, "Ghz: n out of range")),
      circuit_(buildGhz(n)), ideal_(computeIdealPmf(circuit_))
{
}

std::string
Ghz::name() const
{
    return "GHZ-" + std::to_string(n_);
}

const circuit::QuantumCircuit &
Ghz::circuit() const
{
    return circuit_;
}

std::vector<BasisState>
Ghz::correctOutcomes() const
{
    return {0ULL, (n_ >= 64) ? ~0ULL : ((1ULL << n_) - 1)};
}

const Pmf &
Ghz::idealPmf() const
{
    return ideal_;
}

} // namespace workloads
} // namespace jigsaw
