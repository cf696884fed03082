#include "workloads/bv.h"

namespace jigsaw {
namespace workloads {

namespace {

circuit::QuantumCircuit
buildBv(int n, BasisState hidden)
{
    // Qubits 0..n-1 are data, qubit n is the phase-kickback ancilla.
    circuit::QuantumCircuit qc(n + 1, n);
    for (int q = 0; q < n; ++q)
        qc.h(q);
    qc.x(n).h(n);
    for (int q = 0; q < n; ++q) {
        if (getBit(hidden, q))
            qc.cx(q, n);
    }
    for (int q = 0; q < n; ++q)
        qc.h(q);
    qc.barrier();
    for (int q = 0; q < n; ++q)
        qc.measure(q, q);
    return qc;
}

} // namespace

BernsteinVazirani::BernsteinVazirani(int n, BasisState hidden_string)
    : n_(checkedRange(n, 1, 62, "BernsteinVazirani: n out of range")),
      hidden_(hidden_string & ((n >= 64) ? ~0ULL : ((1ULL << n) - 1))),
      circuit_(buildBv(n, hidden_)),
      ideal_(computeIdealPmf(circuit_))
{
}

std::string
BernsteinVazirani::name() const
{
    return "BV-" + std::to_string(n_);
}

const circuit::QuantumCircuit &
BernsteinVazirani::circuit() const
{
    return circuit_;
}

std::vector<BasisState>
BernsteinVazirani::correctOutcomes() const
{
    return {hidden_};
}

const Pmf &
BernsteinVazirani::idealPmf() const
{
    return ideal_;
}

} // namespace workloads
} // namespace jigsaw
