#include "workloads/qft.h"

#include <cmath>

namespace jigsaw {
namespace workloads {

namespace {

BasisState
alternatingPattern(int n)
{
    BasisState p = 0;
    for (int q = 0; q < n; q += 2)
        p = setBit(p, q, 1);
    return p;
}

/**
 * Textbook QFT without the final bit-reversal swaps: applying the
 * adjoint immediately afterwards cancels the reversal, so the swaps
 * would only add gates that trivially undo each other.
 */
void
appendQft(circuit::QuantumCircuit &qc, int n, bool inverse)
{
    const double sign = inverse ? -1.0 : 1.0;
    if (!inverse) {
        for (int i = n - 1; i >= 0; --i) {
            qc.h(i);
            for (int j = i - 1; j >= 0; --j)
                qc.cp(sign * M_PI / std::ldexp(1.0, i - j), j, i);
        }
    } else {
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < i; ++j)
                qc.cp(sign * M_PI / std::ldexp(1.0, i - j), j, i);
            qc.h(i);
        }
    }
}

circuit::QuantumCircuit
buildQftAdjoint(int n, BasisState pattern)
{
    circuit::QuantumCircuit qc(n, n);
    for (int q = 0; q < n; ++q) {
        if (getBit(pattern, q))
            qc.x(q);
    }
    qc.barrier();
    appendQft(qc, n, false);
    appendQft(qc, n, true);
    qc.barrier();
    qc.measureAll();
    return qc;
}

} // namespace

QftAdjoint::QftAdjoint(int n)
    : n_(checkedRange(n, 2, 20, "QftAdjoint: n out of range")),
      pattern_(alternatingPattern(n)),
      circuit_(buildQftAdjoint(n, pattern_)),
      ideal_(computeIdealPmf(circuit_))
{
}

std::string
QftAdjoint::name() const
{
    return "QFTAdj-" + std::to_string(n_);
}

const circuit::QuantumCircuit &
QftAdjoint::circuit() const
{
    return circuit_;
}

std::vector<BasisState>
QftAdjoint::correctOutcomes() const
{
    return {pattern_};
}

const Pmf &
QftAdjoint::idealPmf() const
{
    return ideal_;
}

} // namespace workloads
} // namespace jigsaw
