#include "workloads/graycode.h"

namespace jigsaw {
namespace workloads {

namespace {

/** Alternating Gray input 0101...: popcount is n/2 (Table 2's n/2
 *  single-qubit gates). */
BasisState
alternatingGray(int n)
{
    BasisState g = 0;
    for (int q = 1; q < n; q += 2)
        g = setBit(g, q, 1);
    return g;
}

/** Gray-to-binary: b_{n-1} = g_{n-1}; b_i = b_{i+1} xor g_i. */
BasisState
grayToBinary(BasisState gray, int n)
{
    BasisState b = 0;
    int prev = 0;
    for (int q = n - 1; q >= 0; --q) {
        const int bit = prev ^ getBit(gray, q);
        b = setBit(b, q, bit);
        prev = bit;
    }
    return b;
}

circuit::QuantumCircuit
buildGraycode(int n, BasisState gray)
{
    circuit::QuantumCircuit qc(n, n);
    for (int q = 0; q < n; ++q) {
        if (getBit(gray, q))
            qc.x(q);
    }
    qc.barrier();
    // The decoding cascade mirrors grayToBinary(): each qubit picks up
    // the parity of all higher Gray bits.
    for (int q = n - 2; q >= 0; --q)
        qc.cx(q + 1, q);
    qc.barrier();
    qc.measureAll();
    return qc;
}

} // namespace

Graycode::Graycode(int n)
    : n_(checkedRange(n, 2, 24, "Graycode: n out of range")),
      gray_(alternatingGray(n)),
      binary_(grayToBinary(gray_, n)),
      circuit_(buildGraycode(n, gray_)),
      ideal_(computeIdealPmf(circuit_))
{
}

std::string
Graycode::name() const
{
    return "Graycode-" + std::to_string(n_);
}

const circuit::QuantumCircuit &
Graycode::circuit() const
{
    return circuit_;
}

std::vector<BasisState>
Graycode::correctOutcomes() const
{
    return {binary_};
}

const Pmf &
Graycode::idealPmf() const
{
    return ideal_;
}

} // namespace workloads
} // namespace jigsaw
