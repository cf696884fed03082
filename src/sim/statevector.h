/**
 * @file
 * Exact state-vector simulator.
 *
 * Holds 2^n complex amplitudes and applies gates in place. Practical
 * up to ~24 qubits, which covers every benchmark in the paper (the
 * largest is Graycode-18).
 *
 * Amplitudes are stored split (structure-of-arrays: one real and one
 * imaginary double array) so the hot loops run through the SIMD
 * kernel table in common/simd.h — AVX2+FMA when the build and CPU
 * support it, a portable scalar fallback otherwise. The kernels
 * iterate strided amplitude pairs/quads so each amplitude is touched
 * exactly once per gate (no full-space scan-and-skip), dispatch
 * diagonal gates (Z/S/T/RZ/CZ/CP/RZZ) to in-place phase multiplies
 * and permutation gates (CX/SWAP) to index-mapped swaps, and split
 * large amplitude ranges across the parallel.h thread pool.
 * applyCircuit() additionally fuses runs of single-qubit gates on the
 * same qubit into one 2x2 matrix, runs of CP/CZ gates sharing a qubit
 * into one stratum phase-table pass, and general diagonal runs
 * (RZ/RZZ mixed with CP/CZ — the QAOA and Ising layer shape) into one
 * full-register phase-table pass before touching the state.
 */
#ifndef JIGSAW_SIM_STATEVECTOR_H
#define JIGSAW_SIM_STATEVECTOR_H

#include <complex>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/histogram.h"

namespace jigsaw {
namespace sim {

/**
 * The quantum state of an n-qubit register, initialized to |0...0>.
 */
class StateVector
{
  public:
    using Amplitude = std::complex<double>;

    /** Construct |0...0> over @p n_qubits qubits. */
    explicit StateVector(int n_qubits);

    /** Number of qubits. */
    int nQubits() const { return nQubits_; }

    /** Apply a unitary gate (MEASURE/BARRIER are rejected). */
    void applyGate(const circuit::Gate &gate);

    /** Apply every unitary gate of @p qc in order (measures skipped),
     *  fusing runs of gates (see the file comment). */
    void applyCircuit(const circuit::QuantumCircuit &qc);

    /** Amplitude of basis state @p basis. */
    Amplitude amplitude(BasisState basis) const;

    /** Born probability of basis state @p basis. */
    double probability(BasisState basis) const;

    /** Sum of |amplitude|^2 (1 up to round-off for a valid state). */
    double norm() const;

    /**
     * Distribution of measurement outcomes over the given qubits:
     * bit j of each outcome key is qubit @p qubits[j]. Entries below
     * @p threshold are dropped to keep the PMF sparse.
     */
    Pmf measurementPmf(const std::vector<int> &qubits,
                       double threshold = 1e-14) const;

    /** Apply a Pauli operator (X=1, Y=2, Z=3) to qubit @p q. */
    void applyPauli(int pauli, int q);

    /** Real amplitude components, indexed by basis state. */
    const std::vector<double> &reals() const { return re_; }

    /** Imaginary amplitude components, indexed by basis state. */
    const std::vector<double> &imags() const { return im_; }

    /**
     * Apply an arbitrary 2x2 unitary to qubit @p q. Public so circuit
     * evolution can fuse gate runs into one matrix before applying.
     */
    void apply1q(const Amplitude m[2][2], int q);

  private:
    void applyCx(int control, int target);
    void applyPhasePair(Amplitude even, Amplitude odd, int q0, int q1);
    void applyControlledPhase(Amplitude phase, int a, int b);
    void applyControlledPhaseRun(
        int target,
        const std::vector<std::pair<int, Amplitude>> &controls);
    /**
     * Multiply every amplitude by tab[PEXT(index, mask)]: one pass
     * applying a fused run of diagonal gates over the masked qubits.
     */
    void applyDiagonalRun(BasisState mask,
                          const std::vector<double> &tab_re,
                          const std::vector<double> &tab_im);
    void applySwap(int a, int b);

    int nQubits_;
    std::vector<double> re_;
    std::vector<double> im_;
};

/** Fill @p m with the 2x2 unitary of the single-qubit @p gate. */
void gateMatrix1q(const circuit::Gate &gate, StateVector::Amplitude m[2][2]);

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_STATEVECTOR_H
