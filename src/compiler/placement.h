/**
 * @file
 * Noise-aware initial placement.
 *
 * Logical qubits are placed greedily in order of interaction weight;
 * each placement minimizes a blend of (a) coupling distance to already
 * placed interaction partners and (b) calibrated error rates of the
 * physical qubit — readout error counting only for logical qubits the
 * circuit actually measures. The latter is what lets a recompiled CPM
 * pull its few measured qubits onto the device's best readout qubits
 * (paper Section 4.2.2) while leaving unmeasured qubits free.
 *
 * Everything but the measurement set and the start qubit is fixed per
 * (program, device), so a Placer computes it once — the interaction
 * partners, the placement order, the per-qubit error terms and the
 * distance table — and every place() call only runs the greedy loop.
 * Recompiling a program's CPMs places the same gate prefix dozens of
 * times under different measurement sets.
 */
#ifndef JIGSAW_COMPILER_PLACEMENT_H
#define JIGSAW_COMPILER_PLACEMENT_H

#include <vector>

#include "circuit/circuit.h"
#include "compiler/layout.h"
#include "device/device_model.h"

namespace jigsaw {
namespace compiler {

/**
 * Physical start qubits ordered by desirability (low local error and
 * high connectivity first when @p noise_aware, otherwise connectivity
 * only). Used to seed diverse placement candidates.
 */
std::vector<int> rankedStartQubits(const device::DeviceModel &dev,
                                   bool noise_aware);

/** Mask over @p qc's qubits: true for every qubit it measures. */
std::vector<bool> measuredMask(const circuit::QuantumCircuit &qc);

/**
 * Greedy placement of one logical program onto one device. Only the
 * two-qubit gates of the program are read (measurements come in as a
 * mask per call), so one Placer serves every CPM of a program.
 */
class Placer
{
  public:
    /** Throws when @p logical has more qubits than @p dev. */
    Placer(const circuit::QuantumCircuit &logical,
           const device::DeviceModel &dev);

    /**
     * Layout anchored at @p start_physical. @p measured (one entry per
     * logical qubit) marks the qubits whose readout error counts; it
     * is read only when @p noise_aware, so distance-only layouts do
     * not depend on it.
     */
    Layout place(int start_physical, bool noise_aware,
                 const std::vector<bool> &measured) const;

    /** Number of logical qubits of the program. */
    int nLogical() const { return static_cast<int>(partners_.size()); }

  private:
    /** One interaction partner of a logical qubit. */
    struct Partner
    {
        int logical;   ///< Partner logical qubit.
        double weight; ///< Two-qubit gates between the pair.
    };

    int nPhysical_;
    std::vector<std::vector<Partner>> partners_; ///< Ascending partner.
    std::vector<int> order_;          ///< Logical placement order.
    std::vector<double> edgeCost_;    ///< Incident-edge term per qubit.
    std::vector<double> readoutCost_; ///< Readout term per qubit.
    std::vector<int> distance_;       ///< Row-major hop distances.
};

/**
 * Greedy placement of @p logical onto @p dev anchored at
 * @p start_physical, with @p logical's own measurements as the mask.
 * A one-shot Placer; callers placing one program repeatedly keep the
 * Placer instead.
 */
Layout greedyPlacement(const circuit::QuantumCircuit &logical,
                       const device::DeviceModel &dev, int start_physical,
                       bool noise_aware);

} // namespace compiler
} // namespace jigsaw

#endif // JIGSAW_COMPILER_PLACEMENT_H
