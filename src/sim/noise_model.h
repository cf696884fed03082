/**
 * @file
 * Measurement-error channel.
 *
 * Models the three readout phenomena the paper characterizes:
 *  - per-qubit asymmetric bit flips (reading |1> fails more often
 *    than |0> because the qubit relaxes during the readout pulse),
 *  - measurement crosstalk (effective error grows with the number of
 *    simultaneous measurements, Section 3.1),
 *  - correlated flips between adjacent simultaneously-measured qubits
 *    (the correlated-error floor that makes PST saturate with trials,
 *    Figure 7).
 */
#ifndef JIGSAW_SIM_NOISE_MODEL_H
#define JIGSAW_SIM_NOISE_MODEL_H

#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/bitops.h"
#include "common/rng.h"
#include "device/device_model.h"

namespace jigsaw {
namespace sim {

/**
 * The stochastic readout channel for one compiled circuit: built once
 * from the device calibration and the circuit's measurement set, then
 * applied to every sampled ideal outcome.
 */
class MeasurementChannel
{
  public:
    /**
     * Build the channel for the measurements of @p physical_circuit
     * (a routed circuit over physical qubits) on @p dev. Classical
     * bit c of an outcome corresponds to the physical qubit measured
     * into clbit c.
     */
    MeasurementChannel(const circuit::QuantumCircuit &physical_circuit,
                       const device::DeviceModel &dev);

    /** Corrupt one ideal outcome with readout noise. */
    BasisState apply(BasisState ideal, Rng &rng) const;

    /** Flip probability of clbit @p c when the true bit is @p bit. */
    double flipProbability(int c, int bit) const;

    /** Number of classical bits covered. */
    int nClbits() const { return static_cast<int>(flipProb_.size() / 2); }

    /** Pairs of clbits subject to correlated flips. */
    const std::vector<std::pair<int, int>> &correlatedPairs() const
    {
        return correlatedPairs_;
    }

    /** Correlated-pair flip probability. */
    double correlatedError() const { return correlatedError_; }

  private:
    /** P(flip of clbit c | true bit b) at index 2c + b. */
    std::vector<double> flipProb_;
    /** flipProb_ as word thresholds, same indexing. */
    std::vector<Bernoulli> flip_;
    std::vector<std::pair<int, int>> correlatedPairs_;
    /** Both bits of each correlated pair, in correlatedPairs_ order. */
    std::vector<BasisState> pairMasks_;
    double correlatedError_ = 0.0;
    Bernoulli pairFlip_;
};

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_NOISE_MODEL_H
