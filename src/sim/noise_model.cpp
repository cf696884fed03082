#include "sim/noise_model.h"

#include "common/error.h"

namespace jigsaw {
namespace sim {

MeasurementChannel::MeasurementChannel(
    const circuit::QuantumCircuit &physical_circuit,
    const device::DeviceModel &dev)
{
    const device::Calibration &cal = dev.calibration();
    const std::vector<int> measured = physical_circuit.measuredQubits();
    const int simultaneous = physical_circuit.countMeasurements();

    flipProb_.resize(2 * measured.size(), 0.0);
    for (std::size_t c = 0; c < measured.size(); ++c) {
        const int q = measured[c];
        fatalIf(q < 0, "MeasurementChannel: unused classical bit in "
                       "measured circuit");
        for (int bit = 0; bit < 2; ++bit)
            flipProb_[2 * c + static_cast<std::size_t>(bit)] =
                cal.effectiveReadoutError(q, simultaneous, bit);
    }
    flip_.reserve(flipProb_.size());
    for (const double p : flipProb_)
        flip_.emplace_back(p);

    // Correlated flips act on clbit pairs whose physical qubits are
    // coupled and measured together.
    for (std::size_t a = 0; a < measured.size(); ++a) {
        for (std::size_t b = a + 1; b < measured.size(); ++b) {
            if (dev.topology().areCoupled(measured[a], measured[b])) {
                correlatedPairs_.emplace_back(static_cast<int>(a),
                                              static_cast<int>(b));
                pairMasks_.push_back((BasisState{1} << a) |
                                     (BasisState{1} << b));
            }
        }
    }
    correlatedError_ = cal.correlatedPairError();
    pairFlip_ = Bernoulli(correlatedError_);
}

BasisState
MeasurementChannel::apply(BasisState ideal, Rng &rng) const
{
    // One word per clbit, then one per coupled pair, in that order
    // (none where the probability is 0 or 1); each flip is an XOR.
    BasisState out = ideal;
    for (std::size_t c = 0; c < flip_.size() / 2; ++c) {
        const Bernoulli &flip = flip_[2 * c + ((ideal >> c) & 1)];
        out ^= BasisState{flip.draw(rng)} << c;
    }
    for (const BasisState mask : pairMasks_)
        out ^= (0 - BasisState{pairFlip_.draw(rng)}) & mask;
    return out;
}

double
MeasurementChannel::flipProbability(int c, int bit) const
{
    fatalIf(c < 0 || c >= nClbits(),
            "MeasurementChannel: clbit out of range");
    return flipProb_[2 * static_cast<std::size_t>(c) + (bit ? 1 : 0)];
}

} // namespace sim
} // namespace jigsaw
