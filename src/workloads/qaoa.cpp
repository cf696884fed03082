#include "workloads/qaoa.h"

#include <cmath>

#include "common/nelder_mead.h"
#include "sim/statevector.h"

namespace jigsaw {
namespace workloads {

namespace {

/** The angle-free prefix of the ansatz: H on every qubit. */
circuit::QuantumCircuit
hLayer(int n)
{
    circuit::QuantumCircuit qc(n, n);
    for (int q = 0; q < n; ++q)
        qc.h(q);
    return qc;
}

/** Append the p alternating cost/mixer layers at @p angles. */
void
appendLayers(circuit::QuantumCircuit &qc,
             const std::vector<std::pair<double, double>> &angles)
{
    const int n = qc.nQubits();
    for (const auto &[gamma, beta] : angles) {
        for (int q = 0; q + 1 < n; ++q)
            qc.rzz(2.0 * gamma, q, q + 1);
        for (int q = 0; q < n; ++q)
            qc.rx(2.0 * beta, q);
    }
}

circuit::QuantumCircuit
buildQaoa(int n, const std::vector<std::pair<double, double>> &angles)
{
    circuit::QuantumCircuit qc = hLayer(n);
    appendLayers(qc, angles);
    qc.barrier();
    qc.measureAll();
    return qc;
}

double
cutValue(BasisState outcome, int n)
{
    double cut = 0.0;
    for (int q = 0; q + 1 < n; ++q) {
        if (getBit(outcome, q) != getBit(outcome, q + 1))
            cut += 1.0;
    }
    return cut;
}

/**
 * Optimize the 2p angles by maximizing the noiseless expected cut,
 * starting from a linear ramp (a standard good initialization).
 */
std::vector<std::pair<double, double>>
optimizeAngles(int n, int p)
{
    auto unpack = [p](const std::vector<double> &x) {
        std::vector<std::pair<double, double>> angles;
        angles.reserve(static_cast<std::size_t>(p));
        for (int k = 0; k < p; ++k) {
            angles.emplace_back(x[static_cast<std::size_t>(k)],
                                x[static_cast<std::size_t>(p + k)]);
        }
        return angles;
    };

    // Minus the noiseless expected cut, on a dense state. The file
    // comment in qaoa.h says why the prefix/tail split, the descending
    // walk and the floor (StateVector::measurementPmf's default
    // threshold) must stay as they are.
    sim::StateVector prefix(n);
    prefix.applyCircuit(hLayer(n));
    std::vector<double> cut(std::size_t{1} << n);
    for (BasisState basis = 0; basis < cut.size(); ++basis)
        cut[basis] = cutValue(basis, n);

    auto objective = [&](const std::vector<double> &x) {
        circuit::QuantumCircuit tail(n, n);
        appendLayers(tail, unpack(x));
        sim::StateVector state = prefix;
        state.applyCircuit(tail);

        constexpr double kProbabilityFloor = 1e-14;
        const double *re = state.reals().data();
        const double *im = state.imags().data();
        double expected = 0.0;
        for (std::size_t basis = cut.size(); basis-- > 0;) {
            const double prob =
                re[basis] * re[basis] + im[basis] * im[basis];
            if (prob >= kProbabilityFloor)
                expected += prob * cut[basis];
        }
        return -expected;
    };

    std::vector<double> start(static_cast<std::size_t>(2 * p));
    for (int k = 0; k < p; ++k) {
        const double frac = (static_cast<double>(k) + 0.5) /
                            static_cast<double>(p);
        start[static_cast<std::size_t>(k)] = 0.8 * frac;
        start[static_cast<std::size_t>(p + k)] = 0.6 * (1.0 - frac);
    }

    NelderMeadOptions options;
    options.maxIterations = 500;
    options.tolerance = 1e-8;
    options.initialStep = 0.15;
    return unpack(nelderMead(objective, start, options).x);
}

} // namespace

QaoaMaxCut::QaoaMaxCut(int n, int p)
    : n_(checkedRange(n, 2, 20, "QaoaMaxCut: n out of range")),
      p_(checkedRange(p, 1, 8, "QaoaMaxCut: p out of range")),
      angles_(optimizeAngles(n, p)),
      circuit_(buildQaoa(n, angles_)),
      ideal_(computeIdealPmf(circuit_))
{
}

std::string
QaoaMaxCut::name() const
{
    return "QAOA-" + std::to_string(n_) + " p" + std::to_string(p_);
}

const circuit::QuantumCircuit &
QaoaMaxCut::circuit() const
{
    return circuit_;
}

std::vector<BasisState>
QaoaMaxCut::correctOutcomes() const
{
    // The two optimal path-graph cuts are the alternating colorings.
    BasisState even = 0;
    for (int q = 0; q < n_; q += 2)
        even = setBit(even, q, 1);
    const BasisState mask = (n_ >= 64) ? ~0ULL : ((1ULL << n_) - 1);
    return {even, even ^ mask};
}

const Pmf &
QaoaMaxCut::idealPmf() const
{
    return ideal_;
}

double
QaoaMaxCut::cost(BasisState outcome) const
{
    return cutValue(outcome, n_);
}

double
QaoaMaxCut::maxCost() const
{
    return static_cast<double>(n_ - 1);
}

double
QaoaMaxCut::expectedCost(const Pmf &pmf) const
{
    double expected = 0.0;
    for (const auto &[outcome, prob] : pmf.probabilities())
        expected += prob * cost(outcome);
    return expected;
}

} // namespace workloads
} // namespace jigsaw
