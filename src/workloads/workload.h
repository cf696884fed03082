/**
 * @file
 * Benchmark workload interface.
 *
 * A workload is a logical circuit (with its measurements) plus the
 * ground truth needed to score it: the set of correct outcomes for
 * PST/IST, the noise-free output PMF for Fidelity, and optionally a
 * classical cost function for the QAOA Approximation Ratio metrics.
 */
#ifndef JIGSAW_WORKLOADS_WORKLOAD_H
#define JIGSAW_WORKLOADS_WORKLOAD_H

#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/histogram.h"

namespace jigsaw {
namespace workloads {

/** Base class for the paper's NISQ benchmarks (Table 2). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Display name, e.g. "BV-6" or "QAOA-10 p2". */
    virtual std::string name() const = 0;

    /** Logical circuit including its terminal measurements. */
    virtual const circuit::QuantumCircuit &circuit() const = 0;

    /**
     * Correct outcomes over the measured classical bits. PST sums
     * the observed probability of these outcomes.
     */
    virtual std::vector<BasisState> correctOutcomes() const = 0;

    /** Noise-free output distribution over the classical bits. */
    virtual const Pmf &idealPmf() const = 0;

    /** True when cost() is meaningful (QAOA). */
    virtual bool hasCost() const { return false; }

    /** Classical objective value of an outcome (QAOA cut size). */
    virtual double cost(BasisState outcome) const;

    /** Maximum achievable cost (QAOA optimal cut size). */
    virtual double maxCost() const;

    /** Number of measured (program) qubits. */
    int nMeasured() const { return circuit().countMeasurements(); }
};

/**
 * @p value when it lies in [@p lo, @p hi]; throws
 * std::invalid_argument(@p message) otherwise. Workload constructors
 * call it in their first member initialiser, so a bad size fails
 * before any circuit is built or simulated.
 */
int checkedRange(int value, int lo, int hi, const std::string &message);

/** Simulate @p qc noiselessly; helper for workload constructors. */
Pmf computeIdealPmf(const circuit::QuantumCircuit &qc);

} // namespace workloads
} // namespace jigsaw

#endif // JIGSAW_WORKLOADS_WORKLOAD_H
