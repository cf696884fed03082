/**
 * @file
 * QAOA MaxCut benchmark.
 *
 * MaxCut on the n-vertex path graph, whose p-layer ansatz uses exactly
 * p(n-1) two-qubit interactions (Table 2's 2Q counts for QAOA-n). The
 * angles are optimized classically against the noiseless simulator at
 * construction, mirroring the classical outer loop of a real QAOA
 * deployment; the workload then runs at fixed optimal angles, which is
 * how the paper evaluates QAOA.
 *
 * The fit scores each candidate on a dense state: the H-layer prefix
 * is evolved once per fit, each objective call copies it and applies
 * only the angle tail, and the expected cut is summed against a 2^n
 * cut table. Two details are kept on purpose so the fitted angles and
 * idealPmf() stay bitwise what simulating the full circuit through
 * computeIdealPmf() and scoring its Pmf gives: the prefix/tail split is
 * the one the simulator's split-prefix evolution makes for this shape
 * (fusion differs across a different split, and so do amplitude bits),
 * and the sum walks basis states in descending order with the Pmf's
 * 1e-14 floor, the order in which that Pmf's hash map yields them
 * (identity hash, buckets reserved before the ascending inserts, so
 * libstdc++ iterates newest first).
 * Nelder-Mead follows any last-bit change in an objective value onto a
 * different path, so either difference would move the angles.
 */
#ifndef JIGSAW_WORKLOADS_QAOA_H
#define JIGSAW_WORKLOADS_QAOA_H

#include <utility>

#include "workloads/workload.h"

namespace jigsaw {
namespace workloads {

/** QAOA for MaxCut on a path graph. */
class QaoaMaxCut : public Workload
{
  public:
    /**
     * @param n Number of vertices / qubits (all measured).
     * @param p Number of alternating-operator layers.
     */
    QaoaMaxCut(int n, int p);

    std::string name() const override;
    const circuit::QuantumCircuit &circuit() const override;
    std::vector<BasisState> correctOutcomes() const override;
    const Pmf &idealPmf() const override;

    bool hasCost() const override { return true; }

    /** Cut size of @p outcome on the path graph. */
    double cost(BasisState outcome) const override;

    /** Optimal cut size (n - 1 for the path graph). */
    double maxCost() const override;

    /** Optimized (gamma, beta) pairs, one per layer. */
    const std::vector<std::pair<double, double>> &angles() const
    {
        return angles_;
    }

    /** Expected cut size under a distribution @p pmf. */
    double expectedCost(const Pmf &pmf) const;

    /** Number of layers. */
    int layers() const { return p_; }

  private:
    int n_;
    int p_;
    std::vector<std::pair<double, double>> angles_;
    circuit::QuantumCircuit circuit_;
    Pmf ideal_;
};

} // namespace workloads
} // namespace jigsaw

#endif // JIGSAW_WORKLOADS_QAOA_H
