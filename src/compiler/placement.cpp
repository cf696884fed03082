#include "compiler/placement.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace jigsaw {
namespace compiler {

namespace {

/** Average two-qubit error over the edges incident to @p p. */
double
incidentEdgeError(const device::DeviceModel &dev, int p)
{
    const device::Topology &topo = dev.topology();
    const auto &neighbors = topo.neighbors(p);
    if (neighbors.empty())
        return 1.0;
    double total = 0.0;
    for (int nb : neighbors)
        total += dev.calibration().edgeError(topo.edgeIndex(p, nb));
    return total / static_cast<double>(neighbors.size());
}

/** Converts an error rate into coupling-distance units for blending
 *  with the hop-count term of the placement cost. */
constexpr double errorToHops = 10.0;

} // namespace

std::vector<int>
rankedStartQubits(const device::DeviceModel &dev, bool noise_aware)
{
    const device::Topology &topo = dev.topology();
    std::vector<int> order(static_cast<std::size_t>(topo.nQubits()));
    std::iota(order.begin(), order.end(), 0);

    std::vector<double> cost(order.size());
    for (int p = 0; p < topo.nQubits(); ++p) {
        const double degree =
            static_cast<double>(topo.neighbors(p).size());
        double c = -0.1 * degree;
        if (noise_aware) {
            c += 5.0 * incidentEdgeError(dev, p) +
                 2.0 * dev.calibration().qubit(p).meanReadoutError();
        }
        cost[static_cast<std::size_t>(p)] = c;
    }

    std::sort(order.begin(), order.end(), [&cost](int a, int b) {
        const double ca = cost[static_cast<std::size_t>(a)];
        const double cb = cost[static_cast<std::size_t>(b)];
        if (ca != cb)
            return ca < cb;
        return a < b;
    });
    return order;
}

std::vector<bool>
measuredMask(const circuit::QuantumCircuit &qc)
{
    std::vector<bool> measured(static_cast<std::size_t>(qc.nQubits()),
                               false);
    for (const circuit::Gate &g : qc.gates()) {
        if (g.isMeasure())
            measured[static_cast<std::size_t>(g.qubits[0])] = true;
    }
    return measured;
}

Placer::Placer(const circuit::QuantumCircuit &logical,
               const device::DeviceModel &dev)
    : nPhysical_(dev.nQubits())
{
    const device::Topology &topo = dev.topology();
    const int n_logical = logical.nQubits();
    fatalIf(n_logical > nPhysical_,
            "greedyPlacement: program larger than device");

    // Interaction weights; partners are kept in ascending order so the
    // distance terms accumulate in the same order as a scan over all
    // logical qubits would.
    std::vector<std::vector<double>> weight(
        static_cast<std::size_t>(n_logical),
        std::vector<double>(static_cast<std::size_t>(n_logical), 0.0));
    for (const circuit::Gate &g : logical.gates()) {
        if (g.isTwoQubit()) {
            weight[static_cast<std::size_t>(g.qubits[0])]
                  [static_cast<std::size_t>(g.qubits[1])] += 1.0;
            weight[static_cast<std::size_t>(g.qubits[1])]
                  [static_cast<std::size_t>(g.qubits[0])] += 1.0;
        }
    }
    partners_.resize(static_cast<std::size_t>(n_logical));
    std::vector<double> total_weight(static_cast<std::size_t>(n_logical),
                                     0.0);
    for (int l = 0; l < n_logical; ++l) {
        const auto &row = weight[static_cast<std::size_t>(l)];
        total_weight[static_cast<std::size_t>(l)] =
            std::accumulate(row.begin(), row.end(), 0.0);
        for (int m = 0; m < n_logical; ++m) {
            if (row[static_cast<std::size_t>(m)] > 0.0) {
                partners_[static_cast<std::size_t>(l)].push_back(
                    {m, row[static_cast<std::size_t>(m)]});
            }
        }
    }

    // Place logical qubits in order of total interaction weight.
    order_.resize(static_cast<std::size_t>(n_logical));
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(),
              [&total_weight](int a, int b) {
                  const double wa = total_weight[static_cast<std::size_t>(a)];
                  const double wb = total_weight[static_cast<std::size_t>(b)];
                  if (wa != wb)
                      return wa > wb;
                  return a < b;
              });

    edgeCost_.resize(static_cast<std::size_t>(nPhysical_));
    readoutCost_.resize(static_cast<std::size_t>(nPhysical_));
    distance_.resize(static_cast<std::size_t>(nPhysical_) *
                     static_cast<std::size_t>(nPhysical_));
    for (int p = 0; p < nPhysical_; ++p) {
        edgeCost_[static_cast<std::size_t>(p)] =
            errorToHops * incidentEdgeError(dev, p);
        readoutCost_[static_cast<std::size_t>(p)] =
            errorToHops * dev.calibration().qubit(p).meanReadoutError();
        for (int q = 0; q < nPhysical_; ++q) {
            distance_[static_cast<std::size_t>(p * nPhysical_ + q)] =
                topo.distance(p, q);
        }
    }
}

Layout
Placer::place(int start_physical, bool noise_aware,
              const std::vector<bool> &measured) const
{
    const int n_logical = nLogical();
    fatalIf(static_cast<int>(measured.size()) != n_logical,
            "greedyPlacement: measurement mask size mismatch");
    fatalIf(start_physical < 0 || start_physical >= nPhysical_,
            "greedyPlacement: invalid start qubit");

    std::vector<int> physical_of(static_cast<std::size_t>(n_logical), -1);
    std::vector<bool> used(static_cast<std::size_t>(nPhysical_), false);

    bool first = true;
    for (int l : order_) {
        if (first) {
            physical_of[static_cast<std::size_t>(l)] = start_physical;
            used[static_cast<std::size_t>(start_physical)] = true;
            first = false;
            continue;
        }
        const bool count_readout =
            noise_aware && measured[static_cast<std::size_t>(l)];
        const auto &partners = partners_[static_cast<std::size_t>(l)];
        double best_cost = std::numeric_limits<double>::infinity();
        int best_p = -1;
        for (int p = 0; p < nPhysical_; ++p) {
            if (used[static_cast<std::size_t>(p)])
                continue;
            double base = 0.0;
            if (noise_aware) {
                base += edgeCost_[static_cast<std::size_t>(p)];
                if (count_readout)
                    base += readoutCost_[static_cast<std::size_t>(p)];
            }
            const int *dist =
                distance_.data() + static_cast<std::size_t>(p) *
                                       static_cast<std::size_t>(nPhysical_);
            double c = base;
            bool reachable = true;
            for (const Partner &partner : partners) {
                const int pm =
                    physical_of[static_cast<std::size_t>(partner.logical)];
                if (pm < 0)
                    continue;
                const int d = dist[pm];
                if (d < 0) {
                    reachable = false;
                    break;
                }
                c += partner.weight * static_cast<double>(d - 1);
            }
            if (!reachable)
                continue;
            // Anchor isolated qubits near the start to keep the
            // program in one region of the device.
            if (c == base)
                c += 0.01 * static_cast<double>(dist[start_physical]);
            if (c < best_cost) {
                best_cost = c;
                best_p = p;
            }
        }
        fatalIf(best_p < 0, "greedyPlacement: no physical qubit available");
        physical_of[static_cast<std::size_t>(l)] = best_p;
        used[static_cast<std::size_t>(best_p)] = true;
    }

    return Layout(std::move(physical_of), nPhysical_);
}

Layout
greedyPlacement(const circuit::QuantumCircuit &logical,
                const device::DeviceModel &dev, int start_physical,
                bool noise_aware)
{
    return Placer(logical, dev)
        .place(start_physical, noise_aware, measuredMask(logical));
}

} // namespace compiler
} // namespace jigsaw
