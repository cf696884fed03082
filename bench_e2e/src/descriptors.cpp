#include "descriptors.h"

#include <algorithm>
#include <vector>

namespace e2e {

Descriptor
describe(const std::string &name, const jigsaw::circuit::QuantumCircuit &qc)
{
    using jigsaw::circuit::Gate;
    using jigsaw::circuit::GateType;
    Descriptor d;
    d.circuit = name;
    d.qubits = qc.nQubits();
    d.measuredBits = qc.countMeasurements();

    // Longest dependency chain over every operation but barriers, and
    // the most two-qubit gates found on a chain of that length.
    const std::size_t n = static_cast<std::size_t>(qc.nQubits());
    std::vector<int> depth(n, 0), two_qubit(n, 0);
    std::size_t one_qubit = 0;
    for (const Gate &g : qc.gates()) {
        if (g.type == GateType::BARRIER)
            continue;
        if (g.isTwoQubit())
            ++d.twoQubitGates;
        else if (g.isSingleQubit())
            ++one_qubit;
        int level = 0;
        for (const int q : g.qubits)
            level = std::max(level, depth[static_cast<std::size_t>(q)]);
        int chain = 0;
        for (const int q : g.qubits) {
            if (depth[static_cast<std::size_t>(q)] == level)
                chain = std::max(chain, two_qubit[static_cast<std::size_t>(q)]);
        }
        for (const int q : g.qubits) {
            depth[static_cast<std::size_t>(q)] = level + 1;
            two_qubit[static_cast<std::size_t>(q)] =
                chain + (g.isTwoQubit() ? 1 : 0);
        }
    }
    d.gates = one_qubit + d.twoQubitGates;
    for (std::size_t q = 0; q < n; ++q) {
        if (depth[q] > d.depth ||
            (depth[q] == d.depth && two_qubit[q] > d.criticalTwoQubitDepth)) {
            d.depth = depth[q];
            d.criticalTwoQubitDepth = two_qubit[q];
        }
    }
    const double lattice =
        static_cast<double>(d.depth) * static_cast<double>(d.qubits);
    if (lattice > 0.0) {
        d.gateDensity = static_cast<double>(one_qubit + 2 * d.twoQubitGates) /
                        lattice;
        d.measurementDensity = static_cast<double>(d.measuredBits) / lattice;
    }
    return d;
}

} // namespace e2e
