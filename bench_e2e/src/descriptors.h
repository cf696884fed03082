/**
 * @file
 * Circuit-shape descriptors of a workload's input circuits, computed
 * from the circuit::QuantumCircuit public API. QASMBench's gate and
 * measurement densities let a layer's cost be read against the shape
 * of what it processed; they are recorded, never gated.
 */
#ifndef JIGSAW_E2E_DESCRIPTORS_H
#define JIGSAW_E2E_DESCRIPTORS_H

#include <string>

#include "circuit/circuit.h"
#include "report.h"

namespace e2e {

Descriptor describe(const std::string &name,
                    const jigsaw::circuit::QuantumCircuit &qc);

} // namespace e2e

#endif // JIGSAW_E2E_DESCRIPTORS_H
