#include "workloads/workload.h"

#include "common/error.h"
#include "sim/simulators.h"

namespace jigsaw {
namespace workloads {

double
Workload::cost(BasisState) const
{
    fatalIf(true, "workload has no cost function");
    return 0.0;
}

double
Workload::maxCost() const
{
    fatalIf(true, "workload has no cost function");
    return 0.0;
}

int
checkedRange(int value, int lo, int hi, const std::string &message)
{
    fatalIf(value < lo || value > hi, message);
    return value;
}

Pmf
computeIdealPmf(const circuit::QuantumCircuit &qc)
{
    sim::IdealSimulator ideal;
    return ideal.idealPmf(qc);
}

} // namespace workloads
} // namespace jigsaw
