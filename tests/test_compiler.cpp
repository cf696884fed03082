/**
 * @file
 * Compiler tests: layout bookkeeping, SABRE routing invariants
 * (coupling-validity and semantic equivalence under random circuits
 * and topologies), noise-aware placement, transpiler selection, CPM
 * recompilation rules, and EDM ensembles.
 */
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "compiler/placement.h"
#include "compiler/sabre.h"
#include "compiler/transpiler.h"
#include "core/subsets.h"
#include "device/library.h"
#include "sim/eps.h"
#include "sim/simulators.h"
#include "workloads/registry.h"

namespace jigsaw {
namespace compiler {
namespace {

using circuit::Gate;
using circuit::GateType;
using circuit::QuantumCircuit;
using device::DeviceModel;
using device::Topology;

Layout
identityLayout(int n_logical, int n_physical)
{
    std::vector<int> v(static_cast<std::size_t>(n_logical));
    for (int i = 0; i < n_logical; ++i)
        v[static_cast<std::size_t>(i)] = i;
    return Layout(std::move(v), n_physical);
}

// ---------------------------------------------------------------- layout

TEST(LayoutTest, Bidirectional)
{
    Layout layout({3, 1, 0}, 4);
    EXPECT_EQ(layout.nLogical(), 3);
    EXPECT_EQ(layout.nPhysical(), 4);
    EXPECT_EQ(layout.physicalOf(0), 3);
    EXPECT_EQ(layout.logicalOf(3), 0);
    EXPECT_EQ(layout.logicalOf(2), -1);
}

TEST(LayoutTest, SwapPhysical)
{
    Layout layout({0, 1}, 3);
    layout.swapPhysical(1, 2); // logical 1 moves to physical 2
    EXPECT_EQ(layout.physicalOf(1), 2);
    EXPECT_EQ(layout.logicalOf(1), -1);
    EXPECT_EQ(layout.logicalOf(2), 1);
    layout.swapPhysical(0, 2); // logical 0 <-> logical 1
    EXPECT_EQ(layout.physicalOf(0), 2);
    EXPECT_EQ(layout.physicalOf(1), 0);
}

TEST(LayoutTest, RejectsDuplicates)
{
    EXPECT_THROW(Layout({0, 0}, 3), std::invalid_argument);
    EXPECT_THROW(Layout({0, 5}, 3), std::invalid_argument);
}

// ----------------------------------------------------------------- sabre

TEST(Sabre, NoSwapWhenAdjacent)
{
    const Topology topo = device::linearTopology(3);
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();
    const RoutedCircuit routed =
        sabreRoute(qc, topo, identityLayout(3, 3));
    EXPECT_EQ(routed.swapCount, 0);
    EXPECT_EQ(routed.physical.countTwoQubitGates(), 2);
}

TEST(Sabre, InsertsSwapForDistantPair)
{
    const Topology topo = device::linearTopology(3);
    QuantumCircuit qc(3, 3);
    qc.cx(0, 2).measureAll();
    const RoutedCircuit routed =
        sabreRoute(qc, topo, identityLayout(3, 3));
    EXPECT_GE(routed.swapCount, 1);
    // All two-qubit gates must now sit on coupling edges.
    for (const Gate &g : routed.physical.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(topo.areCoupled(g.qubits[0], g.qubits[1]));
        }
    }
}

TEST(Sabre, MeasurementsFollowFinalLayout)
{
    const Topology topo = device::linearTopology(3);
    QuantumCircuit qc(3, 3);
    qc.cx(0, 2).measureAll();
    const RoutedCircuit routed =
        sabreRoute(qc, topo, identityLayout(3, 3));
    const std::vector<int> measured = routed.physical.measuredQubits();
    for (int c = 0; c < 3; ++c)
        EXPECT_EQ(measured[static_cast<std::size_t>(c)],
                  routed.finalLayout.physicalOf(c));
}

TEST(Sabre, RejectsNonTerminalMeasurement)
{
    const Topology topo = device::linearTopology(2);
    QuantumCircuit qc(2, 2);
    qc.measure(0, 0).h(0);
    EXPECT_THROW(sabreRoute(qc, topo, identityLayout(2, 2)),
                 std::invalid_argument);
}

/**
 * Property: routing preserves semantics. The routed circuit, executed
 * noiselessly, must produce the same output distribution (over
 * classical bits) as the logical circuit.
 */
class SabreEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(SabreEquivalence, RoutedCircuitSameDistribution)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    const int n = 4 + static_cast<int>(rng.uniformInt(0, 2));

    // Random topology: ring plus a chord, always connected.
    std::vector<device::Edge> edges;
    const int n_phys = n + 2;
    for (int q = 0; q < n_phys; ++q)
        edges.emplace_back(q, (q + 1) % n_phys);
    edges.emplace_back(0, n_phys / 2);
    const Topology topo(n_phys, std::move(edges));

    QuantumCircuit qc(n, n);
    for (int step = 0; step < 25; ++step) {
        const int kind = static_cast<int>(rng.uniformInt(0, 3));
        const int a = static_cast<int>(rng.uniformInt(0, n - 1));
        int b = static_cast<int>(rng.uniformInt(0, n - 1));
        if (b == a)
            b = (a + 1) % n;
        switch (kind) {
          case 0: qc.h(a); break;
          case 1: qc.rx(rng.uniform(0, 2 * M_PI), a); break;
          case 2: qc.cx(a, b); break;
          default: qc.rzz(rng.uniform(0, 2 * M_PI), a, b); break;
        }
    }
    qc.measureAll();

    const RoutedCircuit routed =
        sabreRoute(qc, topo, identityLayout(n, n_phys));

    // Coupling validity.
    for (const Gate &g : routed.physical.gates()) {
        if (g.isTwoQubit()) {
            ASSERT_TRUE(topo.areCoupled(g.qubits[0], g.qubits[1]));
        }
    }

    // Semantic equivalence through the noiseless executor.
    sim::IdealSimulator ideal;
    const Pmf expected = ideal.idealPmf(qc);
    const Pmf actual = ideal.idealPmf(routed.physical);
    EXPECT_LT(totalVariationDistance(expected, actual), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SabreEquivalence, ::testing::Range(1, 13));

// ------------------------------------------------------------- placement

TEST(Placement, RankedStartsPreferGoodQubits)
{
    const DeviceModel dev = device::toronto();
    const std::vector<int> starts = rankedStartQubits(dev, true);
    EXPECT_EQ(starts.size(), 27u);
    // All distinct.
    std::set<int> unique(starts.begin(), starts.end());
    EXPECT_EQ(unique.size(), 27u);
}

TEST(Placement, GreedyProducesValidLayout)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(8, 8);
    qc.h(0);
    for (int q = 0; q + 1 < 8; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();
    const Layout layout = greedyPlacement(qc, dev, 12, true);
    EXPECT_EQ(layout.nLogical(), 8);
    std::set<int> used;
    for (int l = 0; l < 8; ++l)
        used.insert(layout.physicalOf(l));
    EXPECT_EQ(used.size(), 8u);
}

TEST(Placement, ChainNeighborsPlacedNearby)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(6, 6);
    for (int q = 0; q + 1 < 6; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();
    const Layout layout = greedyPlacement(qc, dev, 12, true);
    // Interacting neighbors should be within a couple of hops.
    for (int q = 0; q + 1 < 6; ++q) {
        EXPECT_LE(dev.topology().distance(layout.physicalOf(q),
                                          layout.physicalOf(q + 1)),
                  2);
    }
}

TEST(Placement, GoldenLayoutsAcrossThePaperSweep)
{
    // One FNV hash over every layout the Figure-8 sweep can ask for:
    // the three evaluation devices x the nine paper benchmarks, the 12
    // ranked starts of both rankings, both placement families, and the
    // global mask plus every JigSaw / JigSaw-M (sliding window, sizes
    // 2..5) CPM mask. The constant was computed with the original
    // per-call greedyPlacement implementation, so any change to the
    // placement arithmetic or its order shows up here.
    constexpr std::uint64_t kGoldenHash = 0x4a8900cde2edaabeULL;
    constexpr std::size_t kGoldenLayouts = 45036;

    // Building the suite optimizes the QAOA angles; do it once.
    std::vector<QuantumCircuit> programs;
    for (const auto &workload : workloads::paperBenchmarks())
        programs.push_back(workload->circuit());

    std::uint64_t h = kFnvOffsetBasis;
    std::size_t n_layouts = 0;
    for (const DeviceModel &dev : device::evaluationDevices()) {
        for (const QuantumCircuit &logical : programs) {
            const Placer placer(logical, dev);
            const std::vector<int> qubit_of_clbit =
                logical.measuredQubits();
            std::vector<std::vector<bool>> masks{measuredMask(logical)};
            for (int size : {2, 3, 4, 5}) {
                for (const core::Subset &subset : core::slidingWindowSubsets(
                         logical.countMeasurements(), size)) {
                    std::vector<bool> mask(
                        static_cast<std::size_t>(logical.nQubits()), false);
                    for (int c : subset) {
                        mask[static_cast<std::size_t>(
                            qubit_of_clbit[static_cast<std::size_t>(c)])] =
                            true;
                    }
                    masks.push_back(std::move(mask));
                }
            }
            for (bool ranked_aware : {true, false}) {
                std::vector<int> starts =
                    rankedStartQubits(dev, ranked_aware);
                starts.resize(12);
                for (int start : starts) {
                    fnvMixWord(h, static_cast<std::uint64_t>(start));
                    for (bool family : {true, false}) {
                        if (family && !ranked_aware)
                            continue;
                        for (const std::vector<bool> &mask : masks) {
                            const Layout layout =
                                placer.place(start, family, mask);
                            for (int p : layout.logicalToPhysical()) {
                                fnvMixWord(h,
                                           static_cast<std::uint64_t>(p));
                            }
                            ++n_layouts;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(n_layouts, kGoldenLayouts);
    EXPECT_EQ(h, kGoldenHash);
}

TEST(Placement, WrapperMatchesPlacer)
{
    // greedyPlacement is a one-shot Placer with the circuit's own
    // measurements as the mask.
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(6, 2);
    for (int q = 0; q + 1 < 6; ++q)
        qc.cx(q, q + 1);
    qc.measure(1, 0);
    qc.measure(4, 1);
    const Placer placer(qc, dev);
    const std::vector<bool> mask = measuredMask(qc);
    EXPECT_EQ(mask, (std::vector<bool>{false, true, false, false, true,
                                       false}));
    for (int start : rankedStartQubits(dev, true)) {
        for (bool aware : {true, false}) {
            EXPECT_EQ(greedyPlacement(qc, dev, start, aware)
                          .logicalToPhysical(),
                      placer.place(start, aware, mask).logicalToPhysical());
        }
    }
    EXPECT_THROW(placer.place(0, true, std::vector<bool>(5, false)),
                 std::invalid_argument);
    EXPECT_THROW(placer.place(27, true, mask), std::invalid_argument);
}

TEST(Placement, RejectsOversizedProgram)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(28, 28);
    qc.h(0);
    EXPECT_THROW(greedyPlacement(qc, dev, 0, true),
                 std::invalid_argument);
}

// ------------------------------------------------------------ transpiler

TEST(Transpiler, ProducesRoutedCircuit)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(10, 10);
    qc.h(0);
    for (int q = 0; q + 1 < 10; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();

    const CompiledCircuit compiled = transpile(qc, dev);
    EXPECT_EQ(compiled.physical.nQubits(), 27);
    for (const Gate &g : compiled.physical.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(dev.topology().areCoupled(g.qubits[0],
                                                  g.qubits[1]));
        }
    }
    EXPECT_GT(compiled.eps, 0.0);
    EXPECT_LE(compiled.eps, 1.0);
    EXPECT_NEAR(compiled.eps,
                compiled.gateSuccess * compiled.measurementSuccess,
                1e-12);
}

TEST(Transpiler, NoiseAwareBeatsOrEqualsNaive)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(8, 8);
    qc.h(0);
    for (int q = 0; q + 1 < 8; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();

    TranspileOptions naive;
    naive.noiseAware = false;
    const CompiledCircuit aware = transpile(qc, dev);
    const CompiledCircuit blind = transpile(qc, dev, naive);
    EXPECT_GE(aware.eps, blind.eps - 1e-12);
}

TEST(Transpiler, CpmRecompilationRespectsSwapBudgetAndReadout)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(10, 10);
    qc.h(0);
    for (int q = 0; q + 1 < 10; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();

    const CompiledCircuit global = transpile(qc, dev);

    const QuantumCircuit cpm_logical = qc.withMeasurementSubset({4, 5});
    TranspileOptions cpm_options;
    cpm_options.maxSwaps = global.swapCount;
    const CompiledCircuit cpm = transpile(cpm_logical, dev, cpm_options);

    // Per the no-extra-SWAP rule.
    EXPECT_LE(cpm.swapCount, global.swapCount);

    // Measuring 2 qubits must read far better than measuring all 10
    // under the global compilation (fewer flips + less crosstalk).
    EXPECT_GT(cpm.measurementSuccess, global.measurementSuccess);

    // The CPM's overall EPS must also beat the global program's
    // (same gates, two instead of ten measurements).
    EXPECT_GT(cpm.eps, global.eps);
}

TEST(Transpiler, EnsembleDiverse)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(6, 6);
    qc.h(0);
    for (int q = 0; q + 1 < 6; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();

    const std::vector<CompiledCircuit> ensemble =
        transpileEnsemble(qc, dev, 4);
    EXPECT_EQ(ensemble.size(), 4u);

    // Initial layouts must differ pairwise.
    for (std::size_t i = 0; i < ensemble.size(); ++i) {
        for (std::size_t j = i + 1; j < ensemble.size(); ++j) {
            EXPECT_NE(ensemble[i].initialLayout.logicalToPhysical(),
                      ensemble[j].initialLayout.logicalToPhysical());
        }
    }
    // Sorted by EPS descending (best mapping first).
    for (std::size_t i = 0; i + 1 < ensemble.size(); ++i)
        EXPECT_GE(ensemble[i].eps, ensemble[i + 1].eps - 1e-9);
}

TEST(Transpiler, WorksOnManhattan)
{
    const DeviceModel dev = device::manhattan();
    QuantumCircuit qc(14, 14);
    qc.h(0);
    for (int q = 0; q + 1 < 14; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();
    const CompiledCircuit compiled = transpile(qc, dev);
    EXPECT_EQ(compiled.physical.nQubits(), 65);
    sim::IdealSimulator ideal;
    const Pmf pmf = ideal.idealPmf(compiled.physical);
    EXPECT_NEAR(pmf.prob(0), 0.5, 1e-9);
}

} // namespace
} // namespace compiler
} // namespace jigsaw
