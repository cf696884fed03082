/**
 * @file
 * Noise-pipeline tests: circuit compaction, EPS accounting, the
 * measurement channel's statistics, and the ideal/noisy executors
 * (including fast-channel vs trajectory-mode agreement).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "common/alias.h"
#include "common/fnv.h"
#include "device/library.h"
#include "sim/compact.h"
#include "sim/eps.h"
#include "sim/noise_model.h"
#include "sim/simulators.h"

namespace jigsaw {
namespace sim {
namespace {

using circuit::QuantumCircuit;
using device::DeviceModel;

/** A 3-qubit linear device with hand-set calibration for exact math. */
DeviceModel
tinyDevice()
{
    device::Topology topo = device::linearTopology(3);
    device::Calibration cal(3, 2);
    for (int q = 0; q < 3; ++q) {
        cal.qubit(q).readoutError01 = 0.02;
        cal.qubit(q).readoutError10 = 0.04;
        cal.qubit(q).error1q = 0.001;
        cal.qubit(q).crosstalkGamma = 0.005;
    }
    cal.setEdgeError(0, 0.01);
    cal.setEdgeError(1, 0.02);
    cal.setCorrelatedPairError(0.0);
    return DeviceModel("tiny", std::move(topo), std::move(cal));
}

TEST(Compact, RenumbersActiveQubits)
{
    QuantumCircuit qc(10, 2);
    qc.h(7).cx(7, 3).measure(7, 0).measure(3, 1);
    const CompactCircuit c = compactCircuit(qc);
    EXPECT_EQ(c.circuit.nQubits(), 2);
    EXPECT_EQ(c.activeQubits, (std::vector<int>{7, 3}));
    EXPECT_EQ(c.denseOf[7], 0);
    EXPECT_EQ(c.denseOf[3], 1);
    EXPECT_EQ(c.denseOf[0], -1);
    EXPECT_EQ(c.circuit.nClbits(), 2);
}

TEST(Compact, RejectsEmptyCircuit)
{
    QuantumCircuit qc(3);
    EXPECT_THROW(compactCircuit(qc), std::invalid_argument);
}

TEST(Eps, GateSuccessExactProduct)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();
    // (1 - 0.001) * (1 - 0.01) * (1 - 0.02)
    EXPECT_NEAR(gateSuccessProbability(qc, dev),
                0.999 * 0.99 * 0.98, 1e-12);
}

TEST(Eps, SwapCountsAsThreeCx)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 1);
    qc.swap(0, 1).measure(0, 0);
    EXPECT_NEAR(gateSuccessProbability(qc, dev), 0.99 * 0.99 * 0.99,
                1e-12);
}

TEST(Eps, RzzCountsAsTwoCxOneRz)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 1);
    qc.rzz(0.3, 1, 2).measure(1, 0);
    EXPECT_NEAR(gateSuccessProbability(qc, dev), 0.98 * 0.98 * 0.999,
                1e-12);
}

TEST(Eps, RejectsUnroutedGate)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 1);
    qc.cx(0, 2).measure(0, 0); // 0-2 not coupled on a line
    EXPECT_THROW(gateSuccessProbability(qc, dev), std::invalid_argument);
}

TEST(Eps, MeasurementSuccessIncludesCrosstalk)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit one(3, 1);
    one.h(0).measure(0, 0);
    // Single measurement: state-averaged error 0.03.
    EXPECT_NEAR(measurementSuccessProbability(one, dev), 0.97, 1e-12);

    QuantumCircuit three(3, 3);
    three.h(0).measureAll();
    // Three simultaneous: 0.03 + 0.005 * 2 = 0.04 each.
    EXPECT_NEAR(measurementSuccessProbability(three, dev),
                0.96 * 0.96 * 0.96, 1e-12);
}

TEST(Eps, FullEpsIsProduct)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).measureAll();
    EXPECT_NEAR(expectedProbabilityOfSuccess(qc, dev),
                gateSuccessProbability(qc, dev) *
                    measurementSuccessProbability(qc, dev),
                1e-15);
}

TEST(TerminalMeasurements, AcceptsTerminal)
{
    QuantumCircuit qc(2, 2);
    qc.h(0).cx(0, 1).measureAll();
    EXPECT_NO_THROW(checkTerminalMeasurements(qc));
}

TEST(TerminalMeasurements, RejectsGateAfterMeasure)
{
    QuantumCircuit qc(2, 2);
    qc.measure(0, 0).h(0);
    EXPECT_THROW(checkTerminalMeasurements(qc), std::invalid_argument);
}

TEST(TerminalMeasurements, RejectsDuplicateClbit)
{
    QuantumCircuit qc(2, 2);
    qc.measure(0, 0).measure(1, 0);
    EXPECT_THROW(checkTerminalMeasurements(qc), std::invalid_argument);
}

TEST(TerminalMeasurements, RejectsNoMeasurement)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    EXPECT_THROW(checkTerminalMeasurements(qc), std::invalid_argument);
}

TEST(MeasurementChannel, FlipProbabilitiesIncludeCrosstalk)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 2);
    qc.h(0).measure(0, 0).measure(2, 1);
    const MeasurementChannel channel(qc, dev);
    EXPECT_EQ(channel.nClbits(), 2);
    // Two simultaneous measurements: base + gamma * 1.
    EXPECT_NEAR(channel.flipProbability(0, 0), 0.02 + 0.005, 1e-12);
    EXPECT_NEAR(channel.flipProbability(0, 1), 0.04 + 0.005, 1e-12);
}

TEST(MeasurementChannel, EmpiricalFlipRate)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 1);
    qc.h(0).measure(0, 0);
    const MeasurementChannel channel(qc, dev);
    Rng rng(31);
    const int n = 200000;
    int flips_from_0 = 0;
    int flips_from_1 = 0;
    for (int i = 0; i < n; ++i) {
        if (channel.apply(0b0, rng) != 0b0)
            ++flips_from_0;
        if (channel.apply(0b1, rng) != 0b1)
            ++flips_from_1;
    }
    EXPECT_NEAR(static_cast<double>(flips_from_0) / n, 0.02, 0.002);
    EXPECT_NEAR(static_cast<double>(flips_from_1) / n, 0.04, 0.003);
}

TEST(MeasurementChannel, CorrelatedPairsOnCoupledQubits)
{
    device::Topology topo = device::linearTopology(3);
    device::Calibration cal(3, 2);
    cal.setCorrelatedPairError(0.5);
    const DeviceModel dev("tiny2", std::move(topo), std::move(cal));

    QuantumCircuit qc(3, 3);
    qc.h(0).measureAll();
    const MeasurementChannel channel(qc, dev);
    // Coupled measured pairs on a 3-line: (0,1) and (1,2).
    EXPECT_EQ(channel.correlatedPairs().size(), 2u);
    EXPECT_DOUBLE_EQ(channel.correlatedError(), 0.5);

    // With flip rates zero, only correlated flips act, always flipping
    // pairs: parity of bits 0^1^2 changes by 0 or 2 flips per pair.
    Rng rng(41);
    for (int i = 0; i < 100; ++i) {
        const BasisState out = channel.apply(0b000, rng);
        EXPECT_EQ(popcount(out) % 2, 0);
    }
}

TEST(MeasurementChannel, CertainFlipsConsumeNoWords)
{
    // Readout errors are clamped to [0, 0.5], so 0 is the certain
    // readout case; a correlated-pair error of 1 always flips.
    for (const double pair_error : {0.0, 1.0}) {
        device::Topology topo = device::linearTopology(3);
        device::Calibration cal(3, 2);
        for (int q = 0; q < 3; ++q) {
            cal.qubit(q).readoutError01 = 0.0;
            cal.qubit(q).readoutError10 = 0.0;
            cal.qubit(q).crosstalkGamma = 0.0;
        }
        cal.setCorrelatedPairError(pair_error);
        const DeviceModel dev("certain", std::move(topo), std::move(cal));
        QuantumCircuit qc(3, 3);
        qc.x(1).measureAll();
        const MeasurementChannel channel(qc, dev);

        Rng rng(43), untouched(43);
        for (BasisState ideal = 0; ideal < 8; ++ideal) {
            // Pairs (0,1) and (1,2) both flip: bits 0 and 2 toggle.
            const BasisState expected =
                pair_error == 1.0 ? ideal ^ 0b101 : ideal;
            EXPECT_EQ(channel.apply(ideal, rng), expected);
        }
        EXPECT_EQ(rng.word(), untouched.word()) << pair_error;
    }
}

TEST(IdealSimulator, ExactBellPmf)
{
    IdealSimulator ideal;
    QuantumCircuit qc(2, 2);
    qc.h(0).cx(0, 1).measureAll();
    const Pmf pmf = ideal.idealPmf(qc);
    EXPECT_NEAR(pmf.prob(0b00), 0.5, 1e-12);
    EXPECT_NEAR(pmf.prob(0b11), 0.5, 1e-12);
}

TEST(IdealSimulator, PartialMeasurementClbitOrder)
{
    IdealSimulator ideal;
    QuantumCircuit qc(3, 1);
    qc.x(2).measure(2, 0);
    const Pmf pmf = ideal.idealPmf(qc);
    EXPECT_NEAR(pmf.prob(0b1), 1.0, 1e-12);
}

TEST(IdealSimulator, RunSamplesDistribution)
{
    IdealSimulator ideal(7);
    QuantumCircuit qc(1, 1);
    qc.h(0).measure(0, 0);
    const Histogram hist = ideal.run(qc, 100000);
    EXPECT_NEAR(static_cast<double>(hist.count(0)) / 100000.0, 0.5, 0.01);
}

TEST(NoisySimulator, NoNoiseMatchesIdeal)
{
    const DeviceModel dev = tinyDevice();
    NoisySimulatorOptions options;
    options.gateNoise = false;
    options.measurementNoise = false;
    NoisySimulator noiseless(dev, options);
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();
    const Pmf pmf = noiseless.run(qc, 50000).toPmf();
    EXPECT_NEAR(pmf.prob(0b000), 0.5, 0.01);
    EXPECT_NEAR(pmf.prob(0b111), 0.5, 0.01);
    EXPECT_EQ(pmf.support(), 2u);
}

TEST(NoisySimulator, MeasurementNoiseDegradesDeterministicCircuit)
{
    const DeviceModel dev = tinyDevice();
    NoisySimulator noisy(dev, {.seed = 3, .trajectories = 0,
                               .gateNoise = false,
                               .measurementNoise = true});
    QuantumCircuit qc(3, 3);
    qc.x(0).x(1).x(2).measureAll();
    const Pmf pmf = noisy.run(qc, 100000).toPmf();
    // Each bit reads 1 with probability 1 - (0.04 + 0.005*2) = 0.95.
    EXPECT_NEAR(pmf.prob(0b111), 0.95 * 0.95 * 0.95, 0.01);
}

TEST(NoisySimulator, GateNoiseUniformAtHalfFlip)
{
    const DeviceModel dev = tinyDevice();
    // gateNoiseBitFlip = 0.5 reproduces the textbook uniform-outcome
    // depolarizing channel.
    NoisySimulator noisy(dev, {.seed = 5, .trajectories = 0,
                               .gateNoise = true,
                               .measurementNoise = false,
                               .gateNoiseBitFlip = 0.5});
    QuantumCircuit qc(3, 3);
    // 30 CX gates: success (1-0.01)^30 ~ 0.74.
    for (int i = 0; i < 30; ++i)
        qc.cx(0, 1);
    qc.measureAll();
    const Pmf pmf = noisy.run(qc, 200000).toPmf();
    // |000> keeps gate-success mass plus 1/8 of the failures.
    const double p_ok = gateSuccessProbability(qc, dev);
    EXPECT_NEAR(pmf.prob(0b000), p_ok + (1 - p_ok) / 8.0, 0.01);
}

TEST(NoisySimulator, GateNoiseLocalizedByDefault)
{
    const DeviceModel dev = tinyDevice();
    NoisySimulator noisy(dev, {.seed = 6, .trajectories = 0,
                               .gateNoise = true,
                               .measurementNoise = false});
    QuantumCircuit qc(3, 3);
    for (int i = 0; i < 30; ++i)
        qc.cx(0, 1);
    qc.measureAll();
    const Pmf pmf = noisy.run(qc, 200000).toPmf();
    // Default flip rate 0.15: failed trials keep |000> with
    // probability 0.85^3, so the correct outcome retains more mass
    // than under the uniform channel.
    const double p_ok = gateSuccessProbability(qc, dev);
    const double keep = 0.85 * 0.85 * 0.85;
    EXPECT_NEAR(pmf.prob(0b000), p_ok + (1 - p_ok) * keep, 0.01);
    // Single-bit corruption beats triple-bit corruption.
    EXPECT_GT(pmf.prob(0b001), pmf.prob(0b111));
}

TEST(NoisySimulator, RejectsWrongQubitSpace)
{
    const DeviceModel dev = tinyDevice();
    NoisySimulator noisy(dev);
    QuantumCircuit qc(2, 2);
    qc.h(0).measureAll();
    EXPECT_THROW(noisy.run(qc, 10), std::invalid_argument);
}

TEST(NoisySimulator, TrajectoryModeAgreesWithChannelMode)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();

    NoisySimulator fast(dev, {.seed = 11, .trajectories = 0,
                              .gateNoise = true,
                              .measurementNoise = true});
    NoisySimulator traj(dev, {.seed = 11, .trajectories = 400,
                              .gateNoise = true,
                              .measurementNoise = true});
    const Pmf fast_pmf = fast.run(qc, 120000).toPmf();
    const Pmf traj_pmf = traj.run(qc, 120000).toPmf();
    // The two noise treatments should produce similar distributions
    // (they model the same calibration); allow a loose TVD bound.
    EXPECT_LT(totalVariationDistance(fast_pmf, traj_pmf), 0.05);
}

TEST(NoisySimulator, DeterministicWithSameSeed)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).measureAll();
    NoisySimulator a(dev, {.seed = 9});
    NoisySimulator b(dev, {.seed = 9});
    const Histogram ha = a.run(qc, 5000);
    const Histogram hb = b.run(qc, 5000);
    for (const auto &[outcome, count] : ha.counts())
        EXPECT_EQ(count, hb.count(outcome));
}

/**
 * FNV-1a over @p hist in its map iteration order: pins the counts and
 * the insertion history that fixes the hash-map layout.
 */
std::uint64_t
iterationHash(const Histogram &hist)
{
    std::uint64_t h = kFnvOffsetBasis;
    for (const auto &[outcome, count] : hist.counts()) {
        fnvMixWord(h, outcome);
        fnvMixWord(h, count);
    }
    fnvMixWord(h, hist.totalCount());
    return h;
}

/**
 * X layers and CX on the coupled pairs among physical qubits
 * [0, @p k), measured into clbits 0..k-1. Every gate permutes basis
 * states, so the ideal PMF is a single outcome of probability exactly
 * 1 on every kernel table and only the sampler decides the histogram.
 */
QuantumCircuit
permutationCircuit(const DeviceModel &dev, int k)
{
    QuantumCircuit qc(dev.nQubits(), k);
    for (int layer = 0; layer < 3; ++layer) {
        for (int q = layer % 2; q < k; q += 2)
            qc.x(q);
    }
    for (const auto &[a, b] : dev.topology().edges()) {
        if (a < k && b < k)
            qc.cx(a, b);
    }
    for (int q = 0; q < k; ++q)
        qc.measure(q, q);
    return qc;
}

/** Named histogram hashes of the seeded noisy stream on @p dev. */
std::map<std::string, std::uint64_t>
noisyStreamHashes(const DeviceModel &dev)
{
    std::map<std::string, std::uint64_t> out;
    const QuantumCircuit six = permutationCircuit(dev, 6);
    const QuantumCircuit twelve = permutationCircuit(dev, 12);

    // Gate and readout noise on; 2^6 outcomes against 3000 shots and
    // 2^12 against 500 shots cover both ends of the shot counter.
    NoisySimulator noisy(dev, {.seed = 77});
    out["gate_on/6x3000"] = iterationHash(noisy.run(six, 3000));
    out["gate_on/12x500"] = iterationHash(noisy.run(twelve, 500));
    Rng external(78);
    out["gate_on/external"] =
        iterationHash(noisy.run(twelve, 2000, external));
    std::vector<CpmSpec> specs(3);
    specs[0] = {{0, 1, 2, 3}, 1500, nullptr, -1};
    specs[1] = {{4, 5, 6, 7, 8, 9, 10, 11}, 700, &external, -1};
    specs[2] = {{11, 2, 7}, 900, nullptr, -1};
    const std::vector<Histogram> batch = noisy.runBatch(twelve, specs);
    for (std::size_t i = 0; i < batch.size(); ++i)
        out["gate_on/batch" + std::to_string(i)] = iterationHash(batch[i]);

    NoisySimulator readout_only(dev, {.seed = 79, .gateNoise = false});
    out["gate_off/6x3000"] = iterationHash(readout_only.run(six, 3000));
    out["gate_off/12x6000"] = iterationHash(readout_only.run(twelve, 6000));

    NoisySimulator half_flip(dev, {.seed = 80, .gateNoiseBitFlip = 0.5});
    out["flip_0.5/12x5000"] = iterationHash(half_flip.run(twelve, 5000));
    out["flip_0.5/6x100"] = iterationHash(half_flip.run(six, 100));

    NoisySimulator trajectories(dev, {.seed = 81, .trajectories = 3});
    out["trajectory/6x600"] = iterationHash(trajectories.run(six, 600));
    return out;
}

/**
 * The seeded noisy stream is pinned across commits, not only between
 * two paths of one build: a sampler change that moves one draw or
 * reorders one histogram insert fails here. The goldens were recorded
 * with the std::mt19937_64 engine and per-draw
 * uniform_real_distribution Bernoulli draws the sampler used before
 * the threshold form.
 */
TEST(SamplingStream, NoisyHistogramsPinnedOnEvaluationDevices)
{
    const std::map<std::string, std::map<std::string, std::uint64_t>>
        golden = {
        {"ibmq-toronto", {
            {"flip_0.5/12x5000", 0xaabeedf66fd9cbfdULL},
            {"flip_0.5/6x100", 0xb7d312a8d8cf0565ULL},
            {"gate_off/12x6000", 0x3d19f0bbbbb71706ULL},
            {"gate_off/6x3000", 0x46cbd5bae90ab3aaULL},
            {"gate_on/12x500", 0xf821d30bb184a14aULL},
            {"gate_on/6x3000", 0x497e6e567157f8e6ULL},
            {"gate_on/batch0", 0x240480baec34f06aULL},
            {"gate_on/batch1", 0x53749d15dd762993ULL},
            {"gate_on/batch2", 0x6325537252a44e64ULL},
            {"gate_on/external", 0x3d20df604883775fULL},
            {"trajectory/6x600", 0x56f221952a982aa4ULL},
        }},
        {"ibmq-paris", {
            {"flip_0.5/12x5000", 0x46e8d8ffda54635cULL},
            {"flip_0.5/6x100", 0x29310809e5f3d910ULL},
            {"gate_off/12x6000", 0xa5a6bf28b1cbc0b0ULL},
            {"gate_off/6x3000", 0x0182a5066dd66950ULL},
            {"gate_on/12x500", 0x37d4519f68be8af0ULL},
            {"gate_on/6x3000", 0xf9449b829a7f89a4ULL},
            {"gate_on/batch0", 0x15ce99ee0095437cULL},
            {"gate_on/batch1", 0xeca538b0b6d5a08bULL},
            {"gate_on/batch2", 0x360fae2dbacdd438ULL},
            {"gate_on/external", 0xb0a3b08ad2ff2e35ULL},
            {"trajectory/6x600", 0x5838a43d8b7abbdbULL},
        }},
        {"ibmq-manhattan", {
            {"flip_0.5/12x5000", 0x2221d903bb1f9151ULL},
            {"flip_0.5/6x100", 0x4209666effba44abULL},
            {"gate_off/12x6000", 0xa2ef2ff2e0954d65ULL},
            {"gate_off/6x3000", 0x73e154fb3ced3b2dULL},
            {"gate_on/12x500", 0x7020af102005edaeULL},
            {"gate_on/6x3000", 0xdcf9f624b212d74eULL},
            {"gate_on/batch0", 0x7b3fd601079d081cULL},
            {"gate_on/batch1", 0x689f66d55ce2b85cULL},
            {"gate_on/batch2", 0x3c83c0df94eb6aa7ULL},
            {"gate_on/external", 0x9d01c4458401ebd3ULL},
            {"trajectory/6x600", 0xf6c6eebbd3d0dabdULL},
        }},
        };
    bool all_match = true;
    for (const DeviceModel &dev : device::evaluationDevices()) {
        const auto hashes = noisyStreamHashes(dev);
        const auto it = golden.find(dev.name());
        for (const auto &[name, hash] : hashes) {
            const bool match = it != golden.end() &&
                               it->second.count(name) != 0 &&
                               it->second.at(name) == hash;
            all_match = all_match && match;
            EXPECT_TRUE(match) << dev.name() << " " << name;
        }
        if (!all_match) {
            std::printf("        {\"%s\", {\n", dev.name().c_str());
            for (const auto &[name, hash] : hashes)
                std::printf("            {\"%s\", 0x%016llxULL},\n",
                            name.c_str(),
                            static_cast<unsigned long long>(hash));
            std::printf("        }},\n");
        }
    }
}

TEST(SamplingStream, AliasAndPmfSamplersPinned)
{
    const AliasTable table({{3, 1.0}, {9, 2.0}, {17, 0.5}, {4, 4.5},
                            {30, 0.25}});
    Rng rng(82);
    std::uint64_t alias_hash = kFnvOffsetBasis;
    for (int i = 0; i < 5000; ++i)
        fnvMixWord(alias_hash, table.sample(rng));

    Pmf pmf(5);
    pmf.set(0b00000, 0.5);
    pmf.set(0b10101, 0.25);
    pmf.set(0b01010, 0.125);
    pmf.set(0b11111, 0.0625);
    pmf.set(0b00111, 0.0625);
    const std::uint64_t dense_hash =
        iterationHash(pmf.sampleHistogram(4000, rng));
    const std::uint64_t sparse_hash =
        iterationHash(pmf.sampleHistogram(3, rng));
    EXPECT_EQ(alias_hash, 0x6ad7b853386536c3ULL);
    EXPECT_EQ(dense_hash, 0xcbd21bacc64aca8dULL);
    EXPECT_EQ(sparse_hash, 0x7cfa98a66eaed776ULL);
}

} // namespace
} // namespace sim
} // namespace jigsaw
