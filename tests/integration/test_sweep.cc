/** @file Tests for the deterministic parallel sweep runner. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "experiment/sweep.hh"

namespace ppm::experiment {
namespace {

sim::RunSummary
make_summary(double scale)
{
    sim::RunSummary s;
    s.governor = "PPM";
    s.any_below_miss = 0.1 * scale;
    s.any_outside_miss = 0.2 * scale;
    s.avg_power = 1.0 * scale;
    s.avg_power_post_warmup = 1.5 * scale;
    s.energy = 100.0 * scale;
    s.migrations = static_cast<long>(10 * scale);
    s.vf_transitions = static_cast<long>(20 * scale);
    s.over_tdp_fraction = 0.05 * scale;
    s.peak_temp_c = 50.0 * scale;
    s.thermal_cycles = static_cast<long>(4 * scale);
    s.task_below = {0.1 * scale, 0.2 * scale};
    s.task_outside = {0.3 * scale, 0.4 * scale};
    return s;
}

TEST(AggregateSummaries, MeansEveryScalarField)
{
    const auto avg =
        aggregate_summaries({make_summary(1.0), make_summary(3.0)});
    EXPECT_EQ(avg.governor, "PPM");
    EXPECT_NEAR(avg.any_below_miss, 0.2, 1e-12);
    EXPECT_NEAR(avg.any_outside_miss, 0.4, 1e-12);
    EXPECT_NEAR(avg.avg_power, 2.0, 1e-12);
    EXPECT_NEAR(avg.avg_power_post_warmup, 3.0, 1e-12);
    EXPECT_NEAR(avg.energy, 200.0, 1e-12);
    EXPECT_NEAR(avg.over_tdp_fraction, 0.1, 1e-12);
}

TEST(AggregateSummaries, PeakTempIsMaxNotSeedZero)
{
    // Seed 0 is the coolest run: a seed-0-only "aggregate" would
    // report 40 C and hide the 80 C excursion of seed 2.
    auto a = make_summary(1.0);
    auto b = make_summary(1.0);
    auto c = make_summary(1.0);
    a.peak_temp_c = 40.0;
    b.peak_temp_c = 55.0;
    c.peak_temp_c = 80.0;
    EXPECT_DOUBLE_EQ(aggregate_summaries({a, b, c}).peak_temp_c, 80.0);
}

TEST(AggregateSummaries, CountersAreSumThenDivide)
{
    auto a = make_summary(1.0);
    auto b = make_summary(1.0);
    a.thermal_cycles = 7;
    b.thermal_cycles = 2;
    a.migrations = 11;
    b.migrations = 4;
    a.vf_transitions = 9;
    b.vf_transitions = 2;
    const auto avg = aggregate_summaries({a, b});
    // (7 + 2) / 2 truncated, not a.thermal_cycles.
    EXPECT_EQ(avg.thermal_cycles, 4);
    EXPECT_EQ(avg.migrations, 7);
    EXPECT_EQ(avg.vf_transitions, 5);
}

TEST(AggregateSummaries, TaskVectorsAreElementwiseMeans)
{
    auto a = make_summary(1.0);
    auto b = make_summary(1.0);
    a.task_below = {0.0, 1.0, 0.5};
    b.task_below = {1.0, 0.0, 0.5};
    a.task_outside = {0.2, 0.4, 0.6};
    b.task_outside = {0.4, 0.8, 1.0};
    const auto avg = aggregate_summaries({a, b});
    ASSERT_EQ(avg.task_below.size(), 3u);
    EXPECT_NEAR(avg.task_below[0], 0.5, 1e-12);
    EXPECT_NEAR(avg.task_below[1], 0.5, 1e-12);
    EXPECT_NEAR(avg.task_below[2], 0.5, 1e-12);
    ASSERT_EQ(avg.task_outside.size(), 3u);
    EXPECT_NEAR(avg.task_outside[0], 0.3, 1e-12);
    EXPECT_NEAR(avg.task_outside[1], 0.6, 1e-12);
    EXPECT_NEAR(avg.task_outside[2], 0.8, 1e-12);
}

TEST(AggregateSummaries, SingleSummaryIsIdentity)
{
    const auto s = make_summary(2.0);
    const auto avg = aggregate_summaries({s});
    EXPECT_DOUBLE_EQ(avg.avg_power, s.avg_power);
    EXPECT_EQ(avg.thermal_cycles, s.thermal_cycles);
    EXPECT_EQ(avg.task_below, s.task_below);
}

TEST(AggregateSummaries, FaultAndClearingCountersAreSeedMeans)
{
    auto a = make_summary(1.0);
    auto b = make_summary(1.0);
    a.fault_retries = 3;
    b.fault_retries = 4;
    a.market_rounds = 100;
    b.market_rounds = 51;
    a.safe_mode_seconds = 1.0;
    b.safe_mode_seconds = 2.0;
    a.over_tdp_during_fault = 0.25;
    b.over_tdp_during_fault = 0.75;
    const auto avg = aggregate_summaries({a, b});
    EXPECT_EQ(avg.fault_retries, 3);    // 7 / 2 truncated.
    EXPECT_EQ(avg.market_rounds, 75);   // 151 / 2 truncated.
    EXPECT_EQ(avg.safe_mode_seconds, 1.5);
    EXPECT_EQ(avg.over_tdp_during_fault, 0.5);
}

/**
 * Fills every field of a summary from its combine kind, with values
 * that differ per field and per `chip`: rates in [0, 1], totals and
 * peaks positive, `chip + 1` task entries.
 */
struct FillByKind {
    int chip;
    int field = 0;

    void operator()(const char*, sim::Combine, std::string& v)
    {
        v = "chip" + std::to_string(chip);
    }
    void operator()(const char*, sim::Combine kind, double& v)
    {
        ++field;
        v = kind == sim::Combine::kRate ? 0.01 * (field + chip)
                                        : 1.5 * field + 10.0 * chip;
    }
    void operator()(const char*, sim::Combine, long& v)
    {
        v = ++field + 100L * chip;
    }
    void operator()(const char*, sim::Combine, std::vector<double>& v)
    {
        v.assign(static_cast<std::size_t>(chip + 1), 0.1 * ++field);
    }
};

/** Checks the fleet's combined fields against three chips' fields. */
struct ExpectChipCombine {
    void operator()(const char* name, sim::Combine, const std::string& c,
                    const std::string& a, const std::string&,
                    const std::string&)
    {
        EXPECT_EQ(c, a) << name << ": the label comes from chip 0";
    }
    void operator()(const char* name, sim::Combine kind, double c,
                    double a, double b, double d)
    {
        if (kind == sim::Combine::kRate)
            EXPECT_EQ(c, 0.0 + a / 3.0 + b / 3.0 + d / 3.0) << name;
        else if (kind == sim::Combine::kPeak)
            EXPECT_EQ(c, std::max({a, b, d})) << name;
        else
            EXPECT_EQ(c, 0.0 + a + b + d) << name;
    }
    void operator()(const char* name, sim::Combine, long c, long a,
                    long b, long d)
    {
        EXPECT_EQ(c, a + b + d) << name;
    }
    void operator()(const char* name, sim::Combine,
                    const std::vector<double>& c,
                    const std::vector<double>& a,
                    const std::vector<double>& b,
                    const std::vector<double>& d)
    {
        std::vector<double> concat = a;
        concat.insert(concat.end(), b.begin(), b.end());
        concat.insert(concat.end(), d.begin(), d.end());
        EXPECT_EQ(c, concat) << name;
    }
};

std::vector<sim::RunSummary>
three_filled_chips()
{
    std::vector<sim::RunSummary> chips(3);
    for (int c = 0; c < 3; ++c) {
        FillByKind fill{c};
        sim::RunSummary::fields(fill, chips[c]);
    }
    return chips;
}

TEST(CombineChipSummaries, EveryFieldCombinesByItsKind)
{
    const auto chips = three_filled_chips();
    const sim::RunSummary c = sim::combine_chip_summaries(chips);
    ExpectChipCombine expect;
    sim::RunSummary::fields(expect, c, chips[0], chips[1], chips[2]);
}

TEST(CombineChipSummaries, RatesAreChipMeansTotalsAreSums)
{
    auto a = make_summary(1.0);
    auto b = make_summary(3.0);
    a.fault_retries = 2;
    b.fault_retries = 5;
    const auto c = sim::combine_chip_summaries({a, b});
    EXPECT_NEAR(c.any_below_miss, 0.2, 1e-12);
    EXPECT_NEAR(c.over_tdp_fraction, 0.1, 1e-12);
    EXPECT_NEAR(c.avg_power, 4.0, 1e-12);
    EXPECT_NEAR(c.energy, 400.0, 1e-12);
    EXPECT_EQ(c.migrations, 40);
    EXPECT_EQ(c.fault_retries, 7);
    EXPECT_DOUBLE_EQ(c.peak_temp_c, 150.0);
}

TEST(CombineChipSummaries, TaskVectorsConcatenateInChipOrder)
{
    auto a = make_summary(1.0);
    auto b = make_summary(1.0);
    a.task_below = {0.1};
    b.task_below = {0.2, 0.3};
    const auto c = sim::combine_chip_summaries({a, b});
    EXPECT_EQ(c.task_below, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(CombineChipSummaries, SingleChipIsVerbatim)
{
    auto s = make_summary(1.0);
    s.peak_temp_c = -5.0;  // A chip fold from zero would clamp this.
    EXPECT_EQ(sim::summary_fingerprint(sim::combine_chip_summaries({s})),
              sim::summary_fingerprint(s));
}

TEST(RunCells, PreservesInputOrder)
{
    std::vector<std::function<int()>> cells;
    for (int i = 0; i < 20; ++i) {
        cells.push_back([i]() {
            // Early cells sleep longest so completion order inverts
            // submission order; the reduction must not care.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20 - i));
            return i;
        });
    }
    const auto parallel = run_cells<int>(cells, 4);
    const auto serial = run_cells<int>(cells, 1);
    ASSERT_EQ(parallel.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(parallel[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(parallel, serial);
}

TEST(RunCells, CellExceptionPropagates)
{
    std::vector<std::function<int()>> cells{
        []() { return 1; },
        []() -> int { throw std::runtime_error("boom"); }};
    EXPECT_THROW(run_cells<int>(cells, 4), std::runtime_error);
    EXPECT_THROW(run_cells<int>(cells, 1), std::runtime_error);
}

void
expect_identical(const sim::RunSummary& a, const sim::RunSummary& b)
{
    // Bitwise equality: the determinism guarantee is bit-identical
    // output for any --jobs value, not merely "close".
    EXPECT_EQ(a.governor, b.governor);
    EXPECT_EQ(a.any_below_miss, b.any_below_miss);
    EXPECT_EQ(a.any_outside_miss, b.any_outside_miss);
    EXPECT_EQ(a.avg_power, b.avg_power);
    EXPECT_EQ(a.avg_power_post_warmup, b.avg_power_post_warmup);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.vf_transitions, b.vf_transitions);
    EXPECT_EQ(a.over_tdp_fraction, b.over_tdp_fraction);
    EXPECT_EQ(a.peak_temp_c, b.peak_temp_c);
    EXPECT_EQ(a.thermal_cycles, b.thermal_cycles);
    EXPECT_EQ(a.task_below, b.task_below);
    EXPECT_EQ(a.task_outside, b.task_outside);
}

TEST(Sweep, JobCountDoesNotChangeResults)
{
    SweepConfig config;
    config.sets = {workload::workload_set("l1"),
                   workload::workload_set("m1")};
    config.policies = {"PPM", "HL"};
    config.n_seeds = 2;
    config.base.duration = 10 * kSecond;

    config.jobs = 1;
    const SweepResult serial = run_sweep(config);
    config.jobs = 4;
    const SweepResult parallel = run_sweep(config);

    ASSERT_EQ(serial.n_sets(), 2);
    ASSERT_EQ(parallel.n_sets(), 2);
    for (int s = 0; s < 2; ++s) {
        for (int p = 0; p < 2; ++p) {
            for (int k = 0; k < 2; ++k)
                expect_identical(serial.summary(s, p, k),
                                 parallel.summary(s, p, k));
            expect_identical(serial.averaged(s, p),
                             parallel.averaged(s, p));
        }
    }
}

TEST(Sweep, SeedAxisUsesCellSeedDerivation)
{
    SweepConfig config;
    config.sets = {workload::workload_set("l1")};
    config.policies = {"PPM"};
    config.n_seeds = 2;
    config.base.duration = 10 * kSecond;
    config.jobs = 1;
    const SweepResult r = run_sweep(config);

    RunParams p2 = config.base;
    p2.seed = cell_seed(config.base.seed, config.seed_stride, 1);
    const auto direct = run_set(config.sets[0], p2).summary;
    expect_identical(r.summary(0, 0, 1), direct);
}

TEST(Sweep, CellSeedsNeverAlias)
{
    // The historical base.seed + i*stride derivation aliased cells
    // when stride*i wrapped (e.g. stride = 2^63 put every even index
    // on one stream) and collapsed the whole axis at stride 0.  The
    // mix64 derivation must keep every index distinct for any
    // stride >= 1 and any base, including wrap-heavy ones.
    const std::uint64_t strides[] = {1, 100, 1ULL << 63,
                                     0xffffffffffffffffULL};
    const std::uint64_t bases[] = {0, 42, 0xffffffffffffff00ULL};
    for (const std::uint64_t stride : strides) {
        for (const std::uint64_t base : bases) {
            std::set<std::uint64_t> seen;
            for (int i = 0; i < 1000; ++i)
                seen.insert(cell_seed(base, stride, i));
            EXPECT_EQ(seen.size(), 1000u)
                << "aliased seeds at base=" << base
                << " stride=" << stride;
        }
    }
    // The old failure mode, pinned: stride 2^63 aliases indices 0 and
    // 2 under the additive rule...
    const std::uint64_t s = 1ULL << 63;
    EXPECT_EQ(42 + 0 * s, 42 + 2 * s);
    // ...but not under the mix64 derivation.
    EXPECT_NE(cell_seed(42, s, 0), cell_seed(42, s, 2));
}

TEST(SweepDeath, ZeroSeedStrideIsRejected)
{
    SweepConfig config;
    config.sets = {workload::workload_set("l1")};
    config.policies = {"PPM"};
    config.n_seeds = 2;
    config.seed_stride = 0;
    config.base.duration = kSecond;
    config.jobs = 1;
    EXPECT_DEATH(run_sweep(config), "seed stride");
}

TEST(Sweep, TracesAreByteIdenticalForAnyJobCount)
{
    // Each cell owns its TraceBus, sinks and recorder, so the full
    // trace stream -- not just the summary -- must be byte-identical
    // whether the cells run serially or on four workers.
    auto make_cell = [](std::uint64_t seed) {
        return [seed]() {
            RunParams p;
            p.duration = 5 * kSecond;
            p.trace = true;
            p.seed = seed;
            const RunResult r =
                run_set(workload::workload_set("l1"), p);
            std::ostringstream os;
            r.traces.write_csv(os);
            return os.str();
        };
    };
    std::vector<std::function<std::string()>> cells;
    for (int k = 0; k < 4; ++k)
        cells.push_back(make_cell(42 + 100 * static_cast<std::uint64_t>(k)));
    const auto serial = run_cells<std::string>(cells, 1);
    const auto parallel = run_cells<std::string>(cells, 4);
    ASSERT_EQ(serial.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_FALSE(serial[k].empty());
        EXPECT_EQ(serial[k], parallel[k]) << "cell " << k;
    }
}

TEST(Sweep, RunSetAvgMatchesAnyJobCount)
{
    RunParams params;
    params.duration = 10 * kSecond;
    const auto& set = workload::workload_set("l2");
    expect_identical(run_set_avg(set, params, 2, 1),
                     run_set_avg(set, params, 2, 4));
}

} // namespace
} // namespace ppm::experiment
