/**
 * @file
 * Golden equivalence tests for the tick hot path: a fixed scenario per
 * governor (PPM, HPM, HL) with lifetimes and tracing enabled must keep
 * its RunSummary fields and its streamed trace output byte-identical
 * across hot-path rewrites (buffer reuse, series interning, scratch
 * hoisting must never change a single emitted byte).
 *
 * The golden files under tests/golden/ record every summary field at
 * full precision plus the length and FNV-1a-64 fingerprint of three
 * byte streams: the in-memory recorder's wide CSV, the streaming
 * narrow CSV, and the JSONL event stream.  Equal fingerprint + equal
 * length is the byte-identity check; a short verbatim head of each
 * stream is kept in the golden for debuggability.
 *
 * The archive golden (tests/golden/snapshot_archive.txt) pins the
 * snapshot format the same way: the size and FNV-1a-64 of the PPM,
 * HPM and HL archives of this scenario saved at 3.5 s, of a 4-chip
 * PPM fleet of it saved at the first barrier at or after 3.5 s, of a
 * faulted PPM run with the online speedup estimator, and of a
 * chip-faulted 4-chip fleet (which between them reach the fault
 * injector, the sensor guard, the estimator and the fleet's fault
 * runtime).  The kill-and-resume tests only prove that save and load
 * agree inside one build; this one notices a save that writes
 * different bytes than earlier builds did, which would strand every
 * archive on disk.
 *
 * The summary golden (tests/golden/summary_reduce.txt) pins the two
 * RunSummary reducers by their full fingerprints: the cross-seed mean
 * of a faulted PPM run_set and the combined summary of a chip-faulted
 * 4-chip fleet.
 *
 * Regenerate (only when an *intentional* output change lands) with:
 *   PPM_REGEN_GOLDEN=1 ./build/tests/test_integration \
 *       --gtest_filter='GoldenEquivalence.*:ArchiveGolden.*:SummaryGolden.*'
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/hl_governor.hh"
#include "baselines/hpm_governor.hh"
#include "experiment/experiment.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "metrics/telemetry.hh"
#include "sim/simulation.hh"
#include "snapshot/archive.hh"
#include "tests/test_util.hh"
#include "workload/benchmarks.hh"
#include "workload/sets.hh"

#ifndef PPM_GOLDEN_DIR
#define PPM_GOLDEN_DIR "tests/golden"
#endif

namespace ppm {
namespace {

/** FNV-1a 64-bit: a stable fingerprint for byte-identity checks. */
std::uint64_t
fnv1a(const std::string& bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Full-precision, locale-independent rendering of one double. */
std::string
fmt_exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::unique_ptr<sim::Governor>
make_policy(const std::string& policy, bool incremental = true,
            Watts tdp = 3.5)
{
    if (policy == "PPM") {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = tdp;
        cfg.market.w_th = market::derive_w_th(tdp);
        cfg.market.incremental = incremental;
        return std::make_unique<market::PpmGovernor>(cfg);
    }
    if (policy == "HPM") {
        baselines::HpmConfig cfg;
        cfg.tdp = tdp;
        return std::make_unique<baselines::HpmGovernor>(cfg);
    }
    baselines::HlConfig cfg;
    cfg.tdp = tdp;
    return std::make_unique<baselines::HlGovernor>(cfg);
}

/**
 * One fixed scenario: three steady tasks on the TC2-like chip, one
 * arriving late and one departing early (lifetimes exercised), the
 * in-memory recorder plus both streaming sinks attached, a TDP low
 * enough that the governors actually throttle.
 */
std::vector<workload::TaskSpec>
scenario_specs()
{
    return {
        test::steady_spec("encode", 2, 420.0, 1.7, 25.0),
        test::steady_spec("decode", 1, 250.0, 1.5, 20.0),
        test::steady_spec("background", 1, 120.0, 1.6, 10.0, 0.5),
    };
}

sim::SimConfig
scenario_config()
{
    sim::SimConfig cfg;
    cfg.duration = 6 * kSecond;
    cfg.warmup = kSecond;
    cfg.trace = true;
    cfg.trace_period = 500 * kMillisecond;
    cfg.tdp_for_metrics = 3.5;
    cfg.lifetimes.resize(3);
    cfg.lifetimes[1].arrival = 800 * kMillisecond;
    cfg.lifetimes[2].departure = 2 * kSecond;
    return cfg;
}

std::string
run_scenario(const std::string& policy, bool incremental = true)
{
    sim::Simulation sim(hw::tc2_chip(), scenario_specs(),
                        make_policy(policy, incremental),
                        scenario_config());
    std::ostringstream csv_stream;
    std::ostringstream jsonl_stream;
    metrics::CsvStreamSink csv_sink(csv_stream);
    metrics::JsonlSink jsonl_sink(jsonl_stream);
    sim.bus().add_sink(&csv_sink);
    sim.bus().add_sink(&jsonl_sink);
    const sim::RunSummary s = sim.run();

    std::ostringstream wide_csv;
    sim.recorder().write_csv(wide_csv);

    std::ostringstream out;
    out << "governor " << s.governor << '\n'
        << "any_below_miss " << fmt_exact(s.any_below_miss) << '\n'
        << "any_outside_miss " << fmt_exact(s.any_outside_miss) << '\n'
        << "avg_power " << fmt_exact(s.avg_power) << '\n'
        << "avg_power_post_warmup "
        << fmt_exact(s.avg_power_post_warmup) << '\n'
        << "energy " << fmt_exact(s.energy) << '\n'
        << "migrations " << s.migrations << '\n'
        << "vf_transitions " << s.vf_transitions << '\n'
        << "over_tdp_fraction " << fmt_exact(s.over_tdp_fraction) << '\n'
        << "over_tdp_post_warmup "
        << fmt_exact(s.over_tdp_post_warmup) << '\n'
        << "peak_temp_c " << fmt_exact(s.peak_temp_c) << '\n'
        << "thermal_cycles " << s.thermal_cycles << '\n';
    for (std::size_t t = 0; t < s.task_below.size(); ++t) {
        out << "task" << t << "_below " << fmt_exact(s.task_below[t])
            << '\n'
            << "task" << t << "_outside "
            << fmt_exact(s.task_outside[t]) << '\n';
    }

    const auto stream_block = [&out](const char* name,
                                     const std::string& bytes) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016" PRIx64, fnv1a(bytes));
        out << name << "_bytes " << bytes.size() << '\n'
            << name << "_fnv1a64 " << fp << '\n';
        // A short verbatim head keeps mismatches debuggable.
        std::istringstream is(bytes);
        std::string line;
        for (int i = 0; i < 4 && std::getline(is, line); ++i)
            out << name << "_head " << line << '\n';
    };
    stream_block("wide_csv", wide_csv.str());
    stream_block("stream_csv", csv_stream.str());
    stream_block("jsonl", jsonl_stream.str());
    return out.str();
}

std::string
golden_path(const std::string& policy)
{
    return std::string(PPM_GOLDEN_DIR) + "/hotpath_" + policy + ".txt";
}

/** Compare `actual` with the golden file at `path` (or rewrite it). */
void
expect_golden(const std::string& path, const std::string& actual,
              const char* what)
{
    if (std::getenv("PPM_REGEN_GOLDEN") != nullptr) {
        std::ofstream f(path, std::ios::binary);
        ASSERT_TRUE(f.good()) << "cannot write " << path;
        f << actual;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good())
        << "missing golden file " << path
        << " (regenerate with PPM_REGEN_GOLDEN=1)";
    std::stringstream buf;
    buf << f.rdbuf();
    EXPECT_EQ(buf.str(), actual) << what;
}

void
check_against_golden(const std::string& policy)
{
    expect_golden(golden_path(policy), run_scenario(policy),
                  "hot-path output diverged from the committed golden "
                  "-- the rewrite changed observable bytes (summary, "
                  "trace CSV or JSONL)");
}

TEST(GoldenEquivalence, PpmSummaryAndTracesAreByteIdentical)
{
    check_against_golden("PPM");
}

/**
 * The incremental clearing engine's headline promise, checked against
 * the committed fixture: the exact bytes the golden records with the
 * active-set engine on must also come out with it off (full
 * recompute every round).  The golden file is generated by the
 * on-mode test above, so a regen run skips here.
 */
TEST(GoldenEquivalence, PpmGoldenHoldsWithIncrementalityOff)
{
    if (std::getenv("PPM_REGEN_GOLDEN") != nullptr)
        GTEST_SKIP() << "regen runs write the golden in on-mode only";
    const std::string actual = run_scenario("PPM", false);
    std::ifstream f(golden_path("PPM"), std::ios::binary);
    ASSERT_TRUE(f.good()) << "missing golden file "
                          << golden_path("PPM");
    std::stringstream buf;
    buf << f.rdbuf();
    EXPECT_EQ(buf.str(), actual)
        << "full-recompute run diverged from the incremental golden "
           "-- a skip rule replayed a stale value";
}

TEST(GoldenEquivalence, HpmSummaryAndTracesAreByteIdentical)
{
    check_against_golden("HPM");
}

TEST(GoldenEquivalence, HlSummaryAndTracesAreByteIdentical)
{
    check_against_golden("HL");
}

/**
 * Determinism guard for the fixture itself: two runs of the same
 * scenario in one process must already agree byte for byte, otherwise
 * the golden comparison would flake for reasons unrelated to the
 * rewrite under test.
 */
TEST(GoldenEquivalence, ScenarioIsDeterministicInProcess)
{
    EXPECT_EQ(run_scenario("PPM"), run_scenario("PPM"));
}

/** "<name> <bytes> <fnv1a64>" of one finalized archive. */
std::string
archive_line(const std::string& name, const snap::Writer& w)
{
    const std::string bytes = w.finalize();
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s %zu %016" PRIx64 "\n",
                  name.c_str(), bytes.size(), fnv1a(bytes));
    return buf;
}

constexpr SimTime kArchiveAt = 3500 * kMillisecond;
constexpr SimTime kFaultedAt = 4050 * kMillisecond;
constexpr SimTime kFaultedFleetAt = 2976 * kMillisecond;

std::string
simulation_archive(const std::string& policy)
{
    sim::Simulation sim(hw::tc2_chip(), scenario_specs(),
                        make_policy(policy), scenario_config());
    std::ostringstream csv_stream;
    std::ostringstream jsonl_stream;
    metrics::CsvStreamSink csv_sink(csv_stream);
    metrics::JsonlSink jsonl_sink(jsonl_stream);
    sim.bus().add_sink(&csv_sink);
    sim.bus().add_sink(&jsonl_sink);
    sim.run_until(kArchiveAt);
    snap::Writer w;
    sim.save(w);
    return archive_line(policy, w);
}

std::string
fleet_archive()
{
    constexpr int kChips = 4;
    fleet::FleetConfig fc;
    fc.chips = kChips;
    fc.epoch = 96 * kMillisecond;
    fc.supervisor.total_budget = 3.5 * kChips;
    fc.sim = scenario_config();
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor = [](int, Watts budget) {
        return make_policy("PPM", true, budget);
    };
    for (int c = 0; c < kChips; ++c) {
        fleet::ChipWorkload wl;
        wl.specs = scenario_specs();
        wl.lifetimes = fc.sim.lifetimes;
        fc.workloads.push_back(std::move(wl));
    }
    fleet::Fleet f(std::move(fc));
    while (f.now() < kArchiveAt && f.run_epoch()) {
    }
    snap::Writer w;
    f.save(w);
    return archive_line("fleet4", w);
}

/**
 * PPM with the online speedup estimator on the `m2` set (whose tasks
 * LBT migrates; the three-task scenario above never migrates) under a
 * per-chip fault plan with sensor, DVFS and migration faults, saved
 * while a failed migration waits in the injector's retry queue: the
 * fault injector, the sensor guard and the estimator all reach the
 * archive.
 */
std::string
faulted_online_archive(SimTime at)
{
    const workload::WorkloadSet& set = workload::workload_set("m2");
    market::PpmGovernorConfig gov;
    gov.market.w_tdp = 4.0;
    gov.market.w_th = market::derive_w_th(4.0);
    gov.online_speedup = true;
    for (const auto& member : set.members) {
        gov.big_speedup.push_back(
            workload::profile(member.bench, member.input).big_speedup);
    }
    sim::SimConfig cfg;
    cfg.duration = 10 * kSecond;
    cfg.trace = true;
    cfg.tdp_for_metrics = 4.0;
    fault::FaultSpec spec;
    spec.seed = 7;
    spec.sensor = true;
    spec.dvfs = true;
    spec.migration = true;
    spec.rate_per_min = 60.0;
    const hw::Chip chip = hw::tc2_chip();
    cfg.faults = fault::FaultPlan::compile(spec, chip.num_clusters(),
                                           chip.num_cores(), cfg.duration,
                                           cfg.tick);
    sim::Simulation sim(hw::tc2_chip(),
                        workload::instantiate(set, 1, 1,
                                              cfg.duration + 100 * kSecond),
                        std::make_unique<market::PpmGovernor>(gov), cfg);
    sim.run_until(at);
    snap::Writer w;
    sim.save(w);
    return archive_line("PPM-m2-online-faults", w);
}

/**
 * The chip-faulted 4-chip fleet of the kill-and-resume tests
 * (SnapshotRestore.FaultedFleetBitExactAcrossSnapshot).
 */
fleet::FleetConfig
faulted_fleet_config()
{
    constexpr int kChips = 4;
    fleet::FleetConfig fc;
    fc.chips = kChips;
    fc.epoch = 96 * kMillisecond;
    fc.supervisor.total_budget = 3.5 * kChips;
    fc.sim.duration = 5 * kSecond;
    fc.sim.warmup = kSecond;
    fc.sim.tdp_for_metrics = 3.5;
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor =
        [](int, Watts budget) -> std::unique_ptr<sim::Governor> {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = budget;
        cfg.market.w_th = market::derive_w_th(budget);
        cfg.big_speedup = {1.7, 1.5, 1.6};
        return std::make_unique<market::PpmGovernor>(cfg);
    };
    for (int c = 0; c < kChips; ++c) {
        fleet::ChipWorkload wl;
        wl.specs = scenario_specs();
        fc.workloads.push_back(std::move(wl));
    }
    fault::FaultSpec spec;
    spec.seed = 99;
    spec.chip_fail = true;
    spec.chip_recover = true;
    spec.chip_rate_per_min = 30.0;
    fc.fleet_faults = fault::FleetFaultPlan::compile(
        spec, kChips, fc.sim.duration, fc.epoch);
    return fc;
}

/**
 * faulted_fleet_config() saved at the first barrier at or after `at`:
 * health, rosters, clamps and the pending-evacuation queue reach the
 * archive.
 */
std::string
faulted_fleet_archive(SimTime at)
{
    fleet::Fleet f(faulted_fleet_config());
    while (f.now() < at && f.run_epoch()) {
    }
    snap::Writer w;
    f.save(w);
    return archive_line("fleet4-chip-faults", w);
}

TEST(ArchiveGolden, SnapshotBytesMatchRecordedFormat)
{
    std::string actual;
    for (const char* policy : {"PPM", "HPM", "HL"})
        actual += simulation_archive(policy);
    actual += fleet_archive();
    actual += faulted_online_archive(kFaultedAt);
    actual += faulted_fleet_archive(kFaultedFleetAt);
    expect_golden(std::string(PPM_GOLDEN_DIR) + "/snapshot_archive.txt",
                  actual,
                  "snapshot archive bytes changed -- archives written by "
                  "earlier builds would no longer load (each line: name, "
                  "size, FNV-1a-64)");
}

/**
 * The two summary reducers, pinned by their full fingerprints: the
 * cross-seed mean (aggregate_summaries) of three seeds of a short
 * faulted PPM run_set, and the `combined` summary of
 * faulted_fleet_config() with sensor and DVFS faults added on every
 * chip.  Both carry non-zero fault and clearing counters, and the
 * fleet's failed chips leave per-chip task vectors of different
 * lengths, so every combine kind reaches the file.
 */
TEST(SummaryGolden, SeedMeanAndChipCombineMatchRecordedBytes)
{
    experiment::RunParams params;
    params.duration = 6 * kSecond;
    params.tdp = 4.0;
    std::string error;
    ASSERT_TRUE(fault::parse_fault_spec("all,seed=7,rate=30",
                                        &params.faults, &error))
        << error;
    std::string actual = "seed-mean PPM m2 3 seeds\n";
    actual += sim::summary_fingerprint(experiment::run_set_avg(
        workload::workload_set("m2"), params, 3, 1));

    fleet::FleetConfig fc = faulted_fleet_config();
    fault::FaultSpec chip_faults;
    chip_faults.seed = 7;
    chip_faults.sensor = true;
    chip_faults.dvfs = true;
    chip_faults.rate_per_min = 30.0;
    const hw::Chip chip = hw::tc2_chip();
    fc.sim.faults = fault::FaultPlan::compile(
        chip_faults, chip.num_clusters(), chip.num_cores(),
        fc.sim.duration, fc.sim.tick);
    actual += "chip-combine fleet4-chip-faults\n";
    actual += sim::summary_fingerprint(
        fleet::Fleet(std::move(fc)).run().combined);

    expect_golden(std::string(PPM_GOLDEN_DIR) + "/summary_reduce.txt",
                  actual,
                  "a summary reducer changed its output -- the seed "
                  "mean or the chip combine no longer reproduces the "
                  "recorded bytes");
}

} // namespace
} // namespace ppm
