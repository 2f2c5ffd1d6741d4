/**
 * @file
 * Hot-path microbenchmarks with an allocation counter: the per-tick
 * cost of `Simulation::step()` end-to-end, `Scheduler::tick()`, the
 * `TraceBus` record paths, and one `Market::round()` at the paper's
 * Table-7 chip shapes.  Every future PR compares against the JSON this
 * driver emits (scripts/bench_hotpath.sh -> BENCH_hotpath.json); the
 * acceptance bar for hot-path work is tracked on the
 * BM_SimulationStep end-to-end numbers.
 *
 * Besides wall-clock, each step/tick benchmark reports
 * `allocs_per_iter`: global heap allocations per measured iteration,
 * counted by overriding the global operator new in this binary.  A
 * steady-state tick (no bid round due) must stay at 0.
 *
 * Like bench_table7_scalability, this driver intentionally stays off
 * the experiment::Sweep runner: co-running cells would corrupt the
 * wall-clock timings.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "hw/platform.hh"
#include "market/market.hh"
#include "market/ppm_governor.hh"
#include "metrics/telemetry.hh"
#include "sched/scheduler.hh"
#include "sim/simulation.hh"
#include "workload/task.hh"

// ---------------------------------------------------------------------------
// Global allocation counter.  Counts every operator-new in the process,
// so benchmarks bracket their measured loop with alloc_count() reads.
// Both new and delete forward to malloc/free, so the pairing GCC's
// -Wmismatched-new-delete flags after inlining is actually consistent.
// ---------------------------------------------------------------------------
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<long> g_allocs{0};

long
alloc_count()
{
    return g_allocs.load(std::memory_order_relaxed);
}
} // namespace

void*
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace ppm;

/** Sink that swallows records: tracing enabled, I/O cost excluded. */
class NullSink : public metrics::TraceSink
{
  public:
    void sample(const std::string&, SimTime, double) override {}
    void event(const metrics::TraceEvent&) override {}
};

/** Random Table-7-style workload: demands uniform in [10, 50] PU. */
std::vector<workload::TaskSpec>
table7_specs(int tasks)
{
    Rng rng(2014);
    std::vector<workload::TaskSpec> specs;
    specs.reserve(static_cast<std::size_t>(tasks));
    for (int t = 0; t < tasks; ++t) {
        std::string name = "t";
        name += std::to_string(t);
        specs.push_back(workload::steady_task_spec(
            name, 1 + static_cast<int>(rng.uniform_int(0, 6)),
            rng.uniform(10.0, 50.0)));
    }
    return specs;
}

/** An end-to-end PPM simulation on a synthetic V x C chip. */
struct SimScenario {
    SimScenario(int clusters, int cores, int tasks, bool traced,
                SimTime bid_period = 0)
    {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = 1e9;
        cfg.market.w_th = 1e9 - 0.5;
        if (bid_period > 0)
            cfg.bid_period = bid_period;
        sim::SimConfig sim_cfg;
        sim_cfg.duration = 1LL << 60;
        sim = std::make_unique<sim::Simulation>(
            hw::synthetic_chip(clusters, cores), table7_specs(tasks),
            std::make_unique<market::PpmGovernor>(cfg), sim_cfg);
        if (traced)
            sim->bus().add_sink(std::make_unique<NullSink>());
        // Warm up past the QoS warmup, the first trace samples and a
        // few governor epochs so the measured loop sees steady state.
        for (int i = 0; i < 3000; ++i)
            sim->step();
    }

    std::unique_ptr<sim::Simulation> sim;
};

void
set_alloc_counter(benchmark::State& state, long allocs)
{
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocs) /
        static_cast<double>(state.iterations()));
}

/**
 * One full Simulation::step() -- scheduler tick, power/thermal/QoS
 * accounting, trace sampling, and the governor's bid rounds at their
 * natural cadence (50 ms for the 20 Hz target heart rate).
 */
void
BM_SimulationStep(benchmark::State& state)
{
    const int tasks = static_cast<int>(state.range(0)) *
        static_cast<int>(state.range(1)) *
        static_cast<int>(state.range(2));
    SimScenario s(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)), tasks,
                  state.range(3) != 0);
    const long before = alloc_count();
    for (auto _ : state)
        s.sim->step();
    set_alloc_counter(state, alloc_count() - before);
    state.SetItemsProcessed(state.iterations() * tasks);
    state.SetLabel("V=" + std::to_string(state.range(0)) +
                   " C=" + std::to_string(state.range(1)) +
                   " tasks=" + std::to_string(tasks) +
                   (state.range(3) ? " traced" : " untraced"));
}

/**
 * A steady-state tick: same end-to-end step, but the bid period is
 * pushed out so no market round or LBT epoch falls inside the
 * measured window.  This is the path that must not allocate.
 */
void
BM_SimulationStepSteady(benchmark::State& state)
{
    const int tasks = static_cast<int>(state.range(0)) *
        static_cast<int>(state.range(1)) *
        static_cast<int>(state.range(2));
    SimScenario s(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)), tasks,
                  state.range(3) != 0, /*bid_period=*/3600 * kSecond);
    const long before = alloc_count();
    for (auto _ : state)
        s.sim->step();
    set_alloc_counter(state, alloc_count() - before);
    state.SetItemsProcessed(state.iterations() * tasks);
    state.SetLabel("V=" + std::to_string(state.range(0)) +
                   " C=" + std::to_string(state.range(1)) +
                   " tasks=" + std::to_string(tasks) +
                   (state.range(3) ? " traced" : " untraced"));
}

/** Scheduler::tick alone: water-filling over every core. */
void
BM_SchedulerTick(benchmark::State& state)
{
    const int clusters = static_cast<int>(state.range(0));
    const int cores = static_cast<int>(state.range(1));
    const int tasks = clusters * cores * static_cast<int>(state.range(2));
    hw::Chip chip = hw::synthetic_chip(clusters, cores);
    for (ClusterId v = 0; v < chip.num_clusters(); ++v)
        chip.cluster(v).set_level(chip.cluster(v).vf().levels() / 2);
    sched::Scheduler sched(&chip, hw::MigrationModel{});
    const auto specs = table7_specs(tasks);
    std::vector<std::unique_ptr<workload::Task>> owned;
    for (int t = 0; t < tasks; ++t) {
        owned.push_back(std::make_unique<workload::Task>(
            t, specs[static_cast<std::size_t>(t)]));
        sched.add_task(owned.back().get(),
                       static_cast<CoreId>(t % chip.num_cores()));
    }
    SimTime now = 0;
    for (int i = 0; i < 100; ++i, now += kMillisecond)
        sched.tick(now, kMillisecond);  // Warm scratch state.
    const long before = alloc_count();
    for (auto _ : state) {
        sched.tick(now, kMillisecond);
        now += kMillisecond;
    }
    set_alloc_counter(state, alloc_count() - before);
    state.SetItemsProcessed(state.iterations() * tasks);
    state.SetLabel("V=" + std::to_string(clusters) +
                   " C=" + std::to_string(cores) +
                   " tasks=" + std::to_string(tasks));
}

/** One market round at the Table-7 16-task shape. */
void
BM_MarketRound(benchmark::State& state)
{
    hw::Chip chip = hw::synthetic_chip(static_cast<int>(state.range(0)),
                                       static_cast<int>(state.range(1)));
    market::PpmConfig cfg;
    cfg.w_tdp = 1e9;
    cfg.w_th = 1e9 - 0.5;
    market::Market market(&chip, cfg);
    Rng rng(2014);
    const int tasks_per_core = static_cast<int>(state.range(2));
    TaskId id = 0;
    for (CoreId c = 0; c < chip.num_cores(); ++c) {
        for (int t = 0; t < tasks_per_core; ++t) {
            market.add_task(id,
                            1 + static_cast<int>(rng.uniform_int(0, 6)),
                            c);
            market.set_demand(id, rng.uniform(10.0, 50.0));
            ++id;
        }
    }
    for (ClusterId v = 0; v < chip.num_clusters(); ++v)
        market.set_cluster_power(v, rng.uniform(0.1, 2.0));
    market.round();
    market.round();
    const long before = alloc_count();
    for (auto _ : state)
        benchmark::DoNotOptimize(market.round());
    set_alloc_counter(state, alloc_count() - before);
    state.SetLabel("tasks=" + std::to_string(id));
}

/**
 * A complete run (construction + Simulation::run + summary) with the
 * macro-stepping engine on or off.  Unlike the step() benchmarks,
 * this exercises the event-horizon time advance: with `macro` set the
 * engine coalesces every quiescent inter-epoch gap, so the per-tick
 * equivalent cost (items are simulated ticks) is the number that must
 * beat BM_SimulationStep by the PR's 5x bar.  The traced variant
 * shows the horizon being capped at the trace sampling period.
 */
void
BM_EndToEndRun(benchmark::State& state)
{
    const int clusters = static_cast<int>(state.range(0));
    const int cores = static_cast<int>(state.range(1));
    const int tasks =
        clusters * cores * static_cast<int>(state.range(2));
    const bool macro = state.range(3) != 0;
    const bool traced = state.range(4) != 0;
    const SimTime duration = 30 * kSecond;
    const long ticks = duration / kMillisecond;
    for (auto _ : state) {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = 1e9;
        cfg.market.w_th = 1e9 - 0.5;
        sim::SimConfig sim_cfg;
        sim_cfg.duration = duration;
        sim_cfg.macro_step = macro;
        sim::Simulation sim(
            hw::synthetic_chip(clusters, cores), table7_specs(tasks),
            std::make_unique<market::PpmGovernor>(cfg), sim_cfg);
        if (traced)
            sim.bus().add_sink(std::make_unique<NullSink>());
        benchmark::DoNotOptimize(sim.run());
    }
    // items/s = simulated ticks per wall second, comparable across
    // the macro/per-tick variants and against BM_SimulationStep.
    state.SetItemsProcessed(state.iterations() * ticks);
    state.SetLabel("V=" + std::to_string(clusters) +
                   " C=" + std::to_string(cores) +
                   " tasks=" + std::to_string(tasks) +
                   (macro ? " macro" : " per-tick") +
                   (traced ? " traced" : " untraced"));
}

void
hotpath_args(benchmark::internal::Benchmark* b)
{
    // (V, C, T, traced): the Table-7 16-task shape plus one larger
    // round for trend context.
    b->ArgNames({"v", "c", "t", "traced"});
    b->Args({2, 4, 2, 0});
    b->Args({2, 4, 2, 1});
    b->Args({4, 8, 2, 1});
    b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_SimulationStep)->Apply(hotpath_args);
BENCHMARK(BM_SimulationStepSteady)->Apply(hotpath_args);
BENCHMARK(BM_SchedulerTick)
    ->ArgNames({"v", "c", "t"})
    ->Args({2, 4, 2})
    ->Args({4, 8, 4})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MarketRound)
    ->ArgNames({"v", "c", "t"})
    ->Args({2, 4, 2})
    ->Args({16, 8, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EndToEndRun)
    ->ArgNames({"v", "c", "t", "macro", "traced"})
    ->Args({2, 4, 2, 0, 0})   // per-tick baseline, 16 tasks
    ->Args({2, 4, 2, 1, 0})   // macro-stepping, 16 tasks
    ->Args({2, 4, 2, 1, 1})   // macro + trace sink (horizon capped)
    ->Args({4, 8, 2, 1, 0})   // macro, 64 tasks
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
