/**
 * @file
 * The allocation-free hot path, gated.  This binary replaces the
 * global `operator new` with a counting one and asserts that the
 * per-tick work allocates nothing once warm:
 *
 *  - every non-epoch `Simulation::step()` tick (the governor's
 *    next_wake() lies beyond the tick) for PPM, HPM and HL on two of
 *    the paper's workload sets under the 4 W cap;
 *  - `Scheduler::tick()` in steady state;
 *  - `Market::round()` after a short warm-up, with static demands and
 *    with demands re-randomised before every round.
 *
 * Governor epochs are outside the gate: they allocate (tens of
 * allocations per epoch for each policy), and ARCHITECTURE.md ("The
 * tick hot path") records the measured counts.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "experiment/experiment.hh"
#include "hw/platform.hh"
#include "market/market.hh"
#include "sched/scheduler.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"
#include "workload/task.hh"

// Both new and delete forward to malloc/free, so the pairing GCC's
// -Wmismatched-new-delete flags after inlining is consistent.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<long> g_allocs{0};
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

namespace ppm {
namespace {

long
allocs()
{
    return g_allocs.load(std::memory_order_relaxed);
}

TEST(ZeroAlloc, CounterSeesHeapAllocations)
{
    // The gates below pass vacuously if the replacement is not the
    // one linked in; a direct operator-new call cannot be elided.
    const long before = allocs();
    ::operator delete(::operator new(16));
    EXPECT_EQ(allocs() - before, 1);
}

/** What a measured window allocated, and where it first did. */
struct Window {
    long ticks = 0;          ///< Ticks measured.
    long allocs = 0;         ///< Allocations over those ticks.
    SimTime first_at = -1;   ///< Time of the first allocating tick.
};

/**
 * Run `set` under `policy` at 4 W for `warmup` simulated time, then
 * step `measured` more one tick at a time, counting allocations on
 * each tick whose governor has no epoch due.
 */
Window
non_epoch_window(const std::string& policy, const std::string& set,
                 SimTime warmup, SimTime measured)
{
    experiment::RunParams params;
    params.policy = policy;
    params.tdp = 4.0;
    params.duration = warmup + measured;
    const auto sim =
        experiment::make_simulation(workload::workload_set(set), params);
    sim->run_until(warmup);
    Window w;
    while (sim->now() < params.duration) {
        const SimTime now = sim->now();
        const bool epoch = sim->governor().next_wake(now) <= now;
        const long before = allocs();
        sim->step();
        if (epoch)
            continue;
        const long n = allocs() - before;
        ++w.ticks;
        w.allocs += n;
        if (n > 0 && w.first_at < 0)
            w.first_at = now;
    }
    return w;
}

void
expect_non_epoch_ticks_allocation_free(const std::string& policy)
{
    for (const char* set : {"l1", "h2"}) {
        const Window w =
            non_epoch_window(policy, set, 20 * kSecond, 60 * kSecond);
        EXPECT_GT(w.ticks, 50000) << policy << " on " << set;
        EXPECT_EQ(w.allocs, 0)
            << policy << " on " << set << ": " << w.allocs
            << " allocations over " << w.ticks
            << " non-epoch ticks, first at t=" << w.first_at << " us";
    }
}

TEST(ZeroAlloc, PpmNonEpochTicks)
{
    expect_non_epoch_ticks_allocation_free("PPM");
}

TEST(ZeroAlloc, HpmNonEpochTicks)
{
    expect_non_epoch_ticks_allocation_free("HPM");
}

TEST(ZeroAlloc, HlNonEpochTicks)
{
    expect_non_epoch_ticks_allocation_free("HL");
}

/** Random Table-7-style task specs: demands uniform in [10, 50] PU. */
std::vector<workload::TaskSpec>
random_specs(int tasks, Rng& rng)
{
    std::vector<workload::TaskSpec> specs;
    for (int t = 0; t < tasks; ++t) {
        specs.push_back(workload::steady_task_spec(
            "t" + std::to_string(t),
            1 + static_cast<int>(rng.uniform_int(0, 6)),
            rng.uniform(10.0, 50.0)));
    }
    return specs;
}

TEST(ZeroAlloc, SchedulerTickSteadyState)
{
    hw::Chip chip = hw::synthetic_chip(4, 8);
    for (ClusterId v = 0; v < chip.num_clusters(); ++v)
        chip.cluster(v).set_level(chip.cluster(v).vf().levels() / 2);
    sched::Scheduler sched(&chip, hw::MigrationModel{});
    Rng rng(2014);
    const auto specs = random_specs(4 * chip.num_cores(), rng);
    std::vector<std::unique_ptr<workload::Task>> owned;
    for (std::size_t t = 0; t < specs.size(); ++t) {
        owned.push_back(std::make_unique<workload::Task>(
            static_cast<TaskId>(t), specs[t]));
        sched.add_task(owned.back().get(),
                       static_cast<CoreId>(t) % chip.num_cores());
    }
    SimTime now = 0;
    for (int i = 0; i < 100; ++i, now += kMillisecond)
        sched.tick(now, kMillisecond);
    const long before = allocs();
    for (int i = 0; i < 20000; ++i, now += kMillisecond)
        sched.tick(now, kMillisecond);
    EXPECT_EQ(allocs() - before, 0);
}

/** A market on a 16 x 8 synthetic chip, 8 tasks per core. */
struct MarketRig {
    MarketRig() : chip(hw::synthetic_chip(16, 8)), market(&chip, config())
    {
        for (CoreId c = 0; c < chip.num_cores(); ++c) {
            for (int t = 0; t < 8; ++t) {
                market.add_task(tasks, 1 + static_cast<int>(
                                               rng.uniform_int(0, 6)),
                                c);
                ++tasks;
            }
        }
        redraw_demands();
        for (ClusterId v = 0; v < chip.num_clusters(); ++v)
            market.set_cluster_power(v, rng.uniform(0.1, 2.0));
    }

    static market::PpmConfig config()
    {
        market::PpmConfig cfg;
        cfg.w_tdp = 1e9;
        cfg.w_th = 1e9 - 0.5;
        return cfg;
    }

    void redraw_demands()
    {
        for (TaskId t = 0; t < tasks; ++t)
            market.set_demand(t, rng.uniform(10.0, 50.0));
    }

    hw::Chip chip;
    market::Market market;
    Rng rng{2014};
    TaskId tasks = 0;
};

TEST(ZeroAlloc, MarketRoundStaticDemands)
{
    MarketRig rig;
    // The first rounds size the clearing scratch (capacity growth).
    for (int i = 0; i < 5; ++i)
        rig.market.round();
    const long before = allocs();
    for (int i = 0; i < 5000; ++i)
        rig.market.round();
    EXPECT_EQ(allocs() - before, 0);
}

TEST(ZeroAlloc, MarketRoundReRandomisedDemands)
{
    MarketRig rig;
    // Static rounds size the scratch; the first churned round sizes
    // the rest.
    for (int i = 0; i < 5; ++i)
        rig.market.round();
    rig.redraw_demands();
    rig.market.round();
    const long before = allocs();
    for (int i = 0; i < 2000; ++i) {
        rig.redraw_demands();
        rig.market.round();
    }
    EXPECT_EQ(allocs() - before, 0);
}

} // namespace
} // namespace ppm
