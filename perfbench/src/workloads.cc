#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <ostream>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "experiment/experiment.hh"
#include "fleet/fleet.hh"
#include "fuzz/check.hh"
#include "hw/platform.hh"
#include "snapshot/archive.hh"
#include "workload/benchmarks.hh"
#include "workload/sets.hh"
#include "workload/task.hh"

namespace perfbench {

using namespace ppm;

void
Layers::add_governor(const GovernorProbe& p, bool market)
{
    ticks += p.ticks + p.replayed_ticks;
    replay_intervals += p.replay_calls;
    replayed_ticks += p.replayed_ticks;
    if (market) {
        market_s += p.market_ns / 1e9;
        market_ticks += p.market_ticks;
        round_ns.merge(p.round_ns);
    } else {
        baselines_s += p.tick_ns / 1e9;
        baseline_calls += p.ticks;
    }
}

namespace {

constexpr Watts kTdp = 4.0;
const char* const kPolicies[] = {"PPM", "HPM", "HL"};

void
add_clearing(sim::ClearingStats* c, const sim::RunSummary& s)
{
    c->rounds += s.market_rounds;
    c->task_slots += s.market_task_slots;
    c->tasks_skipped += s.market_tasks_skipped;
    c->core_slots += s.market_core_slots;
    c->cores_skipped += s.market_cores_skipped;
    c->rounds_early_exit += s.market_rounds_early_exit;
}

/** Exact rendering of a double (hex float). */
std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::vector<double>
set_speedups(const workload::WorkloadSet& set)
{
    std::vector<double> v;
    for (const auto& m : set.members)
        v.push_back(workload::profile(m.bench, m.input).big_speedup);
    return v;
}

/** Everything one single-chip simulation is built from. */
struct ChipInputs {
    hw::Chip chip;
    std::vector<workload::TaskSpec> specs;
    std::vector<double> speedups;
    sim::SimConfig cfg;
    std::string policy;
    Watts tdp = kTdp;
};

/**
 * Build (timed as set-up) and run one single-chip simulation, the way
 * experiment::run_specs() wires it, optionally streaming JSONL
 * telemetry into a discarding, hashing buffer.
 */
OpResult
run_chip(const std::function<ChipInputs()>& build, bool jsonl, int op,
         Layers* L)
{
    const Clock::time_point t0 = Clock::now();
    ChipInputs in = build();
    std::unique_ptr<sim::Governor> gov =
        experiment::make_governor(in.policy, in.tdp, in.speedups);
    TimedGovernor* timed = nullptr;
    if (L != nullptr) {
        auto t = std::make_unique<TimedGovernor>(std::move(gov));
        timed = t.get();
        gov = std::move(t);
    }
    CountingBuf buf;
    std::ostream os(&buf);
    std::optional<metrics::JsonlSink> sink;
    std::optional<TimedSink> timed_sink;
    const double sim_s =
        static_cast<double>(in.cfg.duration) / static_cast<double>(kSecond);
    sim::Simulation simulation(std::move(in.chip), in.specs, std::move(gov),
                               in.cfg);
    if (jsonl) {
        sink.emplace(os);
        if (L != nullptr) {
            timed_sink.emplace(&*sink);
            simulation.bus().add_sink(&*timed_sink);
        } else {
            simulation.bus().add_sink(&*sink);
        }
    }
    const Clock::time_point t1 = Clock::now();
    const sim::RunSummary s = simulation.run();
    const Clock::time_point t2 = Clock::now();

    OpResult r;
    r.policy = in.policy;
    r.sim_s = sim_s;
    r.setup_s = s_between(t0, t1);
    r.run_s = s_between(t1, t2);
    r.any_below_miss = s.any_below_miss;
    std::string out = fuzz::summary_fingerprint(s);
    if (jsonl) {
        out += "trace " + std::to_string(buf.bytes()) + " " +
            hex64(buf.digest()) + "\n";
        if (sink->failed()) {
            r.checks_ok = false;
            r.note = "JSONL sink reported an output error";
        }
    }
    r.digest = hex64(fnv1a(out));

    if (L != nullptr) {
        const GovernorProbe& p = timed->probe();
        L->add_governor(p, in.policy == "PPM");
        add_clearing(&L->clearing, s);
        double sink_s = 0.0;
        if (jsonl) {
            sink_s = timed_sink->probe().ns / 1e9;
            L->sink_s += sink_s;
            L->records += timed_sink->probe().records;
            L->bytes += static_cast<long>(buf.bytes());
        }
        L->run_s += r.run_s;
        L->lane_s += r.run_s;
        L->sim_self_s += r.run_s - (p.tick_ns + p.replay_ns) / 1e9 - sink_s;
        L->spans.add("run", -1, t0, t2, op);
    }
    return r;
}

/** Fig. 6: 9 sets x {PPM, HPM, HL} x 3 seeds, 300 s at a 4 W TDP. */
class PaperGrid final : public Workload
{
  public:
    explicit PaperGrid(const Config& c) : seed_(c.seed) {}

    int ops() const override { return 81; }

    OpResult run(int i, Layers* L, Timings*) override
    {
        const auto& set =
            workload::standard_workload_sets()[static_cast<std::size_t>(i / 9)];
        const std::string policy = kPolicies[(i / 3) % 3];
        const int k = i % 3;
        const std::uint64_t s = experiment::cell_seed(seed_, 100, k);
        OpResult r = run_chip(
            [&]() {
                ChipInputs in{hw::tc2_chip(), {}, set_speedups(set), {},
                              policy, kTdp};
                in.cfg.duration = 300 * kSecond;
                in.cfg.tdp_for_metrics = kTdp;
                in.specs = workload::instantiate(set, s, 1,
                                                 in.cfg.duration +
                                                     100 * kSecond);
                return in;
            },
            false, i, L);
        r.key = set.name + "/" + policy + "/" + std::to_string(k);
        return r;
    }

  private:
    std::uint64_t seed_;
};

/**
 * PPM on a 16-cluster x 4-core synthetic chip with 128 Table-7-style
 * steady tasks, half of which arrive and depart mid-run.  Tasks boot
 * on cluster 0 as in every library experiment; the 2 W cap sits just
 * above the run's average power, so the market spends time in the
 * normal, threshold and emergency states.  (Spreading the tasks over
 * all 16 clusters instead puts the powered-on floor near 32 W: any
 * lower cap then holds the chip in the emergency state, where LBT is
 * disabled, for the whole run.)
 */
class Manycore final : public Workload
{
  public:
    static constexpr int kTasks = 128;
    static constexpr Watts kChipTdp = 2.0;

    explicit Manycore(const Config& c)
        : seed_(c.seed),
          duration_(std::max<SimTime>(
              kSecond, static_cast<SimTime>(30.0 * c.time_scale) * kSecond))
    {
    }

    int ops() const override { return 8; }

    OpResult run(int i, Layers* L, Timings*) override
    {
        const std::uint64_t s = experiment::cell_seed(seed_, 16, i);
        OpResult r = run_chip(
            [&]() {
                ChipInputs in{hw::synthetic_chip(16, 4), {}, {}, {}, "PPM",
                              kChipTdp};
                in.cfg.duration = duration_;
                in.cfg.tdp_for_metrics = kChipTdp;
                Rng rng(s);
                const long d_ms = duration_ / kMillisecond;
                for (int t = 0; t < kTasks; ++t) {
                    const double speedup = rng.uniform(1.3, 2.0);
                    in.specs.push_back(workload::steady_task_spec(
                        "t" + std::to_string(t),
                        1 + static_cast<int>(rng.uniform_int(0, 6)),
                        rng.uniform(10.0, 50.0), speedup));
                    in.speedups.push_back(speedup);
                    sim::SimConfig::Lifetime life;
                    if (t >= kTasks / 2) {
                        const long a = rng.uniform_int(0, d_ms / 2);
                        const long stay = rng.uniform_int(d_ms / 4, d_ms);
                        life.arrival = a * kMillisecond;
                        if (a + stay < d_ms)
                            life.departure = (a + stay) * kMillisecond;
                    }
                    in.cfg.lifetimes.push_back(life);
                }
                return in;
            },
            false, i, L);
        r.key = "manycore/" + std::to_string(i);
        return r;
    }

  private:
    std::uint64_t seed_;
    SimTime duration_;
};

/** PPM on TC2 `h1` at 4 W, streaming full JSONL telemetry. */
class Traced final : public Workload
{
  public:
    explicit Traced(const Config& c)
        : seed_(c.seed),
          duration_(std::max<SimTime>(
              kSecond, static_cast<SimTime>(150.0 * c.time_scale) * kSecond))
    {
    }

    int ops() const override { return 8; }

    OpResult run(int i, Layers* L, Timings*) override
    {
        const std::uint64_t s = experiment::cell_seed(seed_, 55, i);
        const auto& set = workload::workload_set("h1");
        OpResult r = run_chip(
            [&]() {
                ChipInputs in{hw::tc2_chip(), {}, set_speedups(set), {},
                              "PPM", kTdp};
                in.cfg.duration = duration_;
                in.cfg.tdp_for_metrics = kTdp;
                in.specs = workload::instantiate(set, s, 1,
                                                 duration_ + 100 * kSecond);
                return in;
            },
            true, i, L);
        r.key = "traced/" + std::to_string(i);
        return r;
    }

  private:
    std::uint64_t seed_;
    SimTime duration_;
};

/**
 * 64 TC2 chips running `h1` under a 64 x 4 W supervisor budget for
 * 1000 epochs, with an in-memory checkpoint every 100 epochs and a
 * mid-run continuation from a fresh Fleet restored from the latest
 * checkpoint.
 */
class FleetRun final : public Workload
{
  public:
    static constexpr int kChips = 64;
    static constexpr SimTime kEpoch = 96 * kMillisecond;

    explicit FleetRun(const Config& c)
        : seed_(c.seed),
          epochs_(std::max(10, static_cast<int>(1000 * c.time_scale))),
          every_(epochs_ / 10)
    {
        if (c.fleet_jobs != 1)
            pool_ = std::make_unique<ThreadPool>(c.fleet_jobs);
    }

    int ops() const override { return 2; }

    OpResult run(int i, Layers* L, Timings* T) override;

  private:
    fleet::FleetConfig config(std::uint64_t s,
                              std::vector<TimedGovernor*>* govs,
                              bool decorate) const;

    /** Fold the epoch that ran from `a` to `b` into `L`. */
    void fold_epoch(const std::vector<TimedGovernor*>& govs,
                    Clock::time_point a, Clock::time_point b, long parent,
                    int epoch, Layers* L) const;

    std::uint64_t seed_;
    int epochs_;
    int every_;  ///< Checkpoint period in epochs.
    std::unique_ptr<ThreadPool> pool_;
};

fleet::FleetConfig
FleetRun::config(std::uint64_t s, std::vector<TimedGovernor*>* govs,
                 bool decorate) const
{
    const auto& set = workload::workload_set("h1");
    fleet::FleetConfig fc;
    fc.chips = kChips;
    fc.epoch = kEpoch;
    fc.supervisor.total_budget = kTdp * kChips;
    fc.sim.duration = kEpoch * epochs_;
    fc.sim.tdp_for_metrics = kTdp;
    for (int c = 0; c < kChips; ++c) {
        const std::uint64_t chip_seed =
            c == 0 ? s : experiment::cell_seed(s, 777, c);
        fleet::ChipWorkload wl;
        wl.specs = workload::instantiate(set, chip_seed, 1,
                                         fc.sim.duration + 100 * kSecond);
        fc.workloads.push_back(std::move(wl));
    }
    ThreadPool* pool = pool_.get();
    fc.pool = pool;
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor = [speedups = set_speedups(set), pool, govs,
                        decorate](int chip, Watts budget) {
        std::unique_ptr<sim::Governor> g = experiment::make_governor(
            "PPM", budget, speedups, false, 1, pool);
        if (!decorate)
            return g;
        auto t = std::make_unique<TimedGovernor>(std::move(g));
        (*govs)[static_cast<std::size_t>(chip)] = t.get();
        return std::unique_ptr<sim::Governor>(std::move(t));
    };
    return fc;
}

void
FleetRun::fold_epoch(const std::vector<TimedGovernor*>& govs,
                     Clock::time_point a, Clock::time_point b, long parent,
                     int epoch, Layers* L) const
{
    struct Lane {
        Clock::time_point first, last;
        double busy_ns = 0;
        long chips = 0;
    };
    std::map<std::thread::id, Lane> lanes;
    Clock::time_point first = b;
    Clock::time_point last = a;
    double busy_sum = 0.0;
    double busy_max = 0.0;
    for (const TimedGovernor* g : govs) {
        const GovernorProbe& p = g->probe();
        busy_sum += p.epoch_busy_ns;
        busy_max = std::max(busy_max, p.epoch_busy_ns);
        if (!p.touched)
            continue;
        first = std::min(first, p.first);
        last = std::max(last, p.last);
        auto [it, fresh] = lanes.try_emplace(p.thread);
        Lane& lane = it->second;
        if (fresh || p.first < lane.first)
            lane.first = p.first;
        if (fresh || p.last > lane.last)
            lane.last = p.last;
        lane.busy_ns += p.epoch_busy_ns;
        ++lane.chips;
    }
    const long span = L->spans.add("epoch", parent, a, b, epoch);
    if (lanes.empty())
        return;
    L->dispatch_ns.add(ns_between(a, first));
    const double tail = ns_between(last, b);
    L->tail_ns.add(tail);
    L->tail_s += tail / 1e9;
    const double mean = busy_sum / static_cast<double>(govs.size());
    if (mean > 0.0)
        L->imbalance.push_back(busy_max / mean);
    L->lanes.push_back(static_cast<double>(lanes.size()));
    L->lane_s += s_between(a, b) * static_cast<double>(lanes.size());
    for (const auto& [id, lane] : lanes) {
        L->spans.add("lane", span, lane.first, lane.last, lane.chips);
        L->sim_self_s += ns_between(lane.first, lane.last) / 1e9 -
            lane.busy_ns / 1e9;
    }
}

OpResult
FleetRun::run(int i, Layers* L, Timings* T)
{
    const std::uint64_t s = experiment::cell_seed(seed_, 64, i);
    const bool decorate = L != nullptr;
    std::vector<TimedGovernor*> govs(kChips, nullptr);
    auto harvest = [&]() {
        if (decorate)
            for (const TimedGovernor* g : govs)
                L->add_governor(g->probe(), true);
    };

    OpResult r;
    r.policy = "PPM";
    r.key = "fleet/" + std::to_string(i);
    const Clock::time_point t0 = Clock::now();
    const fleet::FleetConfig fc = config(s, &govs, decorate);
    auto fl = std::make_unique<fleet::Fleet>(fc);
    const Clock::time_point t1 = Clock::now();
    r.setup_s = s_between(t0, t1);
    const long op_span = decorate ? L->spans.begin("run", -1, t0, i) : -1;

    std::string checkpoints;
    bool more = true;
    for (int e = 1; more; ++e) {
        if (decorate)
            for (TimedGovernor* g : govs)
                g->probe().reset_epoch();
        const Clock::time_point a = Clock::now();
        more = fl->run_epoch();
        const Clock::time_point b = Clock::now();
        const double ms = ns_between(a, b) / 1e6;
        T->epoch_ms.push_back(ms);
        r.run_s += ms / 1e3;
        if (decorate)
            fold_epoch(govs, a, b, op_span, e, L);
        if (!more || e % every_ != 0)
            continue;

        const Clock::time_point c0 = Clock::now();
        snap::Writer w;
        fl->save(w);
        const std::string bytes = w.finalize();
        const Clock::time_point c1 = Clock::now();
        T->checkpoint_ms.push_back(ns_between(c0, c1) / 1e6);
        checkpoints += std::to_string(bytes.size()) + " " +
            hex64(fnv1a(bytes)) + "\n";
        if (decorate) {
            L->spans.add("checkpoint", op_span, c0, c1, e);
            L->snapshot_bytes = static_cast<long>(bytes.size());
            L->save_s += s_between(c0, c1);
            L->save_bytes += static_cast<double>(bytes.size());
        }
        if (e != every_ * 5)
            continue;

        // Continue from a fresh fleet restored from this checkpoint.
        harvest();
        const Clock::time_point r0 = Clock::now();
        auto fresh = std::make_unique<fleet::Fleet>(fc);
        const Clock::time_point r1 = Clock::now();
        snap::Reader reader;
        const snap::LoadStatus st = reader.open(bytes);
        if (st == snap::LoadStatus::kOk)
            fresh->load(reader);
        const Clock::time_point r2 = Clock::now();
        T->restore_ms.push_back(ns_between(r0, r2) / 1e6);
        if (decorate) {
            L->spans.add("restore", op_span, r0, r2, e);
            L->load_s += s_between(r1, r2);
            L->load_bytes += static_cast<double>(bytes.size());
        }
        if (st != snap::LoadStatus::kOk || reader.remaining() != 0) {
            r.checks_ok = false;
            r.note = std::string("restore: ") + snap::load_status_name(st);
        } else {
            snap::Writer again;
            fresh->save(again);
            if (again.finalize() != bytes) {
                r.checks_ok = false;
                r.note = "restored fleet re-saves different bytes";
            }
        }
        fl = std::move(fresh);
    }

    const Clock::time_point f0 = Clock::now();
    const fleet::FleetResult res = fl->run();
    const Clock::time_point f1 = Clock::now();
    r.run_s += s_between(f0, f1);
    r.sim_s = kChips * static_cast<double>(fc.sim.duration) /
        static_cast<double>(kSecond);
    r.any_below_miss = res.combined.any_below_miss;

    std::string out = fuzz::summary_fingerprint(res.combined);
    out += "epochs " + std::to_string(res.supervisor_epochs) + " admitted " +
        std::to_string(res.admitted) + "\n";
    for (const Watts b : res.final_budgets)
        out += exact(b) + "\n";
    out += checkpoints;
    r.digest = hex64(fnv1a(out));

    if (decorate) {
        harvest();
        for (const sim::RunSummary& cs : res.per_chip)
            add_clearing(&L->clearing, cs);
        L->run_s += r.run_s;
        L->spans.end(op_span, f1);
    }
    return r;
}

} // namespace

std::unique_ptr<Workload>
make_workload(const std::string& name, const Config& cfg)
{
    if (name == "paper-grid")
        return std::make_unique<PaperGrid>(cfg);
    if (name == "manycore")
        return std::make_unique<Manycore>(cfg);
    if (name == "fleet")
        return std::make_unique<FleetRun>(cfg);
    if (name == "traced")
        return std::make_unique<Traced>(cfg);
    return nullptr;
}

} // namespace perfbench
