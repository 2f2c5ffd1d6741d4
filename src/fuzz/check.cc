#include "fuzz/check.hh"

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/logging.hh"

#include "experiment/experiment.hh"
#include "fleet/fleet.hh"
#include "hw/power_model.hh"
#include "metrics/telemetry.hh"
#include "snapshot/archive.hh"

namespace ppm::fuzz {
namespace {

std::string
fmt_exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Streaming auditor of the market's per-round telemetry: checks that
 * every numeric field is finite and that the cluster allowances the
 * market hands its task agents sum back to the global allowance (the
 * distribute_allowance() telescoping).  Attached to the PPM runs
 * alongside the byte-comparison JSONL sink.
 */
class MarketAuditSink final : public metrics::TraceSink
{
  public:
    /**
     * @param check_budget Budget conservation only holds when every
     *        task agent is live: lifetime windows leave departed
     *        agents holding their stale last allowance, so the sum
     *        check is gated off for staggered scenarios.
     */
    explicit MarketAuditSink(bool check_budget)
        : check_budget_(check_budget)
    {
    }

    void sample(const std::string&, SimTime, double) override {}

    void event(const metrics::TraceEvent& e) override
    {
        if (e.type != "market_round")
            return;
        ++rounds_;
        double allowance = 0.0;
        double total_demand = 0.0;
        double task_sum = 0.0;
        bool saw_allowance = false;
        for (const auto& [key, value] : e.num) {
            if (!std::isfinite(value)) {
                fail("non-finite field " + key + " = " +
                     fmt_exact(value) + " at round " +
                     std::to_string(rounds_));
                return;
            }
            if (key == "allowance") {
                allowance = value;
                saw_allowance = true;
            } else if (key == "total_demand") {
                total_demand = value;
            } else if (key.compare(0, 4, "task") == 0 &&
                       key.size() > 10 &&
                       key.compare(key.size() - 10, 10,
                                   "_allowance") == 0) {
                task_sum += value;
                if (value < 0.0) {
                    fail("negative " + key + " = " +
                         fmt_exact(value) + " at round " +
                         std::to_string(rounds_));
                    return;
                }
            } else if ((key.compare(0, 4, "core") == 0 &&
                        key.size() > 6 &&
                        key.compare(key.size() - 6, 6, "_price") ==
                            0) &&
                       value < 0.0) {
                fail("negative " + key + " = " + fmt_exact(value) +
                     " at round " + std::to_string(rounds_));
                return;
            }
        }
        if (!saw_allowance || allowance < 0.0) {
            fail("round " + std::to_string(rounds_) +
                 " has no sane global allowance");
            return;
        }
        // Conservation: the distributed per-task allowances telescope
        // back to the global allowance whenever the market actually
        // distributed this round (it early-outs, keeping every agent's
        // last allowance, when no demand reached it).
        if (check_budget_ && total_demand > 0.0) {
            const double tol =
                1e-6 * std::max(1.0, std::abs(allowance));
            if (std::abs(task_sum - allowance) > tol) {
                fail("task allowances sum to " + fmt_exact(task_sum) +
                     " but global allowance is " +
                     fmt_exact(allowance) + " at round " +
                     std::to_string(rounds_));
            }
        }
    }

    const std::string& first_error() const { return error_; }
    bool ok() const { return error_.empty(); }

  private:
    void fail(const std::string& msg)
    {
        if (error_.empty())
            error_ = msg;
    }

    bool check_budget_;
    long rounds_ = 0;
    std::string error_;
};

std::unique_ptr<sim::Governor>
make_policy(const Scenario& sc, const std::string& policy,
            bool incremental)
{
    return experiment::make_governor(
        policy, sc.tdp > 0.0 ? sc.tdp : 1e9, big_speedups(sc),
        sc.online_speedup, 1, nullptr, incremental);
}

sim::SimConfig
make_sim_config(const Scenario& sc, const hw::Chip& chip,
                bool macro_step)
{
    sim::SimConfig cfg;
    cfg.duration = sc.duration;
    cfg.warmup = sc.warmup;
    cfg.trace = sc.trace;
    cfg.trace_period = sc.trace_period;
    cfg.tdp_for_metrics = sc.tdp > 0.0 ? sc.tdp : 1e9;
    cfg.macro_step = macro_step;
    cfg.placement = placement(sc);
    cfg.lifetimes = lifetimes(sc);
    if (sc.has_faults) {
        cfg.faults = fault::FaultPlan::compile(
            sc.faults, chip.num_clusters(), chip.num_cores(),
            cfg.duration, cfg.tick);
    }
    return cfg;
}

/** Everything one execution of the scenario produces. */
struct RunOutput {
    sim::RunSummary summary;
    std::string jsonl;       ///< Full telemetry stream, bytes.
    std::string trace_csv;   ///< Recorder dump; empty unless traced.
    std::string audit_error; ///< First MarketAuditSink failure.
    std::size_t plan_events = 0;  ///< Compiled fault windows.
};

/** Load the in-memory archive `w` into `target`, which must accept it. */
template <class T>
void
load_snapshot(T& target, const snap::Writer& w)
{
    snap::Reader r;
    const snap::LoadStatus st = r.open(w.finalize());
    PPM_ASSERT(st == snap::LoadStatus::kOk,
               "in-memory snapshot failed validation");
    target.load(r);
    PPM_ASSERT(r.remaining() == 0, "snapshot has trailing bytes after load");
}

/**
 * One execution of the scenario under `policy`.  With `kill_at` > 0
 * the run is killed there, snapshotted through the real archive bytes
 * (header, checksum and all) and restored into a freshly constructed
 * simulation that runs to the end: the telemetry of both halves
 * concatenates and the summary comes from the restored one.
 */
RunOutput
run_once(const Scenario& sc, const std::string& policy,
         bool macro_step, bool incremental, SimTime kill_at = 0)
{
    const sim::SimConfig cfg =
        make_sim_config(sc, make_chip(sc), macro_step);
    RunOutput out;
    out.plan_events = cfg.faults.events().size();

    std::ostringstream jsonl_os;
    metrics::JsonlSink jsonl(jsonl_os);
    const bool stable_agents = lifetimes(sc).empty();
    MarketAuditSink audit(stable_agents);
    auto start = [&]() {
        auto simulation = std::make_unique<sim::Simulation>(
            make_chip(sc), make_specs(sc),
            make_policy(sc, policy, incremental), cfg);
        simulation->bus().add_sink(&jsonl);
        if (policy == "PPM")
            simulation->bus().add_sink(&audit);
        return simulation;
    };
    std::unique_ptr<sim::Simulation> simulation = start();
    if (kill_at > 0) {
        simulation->run_until(kill_at);
        snap::Writer w;
        simulation->save(w);
        simulation.reset();
        simulation = start();
        load_snapshot(*simulation, w);
    }
    simulation->run_until(cfg.duration);
    out.summary = simulation->finish();
    out.jsonl = jsonl_os.str();
    if (sc.trace) {
        std::ostringstream csv;
        simulation->recorder().write_csv(csv);
        out.trace_csv = csv.str();
    }
    out.audit_error = audit.first_error();
    return out;
}

/**
 * Streaming auditor of the fleet.* barrier telemetry: at every
 * barrier timestamp the per-chip budgets must sum back to the fleet
 * budget (the supervisor's settlement conserves the total; see
 * SupervisorMarket::settle).  Only attached to capped fleets --
 * uncapped fleets intentionally leave every chip at the sentinel
 * no-cap budget.
 */
class FleetAuditSink final : public metrics::TraceSink
{
  public:
    explicit FleetAuditSink(Watts total) : total_(total) {}

    void sample(const std::string& name, SimTime t, double v) override
    {
        static const std::string kPrefix = "fleet.chip";
        static const std::string kSuffix = ".budget_w";
        if (name.compare(0, kPrefix.size(), kPrefix) != 0 ||
            name.size() <= kSuffix.size() ||
            name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                         kSuffix) != 0)
            return;
        if (t != at_) {
            check();
            at_ = t;
            sum_ = 0.0;
            chips_ = 0;
        }
        sum_ += v;
        ++chips_;
    }

    void event(const metrics::TraceEvent&) override {}

    /** Audit the final pending barrier and return the first error. */
    std::string finish()
    {
        check();
        return error_;
    }

  private:
    void check()
    {
        if (chips_ == 0)
            return;
        const double tol = 1e-9 * std::max(1.0, total_);
        if (std::abs(sum_ - total_) > tol && error_.empty()) {
            error_ = "chip budgets sum to " + fmt_exact(sum_) +
                     " but the fleet budget is " + fmt_exact(total_) +
                     " at t=" + std::to_string(at_);
        }
    }

    Watts total_;
    SimTime at_ = -1;
    double sum_ = 0.0;
    int chips_ = 0;
    std::string error_;
};

/** Everything one federated execution of the scenario produces. */
struct FleetOutput {
    fleet::FleetResult result; ///< Summaries, fault counters etc.
    std::string fleet_jsonl;  ///< Fleet bus bytes (fleet.* series).
    std::string chip0_jsonl;  ///< Shard 0's full telemetry stream.
    std::string budget_error; ///< First FleetAuditSink failure.
};

/**
 * Build the `chips`-shard fleet configuration of the scenario.  Every
 * chip replicates the scenario's workload; chip governors are built
 * from their supervisor budget through the same knobs as make_policy,
 * so a 1-chip fleet is configured bit-identically to the plain PPM
 * run.  With `fleet_faults`, the scenario's chip-level fault classes
 * are compiled into the settlement-barrier transition schedule.
 */
fleet::FleetConfig
make_fleet_config(const Scenario& sc, int chips, int jobs,
                  bool incremental, bool fleet_faults)
{
    const bool capped = sc.tdp > 0.0;
    const Watts total =
        capped ? sc.tdp * static_cast<double>(chips) : 1e9;

    fleet::FleetConfig fc;
    fc.chips = chips;
    fc.epoch = 48 * kMillisecond;
    fc.supervisor.total_budget = total;
    fc.jobs = jobs;
    {
        const hw::Chip chip = make_chip(sc);
        fc.sim = make_sim_config(sc, chip, true);
    }
    if (fleet_faults)
        fc.fleet_faults = fault::FleetFaultPlan::compile(
            sc.faults, chips, fc.sim.duration, fc.epoch);
    for (int c = 0; c < chips; ++c) {
        fleet::ChipWorkload wl;
        wl.specs = make_specs(sc);
        wl.lifetimes = lifetimes(sc);
        wl.placement = placement(sc);
        fc.workloads.push_back(std::move(wl));
    }
    fc.make_chip = [&sc](int) { return make_chip(sc); };
    fc.make_governor = [&sc, incremental](int, Watts budget) {
        return experiment::make_governor("PPM", budget, big_speedups(sc),
                                         sc.online_speedup, 1, nullptr,
                                         incremental);
    };
    return fc;
}

/** run_once() of the scenario's `chips`-chip fleet. */
FleetOutput
run_fleet(const Scenario& sc, int chips, int jobs, bool incremental,
          bool fleet_faults = false, SimTime kill_at = 0)
{
    const bool capped = sc.tdp > 0.0;
    const Watts total =
        capped ? sc.tdp * static_cast<double>(chips) : 1e9;

    std::ostringstream fleet_os;
    std::ostringstream chip_os;
    metrics::JsonlSink fleet_sink(fleet_os);
    metrics::JsonlSink chip_sink(chip_os);
    FleetAuditSink audit(total);
    // A failed chip's budget is withdrawn from settlement (and a
    // degraded chip's is clamped), so the sum-to-total audit only
    // holds on healthy fleets.
    const bool check_budget = capped && chips > 1 && !fleet_faults;
    auto start = [&]() {
        auto fleet = std::make_unique<fleet::Fleet>(
            make_fleet_config(sc, chips, jobs, incremental, fleet_faults));
        fleet->bus().add_sink(&fleet_sink);
        if (check_budget)
            fleet->bus().add_sink(&audit);
        fleet->shard(0).bus().add_sink(&chip_sink);
        return fleet;
    };
    std::unique_ptr<fleet::Fleet> fleet = start();
    if (kill_at > 0) {
        // Fleet state is only consistent at settlement barriers: kill
        // at the first one at or after `kill_at`.
        while (fleet->now() < kill_at && fleet->run_epoch()) {
        }
        snap::Writer w;
        fleet->save(w);
        fleet.reset();
        fleet = start();
        load_snapshot(*fleet, w);
    }

    FleetOutput out;
    out.result = fleet->run();
    out.fleet_jsonl = fleet_os.str();
    out.chip0_jsonl = chip_os.str();
    if (check_budget)
        out.budget_error = audit.finish();
    return out;
}

bool
fraction_ok(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0 + 1e-12;
}

/**
 * Range check of every RunSummary field by its combine kind: rates
 * and per-task entries in [0, 1], totals finite and >= 0, one
 * per-task entry per scenario task.  Keeps the first failure.
 */
struct FieldRanges {
    std::size_t tasks;
    std::string error;

    void check(bool ok, const char* name, const std::string& v,
               const char* why)
    {
        if (!ok && error.empty())
            error = std::string("summary field ") + name + " = " + v +
                    " " + why;
    }

    void operator()(const char*, sim::Combine, const std::string&) {}

    template <class T>
    void operator()(const char* name, sim::Combine kind, T v)
    {
        const double x = static_cast<double>(v);
        if (kind == sim::Combine::kRate)
            check(fraction_ok(x), name, fmt_exact(x), "is outside [0, 1]");
        if (kind == sim::Combine::kTotal)
            check(std::isfinite(x) && x >= 0.0, name, fmt_exact(x),
                  "is negative or non-finite");
    }

    void operator()(const char* name, sim::Combine,
                    const std::vector<double>& v)
    {
        check(v.size() == tasks, name,
              std::to_string(v.size()) + " entries",
              "does not cover the task count");
        for (const double x : v)
            check(fraction_ok(x), name, fmt_exact(x), "is outside [0, 1]");
    }
};

void
check_summary_sanity(const Scenario& sc, const std::string& policy,
                     const RunOutput& run,
                     std::vector<Violation>& out)
{
    const sim::RunSummary& s = run.summary;
    auto bad = [&](const std::string& detail) {
        out.push_back({"summary-sanity", policy, detail});
    };

    FieldRanges ranges{sc.tasks.size(), {}};
    sim::RunSummary::fields(ranges, s);
    if (!ranges.error.empty()) {
        bad(ranges.error);
        return;
    }
    // energy integrates the whole run; avg_power is its time mean.
    const double dur_s =
        static_cast<double>(sc.duration) / static_cast<double>(kSecond);
    const double expect = s.avg_power * dur_s;
    if (std::abs(s.energy - expect) >
        1e-6 * std::max(1.0, std::abs(expect))) {
        bad("energy " + fmt_exact(s.energy) +
            " != avg_power * duration " + fmt_exact(expect));
    }
    if (!std::isfinite(s.peak_temp_c) || s.peak_temp_c <= 0.0 ||
        s.peak_temp_c > 500.0)
        bad("peak temperature " + fmt_exact(s.peak_temp_c) +
            " is implausible");
    for (std::size_t t = 0; t < s.task_below.size(); ++t) {
        if (s.task_below[t] > s.task_outside[t] + 1e-12) {
            bad("task " + std::to_string(t) +
                " QoS fractions inconsistent (below " +
                fmt_exact(s.task_below[t]) + ", outside " +
                fmt_exact(s.task_outside[t]) + ")");
        }
    }
    if (s.safe_mode_seconds > dur_s + 1e-9)
        bad("safe-mode time " + fmt_exact(s.safe_mode_seconds) +
            " exceeds the run length");
}

void
check_fault_counters(const Scenario& sc, const std::string& policy,
                     const RunOutput& run,
                     std::vector<Violation>& out)
{
    const sim::RunSummary& s = run.summary;
    auto bad = [&](const std::string& detail) {
        out.push_back({"fault-counters", policy, detail});
    };
    if (!sc.has_faults) {
        // Clean platform: any fault activity is machinery firing
        // without an injected cause.
        if (s.faults_injected != 0 || s.sensor_fallbacks != 0 ||
            s.fault_retries != 0 || s.safe_mode_entries != 0 ||
            s.watchdog_trips != 0 || s.safe_mode_seconds != 0.0 ||
            s.over_tdp_during_fault != 0.0) {
            bad("clean run reports fault activity (injected=" +
                std::to_string(s.faults_injected) + " fallbacks=" +
                std::to_string(s.sensor_fallbacks) + " retries=" +
                std::to_string(s.fault_retries) + " safe_entries=" +
                std::to_string(s.safe_mode_entries) + " watchdog=" +
                std::to_string(s.watchdog_trips) + ")");
        }
        return;
    }
    // Counter signs are covered by check_summary_sanity's field walk.
    if (static_cast<std::size_t>(s.faults_injected) > run.plan_events)
        bad("activated " + std::to_string(s.faults_injected) +
            " fault windows but the plan only schedules " +
            std::to_string(run.plan_events));
}

void
check_tdp_duty(const Scenario& sc, const std::string& policy,
               const RunOutput& run, Watts chip_peak,
               std::vector<Violation>& out)
{
    // Only a loose bound is a true invariant: a TDP below the chip's
    // min-level floor is legitimately violated 100% of the time, and
    // aggressive caps ride the threshold band by design.  But with
    // the cap at or above the chip's peak sustained power, no
    // governor decision can push the chip meaningfully over it for
    // long -- a high post-warmup duty there is a governor bug.
    if (sc.has_faults || sc.tdp <= 0.0 || sc.tdp < 0.95 * chip_peak)
        return;
    if (run.summary.over_tdp_post_warmup > 0.5) {
        out.push_back(
            {"tdp-duty", policy,
             "TDP " + fmt_exact(sc.tdp) + " >= chip peak " +
                 fmt_exact(chip_peak) + " but over-TDP duty is " +
                 fmt_exact(run.summary.over_tdp_post_warmup)});
    }
}

/**
 * The first observable difference between two runs of one scenario:
 * the first differing summary field, else the telemetry stream, else
 * the traced series.  Empty when the runs match byte for byte.
 */
std::string
run_difference(const RunOutput& a, const RunOutput& b)
{
    const std::string d = sim::summary_difference(a.summary, b.summary);
    if (!d.empty())
        return d;
    if (a.jsonl != b.jsonl)
        return "telemetry streams differ (" +
               std::to_string(a.jsonl.size()) + " vs " +
               std::to_string(b.jsonl.size()) + " bytes)";
    if (a.trace_csv != b.trace_csv)
        return "traced time series differ";
    return {};
}

/** run_difference() of two fleet runs: combined summary, then streams. */
std::string
fleet_difference(const FleetOutput& a, const FleetOutput& b)
{
    const std::string d = sim::summary_difference(a.result.combined,
                                                  b.result.combined);
    if (!d.empty())
        return d;
    if (a.fleet_jsonl != b.fleet_jsonl || a.chip0_jsonl != b.chip0_jsonl)
        return "fleet telemetry streams differ";
    return {};
}

} // namespace

std::vector<Violation>
check_scenario(const Scenario& sc)
{
    std::vector<Violation> violations;
    // Records `diff` (when non-empty) under `invariant`, prefixed with
    // the two executions it compares.
    auto differ = [&violations](const char* invariant,
                                const std::string& policy,
                                const char* what, const std::string& diff) {
        if (!diff.empty())
            violations.push_back({invariant, policy, what + diff});
    };
    Watts chip_peak = 0.0;
    {
        const hw::Chip chip = make_chip(sc);
        for (ClusterId v = 0; v < chip.num_clusters(); ++v)
            chip_peak += hw::PowerModel::cluster_max_power(chip, v);
    }

    for (const char* policy : {"PPM", "HPM", "HL"}) {
        const RunOutput macro =
            run_once(sc, policy, true, sc.incremental);
        const RunOutput tick =
            run_once(sc, policy, false, sc.incremental);
        differ("macro-vs-tick", policy, "macro-step vs per-tick: ",
               run_difference(macro, tick));

        if (!macro.audit_error.empty()) {
            violations.push_back(
                {"market-budget", policy, macro.audit_error});
        }

        check_summary_sanity(sc, policy, macro, violations);
        check_fault_counters(sc, policy, macro, violations);
        check_tdp_duty(sc, policy, macro, chip_peak, violations);
    }

    // Incremental differential: the active-set engine must replay the
    // full recompute bit for bit on EVERY scenario -- summary (which
    // embeds the market skip counters: the dirty bookkeeping is
    // mode-invariant, so even the skip counts must match), the full
    // telemetry stream, and the traced time series.  A divergence
    // here is a dirty-set bug: some entry skipped a recompute whose
    // inputs had actually changed.
    differ("incremental", "PPM", "incremental vs full clearing: ",
           run_difference(run_once(sc, "PPM", true, true),
                          run_once(sc, "PPM", true, false)));

    // Fleet-single differential: a 1-chip fleet wrapping the exact
    // PPM configuration must reproduce the plain run bit for bit --
    // summary AND the shard's full telemetry stream (run_until
    // slicing at the epoch barriers provably changes nothing, and a
    // 1-chip settlement never moves the budget).
    {
        const RunOutput plain =
            run_once(sc, "PPM", true, sc.incremental);
        const FleetOutput single = run_fleet(sc, 1, 1, sc.incremental);
        std::string diff =
            sim::summary_difference(single.result.combined, plain.summary);
        if (diff.empty() && single.chip0_jsonl != plain.jsonl)
            diff = "telemetry streams differ (" +
                   std::to_string(single.chip0_jsonl.size()) + " vs " +
                   std::to_string(plain.jsonl.size()) + " bytes)";
        differ("fleet-single", "PPM", "1-chip fleet vs plain run: ",
               diff);
    }

    // Federated invariants: jobs-count byte-determinism, repeat-run
    // byte-determinism, and fleet budget conservation at every
    // supervisor barrier.
    if (sc.fleet_chips > 1) {
        const FleetOutput serial =
            run_fleet(sc, sc.fleet_chips, 1, sc.incremental);
        differ("fleet-jobs", "PPM", "fleet jobs=1 vs jobs=3: ",
               fleet_difference(
                   serial, run_fleet(sc, sc.fleet_chips, 3,
                                     sc.incremental)));
        differ("fleet-determinism", "PPM",
               "two identical fleet runs: ",
               fleet_difference(
                   serial, run_fleet(sc, sc.fleet_chips, 1,
                                     sc.incremental)));
        if (!serial.budget_error.empty()) {
            violations.push_back(
                {"fleet-budget", "PPM", serial.budget_error});
        }
        // Fleet incremental differential: epoch-barrier warm starts
        // (budget retargets via set_power_budget between settlements)
        // must also replay bit for bit against full clearing.
        differ("fleet-incremental", "PPM",
               "fleet incremental vs full clearing: ",
               fleet_difference(
                   serial, run_fleet(sc, sc.fleet_chips, 1,
                                     !sc.incremental)));
    }

    // Chip-level fault invariants: evacuation conservation (no task
    // is silently dropped by a chip failure), counter sanity, and
    // jobs-count byte-determinism of the faulted fleet.
    if (sc.fleet_chips > 1 && sc.has_fleet_faults) {
        const FleetOutput faulted =
            run_fleet(sc, sc.fleet_chips, 1, sc.incremental, true);
        const fleet::FleetResult& fr = faulted.result;
        if (fr.evacuations != fr.evac_landed + fr.evac_pending_end) {
            violations.push_back(
                {"fleet-conservation", "PPM",
                 "evacuations " + std::to_string(fr.evacuations) +
                     " != landed " + std::to_string(fr.evac_landed) +
                     " + pending " +
                     std::to_string(fr.evac_pending_end)});
        }
        if (fr.chip_failures < 0 || fr.evacuations < 0 ||
            fr.evac_landed < 0 || fr.evac_pending_end < 0 ||
            fr.rejections < 0 || fr.fleet_watchdog_trips < 0) {
            violations.push_back(
                {"fleet-conservation", "PPM",
                 "a fleet fault counter went negative"});
        }
        if (!sc.faults.chip_fail && fr.chip_failures != 0) {
            violations.push_back(
                {"fleet-conservation", "PPM",
                 "chip-fail disabled but " +
                     std::to_string(fr.chip_failures) +
                     " failures were applied"});
        }
        differ("fleet-fault-jobs", "PPM",
               "faulted fleet jobs=1 vs jobs=3: ",
               fleet_difference(faulted,
                                run_fleet(sc, sc.fleet_chips, 3,
                                          sc.incremental, true)));
    }

    // Snapshot differential: a kill at snapshot_at followed by a
    // restore into a fresh process image must replay the exact
    // trajectory -- summaries, telemetry streams (concatenated
    // across the kill) and traced series byte for byte.
    if (sc.snapshot_at > 0) {
        differ("snapshot-restore", "PPM",
               "uninterrupted vs kill-and-resume run: ",
               run_difference(
                   run_once(sc, "PPM", true, sc.incremental),
                   run_once(sc, "PPM", true, sc.incremental,
                            sc.snapshot_at)));
        if (sc.fleet_chips > 1) {
            differ("fleet-snapshot-restore", "PPM",
                   "uninterrupted vs kill-and-resume fleet: ",
                   fleet_difference(
                       run_fleet(sc, sc.fleet_chips, 1, sc.incremental,
                                 sc.has_fleet_faults),
                       run_fleet(sc, sc.fleet_chips, 1,
                                 sc.incremental, sc.has_fleet_faults,
                                 sc.snapshot_at)));
        }
    }
    return violations;
}

} // namespace ppm::fuzz
