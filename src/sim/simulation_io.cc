/**
 * @file
 * Snapshot field list of a whole Simulation.
 *
 * Restore protocol (load): the caller constructs a fresh Simulation
 * from the same CLI configuration, then load()
 *   1. runs the governor's init() (the snapshot was taken mid-run, so
 *      initialized_ will restore to true and step() would never run
 *      it),
 *   2. replays the recorded mid-run admissions through admit_task()
 *      -- every container (scheduler entries, QoS slots, market task
 *      ledger, telemetry key caches) reaches its final size through
 *      the exact code path the original run took, and
 *   3. overwrites all dynamic state from the archive.
 * After that, continuing the run is byte-identical to the
 * uninterrupted one.
 */

#include <vector>

#include "sim/simulation.hh"
#include "snapshot/archive.hh"

namespace ppm::sim {

template <class A, class S>
void
SimConfig::Lifetime::fields(A& a, S& life)
{
    a(life.arrival, life.departure);
}

template <class A, class S>
void
Simulation::AdmittedTask::fields(A& a, S& t)
{
    a(t.spec, t.life, t.big_speedup, t.core);
}

template <class A, class Self>
void
Simulation::fields(A& a, Self& self)
{
    // 1. Mid-run admission log, first: loading replays it (see the
    // file comment) before any sized state.  admit_task() re-records
    // each entry into admit_log_, rebuilding the log identically for
    // a later re-save.
    if constexpr (A::loading) {
        std::vector<AdmittedTask> log;
        a(log);
        if (!self.initialized_) {
            self.governor_->init(self);
            self.initialized_ = true;
        }
        for (const AdmittedTask& t : log)
            self.admit_task(t.spec, t.life, t.big_speedup, t.core);
    } else {
        a(self.admit_log_);
    }

    // 2. Dynamic state, leaf subsystems first.
    a(self.chip_);
    a.same_size(self.owned_tasks_,
                "snapshot mismatch: task count (same workload?)");
    a(self.scheduler_, self.sensors_, self.thermal_, self.qos_,
      self.recorder_, self.bus_);
    bool faulted = self.injector_ != nullptr;
    a(faulted);
    a.check(faulted == (self.injector_ != nullptr),
            "snapshot mismatch: fault plan presence differs "
            "(same --faults spec?)");
    if (faulted)
        a(self.injector_);
    a(self.governor_);

    // 3. Harness state.  Lifetimes may have been materialized mid-run
    // (an admission or an evacuation on a run that started with
    // implicit whole-run windows).
    const bool implicit_lifetimes = self.config_.lifetimes.empty();
    a(self.config_.lifetimes);
    a.check(self.config_.lifetimes.size() == self.owned_tasks_.size() ||
                (implicit_lifetimes && self.config_.lifetimes.empty()),
            "snapshot mismatch: lifetime window count");
    a(self.last_levels_, self.over_tdp_, self.over_tdp_post_,
      self.over_tdp_fault_, self.now_, self.next_trace_,
      self.vf_transitions_, self.last_migrations_, self.warmup_energy_,
      self.warmup_end_, self.warmup_snapshotted_);
}

template void Simulation::fields(snap::Writer&, const Simulation&);
template void Simulation::fields(snap::Reader&, Simulation&);

} // namespace ppm::sim
