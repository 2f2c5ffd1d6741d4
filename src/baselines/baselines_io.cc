/**
 * @file
 * Snapshot field lists of the HPM and HL baseline governors.  Both
 * are restored into a fresh governor that already ran init() and
 * replayed mid-run admissions (see sim::Governor::save), so the
 * topology-derived members (cluster ids, key caches) are rebuilt and
 * only the control state travels through the archive.
 */

#include "baselines/hl_governor.hh"
#include "baselines/hpm_governor.hh"
#include "snapshot/archive.hh"

namespace ppm::baselines {

template <class A, class Self>
void
Pid::fields(A& a, Self& self)
{
    a(self.integral_, self.prev_error_, self.has_prev_);
}

template void Pid::fields(snap::Writer&, const Pid&);
template void Pid::fields(snap::Reader&, Pid&);

template <class A, class Self>
void
HpmGovernor::fields(A& a, Self& self)
{
    a(self.cfg_.tdp);  // set_power_budget() retargets it mid-run.
    a.same_size(self.cluster_pid_, "snapshot mismatch: HPM cluster count");
    a(self.level_f_, self.level_cap_, self.unsat_count_, self.sat_count_,
      self.next_dvfs_, self.next_lbt_, self.next_tdp_, self.guard_);
}

template void HpmGovernor::fields(snap::Writer&, const HpmGovernor&);
template void HpmGovernor::fields(snap::Reader&, HpmGovernor&);

template <class A, class Self>
void
HlGovernor::fields(A& a, Self& self)
{
    // cfg_.tdp: set_power_budget() retargets it mid-run.
    a(self.cfg_.tdp, self.next_sched_, self.next_dvfs_, self.big_killed_,
      self.guard_);
}

template void HlGovernor::fields(snap::Writer&, const HlGovernor&);
template void HlGovernor::fields(snap::Reader&, HlGovernor&);

} // namespace ppm::baselines
