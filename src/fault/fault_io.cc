/**
 * @file
 * Snapshot field lists of the fault injector's runtime cursors and
 * the sensor guard.  The compiled plans are not serialized: the
 * restoring process recompiles them from the same spec/seed, which by
 * construction yields the identical schedule.
 */

#include "fault/fault.hh"
#include "snapshot/archive.hh"

namespace ppm::fault {

template <class A, class S>
void
FaultInjector::PendingLevel::fields(A& a, S& p)
{
    a(p.level, p.due, p.retries_left, p.backoff, p.from_fail, p.active);
}

template <class A, class S>
void
FaultInjector::PendingMigration::fields(A& a, S& p)
{
    a(p.task, p.core, p.due, p.retries_left, p.backoff);
}

template <class A, class Self>
void
FaultInjector::fields(A& a, Self& self)
{
    auto& s = self.stats_;
    a(s.injected, s.sensor_fallbacks, s.dvfs_deferred, s.dvfs_retries,
      s.migration_retries, s.dropped_actions, s.offline_events,
      s.safe_mode_entries, s.watchdog_trips, s.safe_mode_time);
    a(self.now_, self.next_start_);
    a.same_size(self.pending_level_,
                "snapshot mismatch: fault injector cluster count");
    a(self.pending_mig_, self.offline_until_);
}

template void FaultInjector::fields(snap::Writer&, const FaultInjector&);
template void FaultInjector::fields(snap::Reader&, FaultInjector&);

template <class A, class Self>
void
SensorGuard::fields(A& a, Self& self)
{
    a(self.last_good_, self.bound_, self.worst_age_, self.last_eval_,
      self.safe_);
}

template void SensorGuard::fields(snap::Writer&, const SensorGuard&);
template void SensorGuard::fields(snap::Reader&, SensorGuard&);

} // namespace ppm::fault
