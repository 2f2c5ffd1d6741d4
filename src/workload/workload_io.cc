/**
 * @file
 * Snapshot field lists of tasks, their specs and their heart-rate
 * monitors.
 */

#include "snapshot/archive.hh"
#include "workload/hrm.hh"
#include "workload/task.hh"

namespace ppm::workload {

template <class A, class Self>
void
HeartRateMonitor::fields(A& a, Self& self)
{
    a(self.beats_, self.supply_);
}

template void HeartRateMonitor::fields(snap::Writer&, const HeartRateMonitor&);
template void HeartRateMonitor::fields(snap::Reader&, HeartRateMonitor&);

template <class A, class S>
void
Phase::fields(A& a, S& p)
{
    a(p.duration, p.work_per_hb_little, p.work_per_hb_big);
}

template <class A, class S>
void
TaskSpec::fields(A& a, S& spec)
{
    a(spec.name, spec.priority, spec.min_hr, spec.max_hr, spec.phases,
      spec.self_pace_hr);
}

template void TaskSpec::fields(snap::Writer&, const TaskSpec&);
template void TaskSpec::fields(snap::Reader&, TaskSpec&);

template <class A, class Self>
void
Task::fields(A& a, Self& self)
{
    a(self.hrm_, self.phase_idx_, self.time_in_phase_, self.total_hb_,
      self.total_cycles_);
}

template void Task::fields(snap::Writer&, const Task&);
template void Task::fields(snap::Reader&, Task&);

} // namespace ppm::workload
