/**
 * @file
 * Snapshot field list of the scheduler's dynamic state.
 */

#include "sched/scheduler.hh"
#include "snapshot/archive.hh"

namespace ppm::sched {

template <class A, class S>
void
Scheduler::Entry::fields(A& a, S& e)
{
    a(e.core, e.nice, e.weight, e.active, e.blocked_until, e.load_ewma,
      e.share_ewma, e.supply_last);
}

template <class A, class Self>
void
Scheduler::fields(A& a, Self& self)
{
    a.same_size(self.entries_,
                "snapshot mismatch: scheduler entry count differs "
                "(admission replay incomplete?)");
    a(self.core_util_, self.migrations_);
    // Grants cached before the snapshot describe an era this process
    // never ran; force the next begin_replay() onto the
    // (bit-identical) miss path.
    if constexpr (A::loading) {
        self.replay_cache_valid_ = false;
        self.replay_steady_hold_ = false;
        self.replay_cache_hit_ = false;
    }
}

template void Scheduler::fields(snap::Writer&, const Scheduler&);
template void Scheduler::fields(snap::Reader&, Scheduler&);

} // namespace ppm::sched
