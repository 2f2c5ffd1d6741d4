/**
 * @file
 * Snapshot field lists of the fleet: the supervisor market, the
 * fault-tolerance runtime (health, clamps, pending evacuations,
 * rosters), the fleet telemetry bus, and every shard.  The fleet
 * fault plan itself is not serialized -- the restoring process
 * recompiles it from the same spec/seed/epoch, which by construction
 * yields the identical schedule; only the event cursor travels.
 */

#include "fleet/fleet.hh"
#include "snapshot/archive.hh"

namespace ppm::fleet {

template <class A, class Self>
void
SupervisorMarket::fields(A& a, Self& self)
{
    a(self.budgets_, self.prices_, self.lambda_, self.epochs_);
}

template void SupervisorMarket::fields(snap::Writer&, const SupervisorMarket&);
template void SupervisorMarket::fields(snap::Reader&, SupervisorMarket&);

template <class A, class S>
void
Fleet::PendingEvac::fields(A& a, S& p)
{
    a(p.seq, p.spec, p.big_speedup, p.departure, p.retries_left,
      p.next_try, p.backoff);
}

template <class A, class S>
void
Fleet::RosterEntry::fields(A& a, S& e)
{
    a(e.spec, e.big_speedup);
}

template <class A, class Self>
void
Fleet::fields(A& a, Self& self)
{
    a(self.supervisor_, self.budgets_, self.placements_, self.now_,
      self.next_barrier_, self.admitted_, self.done_);

    // Fault-tolerance runtime.
    a(self.next_fleet_event_, self.health_, self.clamp_,
      self.deficit_streak_);
    a.same_size(self.roster_, "snapshot mismatch: fleet chip count differs");
    a(self.pending_evac_, self.evac_seq_, self.chip_failures_,
      self.chip_recoveries_, self.evacuations_, self.evac_landed_,
      self.rejections_, self.fleet_watchdog_trips_, self.all_failed_seen_);

    a(self.bus_);
    a.same_size(self.shards_, "snapshot mismatch: shard count differs");
}

template void Fleet::fields(snap::Writer&, const Fleet&);
template void Fleet::fields(snap::Reader&, Fleet&);

} // namespace ppm::fleet
