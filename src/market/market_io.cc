/**
 * @file
 * Snapshot field lists of the market economy, including every
 * incremental-clearing memo (see the contract on Market::save).
 */

#include "common/logging.hh"
#include "market/market.hh"
#include "market/online_estimator.hh"
#include "market/ppm_governor.hh"
#include "snapshot/archive.hh"

namespace ppm::market {

template <class A, class S>
void
TaskState::fields(A& a, S& t)
{
    a(t.id, t.priority, t.core, t.active, t.demand, t.supply, t.bid,
      t.allowance, t.savings);
}

template <class A, class S>
void
CoreState::fields(A& a, S& c)
{
    a(c.price, c.base_price, c.has_base, c.demand, c.supply);
}

template <class A, class S>
void
Market::ClusterCtl::fields(A& a, S& cl)
{
    // Format version 1 stores an adaptive V-F step accumulator and
    // the last step direction per cluster.  Clusters now step one
    // level per round and keep neither; the stepper was off by
    // default, which left both at zero, so zeros keep the archive
    // bytes unchanged (and loading discards them).
    std::uint64_t retired_step = 0;
    std::int32_t retired_dir = 0;
    a(cl.freeze_bids, cl.pending_base_reset, cl.power, retired_step,
      retired_dir);
}

template <class A, class Self>
void
Market::fields(A& a, Self& self)
{
    // TDP retargets land in cfg_ (set_tdp); everything else in the
    // config is construction-time.
    a(self.cfg_.w_tdp, self.cfg_.w_th);
    a.same_size(self.tasks_, "snapshot mismatch: market task count "
                             "differs (admission replay incomplete?)");
    a.same_size(self.cores_, "snapshot mismatch: market core count differs");
    a.same_size(self.clusters_,
                "snapshot mismatch: market cluster count differs");
    a(self.allowance_, self.state_, self.rounds_);
    auto& rep = self.last_report_;
    a(rep.state, rep.allowance, rep.total_demand, rep.total_supply,
      rep.chip_power, rep.vf_changes, rep.deficit, rep.raw_deficit,
      rep.allowance_clamped, rep.excess_l2, rep.excess_l8,
      rep.tasks_recomputed, rep.tasks_skipped, rep.cores_recomputed,
      rep.cores_skipped, rep.early_exit);
    a(self.allowance_clamped_, self.prev_objective_);

    // SoA mirror: authoritative for untouched columns between rounds.
    auto& soa = self.soa_;
    a(soa.demand, soa.supply, soa.bid, soa.allowance, soa.savings,
      soa.priority, soa.core, soa.cluster, soa.active);

    // Group index.
    a(self.group_offset_, self.group_cursor_, self.group_task_,
      self.groups_dirty_, self.groups_epoch_, self.core_any_task_,
      self.core_all_floor_);

    // Incremental active-set bookkeeping.
    a(self.force_full_, self.round_tag_, self.task_ext_, self.ext_list_,
      self.task_carry_, self.any_carry_, self.alloc_stamp_,
      self.bid_stamp_, self.processed_stamp_, self.prev_bid_,
      self.prev_savings_, self.prev_supply_, self.core_demand_dirty_,
      self.core_fold_dirty_);
    a.check(self.core_fold_dirty_.size() == self.cores_.size(),
            "snapshot mismatch: core fold-dirty count differs");
    a(self.core_recompute_, self.core_bid_recompute_);
    // Cross-round per-core bid folds: cores outside the bid recompute
    // set reuse last round's fold, so the memo must survive a restore.
    a(self.scratch_bid_sum_, self.price_changed_last_,
      self.price_changed_now_, self.any_price_changed_last_,
      self.freeze_changed_, self.freeze_seen_, self.any_freeze_changed_,
      self.flag_any_alloc_, self.flag_any_bid_, self.flag_any_carry_);

    // Distribution / priority / circulating-bid memos.
    a(self.dist_valid_, self.dist_epoch_, self.dist_allowance_,
      self.dist_weight_sum_, self.dist_weight_, self.prio_epoch_,
      self.scratch_core_prio_, self.scratch_cluster_prio_, self.circ_sum_,
      self.circ_valid_);

    // Cluster-membership index, then the observable recompute set of
    // the last round.
    a(self.cluster_offset_, self.cluster_cursor_, self.cluster_task_,
      self.recomputed_tasks_);

    auto& cs = self.clearing_;
    a(cs.rounds, cs.task_slots, cs.tasks_skipped, cs.core_slots,
      cs.cores_skipped, cs.rounds_early_exit);
}

template void Market::fields(snap::Writer&, const Market&);
template void Market::fields(snap::Reader&, Market&);

template <class A, class S>
void
OnlineSpeedupEstimator::PerTask::fields(A& a, S& t)
{
    for (auto& c : t.cls)
        a(c.cost_ewma, c.samples);
}

template <class A, class Self>
void
OnlineSpeedupEstimator::fields(A& a, Self& self)
{
    a.same_size(self.tasks_,
                "snapshot mismatch: online estimator task count");
}

template void
OnlineSpeedupEstimator::fields(snap::Writer&, const OnlineSpeedupEstimator&);
template void OnlineSpeedupEstimator::fields(snap::Reader&,
                                             OnlineSpeedupEstimator&);

template <class A, class S>
void
PpmGovernor::Residency::fields(A& a, S& res)
{
    a(res.cls, res.since);
}

template <class A, class Self>
void
PpmGovernor::fields(A& a, Self& self)
{
    // set_power_budget() retargets both the governor's config copy
    // and the market; everything else in cfg_ is construction-time.
    a(self.cfg_.market.w_tdp, self.cfg_.market.w_th);

    PPM_ASSERT(self.market_ != nullptr, A::loading
                                            ? "PPM restore before init()"
                                            : "PPM snapshot before init()");
    a(self.market_);
    bool online = self.online_ != nullptr;
    a(online);
    a.check(online == (self.online_ != nullptr),
            "snapshot mismatch: online-speedup mode differs");
    if (online)
        a(self.online_);

    a.same_size(self.residency_, "snapshot mismatch: PPM residency count "
                                 "(admission replay incomplete?)");
    a(self.prev_freeze_, self.bid_period_, self.next_bid_, self.bid_count_,
      self.guard_, self.last_good_supplies_, self.watchdog_trips_);
}

template void PpmGovernor::fields(snap::Writer&, const PpmGovernor&);
template void PpmGovernor::fields(snap::Reader&, PpmGovernor&);

} // namespace ppm::market
