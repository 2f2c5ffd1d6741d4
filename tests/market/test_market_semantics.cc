/**
 * @file
 * Additional paper-semantics tests for the market: non-constrained
 * core deflation to the bid floor, bid freezing visibility, input
 * validation, the round-up of cluster demand, the starvation guard of
 * the hierarchical allowance distribution, the excess-demand norms,
 * and the control_supply() edge cases around bid floors, frozen bids
 * and mid-transition topology loss.
 */

#include <gtest/gtest.h>

#include "hw/platform.hh"
#include "market/market.hh"
#include "tests/market/market_test_util.hh"

namespace ppm::market {
namespace {

TEST(MarketSemantics, NonConstrainedCoreBidsFallToFloor)
{
    // Two cores in one cluster: the constrained core pins the level;
    // the over-supplied core's task agent has no reason to bid and
    // its price falls until the bid hits b_min (Section 3.2.4).
    hw::Chip chip = test::paper_chip(2, 1);
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);  // Constrained: needs most of the core.
    market.add_task(1, 1, 1);  // Over-supplied.
    market.set_demand(0, 550.0);
    market.set_demand(1, 50.0);
    for (int i = 0; i < 100; ++i)
        market.round();
    EXPECT_EQ(market.constrained_core(0), 0);
    EXPECT_NEAR(market.task(1).bid, market.config().min_bid, 1e-9);
    // ... while the over-supplied task still receives the full core.
    EXPECT_NEAR(market.task(1).supply, chip.core_supply(1), 1e-6);
}

TEST(MarketSemantics, FreezeIsVisibleExactlyOneRound)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 250.0);
    market.round();
    ASSERT_FALSE(market.bids_frozen(0));
    // Demand above 300 PU forces an up-step.
    market.set_demand(0, 380.0);
    int frozen_rounds = 0;
    for (int i = 0; i < 10; ++i) {
        market.round();
        if (market.bids_frozen(0))
            ++frozen_rounds;
    }
    EXPECT_EQ(chip.cluster(0).supply(), 400.0);
    EXPECT_EQ(frozen_rounds, 1);
}

TEST(MarketSemantics, ClusterLevelCoversConstrainedDemand)
{
    // Steady state honours the round-up rule: the level settles at
    // the smallest supply >= constrained demand.
    hw::Chip chip = test::paper_chip(2, 1);
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.add_task(1, 1, 1);
    market.set_demand(0, 420.0);
    market.set_demand(1, 100.0);
    for (int i = 0; i < 120; ++i)
        market.round();
    EXPECT_DOUBLE_EQ(chip.cluster(0).supply(), 500.0);
}

TEST(MarketSemantics, SupplyNeverExceedsCoreSupply)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 3, 0);
    market.add_task(1, 1, 0);
    for (int round = 0; round < 50; ++round) {
        market.set_demand(0, 100.0 + round * 10.0);
        market.set_demand(1, 600.0 - round * 10.0);
        market.round();
        EXPECT_LE(market.task(0).supply,
                  market.core(0).supply + 1e-9);
        EXPECT_LE(market.task(1).supply,
                  market.core(0).supply + 1e-9);
    }
}

TEST(MarketSemantics, StarvationGuardFeedsStuckSensorCluster)
{
    // Regression for the cluster-weight starvation gap: cluster 0's
    // sensor is stuck at a reading at/above the whole chip's power
    // while cluster 1 reads zero, so cluster 0's power-derived weight
    // collapses to max(0, W - W_0) = 0.  Without the guard its tasks
    // receive no allowance at all -- forever, since a cluster that
    // gets no money cannot lower its own reading.
    hw::Chip chip = test::paper_chip(1, 2);
    PpmConfig cfg = test::paper_config();
    cfg.w_tdp = 10.0;
    cfg.w_th = 9.0;
    Market market(&chip, cfg);
    market.add_task(0, 1, 0);  // Cluster 0 (faulty sensor).
    market.add_task(1, 1, 1);  // Cluster 1 (healthy).
    market.set_demand(0, 200.0);
    market.set_demand(1, 200.0);
    for (int r = 0; r < 5; ++r) {
        market.set_cluster_power(0, 5.0);
        market.set_cluster_power(1, 0.0);
        market.round();
        // The starved cluster gets its priority share of the existing
        // weight mass; the healthy cluster keeps a positive share.
        EXPECT_GT(market.task(0).allowance, 0.0) << "round " << r;
        EXPECT_GT(market.task(1).allowance, 0.0) << "round " << r;
        EXPECT_LE(market.task(0).allowance + market.task(1).allowance,
                  market.global_allowance() + 1e-9);
    }
    // Both task agents can trade: neither supply is pinned at zero.
    EXPECT_GT(market.task(0).supply, 0.0);
    EXPECT_GT(market.task(1).supply, 0.0);
}

TEST(MarketSemantics, ExcessNormsTrackImbalanceAndAgree)
{
    // With a single cluster the excess vector has one component, so
    // the L2 and L8 norms must agree exactly (both equal |excess|);
    // they are positive while the market is out of equilibrium.
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 550.0);
    bool saw_imbalance = false;
    for (int r = 0; r < 20; ++r) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        const RoundReport report = market.round();
        EXPECT_GE(report.excess_l2, 0.0);
        EXPECT_DOUBLE_EQ(report.excess_l2, report.excess_l8);
        if (report.excess_l2 > 0.0)
            saw_imbalance = true;
    }
    EXPECT_TRUE(saw_imbalance);
}

TEST(MarketSemantics, BidFloorDeflationWaitsForAllBids)
{
    // The bid-floor walk is the only deflation channel once the price
    // is pinned: with the bids at b_min and the base price tracked
    // down to the pinned price (via the demand-rounding-blocked
    // path), neither band trigger can fire.  Stage exactly that state
    // at level 1, then check the walk's two gates: it must hold while
    // the lower level does not cover the demand, hold while ANY bid
    // sits above the floor, and only then step down.
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    // Eight symmetric agents at 45 PU each: the joint 360 PU inflates
    // 300 -> 400 and then blocks band deflation (300 < 360), while
    // each agent's floor-bid share (400/8 = 50 PU) over-supplies it,
    // so every bid decays to exactly b_min and the price pins with
    // the base tracked down onto it.
    const int kTasks = 8;
    for (TaskId t = 0; t < kTasks; ++t) {
        market.add_task(t, 1, 0);
        market.set_demand(t, 45.0);
    }
    const Money floor = market.config().min_bid;
    for (int r = 0; r < 120; ++r) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        market.round();
    }
    ASSERT_EQ(chip.cluster(0).level(), 1);
    for (TaskId t = 0; t < kTasks; ++t)
        ASSERT_NEAR(market.task(t).bid, floor, 1e-9) << "task " << t;
    // Gate 1 (coverage): price pinned, but 300 PU < 360 PU of
    // demand, so the walk must hold the level indefinitely.
    for (int r = 0; r < 10; ++r) {
        market.set_cluster_power(0, 0.8);
        market.round();
        EXPECT_EQ(chip.cluster(0).level(), 1);
    }
    // Demand collapses so level 0 now covers it -- but one agent's
    // bid pops above the floor (still inside the price band, so the
    // band triggers stay quiet).
    for (TaskId t = 0; t < kTasks; ++t)
        market.set_demand(t, 30.0);
    market.task(0).bid = 0.02;
    bool stepped_down = false;
    for (int r = 0; r < 20 && !stepped_down; ++r) {
        const Money bid_before = market.task(0).bid;
        market.set_cluster_power(0, 0.8);
        market.round();
        if (chip.cluster(0).level() == 0) {
            stepped_down = true;
            // Gate 2 (all-floor): the down-step waited until every
            // bid had decayed back to b_min.
            for (TaskId t = 0; t < kTasks; ++t)
                EXPECT_NEAR(market.task(t).bid, floor, 1e-9);
        } else if (bid_before > floor + 1e-9) {
            // While the popped bid was above the floor when the round
            // began, the walk must have held the level.
            EXPECT_EQ(chip.cluster(0).level(), 1) << "round " << r;
        }
    }
    EXPECT_TRUE(stepped_down);
    EXPECT_EQ(chip.cluster(0).supply(), 300.0);
}

TEST(MarketSemantics, FrozenBidsStillClampInEmergency)
{
    // A V-F transition freezes the bids for one round; an emergency
    // in that same round (power reading far above W_tdp) collapses
    // the allowance, and the bound b <= a + m must cut the frozen bid
    // anyway -- emergency response is never deferred.  A twin market
    // with a healthy reading shows the freeze alone does not cut.
    auto make = [](hw::Chip* chip) {
        PpmConfig cfg = test::paper_config();
        // No banked savings: the clamp bound is the allowance alone,
        // so the emergency contraction is visible in one round.
        cfg.savings_cap_frac = 0.0;
        Market m(chip, cfg);
        m.add_task(0, 1, 0);
        m.set_demand(0, 250.0);
        return m;
    };
    hw::Chip chip_hot = test::paper_chip();
    hw::Chip chip_ref = test::paper_chip();
    Market hot = make(&chip_hot);
    Market ref = make(&chip_ref);
    // Converge, then force an up-step so the next round runs frozen.
    auto drive = [](Market& m, Pu demand, Watts power) {
        m.set_demand(0, demand);
        m.set_cluster_power(0, power);
        m.round();
    };
    for (int r = 0; r < 5; ++r) {
        drive(hot, 250.0, 0.8);
        drive(ref, 250.0, 0.8);
    }
    ASSERT_FALSE(hot.bids_frozen(0));
    int guard = 0;
    while (!hot.bids_frozen(0) && guard++ < 20) {
        drive(hot, 380.0, 0.8);
        drive(ref, 380.0, 0.8);
    }
    ASSERT_TRUE(hot.bids_frozen(0));
    ASSERT_TRUE(ref.bids_frozen(0));
    const Money bid_before = hot.task(0).bid;
    ASSERT_EQ(ref.task(0).bid, bid_before);
    // The frozen round: hot sees a runaway reading, ref stays benign.
    drive(hot, 380.0, 50.0);
    drive(ref, 380.0, 0.8);
    EXPECT_LT(hot.task(0).bid, bid_before);
    EXPECT_LE(hot.task(0).bid,
              hot.task(0).allowance + hot.task(0).savings + 1e-12);
    EXPECT_GE(ref.task(0).bid, bid_before);
}

TEST(MarketSemantics, PendingBaseResetSurvivesMidTransitionLoss)
{
    // A V-F change leaves pending_base_reset armed for the next
    // round.  If the cluster then goes dark mid-transition -- power
    // gated, or every task gone -- control_supply() must clear the
    // freeze machinery instead of anchoring a base price on garbage,
    // and the market must keep working once the cluster returns.
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    market.set_demand(0, 250.0);
    market.set_cluster_power(0, 0.8);
    market.round();
    market.set_demand(0, 380.0);
    int guard = 0;
    while (!market.bids_frozen(0) && guard++ < 20) {
        market.set_cluster_power(0, 0.8);
        market.round();
    }
    ASSERT_TRUE(market.bids_frozen(0));
    // Mid-transition power gating: the pending reset must not anchor.
    chip.cluster(0).set_powered(false);
    market.set_cluster_power(0, 0.0);
    market.round();
    EXPECT_FALSE(market.bids_frozen(0));
    EXPECT_TRUE(market.sane());
    // The cluster returns; the market converges again from scratch.
    chip.cluster(0).set_powered(true);
    for (int r = 0; r < 30; ++r) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        market.round();
    }
    EXPECT_TRUE(market.sane());
    EXPECT_GE(chip.cluster(0).supply(), 380.0);
    EXPECT_GT(market.task(0).supply, 0.0);

    // Same interleaving, but the transition dies because the last
    // task exits: the constrained core disappears instead.
    market.set_demand(0, 550.0);
    guard = 0;
    while (!market.bids_frozen(0) && guard++ < 20) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        market.round();
    }
    ASSERT_TRUE(market.bids_frozen(0));
    market.set_task_active(0, false);
    market.set_cluster_power(0, 0.8);
    market.round();
    EXPECT_FALSE(market.bids_frozen(0));
    EXPECT_TRUE(market.sane());
    market.set_task_active(0, true);
    market.set_demand(0, 250.0);
    for (int r = 0; r < 10; ++r) {
        market.set_cluster_power(0, test::paper_power(
            chip.cluster(0).supply()));
        market.round();
    }
    EXPECT_TRUE(market.sane());
    EXPECT_GT(market.task(0).supply, 0.0);
}

TEST(MarketSemanticsDeath, RejectsOutOfOrderTaskIds)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    EXPECT_DEATH(market.add_task(3, 1, 0), "dense");
}

TEST(MarketSemanticsDeath, RejectsBadPriority)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    EXPECT_DEATH(market.add_task(0, 0, 0), "priority");
}

TEST(MarketSemanticsDeath, RejectsNegativeDemand)
{
    hw::Chip chip = test::paper_chip();
    Market market(&chip, test::paper_config());
    market.add_task(0, 1, 0);
    EXPECT_DEATH(market.set_demand(0, -1.0), "non-negative");
}

TEST(MarketSemanticsDeath, RejectsInvertedTdpBand)
{
    hw::Chip chip = test::paper_chip();
    PpmConfig cfg = test::paper_config();
    cfg.w_th = cfg.w_tdp + 1.0;
    EXPECT_DEATH(Market(&chip, cfg), "W_th");
}

} // namespace
} // namespace ppm::market
