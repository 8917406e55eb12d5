#ifndef YUKTA_FLEET_CLUSTER_H_
#define YUKTA_FLEET_CLUSTER_H_

/**
 * @file
 * Cluster controller: the third control layer the fleet adds above
 * each board's HW and OS controllers. Every few epochs it aggregates
 * per-board telemetry (backlog, offered load, measured BIPS and
 * power) and redistributes a fleet-wide power budget as per-board
 * output targets [BIPS, P_big, P_little, T], which the fleet pins
 * into each board's hardware controller via holdTargets. Loaded
 * boards get a larger share of the budget (and an ambitious BIPS
 * target); idle boards are throttled toward their floor, which is
 * where the fleet-level E x D win comes from.
 *
 * The controller is pure: telemetry in, target vectors out. The
 * fleet applies them, so this layer never touches board state and
 * stays trivially deterministic.
 */

#include <vector>

#include "linalg/vector.h"
#include "obs/stateio.h"
#include "platform/config.h"

namespace yukta::fleet {

/** Cluster-layer knobs. */
struct ClusterConfig
{
    bool enabled = true;

    /** Epochs between redistributions (>= 1). */
    int period_epochs = 8;

    /**
     * Fleet-wide big+little power budget in watts; <= 0 derives
     * 70% of the summed per-board caps (the per-board default
     * operating point).
     */
    double power_budget_w = 0.0;

    /** Smallest share of a board's power cap any board can get. */
    double floor_fraction = 0.25;
};

/** Per-board inputs to one redistribution. */
struct BoardTelemetry
{
    double queued_gi = 0.0;       ///< Outstanding demand backlog.
    double arrival_gi_ema = 0.0;  ///< Smoothed offered GI per epoch.
    double bips_ema = 0.0;        ///< Smoothed measured BIPS.
    double power_ema = 0.0;       ///< Smoothed board power (W).
};

/** Demand-proportional power/performance redistribution. */
class ClusterController
{
  public:
    /** Validates @p cfg and captures the per-board power envelope. */
    ClusterController(ClusterConfig cfg, platform::BoardConfig board_cfg,
                      int boards);

    /** @return true when epoch @p epoch is a redistribution epoch. */
    bool due(int epoch) const;

    /**
     * @return one [BIPS, P_big, P_little, T] target vector per board,
     * demand-share weighted within the fleet budget and clamped to
     * the per-board optimizer range.
     */
    std::vector<linalg::Vector>
    computeTargets(const std::vector<BoardTelemetry>& telemetry) const;

    /** Redistributions performed (due() epochs seen by the fleet). */
    int rounds() const { return rounds_; }

    /** Bumps the round counter (fleet calls this when it applies). */
    void noteRound() { ++rounds_; }

    /** Writes or restores the round counter (fleet checkpointing). */
    template <class Io>
    void state(Io& io)
    {
        io.i64("cluster.rounds", rounds_);
    }

    /** @return the validated configuration. */
    const ClusterConfig& config() const { return cfg_; }

  private:
    ClusterConfig cfg_;
    platform::BoardConfig board_cfg_;
    int boards_;
    int rounds_ = 0;
};

}  // namespace yukta::fleet

#endif  // YUKTA_FLEET_CLUSTER_H_
