#ifndef YUKTA_CONTROLLERS_OPTIMIZER_H_
#define YUKTA_CONTROLLERS_OPTIMIZER_H_

/**
 * @file
 * The E x D target optimizer of Sec. IV-D. Each controller is paired
 * with an optimizer that walks the *output targets* so the tracked
 * operating point drifts toward minimum Energy x Delay:
 *
 *   "the optimizer keeps increasing Perf_0 a lot while increasing
 *    Power_0 a little. When the result is that E x D has increased,
 *    the optimizer discards the latest move, and moves in the
 *    opposite direction: it decreases Perf_0 a little while
 *    decreasing Power_0 a lot."
 *
 * E x D is proportional to Power / Perf^2, so the harness feeds that
 * instantaneous metric in every evaluation interval.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/vector.h"
#include "obs/stateio.h"

namespace yukta::obs {
class TraceSink;
}  // namespace yukta::obs

namespace yukta::controllers {

/** Role of each target in the optimizer's walk. */
enum class TargetRole
{
    kMaximize,  ///< Perf-like: pushed up a lot / down a little.
    kBudget,    ///< Power-like: pushed up a little / down a lot.
    kFixed,     ///< Held at its initial value (e.g. dSC = 1).
    kCeiling,   ///< Limit-like (temperature): the target follows the
                ///< measurement until the cap, so the channel only
                ///< exerts force when the limit is threatened.
};

/** Configuration of one optimizer instance. */
struct OptimizerConfig
{
    std::vector<double> initial;    ///< Initial targets.
    std::vector<double> min;        ///< Per-target floor.
    std::vector<double> max;        ///< Per-target ceiling (for powers,
                                    ///< keep below the board limit).
    std::vector<TargetRole> role;   ///< Role per target.
    std::vector<double> step;      ///< Base step per target.

    /** Control periods between optimizer moves (settle time). */
    int periods_per_move = 8;

    /** EMA factor for the measured-output anchor (per period). */
    double anchor_alpha = 0.3;

    /**
     * Coordinate mode: perturb one walkable channel per move
     * (round-robin) and keep a direction per channel. Needed when the
     * channels trade off against each other (e.g. moving threads
     * between clusters raises one cluster's BIPS and lowers the
     * other's). Joint mode (false) moves all channels together.
     */
    bool coordinate = false;
};

/** Hill-climbing target optimizer (Fig. 5). */
class ExdOptimizer
{
  public:
    /** Builds the optimizer; targets start at the config anchors. */
    explicit ExdOptimizer(OptimizerConfig cfg);

    /**
     * Called once per control period with the current E x D metric
     * (Power / Perf^2) and the measured outputs. Internally
     * rate-limited to one move per periods_per_move; the metric is
     * smoothed (EMA) against workload noise.
     *
     * Targets are proposed *relative to the measured outputs*, so a
     * move that turned out to hurt E x D is implicitly discarded on
     * the next move ("the optimizer discards the latest move",
     * Sec. IV-D) and the walk can never run away from the reachable
     * operating region.
     *
     * @return the current targets (updated when a move fired).
     */
    const linalg::Vector& update(double exd_metric,
                                 const linalg::Vector& measured);

    /** @return the current targets without updating. */
    const linalg::Vector& targets() const { return targets_; }

    /** Resets to the initial targets. */
    void reset();

    /**
     * Attaches @p sink for target-move tracing; every applied move
     * emits one "<layer>"/"opt_move" event (targets, smoothed metric,
     * direction, reversal flag). nullptr detaches.
     */
    void attachTrace(obs::TraceSink* sink, std::string layer);

    /** @return total optimizer moves taken. */
    int moves() const { return moves_; }

    /** @return direction reversals observed so far. */
    int reversals() const { return reversals_; }

    /**
     * @return the move index at which the optimizer first settled
     * (three consecutive reversals = oscillating around the optimum),
     * or -1 while still searching. Used by the Sec. VI-B comparison
     * (SSV: ~30 intervals; LQG: ~90).
     */
    int convergedAtMove() const { return converged_at_; }

    /**
     * Writes or restores the full walk state (obs/stateio.h; a
     * restore leaves the trace sink untouched).
     */
    template <class Io>
    void state(Io& io);

  private:
    OptimizerConfig cfg_;
    linalg::Vector targets_;
    linalg::Vector ema_measured_;  ///< Smoothed operating point.
    bool have_anchor_ = false;
    int direction_ = +1;   ///< +1 = push perf up, -1 = back off.
    std::vector<int> channel_dir_;   ///< Coordinate-mode directions.
    std::size_t next_channel_ = 0;   ///< Coordinate-mode cursor.
    int last_channel_ = -1;          ///< Channel moved last time.
    double last_metric_ = -1.0;
    double ema_metric_ = -1.0;
    int period_count_ = 0;
    int moves_ = 0;
    int reversals_ = 0;
    int recent_reversals_ = 0;
    int converged_at_ = -1;
    obs::TraceSink* trace_ = nullptr;
    std::string trace_layer_;

    void applyMove(const linalg::Vector& measured);
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_OPTIMIZER_H_
