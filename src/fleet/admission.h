#ifndef YUKTA_FLEET_ADMISSION_H_
#define YUKTA_FLEET_ADMISSION_H_

/**
 * @file
 * Fleet-level admission control: the resource-control layer between
 * the open-loop arrival stream and the boards. Each board advertises
 * a queue capacity in giga-instructions of outstanding demand; a
 * request that would overflow its origin is re-routed around the
 * board ring for a bounded number of hops and rejected when every
 * candidate is full.
 *
 * Admission runs in the coordinator's serial phase against a
 * *projected* queue depth (current backlog plus everything admitted
 * earlier this epoch), so the capacity bound holds at admission time
 * by construction -- the invariant the fleet property test checks.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "fleet/arrivals.h"
#include "obs/stateio.h"

namespace yukta::fleet {

/** Admission-layer knobs. */
struct AdmissionConfig
{
    bool enabled = true;

    /**
     * Max outstanding demand a board may hold (giga-instructions).
     * At a ~4 BIPS service rate, 8 GI is ~2 s of backlog -- matched
     * to the default 2 s SLO, so a capacity-respecting queue rarely
     * ages past the SLO.
     */
    double queue_capacity_gi = 8.0;

    /** Ring re-route attempts before rejecting (0 = origin only). */
    int max_hops = 3;
};

/** Tally of admission outcomes (counts and demand mass). */
struct AdmissionStats
{
    long long offered = 0;
    long long accepted = 0;
    long long rejected = 0;
    long long rerouted = 0;  ///< Accepted at a non-origin board.
    double offered_gi = 0.0;
    double accepted_gi = 0.0;
    double rejected_gi = 0.0;

    /** @return canonical JSON object for these counters. */
    std::string toJson() const;

    /** Writes or restores the counters (fleet checkpointing). */
    template <class Io>
    void state(Io& io);
};

/**
 * Routes requests subject to per-board queue capacity. Serial-phase
 * only: route() mutates the shared projected-depth vector.
 */
class AdmissionController
{
  public:
    /** Validates @p cfg (capacity, hops) for a @p boards-wide fleet. */
    AdmissionController(AdmissionConfig cfg, int boards);

    /**
     * Routes @p r given projected per-board queue depths
     * @p queued_gi (updated in place on acceptance).
     *
     * @p capacity_scale, when non-null, scales each board's
     * advertised capacity: 1 = healthy, a fraction = degraded, 0 =
     * dark (a crashed or lost board accepts nothing and the ring
     * routes around it). Null means every board is healthy.
     *
     * @return the destination board, or -1 when rejected. Disabled
     * admission always accepts at the origin (the unbounded-queue,
     * fault-blind baseline) even when the origin is dark.
     */
    int route(const Request& r, std::vector<double>& queued_gi,
              const std::vector<double>* capacity_scale = nullptr);

    /** @return outcome tallies accumulated across route() calls. */
    const AdmissionStats& stats() const { return stats_; }

    /** Writes or restores the routing counters (fleet checkpointing). */
    template <class Io>
    void state(Io& io)
    {
        stats_.state(io);
    }

    /** @return the validated configuration. */
    const AdmissionConfig& config() const { return cfg_; }

  private:
    AdmissionConfig cfg_;
    int boards_;
    AdmissionStats stats_;
};

}  // namespace yukta::fleet

#endif  // YUKTA_FLEET_ADMISSION_H_
