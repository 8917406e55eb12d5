#ifndef YUKTA_SYSID_DRIFT_H_
#define YUKTA_SYSID_DRIFT_H_

/**
 * @file
 * Prediction-error CUSUM drift detector.
 *
 * The detector watches the one-step prediction error of the *shipped*
 * model against live telemetry. Each output channel accumulates
 *
 *   g_i <- max(0, g_i + |e_i| / sigma_i - slack)
 *
 * where sigma_i is the channel's residual scale on the training data
 * and slack is a dead zone in sigma units; drift is declared when any
 * g_i crosses the threshold. With slack set a few sigma above the
 * nominal residual level the statistic stays pinned at zero on the
 * plant the model was identified on (the ARL property the no-drift
 * bit-identity gate depends on), while a plant-parameter shift pushes
 * |e|/sigma persistently above the dead zone and ramps g linearly.
 *
 * Everything is counter-keyed and deterministic: the statistic after
 * N samples is a pure function of those N errors.
 */

#include <cstddef>
#include <vector>

#include "linalg/vector.h"
#include "obs/stateio.h"
#include "sysid/arx.h"

namespace yukta::sysid {

/** Tuning for CusumDriftDetector. */
struct CusumOptions
{
    /** Per-sample dead zone, in residual-sigma units. */
    double slack_sigma = 6.0;

    /** Accumulated excess (sigma units) that declares drift. */
    double threshold = 60.0;
};

/** Deterministic per-channel CUSUM over normalized prediction errors. */
class CusumDriftDetector
{
  public:
    /**
     * @param sigma per-output residual scale (e.g. residualSigma() of
     *   the shipped model on its training data); floored at 1e-12.
     */
    explicit CusumDriftDetector(std::vector<double> sigma,
                                const CusumOptions& options = {});

    /**
     * Accumulates one prediction-error sample (physical units).
     * @return true exactly when this sample crosses the threshold
     *   (fired() stays latched afterwards).
     */
    bool update(const linalg::Vector& error);

    /** @return true once drift has been declared. */
    bool fired() const { return fired_; }

    /** @return the largest per-channel statistic. */
    double maxStat() const;

    /** @return number of samples accumulated. */
    std::size_t samples() const { return samples_; }

    /** Clears the statistics and the fired latch (post-swap re-arm). */
    void rearm();

    /** Writes or restores the detector state (obs/stateio.h). */
    template <class Io>
    void state(Io& io);

  private:
    std::vector<double> sigma_;
    CusumOptions opt_;
    std::vector<double> g_;
    bool fired_ = false;
    std::size_t samples_ = 0;
};

/**
 * Per-output standard deviation of @p model's one-step prediction
 * error over @p data -- the sigma feeding CusumDriftDetector.
 */
std::vector<double> residualSigma(const ArxModel& model, const IoData& data);

}  // namespace yukta::sysid

#endif  // YUKTA_SYSID_DRIFT_H_
