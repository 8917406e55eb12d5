#ifndef YUKTA_SYSID_RLS_H_
#define YUKTA_SYSID_RLS_H_

/**
 * @file
 * Recursive least-squares (RLS) estimation of the MIMO ARX model used
 * by identifyArx, for online adaptation.
 *
 * The estimator shares ArxModel's structure and mean-centering
 * semantics exactly: the regressor is [lagged y, lagged u, intercept]
 * in identifyArx's column order, signals are centered on *fixed*
 * operating-point means and scaled by *fixed* per-channel standard
 * deviations taken from the shipped model's training data. Freezing
 * the centering keeps the update counter-keyed and deterministic: the
 * estimate after N samples depends only on those N samples, never on
 * running statistics that would couple it to restore boundaries.
 *
 * Exponential forgetting tracks slow plant drift; a covariance windup
 * guard (forgetting suspended in unexcited directions plus a trace
 * cap) keeps P bounded when the closed loop goes quiescent -- the
 * classic RLS failure mode where P grows geometrically under zero
 * excitation and the next sample causes a coefficient burst.
 */

#include <cstddef>
#include <deque>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "obs/stateio.h"
#include "sysid/arx.h"

namespace yukta::sysid {

/** Tuning for RlsEstimator. */
struct RlsOptions
{
    /** Exponential forgetting factor (1 = ordinary least squares). */
    double forgetting = 0.995;

    /** Initial covariance diagonal, in normalized regressor units. */
    double p0 = 100.0;

    /**
     * Windup guard: trace(P) is rescaled back to this cap whenever an
     * update pushes it above. Bounds P under arbitrary excitation.
     */
    double trace_cap = 1e7;

    /**
     * Windup guard: when the excitation phi' P phi of an update falls
     * below this, forgetting is suspended for that step (lambda_eff =
     * 1). This is the directional/regularized update: P only divides
     * by lambda in directions the data actually excites, so a
     * quiescent closed loop cannot inflate the covariance.
     */
    double min_excitation = 1e-6;
};

/**
 * Online MIMO ARX estimator. Warm-started from a shipped ArxModel so
 * the estimate begins at the offline fit and drifts only as evidence
 * accumulates.
 */
class RlsEstimator
{
  public:
    /**
     * @param seed shipped model providing structure (orders, lag0,
     *   ts), operating-point means, and the initial coefficient
     *   estimate.
     * @param u_scale, y_scale fixed per-channel normalization scales
     *   (typically the training-data standard deviations).
     */
    RlsEstimator(const ArxModel& seed, linalg::Vector u_scale,
                 linalg::Vector y_scale, const RlsOptions& options = {});

    /**
     * Feeds one sample (physical units). Until primed() the sample
     * only extends the lag history; afterwards each call performs one
     * RLS update.
     */
    void update(const linalg::Vector& u, const linalg::Vector& y);

    /** @return true once the lag history covers the model orders. */
    bool primed() const;

    /** @return number of RLS updates performed (post-priming). */
    std::size_t updates() const { return updates_; }

    /** Materializes the current estimate as an ArxModel. */
    ArxModel model() const;

    /** @return trace of the (normalized) covariance P. */
    double covarianceTrace() const { return p_.trace(); }

    /**
     * One-step prediction of the *next* sample's y by @p m (which must
     * share the seed's structure) from the internal lag history and
     * the next input @p u_now. Only valid when primed().
     */
    linalg::Vector predictWith(const ArxModel& m,
                               const linalg::Vector& u_now) const;

    /** Writes or restores the full estimator state (obs/stateio.h). */
    template <class Io>
    void state(Io& io);

  private:
    std::size_t na_ = 0;
    std::size_t nb_ = 0;
    std::size_t ny_ = 0;
    std::size_t nu_ = 0;
    std::size_t lag0_ = 1;
    double ts_ = 0.0;
    linalg::Vector u_mean_;
    linalg::Vector y_mean_;
    linalg::Vector u_scale_;
    linalg::Vector y_scale_;
    RlsOptions opt_;
    linalg::Matrix theta_;  ///< (ncoef + 1) x ny normalized coefficients.
    linalg::Matrix p_;      ///< (ncoef + 1) square covariance.
    std::deque<linalg::Vector> y_hist_;  ///< Front = y(t-1).
    std::deque<linalg::Vector> u_hist_;  ///< Front = u(t-1).
    std::size_t updates_ = 0;

    std::size_t numCols() const { return na_ * ny_ + nb_ * nu_ + 1; }
    linalg::Vector regressor(const linalg::Vector& u_now) const;
};

}  // namespace yukta::sysid

#endif  // YUKTA_SYSID_RLS_H_
