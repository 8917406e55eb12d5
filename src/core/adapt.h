#ifndef YUKTA_CORE_ADAPT_H_
#define YUKTA_CORE_ADAPT_H_

/**
 * @file
 * The online adaptation loop: RLS system identification running
 * alongside the shipped controller, prediction-error CUSUM drift
 * detection against the shipped model, drift-triggered D-K
 * re-synthesis, and bumpless hot-swap of the refreshed controller.
 *
 * One OnlineAdapter watches one board's hardware layer. Its life
 * cycle is a deterministic, counter-keyed state machine:
 *
 *   kMonitor        RLS + CUSUM track live telemetry
 *   kSettle         drift declared; RLS converges on the drifted
 *                   plant for settle_ticks more samples
 *   kSynthReady     model snapshot frozen; awaiting synthesis
 *                   (the fleet dispatches it on the runner pool)
 *   kSwapScheduled  controller synthesized; installs swap_delay_ticks
 *                   later (modeled background-synthesis latency)
 *   back to kMonitor against the refreshed reference model
 *   kDisabled       synthesis failed; adaptation stands down
 *
 * Synthesized controllers travel as cache text (17-significant-digit
 * decimal, an exact round trip), so a checkpoint restored on another
 * process re-materializes the bit-identical controller.
 */

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "controllers/ssv_runtime.h"
#include "core/schemes.h"
#include "core/spec.h"
#include "obs/stateio.h"
#include "obs/trace.h"
#include "robust/dk.h"
#include "sysid/arx.h"
#include "sysid/drift.h"
#include "sysid/rls.h"

namespace yukta::core {

/** Tuning for the online adaptation loop. */
struct AdaptOptions
{
    sysid::RlsOptions rls;      ///< Estimator forgetting/windup knobs.
    sysid::CusumOptions cusum;  ///< Drift-detection thresholds.

    /** Ticks before the CUSUM arms (RLS history + power windows). */
    int warmup_ticks = 20;

    /**
     * Post-warmup ticks spent measuring the *closed-loop* nominal
     * prediction-error level per output channel. The CUSUM's training
     * sigmas describe open-loop identification residuals; under the
     * closed loop some channels (e.g. instruction rate) run several
     * sigma hotter with no drift at all. Each channel's sigma is
     * inflated by its calibrated RMS (floored at 1) before the
     * detector arms, so slack/threshold are in honest closed-loop
     * units. Deterministic and counter-keyed: the scale is a pure
     * function of the first warmup+calibration samples. 0 disables
     * calibration (unit scales).
     */
    int calibration_ticks = 60;

    /** Post-drift ticks the RLS gets to converge before the model is
        snapshotted for synthesis. */
    int settle_ticks = 30;

    /** Ticks between synthesis completion and the hot-swap: models the
        background D-K job's latency without breaking determinism. */
    int swap_delay_ticks = 6;

    /** Ticks after a swap before the CUSUM re-arms. */
    int cooldown_ticks = 60;

    /** Synthesis recipe (the fleet passes its reduced recipe). */
    robust::DkOptions dk;
};

/** Per-board adaptation state machine (see file comment). */
class OnlineAdapter
{
  public:
    /** Life-cycle phases (numeric values are checkpointed). */
    enum class Phase
    {
        kMonitor = 0,
        kSettle = 1,
        kSynthReady = 2,
        kSwapScheduled = 3,
        kDisabled = 4,
    };

    /**
     * @param spec hardware-layer declaration (grids, bounds).
     * @param num_external trailing external columns in the u samples.
     * @param shipped the offline-identified model the CUSUM guards.
     * @param training the shipped model's training records; sets the
     *   RLS normalization scales and the CUSUM residual sigmas.
     */
    OnlineAdapter(const LayerSpec& spec, std::size_t num_external,
                  const sysid::ArxModel& shipped,
                  const sysid::IoData& training,
                  const AdaptOptions& options);

    /**
     * Feeds one control tick of plant input @p u (actuated +
     * external, physical units) and measured output @p y.
     * Deterministic and board-local: safe to call from the fleet's
     * parallel shard phase.
     */
    void observe(const linalg::Vector& u, const linalg::Vector& y);

    /** @return true when a synthesis job should be dispatched. */
    bool synthesisDue() const { return phase_ == Phase::kSynthReady; }

    /**
     * Runs the re-synthesis for the frozen model snapshot through
     * resynthesizeSsvLayer and the design cache (pool-task body:
     * deterministic, board-local). Drift that converges to an
     * already-synthesized model is served from the cache. On success
     * the swap is scheduled swap_delay_ticks ahead. On failure --
     * infeasible, or a spec the synthesizer throws on -- the adapter
     * disables itself; nothing is thrown, and later calls are no-ops.
     * @param workers threads for the synthesis's mu sweeps; the
     *   controller is bit-identical for every value.
     * @return true on success.
     */
    bool synthesize(std::size_t workers = 1);

    /** @return true when the scheduled swap should install now. */
    bool swapDue() const
    {
        return phase_ == Phase::kSwapScheduled && tick_ >= swap_due_;
    }

    /**
     * Materializes the pending (synthesized, not yet installed)
     * controller as a runtime, parsed from the canonical text so
     * every process gets identical bits. Only valid in
     * kSwapScheduled.
     */
    controllers::SsvRuntime makePendingRuntime() const;

    /**
     * Materializes the *installed* controller for checkpoint restore
     * (the restored system needs the swapped runtime in place before
     * its state stream is loaded). Only valid when
     * hasInstalledController().
     */
    controllers::SsvRuntime makeInstalledRuntime() const;

    /**
     * Records that the swap was installed: the reference model
     * becomes the synthesis snapshot, the CUSUM re-arms after the
     * cooldown, and monitoring resumes.
     */
    void noteSwapped();

    /** @return true once a synthesized controller is in force. */
    bool hasInstalledController() const { return !installed_text_.empty(); }

    /** @return the current life-cycle phase. */
    Phase phase() const { return phase_; }
    /** @return samples observed since construction (or load). */
    std::size_t tick() const { return tick_; }
    /** @return lifetime CUSUM trips. */
    long driftEvents() const { return drift_events_; }
    /** @return lifetime re-synthesis jobs run. */
    long syntheses() const { return syntheses_; }
    /** @return syntheses served from the design cache. */
    long cacheHits() const { return cache_hits_; }
    /** @return lifetime hot-swaps installed. */
    long swaps() const { return swaps_; }
    /** @return the detector's current worst per-channel statistic. */
    double cusumStat() const { return cusum_.maxStat(); }

    /**
     * Attaches a trace sink: drift detections and synthesis outcomes
     * are recorded as "adapt" layer events (the hot-swap itself is
     * traced by MultilayerSystem). Pass nullptr to detach. The sink
     * is observational only -- never part of checkpointed state.
     */
    void setTraceSink(obs::TraceSink* sink) { sink_ = sink; }

    /** Serializes the adapter (estimator, detector, phase, texts). */
    void save(obs::StateWriter& w) const;

    /** Restores state written by save(). */
    void load(obs::StateReader& r);

  private:
    LayerSpec spec_;
    std::size_t num_external_ = 0;
    AdaptOptions opt_;
    sysid::ArxModel reference_;  ///< Model the CUSUM guards.
    sysid::RlsEstimator rls_;
    sysid::CusumDriftDetector cusum_;
    std::vector<double> sigma_;  ///< Training residual sigmas.
    Phase phase_ = Phase::kMonitor;
    std::size_t tick_ = 0;
    std::size_t drift_tick_ = 0;
    std::size_t swap_due_ = 0;
    std::size_t arm_tick_ = 0;  ///< Calibration starts at tick_ > this.
    std::vector<double> cal_sum_sq_;  ///< Calibration error accumulator.
    std::size_t cal_count_ = 0;       ///< Calibration samples taken.
    std::vector<double> cal_scale_;   ///< Per-channel sigma inflation.
    std::optional<sysid::ArxModel> snapshot_;  ///< Synthesis input.
    std::string pending_text_;    ///< Synthesized, not yet installed.
    std::string installed_text_;  ///< Controller currently in force.
    long drift_events_ = 0;
    long syntheses_ = 0;
    long cache_hits_ = 0;
    long swaps_ = 0;
    obs::TraceSink* sink_ = nullptr;  ///< Not owned; not checkpointed.

    controllers::SsvRuntime runtimeFromText(
        const std::string& text, const sysid::ArxModel& model) const;
};

/**
 * Builds the hardware-layer adapter for @p artifacts (shipped model =
 * artifacts.hw_ssv). The adaptation loop currently targets the SSV
 * hardware layer -- the layer with the certified guardband that plant
 * drift invalidates.
 */
std::unique_ptr<OnlineAdapter> makeHwAdapter(const Artifacts& artifacts,
                                             const AdaptOptions& options);

}  // namespace yukta::core

#endif  // YUKTA_CORE_ADAPT_H_
