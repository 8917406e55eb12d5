#ifndef YUKTA_CONTROLLERS_HEURISTICS_H_
#define YUKTA_CONTROLLERS_HEURISTICS_H_

/**
 * @file
 * The heuristic controllers of Table IV:
 *
 *  (a) Coordinated heuristic — OS: HMP-style scheduler with power /
 *      performance heuristics using the number, type, and frequency
 *      of cores; HW: raises frequency and core counts while operation
 *      is safe, using the thread distribution to decide.
 *  (b) Decoupled heuristic — OS: round-robin placement; HW: Linux
 *      "performance"-governor style: everything at maximum, with
 *      threshold rules cutting frequency first and then cores on
 *      violations, irrespective of threads.
 */

#include "controllers/controller.h"
#include "platform/config.h"
#include "platform/dvfs.h"

namespace yukta::controllers {

/** HW side of the Coordinated heuristic scheme (Table IV(a)). */
class CoordinatedHwHeuristic : public HwController
{
  public:
    /** Builds the heuristic for @p cfg with both clusters' tables. */
    CoordinatedHwHeuristic(const platform::BoardConfig& cfg,
                           const platform::DvfsTable& big,
                           const platform::DvfsTable& little);

    /** HwController hooks: one 50 ms step; reset clears the ramp. */
    platform::HardwareInputs invoke(const HwSignals& s) override;
    void reset() override;

    /** Checkpoint hooks: ramp state + last actuation. */
    void state(obs::StateWriter& w) override { fields(w); }
    void state(obs::StateReader& r) override { fields(r); }

  private:
    platform::BoardConfig cfg_;
    platform::DvfsTable big_;
    platform::DvfsTable little_;
    platform::HardwareInputs state_;
    int ramp_tick_ = 0;

    /** The field list behind both state() overloads. */
    template <class Io>
    void fields(Io& io)
    {
        io.u64("coordhw.big_cores", state_.big_cores);
        io.u64("coordhw.little_cores", state_.little_cores);
        io.f64("coordhw.freq_big", state_.freq_big);
        io.f64("coordhw.freq_little", state_.freq_little);
        io.i64("coordhw.ramp_tick", ramp_tick_);
    }
};

/** OS side of the Coordinated heuristic scheme (HMP-like, E x D). */
class CoordinatedOsHeuristic : public OsController
{
  public:
    /** Builds the HMP-like scheduler for @p cfg. */
    explicit CoordinatedOsHeuristic(const platform::BoardConfig& cfg);

    /** One 500 ms step: rebalances threads across the clusters. */
    platform::PlacementPolicy invoke(const OsSignals& s) override;

  private:
    platform::BoardConfig cfg_;
};

/** HW side of the Decoupled heuristic (performance governor). */
class DecoupledHwHeuristic : public HwController
{
  public:
    /** Builds the governor-style heuristic for @p cfg. */
    DecoupledHwHeuristic(const platform::BoardConfig& cfg,
                         const platform::DvfsTable& big,
                         const platform::DvfsTable& little);

    /** HwController hooks: threshold rules; reset clears streaks. */
    platform::HardwareInputs invoke(const HwSignals& s) override;
    void reset() override;

    /** Checkpoint hooks: violation streak + last actuation. */
    void state(obs::StateWriter& w) override { fields(w); }
    void state(obs::StateReader& r) override { fields(r); }

  private:
    platform::BoardConfig cfg_;
    platform::DvfsTable big_;
    platform::DvfsTable little_;
    platform::HardwareInputs state_;
    int violation_streak_ = 0;

    /** The field list behind both state() overloads. */
    template <class Io>
    void fields(Io& io)
    {
        io.u64("dechw.big_cores", state_.big_cores);
        io.u64("dechw.little_cores", state_.little_cores);
        io.f64("dechw.freq_big", state_.freq_big);
        io.f64("dechw.freq_little", state_.freq_little);
        io.i64("dechw.violation_streak", violation_streak_);
    }
};

/** OS side of the Decoupled heuristic (round robin, no coordination). */
class DecoupledOsRoundRobin : public OsController
{
  public:
    /** Builds the round-robin placer for @p cfg. */
    explicit DecoupledOsRoundRobin(const platform::BoardConfig& cfg);

    /** One 500 ms step: rotates threads over the cores in order. */
    platform::PlacementPolicy invoke(const OsSignals& s) override;

  private:
    platform::BoardConfig cfg_;
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_HEURISTICS_H_
