#ifndef YUKTA_CONTROLLERS_BATCH_RUNTIME_H_
#define YUKTA_CONTROLLERS_BATCH_RUNTIME_H_

/**
 * @file
 * Inert remnant of the removed batched tick engine (DESIGN.md §15).
 */

namespace yukta::controllers {

/**
 * Does nothing. Kept only for perfbench/traced.cpp, which still
 * constructs one per shard and passes it to
 * MultilayerSystem::stepPeriodBegin; a later benchmark change
 * retires it.
 */
class BatchRuntime
{
  public:
    /** No-op: every controller ticks inside its own invoke(). */
    void tick() {}
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_BATCH_RUNTIME_H_
