#ifndef YUKTA_PLATFORM_WORKLOAD_H_
#define YUKTA_PLATFORM_WORKLOAD_H_

/**
 * @file
 * Workload models. An application is a sequence of phases, each with
 * a thread count, per-thread work (giga-instructions), memory
 * boundness, and switching activity. PARSEC-style apps have a serial
 * phase followed by barriered parallel phases; SPEC-style workloads
 * are N independent copies. A Workload runs one or more application
 * instances concurrently (heterogeneous mixes run two).
 */

#include <cstddef>
#include <string>
#include <vector>

#include "obs/stateio.h"

namespace yukta::platform {

/** One phase of an application. */
struct AppPhase
{
    std::size_t num_threads = 1;    ///< Threads alive in this phase.
    double work_per_thread = 1.0;   ///< Giga-instructions per thread.
    double mem_boundness = 0.2;     ///< Memory-time fraction, [0, 1).
    double activity = 1.0;          ///< Switching activity factor.

    /**
     * Barrier semantics: when true, the phase ends only when every
     * thread finishes (finished threads idle at the barrier). When
     * false (SPEC copies), threads complete independently.
     */
    bool barrier = true;

    /**
     * Iteration-level synchronization intensity, [0, 1]. PARSEC
     * kernels barrier every few milliseconds, so a thread's effective
     * progress is dragged toward the slowest sibling:
     * rate_eff = (1 - c) * rate_own + c * rate_slowest. 0 = fully
     * independent (SPEC copies).
     */
    double barrier_coupling = 0.0;
};

/** A parameterized application model. */
struct AppModel
{
    std::string name;
    double ipc_big = 1.5;     ///< Per-thread IPC on a big core.
    double ipc_little = 0.7;  ///< Per-thread IPC on a little core.
    std::vector<AppPhase> phases;

    /** Total giga-instructions across all phases and threads. */
    double totalWork() const;
};

/** Dynamic attributes of one runnable thread. */
struct ThreadInfo
{
    double ipc_big = 0.0;
    double ipc_little = 0.0;
    double mem_boundness = 0.0;
    double activity = 1.0;
    double barrier_coupling = 0.0;  ///< Lockstep intensity, [0, 1].
    std::size_t instance = 0;       ///< Owning application instance.
};

/** A set of concurrently-running application instances. */
class Workload
{
  public:
    /** Starts all instances at their first phase. */
    explicit Workload(std::vector<AppModel> apps);

    /** Convenience: a single application. */
    explicit Workload(AppModel app);

    /** @return number of currently runnable threads (not finished). */
    std::size_t numRunnableThreads() const { return runnable_.size(); }

    /** @return attributes of runnable thread @p i (dense indexing). */
    ThreadInfo threadInfo(std::size_t i) const;

    /**
     * Retires @p giga_instr of work on runnable thread @p i. Phase
     * transitions happen lazily inside this call; check
     * placementVersion() to detect them.
     */
    void retire(std::size_t i, double giga_instr);

    /** @return true when every instance has completed all phases. */
    bool done() const;

    /** @return remaining giga-instructions across everything. */
    double workRemaining() const;

    /**
     * Monotone counter bumped whenever the runnable thread set
     * changes (phase transition or thread completion), signalling the
     * scheduler to re-place threads.
     */
    std::size_t placementVersion() const { return version_; }

    /** @return name summary, e.g. "blackscholes" or "bl+mc". */
    std::string name() const;

    /**
     * Appends the mutable execution state (phase indices, per-thread
     * progress, placement version) to @p w. The static app models are
     * not serialized: load() requires a Workload built from the same
     * apps.
     */
    void save(obs::StateWriter& w) const;

    /**
     * Restores state written by save into a Workload constructed from
     * the same application models.
     * @throws std::runtime_error when the instance count differs.
     */
    void load(obs::StateReader& r);

  private:
    struct ThreadState
    {
        double remaining = 0.0;
        bool at_barrier = false;  ///< Finished, waiting for the phase.
    };

    struct Instance
    {
        AppModel app;
        std::size_t phase = 0;
        std::vector<ThreadState> threads;
        bool finished = false;
    };

    std::vector<Instance> instances_;
    std::size_t version_ = 0;

    /**
     * (instance, thread) of each runnable thread, in dense index
     * order. Derived state: rebuilt wherever the runnable set
     * changes (construction, a thread completing, load).
     */
    std::vector<std::pair<std::size_t, std::size_t>> runnable_;

    void startPhase(Instance& inst);
    void maybeAdvancePhase(Instance& inst);
    void rebuildRunnable();

    /** Maps dense runnable index to (instance, thread). */
    std::pair<std::size_t, std::size_t> locate(std::size_t i) const;
};

}  // namespace yukta::platform

#endif  // YUKTA_PLATFORM_WORKLOAD_H_
