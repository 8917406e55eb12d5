#include "platform/workload.h"

#include <stdexcept>

namespace yukta::platform {

double
AppModel::totalWork() const
{
    double total = 0.0;
    for (const AppPhase& p : phases) {
        total += p.work_per_thread * static_cast<double>(p.num_threads);
    }
    return total;
}

Workload::Workload(std::vector<AppModel> apps)
{
    if (apps.empty()) {
        throw std::invalid_argument("Workload: no applications");
    }
    for (AppModel& app : apps) {
        if (app.phases.empty()) {
            throw std::invalid_argument("Workload: app without phases");
        }
        Instance inst;
        inst.app = std::move(app);
        instances_.push_back(std::move(inst));
    }
    for (Instance& inst : instances_) {
        startPhase(inst);
    }
    rebuildRunnable();
}

Workload::Workload(AppModel app) : Workload(std::vector<AppModel>{std::move(app)})
{
}

void
Workload::startPhase(Instance& inst)
{
    const AppPhase& phase = inst.app.phases[inst.phase];
    inst.threads.assign(phase.num_threads, ThreadState{});
    for (ThreadState& t : inst.threads) {
        t.remaining = phase.work_per_thread;
        t.at_barrier = false;
    }
    ++version_;
}

void
Workload::maybeAdvancePhase(Instance& inst)
{
    if (inst.finished) {
        return;
    }
    const AppPhase& phase = inst.app.phases[inst.phase];
    bool all_done = true;
    for (const ThreadState& t : inst.threads) {
        if (t.remaining > 0.0) {
            all_done = false;
            break;
        }
    }
    if (!phase.barrier) {
        // Independent copies: a finished thread simply disappears
        // (version bump happens in retire()).
        if (!all_done) {
            return;
        }
    } else if (!all_done) {
        return;
    }
    if (inst.phase + 1 < inst.app.phases.size()) {
        ++inst.phase;
        startPhase(inst);
    } else {
        inst.finished = true;
        inst.threads.clear();
        ++version_;
    }
}

void
Workload::rebuildRunnable()
{
    runnable_.clear();
    for (std::size_t ii = 0; ii < instances_.size(); ++ii) {
        const Instance& inst = instances_[ii];
        for (std::size_t ti = 0; ti < inst.threads.size(); ++ti) {
            if (inst.threads[ti].remaining > 0.0) {
                runnable_.emplace_back(ii, ti);
            }
        }
    }
}

std::pair<std::size_t, std::size_t>
Workload::locate(std::size_t i) const
{
    if (i >= runnable_.size()) {
        throw std::out_of_range("Workload: bad runnable thread index");
    }
    return runnable_[i];
}

ThreadInfo
Workload::threadInfo(std::size_t i) const
{
    auto [ii, ti] = locate(i);
    (void)ti;
    const Instance& inst = instances_[ii];
    const AppPhase& phase = inst.app.phases[inst.phase];
    ThreadInfo info;
    info.ipc_big = inst.app.ipc_big;
    info.ipc_little = inst.app.ipc_little;
    info.mem_boundness = phase.mem_boundness;
    info.activity = phase.activity;
    info.barrier_coupling = phase.barrier ? phase.barrier_coupling : 0.0;
    info.instance = ii;
    return info;
}

void
Workload::retire(std::size_t i, double giga_instr)
{
    if (giga_instr < 0.0) {
        throw std::invalid_argument("Workload::retire: negative work");
    }
    auto [ii, ti] = locate(i);
    Instance& inst = instances_[ii];
    ThreadState& t = inst.threads[ti];
    t.remaining -= giga_instr;
    if (t.remaining <= 0.0) {
        t.remaining = 0.0;
        t.at_barrier = true;
        ++version_;  // runnable set changed
        maybeAdvancePhase(inst);
        rebuildRunnable();
    }
}

bool
Workload::done() const
{
    for (const Instance& inst : instances_) {
        if (!inst.finished) {
            return false;
        }
    }
    return true;
}

double
Workload::workRemaining() const
{
    double total = 0.0;
    for (const Instance& inst : instances_) {
        for (const ThreadState& t : inst.threads) {
            total += t.remaining;
        }
        // Future phases.
        for (std::size_t p = inst.phase + 1; p < inst.app.phases.size();
             ++p) {
            if (!inst.finished) {
                const AppPhase& ph = inst.app.phases[p];
                total += ph.work_per_thread *
                         static_cast<double>(ph.num_threads);
            }
        }
    }
    return total;
}

std::string
Workload::name() const
{
    std::string out;
    for (const Instance& inst : instances_) {
        if (!out.empty()) {
            out += "+";
        }
        out += inst.app.name;
    }
    return out;
}

template <class Io>
void
Workload::state(Io& io)
{
    io.expect("workload.instances", instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        Instance& inst = instances_[i];
        const std::string p = "workload.i" + std::to_string(i);
        io.u64(p + ".phase", inst.phase);
        io.boolean(p + ".finished", inst.finished);
        io.count(p + ".threads", inst.threads);
        for (std::size_t t = 0; t < inst.threads.size(); ++t) {
            const std::string tp = p + ".t" + std::to_string(t);
            io.f64(tp + ".remaining", inst.threads[t].remaining);
            io.boolean(tp + ".at_barrier", inst.threads[t].at_barrier);
        }
    }
    io.u64("workload.version", version_);
    if constexpr (Io::kLoading) {
        rebuildRunnable();
    }
}

template void Workload::state(obs::StateWriter&);
template void Workload::state(obs::StateReader&);

}  // namespace yukta::platform
