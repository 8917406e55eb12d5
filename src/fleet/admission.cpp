#include "fleet/admission.h"

#include <sstream>
#include <stdexcept>

#include "obs/trace.h"

namespace yukta::fleet {

std::string
AdmissionStats::toJson() const
{
    std::ostringstream os;
    os << "{\"offered\":" << offered << ",\"accepted\":" << accepted
       << ",\"rejected\":" << rejected << ",\"rerouted\":" << rerouted
       << ",\"offered_gi\":" << obs::canonicalNumber(offered_gi)
       << ",\"accepted_gi\":" << obs::canonicalNumber(accepted_gi)
       << ",\"rejected_gi\":" << obs::canonicalNumber(rejected_gi) << "}";
    return os.str();
}

template <class Io>
void
AdmissionStats::state(Io& io)
{
    io.i64("adm.offered", offered);
    io.i64("adm.accepted", accepted);
    io.i64("adm.rejected", rejected);
    io.i64("adm.rerouted", rerouted);
    io.f64("adm.offered_gi", offered_gi);
    io.f64("adm.accepted_gi", accepted_gi);
    io.f64("adm.rejected_gi", rejected_gi);
}

template void AdmissionStats::state(obs::StateWriter&);
template void AdmissionStats::state(obs::StateReader&);

AdmissionController::AdmissionController(AdmissionConfig cfg, int boards)
    : cfg_(cfg), boards_(boards)
{
    if (boards_ <= 0) {
        throw std::invalid_argument("AdmissionController: no boards");
    }
    if (cfg_.enabled && !(cfg_.queue_capacity_gi > 0.0)) {
        throw std::invalid_argument(
            "AdmissionController: capacity must be positive");
    }
    if (cfg_.max_hops < 0) {
        throw std::invalid_argument(
            "AdmissionController: negative max_hops");
    }
}

int
AdmissionController::route(const Request& r,
                           std::vector<double>& queued_gi,
                           const std::vector<double>* capacity_scale)
{
    ++stats_.offered;
    stats_.offered_gi += r.demand_gi;

    if (!cfg_.enabled) {
        queued_gi[static_cast<std::size_t>(r.origin)] += r.demand_gi;
        ++stats_.accepted;
        stats_.accepted_gi += r.demand_gi;
        return r.origin;
    }

    const int hops = std::min(cfg_.max_hops, boards_ - 1);
    for (int h = 0; h <= hops; ++h) {
        const int b = (r.origin + h) % boards_;
        const double scale =
            capacity_scale == nullptr
                ? 1.0
                : (*capacity_scale)[static_cast<std::size_t>(b)];
        if (!(scale > 0.0)) {
            continue;  // Dark board: the ring routes around it.
        }
        double& depth = queued_gi[static_cast<std::size_t>(b)];
        if (depth + r.demand_gi <= cfg_.queue_capacity_gi * scale) {
            depth += r.demand_gi;
            ++stats_.accepted;
            stats_.accepted_gi += r.demand_gi;
            if (h > 0) {
                ++stats_.rerouted;
            }
            return b;
        }
    }
    ++stats_.rejected;
    stats_.rejected_gi += r.demand_gi;
    return -1;
}

}  // namespace yukta::fleet
