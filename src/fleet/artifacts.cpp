#include "fleet/artifacts.h"

#include "platform/config.h"

namespace yukta::fleet {

core::Artifacts
fleetArtifacts()
{
    core::ArtifactOptions opt;
    // The recipe of goldenArtifacts() in tests/golden/scenario.h; the
    // two share their design-cache entries while they stay identical.
    opt.training.apps = {"swaptions", "milc"};
    opt.training.seconds_per_app = 60.0;
    opt.dk.max_iterations = 1;
    opt.dk.mu_grid = 12;
    opt.dk.bisection_steps = 8;
    return core::buildArtifacts(platform::BoardConfig::odroidXu3(), opt);
}

}  // namespace yukta::fleet
