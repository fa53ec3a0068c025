#include "sim/overcommit.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace ptm::sim {

void
OvercommitStats::register_stats(obs::StatRegistry &registry,
                                const std::string &prefix)
{
    registry.counter(prefix + ".reclaim_sweeps", &reclaim_sweeps);
    registry.counter(prefix + ".emergency_sweeps", &emergency_sweeps);
    registry.counter(prefix + ".backoff_waits", &backoff_waits);
    registry.counter(prefix + ".balloon_pages", &balloon_pages);
    registry.counter(prefix + ".frames_unbacked", &frames_unbacked);
    registry.counter(prefix + ".ws_guided_sweeps", &ws_guided_sweeps);
    registry.counter(prefix + ".oom_kills", &oom_kills);
    registry.counter(prefix + ".churn_boots", &churn_boots);
    registry.counter(prefix + ".churn_kills", &churn_kills);
    registry.counter(prefix + ".churn_forks", &churn_forks);
    registry.counter(prefix + ".churn_boot_failures",
                     &churn_boot_failures);
}

std::uint64_t
ChurnPlan::count(ChurnAction action) const
{
    std::uint64_t n = 0;
    for (const ChurnEvent &event : events)
        n += event.action == action ? 1 : 0;
    return n;
}

ChurnPlan
ChurnPlan::storm(std::uint64_t seed, std::uint64_t begin_step,
                 std::uint64_t end_step, std::uint64_t boots,
                 std::uint64_t kills, std::uint64_t forks)
{
    ChurnPlan plan;
    plan.seed = seed;
    Rng rng(seed ^ 0xc4ceb9fe1a85ec53ULL);
    const std::uint64_t span =
        end_step > begin_step ? end_step - begin_step : 1;
    auto draw = [&](ChurnAction action, std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            plan.events.push_back(
                {begin_step + rng.below(span), action});
    };
    draw(ChurnAction::Boot, boots);
    draw(ChurnAction::Kill, kills);
    draw(ChurnAction::Fork, forks);
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const ChurnEvent &a, const ChurnEvent &b) {
                         return a.at_step < b.at_step;
                     });
    return plan;
}

}  // namespace ptm::sim
