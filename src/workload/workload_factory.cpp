#include "workload/workload_factory.hpp"

#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ptm::workload {

namespace {

/// Meyers singleton so registrations from static initializers in any
/// translation unit land in one map regardless of init order.
std::map<std::string, WorkloadCtor> &
registry()
{
    static std::map<std::string, WorkloadCtor> workloads;
    return workloads;
}

/**
 * Built-in generators register from their own TUs (catalog.cpp,
 * serving.cpp), but a static-library link may never pull those TUs in
 * unless a symbol of theirs is referenced — so the factory references
 * their registration hooks by name on first use instead of trusting
 * static initializers to run.
 */
void
ensure_builtins()
{
    static const bool registered = [] {
        detail::register_catalog_workloads();
        detail::register_serving_workloads();
        return true;
    }();
    (void)registered;
}

std::string
known_names()
{
    std::ostringstream out;
    bool first = true;
    for (const auto &[name, ctor] : registry()) {
        out << (first ? "" : ", ") << name;
        first = false;
    }
    return out.str();
}

}  // namespace

void
register_workload(const std::string &name, WorkloadCtor ctor)
{
    registry()[name] = std::move(ctor);
}

bool
workload_registered(const std::string &name)
{
    ensure_builtins();
    return registry().count(name) != 0;
}

std::unique_ptr<Workload>
make_workload(const std::string &name, const WorkloadOptions &options)
{
    ensure_builtins();
    auto it = registry().find(name);
    if (it == registry().end())
        ptm_throw("unknown workload '%s' (registered: %s)", name.c_str(),
                  known_names().c_str());
    return it->second(options);
}

namespace detail {

std::uint64_t
mix_seed(const std::string &name, std::uint64_t seed)
{
    std::uint64_t h = std::hash<std::string>{}(name);
    std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL;
    return h ^ splitmix64(s);
}

}  // namespace detail

}  // namespace ptm::workload
