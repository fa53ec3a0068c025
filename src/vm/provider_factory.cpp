#include "vm/provider_factory.hpp"

#include <map>
#include <sstream>

#include "common/error.hpp"
#include "vm/buddy_provider.hpp"
#include "vm/reserve_thp_provider.hpp"

namespace ptm::vm {

namespace {

/// Meyers singleton so registrations from static initializers in any
/// translation unit land in one map regardless of init order.
std::map<std::string, ProviderCtor> &
registry()
{
    static std::map<std::string, ProviderCtor> providers;
    return providers;
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
register_provider(const std::string &name, ProviderCtor ctor)
{
    registry()[name] = std::move(ctor);
}

bool
provider_registered(const std::string &name)
{
    return registry().count(name) != 0;
}

std::vector<std::string>
registered_providers()
{
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &[name, ctor] : registry())
        names.push_back(name);
    return names;
}

std::unique_ptr<PhysicalPageProvider>
make_provider(const std::string &name, GuestKernel *kernel,
              const PolicyParams &params)
{
    auto it = registry().find(name);
    if (it == registry().end())
        ptm_throw("unknown allocation policy '%s' (registered: %s)",
                  name.c_str(), known_names().c_str());
    return it->second(kernel, params);
}

// ---------------------------------------------------------------------
// Built-in policies. PTEMagnet lives a layer up (src/core) and registers
// itself there with a ProviderRegistrar.

namespace {

const bool kBuiltinsRegistered = [] {
    register_provider("buddy",
                      [](GuestKernel *kernel, const PolicyParams &) {
                          return std::make_unique<BuddyPageProvider>(kernel);
                      });
    // THP: a reservation promoted on its first fault. It reads no
    // params, so "promotion_threshold" stays a reserve_thp knob.
    register_provider("thp",
                      [](GuestKernel *kernel, const PolicyParams &) {
                          return std::make_unique<ReserveThpProvider>(kernel,
                                                                      1);
                      });
    register_provider(
        "reserve_thp", [](GuestKernel *kernel, const PolicyParams &params) {
            return std::make_unique<ReserveThpProvider>(
                kernel, params.get_u64("promotion_threshold", 64));
        });
    return true;
}();

}  // namespace

}  // namespace ptm::vm
