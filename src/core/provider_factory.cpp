#include "core/provider_factory.hpp"

#include <functional>
#include <map>

#include "common/error.hpp"
#include "core/ptemagnet_provider.hpp"
#include "vm/buddy_provider.hpp"
#include "vm/reserve_thp_provider.hpp"

namespace ptm::core {

namespace {

using Ctor = std::function<std::unique_ptr<vm::PhysicalPageProvider>(
    vm::GuestKernel *, const PolicyParams &)>;

const std::map<std::string, Ctor> &
providers()
{
    static const std::map<std::string, Ctor> table = {
        {"buddy",
         [](vm::GuestKernel *kernel, const PolicyParams &) {
             return std::make_unique<vm::BuddyPageProvider>(kernel);
         }},
        {"ptemagnet",
         [](vm::GuestKernel *kernel, const PolicyParams &params) {
             return std::make_unique<PtemagnetProvider>(
                 kernel, static_cast<unsigned>(params.get_u64(
                             "group_pages", kPagesPerReservation)));
         }},
        {"reserve_thp",
         [](vm::GuestKernel *kernel, const PolicyParams &params) {
             return std::make_unique<vm::ReserveThpProvider>(
                 kernel, params.get_u64("promotion_threshold", 64));
         }},
        // THP: a reservation promoted on its first fault. It reads no
        // params, so "promotion_threshold" stays a reserve_thp knob.
        {"thp",
         [](vm::GuestKernel *kernel, const PolicyParams &) {
             return std::make_unique<vm::ReserveThpProvider>(kernel, 1);
         }},
    };
    return table;
}

/// The one place an unknown policy name is reported.
const Ctor &
ctor_of(const std::string &name)
{
    auto it = providers().find(name);
    if (it == providers().end()) {
        std::string known;
        for (const auto &[row, ctor] : providers())
            known += (known.empty() ? "" : ", ") + row;
        ptm_throw("unknown allocation policy '%s' (known: %s)",
                  name.c_str(), known.c_str());
    }
    return it->second;
}

}  // namespace

std::vector<std::string>
provider_names()
{
    std::vector<std::string> names;
    for (const auto &[name, ctor] : providers())
        names.push_back(name);
    return names;
}

void
require_provider(const std::string &name)
{
    ctor_of(name);
}

std::unique_ptr<vm::PhysicalPageProvider>
make_provider(const std::string &name, vm::GuestKernel *kernel,
              const PolicyParams &params)
{
    return ctor_of(name)(kernel, params);
}

}  // namespace ptm::core
