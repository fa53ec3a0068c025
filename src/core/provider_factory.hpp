/**
 * @file
 * The fixed name table of PhysicalPageProvider implementations — the
 * allocation-policy side of the factory pair (see pt/table_factory.hpp
 * for the translation-structure side).
 *
 * Policies are chosen by name in ScenarioConfig ("buddy", "ptemagnet",
 * "thp", "reserve_thp"), with a PolicyParams bag carrying
 * policy-specific knobs. One implementation may sit under several names:
 * "thp" is ReserveThpProvider promoting on first touch. The table lives
 * in core, the lowest layer that sees every implementation; adding a
 * policy is one implementation plus one row in provider_factory.cpp.
 *
 * Unknown names fail fast with a SimError listing every name.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "vm/page_provider.hpp"

namespace ptm::vm {
class GuestKernel;
}

namespace ptm::core {

/// Policy names, sorted (error messages and sweep enumeration).
std::vector<std::string> provider_names();

/// @throws SimError listing provider_names() if @p name is unknown.
void require_provider(const std::string &name);

/**
 * Construct the policy named @p name for @p kernel. Unknown param keys
 * are ignored — each policy picks the knobs it understands.
 * @throws SimError listing provider_names() if @p name is unknown, or
 * when a knob is out of range for the policy.
 */
std::unique_ptr<vm::PhysicalPageProvider>
make_provider(const std::string &name, vm::GuestKernel *kernel,
              const PolicyParams &params);

}  // namespace ptm::core
