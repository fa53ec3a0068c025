/**
 * @file
 * String-keyed registry of PhysicalPageProvider implementations — the
 * allocation-policy side of the factory pair (see pt/table_factory.hpp
 * for the translation-structure side).
 *
 * Policies are chosen by name in ScenarioConfig ("buddy", "ptemagnet",
 * "thp", "reserve_thp", ...), with a PolicyParams bag carrying
 * policy-specific knobs, so new policies need no enum edits and become
 * sweepable by the ablation suite immediately. One implementation may
 * sit under several names: "thp" is ReserveThpProvider promoting on
 * first touch. Layer-up policies (core's PTEMagnet) register themselves
 * from their own translation unit via ProviderRegistrar.
 *
 * Unknown names fail fast with a SimError listing every registered name.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "vm/page_provider.hpp"

namespace ptm::vm {

class GuestKernel;

/// Constructor signature for registered policies. Unknown param keys are
/// ignored by convention — each policy picks the knobs it understands.
using ProviderCtor = std::function<std::unique_ptr<PhysicalPageProvider>(
    GuestKernel *, const PolicyParams &)>;

/// Register @p ctor under @p name; replaces an existing registration.
void register_provider(const std::string &name, ProviderCtor ctor);

/// True iff @p name has a registered constructor.
bool provider_registered(const std::string &name);

/// Registered names, sorted (error messages and sweep enumeration).
std::vector<std::string> registered_providers();

/**
 * Construct the policy registered under @p name for @p kernel.
 * @throws SimError listing registered names if @p name is unknown.
 */
std::unique_ptr<PhysicalPageProvider>
make_provider(const std::string &name, GuestKernel *kernel,
              const PolicyParams &params);

/// Static-registrar helper: `static ProviderRegistrar r{"x", ctor};`
struct ProviderRegistrar {
    ProviderRegistrar(const std::string &name, ProviderCtor ctor)
    {
        register_provider(name, std::move(ctor));
    }
};

}  // namespace ptm::vm
