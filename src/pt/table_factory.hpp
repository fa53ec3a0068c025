/**
 * @file
 * The fixed name table of TranslationTable implementations.
 *
 * Mirrors core/provider_factory.hpp on the translation side: a table is
 * chosen by name ("radix", "hashed") in PlatformConfig / ScenarioConfig,
 * so the ablation suite can sweep table structures the same way it
 * sweeps allocation policies. Adding a table is one implementation of
 * TranslationTable plus one row in table_factory.cpp (DESIGN.md
 * "Factories").
 *
 * Unknown names fail fast with a SimError that lists every name, so a
 * typo in a config or sweep axis dies before any simulation work
 * happens.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pt/page_table.hpp"
#include "pt/translation_table.hpp"

namespace ptm::pt {

/// Table names, sorted (error messages and sweep enumeration).
std::vector<std::string> table_names();

/// @throws SimError listing table_names() if @p name is unknown.
void require_table(const std::string &name);

/**
 * Construct the table named @p name over @p frames.
 * @throws SimError listing table_names() if @p name is unknown.
 */
std::unique_ptr<TranslationTable> make_table(const std::string &name,
                                             FrameSource frames);

}  // namespace ptm::pt
