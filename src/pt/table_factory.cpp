#include "pt/table_factory.hpp"

#include <functional>
#include <map>

#include "common/error.hpp"
#include "pt/hashed_page_table.hpp"

namespace ptm::pt {

namespace {

using Ctor =
    std::function<std::unique_ptr<TranslationTable>(FrameSource)>;

const std::map<std::string, Ctor> &
tables()
{
    static const std::map<std::string, Ctor> table = {
        {"hashed",
         [](FrameSource frames) {
             return std::make_unique<HashedPageTable>(std::move(frames));
         }},
        {"radix",
         [](FrameSource frames) {
             return std::make_unique<PageTable>(std::move(frames));
         }},
    };
    return table;
}

/// The one place an unknown table name is reported.
const Ctor &
ctor_of(const std::string &name)
{
    auto it = tables().find(name);
    if (it == tables().end()) {
        std::string known;
        for (const auto &[row, ctor] : tables())
            known += (known.empty() ? "" : ", ") + row;
        ptm_throw("unknown translation table '%s' (known: %s)",
                  name.c_str(), known.c_str());
    }
    return it->second;
}

}  // namespace

std::vector<std::string>
table_names()
{
    std::vector<std::string> names;
    for (const auto &[name, ctor] : tables())
        names.push_back(name);
    return names;
}

void
require_table(const std::string &name)
{
    ctor_of(name);
}

std::unique_ptr<TranslationTable>
make_table(const std::string &name, FrameSource frames)
{
    return ctor_of(name)(std::move(frames));
}

}  // namespace ptm::pt
