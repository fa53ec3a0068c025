/**
 * @file
 * PolicyParams — the key/value parameter bag carried by the policy and
 * workload factories.
 *
 * core::make_provider and workload::make_workload accept a name plus one
 * of these bags, so a new policy's knobs ("promotion_threshold",
 * "group_pages", ...) need no new ScenarioConfig fields and round-trip
 * through BENCH_*.json as a plain object. Values are doubles — the same
 * numeric model as the JSON layer — and keys keep insertion order so
 * serialized configs read in declaration order.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ptm {

class PolicyParams {
  public:
    using Entry = std::pair<std::string, double>;

    PolicyParams() = default;
    PolicyParams(std::initializer_list<Entry> entries)
        : entries_(entries)
    {
    }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    bool
    has(const std::string &key) const
    {
        return find(key) != nullptr;
    }

    /// Value of @p key, or @p fallback when absent — unknown keys are the
    /// policy's business (it picks its defaults), not an error here.
    double
    get(const std::string &key, double fallback = 0.0) const
    {
        const Entry *entry = find(key);
        return entry != nullptr ? entry->second : fallback;
    }

    /// get() rounded to an unsigned integer knob (counts, thresholds).
    std::uint64_t
    get_u64(const std::string &key, std::uint64_t fallback = 0) const
    {
        const Entry *entry = find(key);
        if (entry == nullptr)
            return fallback;
        return entry->second <= 0.0
                   ? 0
                   : static_cast<std::uint64_t>(entry->second + 0.5);
    }

    /// Insert or overwrite @p key.
    PolicyParams &
    set(const std::string &key, double value)
    {
        for (Entry &entry : entries_) {
            if (entry.first == key) {
                entry.second = value;
                return *this;
            }
        }
        entries_.emplace_back(key, value);
        return *this;
    }

    const std::vector<Entry> &entries() const { return entries_; }

    bool
    operator==(const PolicyParams &other) const
    {
        return entries_ == other.entries_;
    }

  private:
    const Entry *
    find(const std::string &key) const
    {
        auto it = std::find_if(
            entries_.begin(), entries_.end(),
            [&key](const Entry &e) { return e.first == key; });
        return it != entries_.end() ? &*it : nullptr;
    }

    std::vector<Entry> entries_;
};

}  // namespace ptm
