#include "workload/trace.hpp"

#include "workload/catalog.hpp"

namespace ptm::workload {

StreamCache &
StreamCache::instance()
{
    static StreamCache cache;
    return cache;
}

bool
StreamCache::enabled()
{
    return false;
}

std::unique_ptr<Workload>
StreamCache::replay(const std::string &name,
                    const WorkloadOptions &options)
{
    return make_workload(name, options);
}

void
StreamCache::clear()
{
}

}  // namespace ptm::workload
