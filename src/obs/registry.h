/**
 * @file
 * Hierarchical statistics registry: components register their
 * existing StatGroups under dotted paths ("core0", "mc.ch0.dram",
 * "shaper.req.core1"), and the registry serializes the whole tree
 * as nested JSON.
 */

#ifndef CAMO_OBS_REGISTRY_H
#define CAMO_OBS_REGISTRY_H

#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/json.h"

namespace camo::obs {

/** Non-owning index of StatGroups keyed by dotted path. */
class StatRegistry
{
  public:
    /**
     * Register `group` under `path`. The group must outlive the
     * registry; re-registering a path replaces the pointer.
     */
    void add(const std::string &path, const StatGroup *group);

    /** Registered group, or nullptr. */
    const StatGroup *find(const std::string &path) const;

    /** All registered paths, in registration order. */
    std::vector<std::string> paths() const;

    std::size_t size() const { return groups_.size(); }

    /**
     * Nested JSON tree following the dotted path segments. Each
     * group node holds "counters" (name -> integer) and "scalars"
     * (name -> {count, sum, mean, min, max, stddev}).
     */
    json::Value toJson() const;

  private:
    std::vector<std::pair<std::string, const StatGroup *>> groups_;
};

} // namespace camo::obs

#endif // CAMO_OBS_REGISTRY_H
