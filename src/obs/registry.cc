#include "src/obs/registry.h"

#include "src/common/logging.h"

namespace camo::obs {

void
StatRegistry::add(const std::string &path, const StatGroup *group)
{
    camo_assert(!path.empty(), "stat path cannot be empty");
    camo_assert(group != nullptr, "stat group cannot be null");
    for (auto &[p, g] : groups_) {
        if (p == path) {
            g = group;
            return;
        }
    }
    groups_.emplace_back(path, group);
}

const StatGroup *
StatRegistry::find(const std::string &path) const
{
    for (const auto &[p, g] : groups_) {
        if (p == path)
            return g;
    }
    return nullptr;
}

std::vector<std::string>
StatRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(groups_.size());
    for (const auto &[p, g] : groups_)
        out.push_back(p);
    return out;
}

json::Value
StatRegistry::toJson() const
{
    json::Value root = json::Value::makeObject();
    for (const auto &[path, group] : groups_) {
        // Walk/create the nested node for each dotted segment.
        json::Value *node = &root;
        std::size_t start = 0;
        while (start <= path.size()) {
            const auto dot = path.find('.', start);
            const std::string seg =
                dot == std::string::npos
                    ? path.substr(start)
                    : path.substr(start, dot - start);
            node = &(*node)[seg];
            if (dot == std::string::npos)
                break;
            start = dot + 1;
        }

        json::Value &counters = (*node)["counters"];
        counters = json::Value::makeObject();
        for (const auto &[name, v] : group->counters())
            counters[name] = json::Value(v);
        json::Value &scalars = (*node)["scalars"];
        scalars = json::Value::makeObject();
        for (const auto &[name, s] : group->scalars()) {
            json::Value &entry = scalars[name];
            entry["count"] = json::Value(s.count());
            entry["sum"] = json::Value(s.sum());
            entry["mean"] = json::Value(s.mean());
            entry["min"] = json::Value(s.min());
            entry["max"] = json::Value(s.max());
            entry["stddev"] = json::Value(s.stddev());
        }
    }
    return root;
}

} // namespace camo::obs
