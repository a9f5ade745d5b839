#include "src/sim/plan.h"

#include "src/common/logging.h"

namespace camo::sim {

SystemPlan::SystemPlan(const SystemConfig &cfg,
                       const std::vector<std::string> &workloads)
    : cfg_(cfg), workloads_(workloads)
{
    validateSystemConfig(cfg_, workloads_.size());
    compiled_.reserve(workloads_.size());
    for (const std::string &name : workloads_)
        compiled_.push_back(trace::compileWorkload(name));
}

SystemPlan::SystemPlan(const SystemConfig &cfg,
                       std::vector<std::string> workloads,
                       std::vector<trace::CompiledWorkload> compiled)
    : cfg_(cfg), workloads_(std::move(workloads)),
      compiled_(std::move(compiled))
{
    validateSystemConfig(cfg_, workloads_.size());
    camo_assert(compiled_.size() == workloads_.size(),
                "compiled mix must align with workload names");
}

const trace::CompiledWorkload &
SystemPlan::compiled(std::uint32_t i) const
{
    camo_assert(i < compiled_.size(), "core index out of range");
    return compiled_[i];
}

std::unique_ptr<System>
SystemPlan::instantiate(const PlanOverrides &overrides) const
{
    return std::make_unique<System>(*this, overrides);
}

} // namespace camo::sim
