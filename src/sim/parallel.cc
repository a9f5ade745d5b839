#include "src/sim/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "src/common/logging.h"
#include "src/ga/mise.h"

namespace camo::sim {

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("CAMO_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<unsigned>(std::min<long>(v, 256));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream, std::uint64_t index)
{
    // splitmix64 finalizer over a position-weighted combination; the
    // +1 offsets keep (stream, index) = (0, 0) distinct from base.
    std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (stream + 1) +
                      0xBF58476D1CE4E5B9ull * (index + 1);
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z != 0 ? z : 0x9E3779B97F4A7C15ull;
}

WorkerPool::WorkerPool(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
    // The caller participates in forEachIndex, so jobs_ - 1 threads
    // give jobs_ concurrent workers; jobs_ == 1 stays thread-free.
    threads_.reserve(jobs_ > 0 ? jobs_ - 1 : 0);
    for (unsigned t = 1; t < jobs_; ++t)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

bool
WorkerPool::runOne(const std::function<void(std::size_t)> &fn,
                   std::uint64_t epoch)
{
    std::size_t i = 0;
    {
        std::lock_guard<std::mutex> lk(m_);
        if (epoch_ != epoch || next_ >= total_)
            return false;
        i = next_++;
    }
    try {
        fn(i);
    } catch (...) {
        std::lock_guard<std::mutex> lk(m_);
        if (!error_)
            error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(m_);
    if (--pending_ == 0)
        done_.notify_all();
    return true;
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::uint64_t epoch = 0;
        {
            std::unique_lock<std::mutex> lk(m_);
            wake_.wait(lk, [&] {
                return stop_ || (task_ != nullptr && next_ < total_);
            });
            if (stop_)
                return;
            fn = task_;
            epoch = epoch_;
        }
        while (runOne(*fn, epoch)) {
        }
    }
}

void
WorkerPool::forEachIndex(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (threads_.empty() || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lk(m_);
        task_ = &fn;
        next_ = 0;
        total_ = n;
        pending_ = n;
        error_ = nullptr;
        epoch = ++epoch_;
    }
    wake_.notify_all();
    while (runOne(fn, epoch)) {
    }
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(m_);
        done_.wait(lk, [&] { return pending_ == 0; });
        task_ = nullptr;
        err = error_;
        error_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

std::vector<RunMetrics>
runConfigsParallel(const std::vector<SimJob> &batch, unsigned jobs,
                   hard::FaultInjector *injector)
{
    // Compile each distinct workload mix once for the whole batch
    // (trace files load and parse exactly once) and build one
    // immutable plan per job up front; workers and retry attempts
    // only instantiate.
    std::map<std::vector<std::string>,
             std::vector<trace::CompiledWorkload>>
        mixes;
    std::vector<SystemPlan> plans;
    plans.reserve(batch.size());
    for (const SimJob &job : batch) {
        auto it = mixes.find(job.workloads);
        if (it == mixes.end()) {
            std::vector<trace::CompiledWorkload> mix;
            mix.reserve(job.workloads.size());
            for (const std::string &name : job.workloads)
                mix.push_back(trace::compileWorkload(name));
            it = mixes.emplace(job.workloads, std::move(mix)).first;
        }
        plans.emplace_back(job.cfg, job.workloads, it->second);
    }
    return parallelMapRetry(
        batch.size(), jobs, kDefaultWorkerAttempts,
        [&](std::size_t i, unsigned attempt) {
            if (injector)
                injector->maybeWorkerFault(i, attempt);
            PlanOverrides ov;
            if (attempt > 0) {
                // A fresh RNG stream per attempt: replaying the exact
                // sequence that faulted would reproduce a genuinely
                // seed-dependent failure instead of recovering.
                ov.seed = deriveSeed(batch[i].cfg.seed,
                                     kRetrySeedStream, attempt);
            }
            const std::unique_ptr<System> system =
                plans[i].instantiate(ov);
            return runAndMeasure(*system, batch[i].cycles,
                                 batch[i].warmup);
        });
}

double
evaluateGaChild(const SystemPlan &plan, const ga::Genome &genome,
                std::uint64_t generation, std::size_t child,
                const std::vector<double> &alone_rate,
                Cycle epoch_cycles)
{
    const SystemConfig &cfg = plan.config();
    PlanOverrides ov;
    ov.seed = deriveSeed(cfg.seed, generation + 1, child);
    ov.reqBinsPerCore.emplace();
    ov.respBinsPerCore.emplace();
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        ov.reqBinsPerCore->push_back(gaReqBinsOf(cfg, genome, c));
        ov.respBinsPerCore->push_back(gaRespBinsOf(cfg, genome, c));
    }
    const std::unique_ptr<System> system = plan.instantiate(ov);
    system->run(epoch_cycles);
    return epochMiseFitness(*system, alone_rate, epoch_cycles);
}

double
epochMiseFitness(const System &system,
                 const std::vector<double> &alone_rate, Cycle epoch_cycles)
{
    std::vector<ga::MiseSample> samples(system.numCores());
    for (std::uint32_t c = 0; c < system.numCores(); ++c) {
        samples[c].alpha = system.coreAt(c).alpha();
        samples[c].aloneRate = alone_rate[c];
        samples[c].sharedRate =
            static_cast<double>(system.servedReads(c)) /
            static_cast<double>(epoch_cycles);
    }
    return ga::miseFitness(samples);
}

std::vector<double>
evaluateGenerationParallel(const SystemPlan &plan,
                           const std::vector<ga::Genome> &children,
                           std::uint64_t generation,
                           const std::vector<double> &alone_rate,
                           Cycle epoch_cycles, unsigned jobs)
{
    camo_assert(alone_rate.size() == plan.config().numCores,
                "need one alone rate per core");
    camo_assert(epoch_cycles > 0, "epoch must be positive");
    return parallelMap(children.size(), jobs, [&](std::size_t child) {
        return evaluateGaChild(plan, children[child], generation, child,
                               alone_rate, epoch_cycles);
    });
}

} // namespace camo::sim
