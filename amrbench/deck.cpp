#include "amrbench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include "driver/block_cost_model.hpp"
#include "io/checkpoint_writer.hpp"
#include "io/crc32.hpp"
#include "io/metrics_writer.hpp"
#include "pkg/package_registry.hpp"
#include "util/logging.hpp"
#include "util/parameter_input.hpp"

namespace amrbench {

using namespace vibe;

namespace {

using Clock = std::chrono::steady_clock;

/** Every deck uses 8^3 blocks, the paper's small-block regime. */
constexpr int kBlockSize = 8;

/**
 * The decks. Why each one exists is recorded beside its name in
 * BENCHMARK.json.
 */
const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> decks = [] {
        std::vector<Workload> all;

        // The paper's VIBE deck (fig07b, downsized): WENO5/HLL/RK2 on
        // 8 scalars, 3 AMR levels, one rank on a 4-thread pool.
        Workload burgers;
        burgers.name = "burgers_amr";
        burgers.package = "burgers";
        burgers.meshSize = 16;
        burgers.amrLevels = 3;
        burgers.params = {{"burgers", "num_scalars", "8"}};
        burgers.ranks = 1;
        burgers.threads = 4;
        burgers.ncycles = 10;
        burgers.massCheck = true;
        all.push_back(burgers);

        // Small blocks, deep levels, two real ranks: ghost exchange,
        // collectives and remesh carry the cycle.
        Workload advection;
        advection.name = "advection_amr";
        advection.package = "advection";
        advection.meshSize = 32;
        advection.amrLevels = 3;
        advection.ranks = 2;
        advection.threads = 2;
        advection.ncycles = 20;
        advection.velocityBlock = "advection";
        advection.massCheck = true;
        all.push_back(advection);

        // Uniform mesh with a stiff hotspot: measured-cost balancing
        // migrates blocks between ranks; async checkpoints gather the
        // same block state to rank 0 every 10 cycles.
        Workload reaction;
        reaction.name = "reaction_lb";
        reaction.package = "reaction";
        reaction.meshSize = 32;
        reaction.amrLevels = 1;
        reaction.ranks = 2;
        reaction.threads = 1;
        reaction.ncycles = 120;
        reaction.lbCost = "measured";
        reaction.lbTrigger = 0.2;
        reaction.checkpointEvery = 10;
        reaction.params = {{"reaction", "stiffness", "6.5"},
                           {"reaction", "max_iters", "2000"}};
        reaction.velocityBlock = "reaction";
        reaction.nonNegativeCheck = true;
        all.push_back(reaction);
        return all;
    }();
    return decks;
}

std::string
formatReal(double value)
{
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
}

/** `wall_seconds` of every cycle record in a JSONL heartbeat. */
std::vector<double>
heartbeatCycleWalls(const std::string& path)
{
    std::ifstream in(path);
    require(in.good(), "cannot read heartbeat '", path, "'");
    std::vector<double> walls;
    std::string line;
    const std::string key = "\"wall_seconds\":";
    while (std::getline(in, line)) {
        if (line.find("\"type\":\"cycle\"") == std::string::npos)
            continue;
        const std::size_t at = line.find(key);
        require(at != std::string::npos,
                "heartbeat cycle record without wall_seconds");
        walls.push_back(std::strtod(line.c_str() + at + key.size(),
                                    nullptr));
    }
    return walls;
}

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

const Workload*
findWorkload(const std::string& name)
{
    for (const Workload& w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

int
seedVariant(std::uint64_t seed)
{
    return static_cast<int>(seed % 48);
}

std::array<double, 3>
seedVelocity(std::uint64_t seed)
{
    static const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                    {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    const double base[3] = {1.0, 0.5, 0.25};
    const int variant = seedVariant(seed);
    const int* perm = perms[variant / 8];
    std::array<double, 3> v{};
    for (int d = 0; d < 3; ++d)
        v[d] = base[perm[d]] * ((variant >> d) & 1 ? -1.0 : 1.0);
    return v;
}

DeckRun::DeckRun(const Workload& workload, std::uint64_t seed,
                 const std::string& workdir)
    : workload_(&workload), workdir_(workdir)
{
    ParameterInput params;
    for (const auto& p : workload.params)
        params.set(p[0], p[1], p[2]);
    if (!workload.velocityBlock.empty()) {
        const std::array<double, 3> v = seedVelocity(seed);
        params.set(workload.velocityBlock, "vx", formatReal(v[0]));
        params.set(workload.velocityBlock, "vy", formatReal(v[1]));
        params.set(workload.velocityBlock, "vz", formatReal(v[2]));
    }
    package_ = PackageRegistry::instance().create(workload.package, params);
    registry_ = package_->buildRegistry();

    mesh_config_.ndim = 3;
    mesh_config_.nx1 = mesh_config_.nx2 = mesh_config_.nx3 =
        workload.meshSize;
    mesh_config_.blockNx1 = mesh_config_.blockNx2 =
        mesh_config_.blockNx3 = kBlockSize;
    mesh_config_.numGhost = 4;
    mesh_config_.amrLevels = workload.amrLevels;
    mesh_config_.numThreads = workload.threads;
    mesh_config_.numRanks = workload.ranks;

    // Same loop controls as Experiment::run for a numeric spec.
    driver_config_.ncycles = workload.ncycles;
    driver_config_.fixedDt =
        0.4 / (static_cast<double>(workload.meshSize) *
               static_cast<double>(1 << (workload.amrLevels - 1)));
    driver_config_.lbCost = lbCostModeFromName(workload.lbCost);
    driver_config_.lbImbalanceTrigger = workload.lbTrigger;
    driver_config_.checkpointEvery = workload.checkpointEvery;
    driver_config_.checkpointPath =
        workdir + "/" + workload.name + ".ckpt";
    driver_config_.checkpointAsync = true;
}

DeckRun::~DeckRun() = default;

void
DeckRun::run()
{
    require(!driver_ && !team_, "DeckRun::run() may only be called once");
    if (workload_->checkpointEvery > 0)
        checkpoint_writer_ = std::make_unique<CheckpointWriter>(
            driver_config_.checkpointPath, true);

    if (ranks() == 1) {
        const auto start = Clock::now();
        ctx_ = std::make_unique<ExecContext>(
            ExecMode::Execute, &profiler_, &tracker_,
            makeExecutionSpace(workload_->threads));
        mesh_ = std::make_unique<Mesh>(mesh_config_, registry_, *ctx_);
        world_ = std::make_unique<RankWorld>(1);
        tagger_ = std::make_unique<GradientTagger>(*package_);
        driver_ = std::make_unique<EvolutionDriver>(
            *mesh_, *package_, *world_, *tagger_, driver_config_);
        driver_->setCheckpointWriter(checkpoint_writer_.get());
        driver_->initialize();
        setup_seconds_ = secondsSince(start);
        while (driver_->cycle() < driver_config_.ncycles) {
            const auto cycle_start = Clock::now();
            driver_->doCycle();
            cycle_seconds_.push_back(secondsSince(cycle_start));
        }
    } else {
        const std::string heartbeat =
            workdir_ + "/" + workload_->name + ".metrics.jsonl";
        const auto start = Clock::now();
        heartbeat_ = std::make_unique<MetricsWriter>(heartbeat);
        const PackageDescriptor* package = package_.get();
        team_ = std::make_unique<RankTeam>(
            mesh_config_, registry_, *package_, driver_config_,
            [package](int) {
                return std::make_unique<GradientTagger>(*package);
            });
        team_->setCheckpointWriter(checkpoint_writer_.get());
        team_->setMetricsWriter(heartbeat_.get());
        team_->run();
        const double total = secondsSince(start);
        cycle_seconds_ = heartbeatCycleWalls(heartbeat);
        require(static_cast<std::int64_t>(cycle_seconds_.size()) ==
                    driver_config_.ncycles,
                "heartbeat holds ", cycle_seconds_.size(),
                " cycle records, expected ", driver_config_.ncycles);
        setup_seconds_ =
            total - std::accumulate(cycle_seconds_.begin(),
                                    cycle_seconds_.end(), 0.0);
    }
    if (checkpoint_writer_) {
        checkpoint_writer_->finish();
        snapshots_ = checkpoint_writer_->snapshots();
    }
}

Mesh&
DeckRun::mesh(int rank)
{
    return team_ ? team_->mesh(rank) : *mesh_;
}

EvolutionDriver&
DeckRun::driver(int rank)
{
    return team_ ? team_->driver(rank) : *driver_;
}

RankWorld&
DeckRun::world()
{
    return team_ ? team_->world() : *world_;
}

MeshBlock*
DeckRun::ownedBlock(const LogicalLocation& loc)
{
    return team_ ? team_->ownedBlock(loc) : mesh_->find(loc);
}

std::vector<CycleStats>
DeckRun::history()
{
    return team_ ? team_->aggregatedHistory() : driver_->history();
}

KernelProfiler
DeckRun::profiler()
{
    if (!team_)
        return profiler_;
    KernelProfiler merged;
    team_->mergeInstrumentation(&merged, nullptr);
    return merged;
}

DeckRun::MemoryFacts
DeckRun::memory()
{
    MemoryTracker merged;
    if (team_)
        team_->mergeInstrumentation(nullptr, &merged);
    const MemoryTracker& t = team_ ? merged : tracker_;
    return {t.peakBytes(), t.poolHits(), t.poolMisses()};
}

std::uint32_t
DeckRun::stateDigest()
{
    std::vector<double> state;
    for (const auto& block : mesh(0).blocks()) {
        const MeshBlock* owned = ownedBlock(block->loc());
        require(owned != nullptr && owned->hasData(), "block ",
                block->loc().str(), " has no owner replica with data");
        const RealArray4& cons = owned->cons();
        state.insert(state.end(), cons.data(), cons.data() + cons.size());
    }
    return io::crc32(state.data(), state.size() * sizeof(double));
}

void
onEachRank(DeckRun& run, const std::function<void(int)>& fn)
{
    if (run.ranks() == 1) {
        fn(0);
        return;
    }
    std::mutex mutex;
    std::exception_ptr first;
    std::vector<std::thread> threads;
    for (int rank = 0; rank < run.ranks(); ++rank)
        threads.emplace_back([&, rank] {
            try {
                fn(rank);
            } catch (const std::exception& e) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!first)
                        first = std::current_exception();
                }
                // Wake peers blocked in a collective on this rank.
                run.world().markFailed(e.what());
            }
        });
    for (std::thread& t : threads)
        t.join();
    if (first)
        std::rethrow_exception(first);
}

} // namespace amrbench
