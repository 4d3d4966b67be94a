/**
 * @file amrbench.hpp
 * The layered AMR benchmark: three fixed decks run as closed batch
 * runs from one process, measured from outside the program through its
 * public entry points (EvolutionDriver::initialize/doCycle,
 * RankTeam::run, the package `*Pack` callbacks, BoundaryPlan,
 * loadBalance, captureCheckpoint/encodeCheckpoint, tagAll, parForExec)
 * and the outputs it already produces (CycleStats, the JSONL
 * heartbeat, the trace recorder's events).
 */
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "driver/rank_team.hpp"
#include "driver/tagger.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "pkg/package_descriptor.hpp"

namespace amrbench {

/** One fixed deck. Only the advection velocity varies (by seed). */
struct Workload
{
    std::string name;
    std::string package;
    int meshSize = 16;
    int amrLevels = 3;
    int ranks = 1;
    int threads = 1;
    std::int64_t ncycles = 10;
    std::string lbCost = "uniform";
    double lbTrigger = 0.0;
    std::int64_t checkpointEvery = 0;
    /** Extra {block, key, value} deck parameters. */
    std::vector<std::array<std::string, 3>> params;
    /** Package block whose vx/vy/vz the seed selects ("" = none). */
    std::string velocityBlock;
    /** Check that the history mass is conserved. */
    bool massCheck = false;
    /** Check that every conserved component stays >= 0. */
    bool nonNegativeCheck = false;
};

/** The deck named `name`, or nullptr. */
const Workload* findWorkload(const std::string& name);

/**
 * Seed -> advection velocity: one of the 48 sign flips and axis
 * permutations of (1, 0.5, 0.25). Seed 0 is the package default.
 */
std::array<double, 3> seedVelocity(std::uint64_t seed);

/** Variant index the seed selects (0..47). */
int seedVariant(std::uint64_t seed);

/**
 * One closed run of a deck: construction + initialize (setup), then
 * exactly `ncycles` cycles, each timed. Owns everything it built, so
 * the settled mesh stays available for checks and probes afterwards.
 */
class DeckRun
{
  public:
    /** `workdir` receives the heartbeat and checkpoint files. */
    DeckRun(const Workload& workload, std::uint64_t seed,
            const std::string& workdir);
    ~DeckRun();

    DeckRun(const DeckRun&) = delete;
    DeckRun& operator=(const DeckRun&) = delete;

    /** Build, initialize and evolve; call once. */
    void run();

    const Workload& workload() const { return *workload_; }
    int ranks() const { return workload_->ranks; }
    vibe::Mesh& mesh(int rank);
    vibe::EvolutionDriver& driver(int rank);
    vibe::RankWorld& world();
    const vibe::PackageDescriptor& package() const { return *package_; }
    const vibe::DriverConfig& driverConfig() const { return driver_config_; }

    /** Block at `loc` on its owner's replica (real storage). */
    vibe::MeshBlock* ownedBlock(const vibe::LogicalLocation& loc);

    /** Construction + initialize() wall seconds. */
    double setupSeconds() const { return setup_seconds_; }
    /** Wall seconds of each cycle (rank 0's view on a team). */
    const std::vector<double>& cycleSeconds() const
    {
        return cycle_seconds_;
    }
    /** Team-aggregated history (the per-rank one on a single rank). */
    std::vector<vibe::CycleStats> history();

    /** Run-wide memory-tracker facts. */
    struct MemoryFacts
    {
        std::size_t peakBytes = 0; ///< Sum of per-rank peaks.
        std::uint64_t poolHits = 0;
        std::uint64_t poolMisses = 0;
    };

    /** Run-wide kernel counters and memory facts. */
    vibe::KernelProfiler profiler();
    MemoryFacts memory();

    /** Checkpoint snapshots written (0 if the deck takes none). */
    std::int64_t snapshots() const { return snapshots_; }

    /** CRC-32 of every block's `cons` in gid order. */
    std::uint32_t stateDigest();

  private:
    const Workload* workload_;
    std::string workdir_;
    std::unique_ptr<vibe::PackageDescriptor> package_;
    vibe::VariableRegistry registry_;
    vibe::MeshConfig mesh_config_;
    vibe::DriverConfig driver_config_;
    // Declared before the drivers that hold pointers to them.
    std::unique_ptr<vibe::CheckpointWriter> checkpoint_writer_;
    std::unique_ptr<vibe::MetricsWriter> heartbeat_;

    // Single-rank path: the benchmark drives the cycle loop itself.
    vibe::KernelProfiler profiler_;
    vibe::MemoryTracker tracker_;
    std::unique_ptr<vibe::ExecContext> ctx_;
    std::unique_ptr<vibe::Mesh> mesh_;
    std::unique_ptr<vibe::RankWorld> world_;
    std::unique_ptr<vibe::RefinementTagger> tagger_;
    std::unique_ptr<vibe::EvolutionDriver> driver_;
    // Team path: RankTeam::run owns the loop; cycle walls come from
    // the heartbeat.
    std::unique_ptr<vibe::RankTeam> team_;

    double setup_seconds_ = 0;
    std::vector<double> cycle_seconds_;
    std::int64_t snapshots_ = 0;
};

/** One named metric value. */
struct Metric
{
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** One correctness check outcome. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Median of `values` (0 when empty). */
double median(std::vector<double> values);

/** Wall seconds since `start`. */
double secondsSince(std::chrono::steady_clock::time_point start);

/**
 * Run `fn(rank)` for every rank concurrently (inline on one rank), so
 * calls that enter a collective find their peers. Rethrows the first
 * failure after every thread has joined.
 */
void onEachRank(DeckRun& run, const std::function<void(int)>& fn);

} // namespace amrbench
