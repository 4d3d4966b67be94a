#include "probes.hpp"

#include <chrono>

#include "comm/boundary_plan.hpp"
#include "driver/load_balance.hpp"
#include "exec/par_for.hpp"
#include "io/checkpoint.hpp"
#include "mesh/block_pack.hpp"

namespace amrbench {

using namespace vibe;

namespace {

/** Timed calls per probe (after one untimed warm-up call). */
constexpr int kReps = 7;
/** Empty launches per timed batch of the launch-overhead probe. */
constexpr int kLaunchesPerBatch = 200;

/** Median seconds of kReps calls of `call()`, after a warm-up. */
template <typename F>
double
medianSeconds(F&& call)
{
    std::vector<double> seconds;
    for (int i = 0; i <= kReps; ++i) {
        const auto start = std::chrono::steady_clock::now();
        call();
        if (i > 0)
            seconds.push_back(secondsSince(start));
    }
    return median(seconds);
}

/**
 * Like medianSeconds, but every rank makes the same calls at once, so
 * a call that enters a collective finds its peers; rank 0 is timed.
 */
template <typename F>
double
collectiveMedianSeconds(DeckRun& run, F&& call)
{
    double result = 0;
    onEachRank(run, [&](int rank) {
        const double s = medianSeconds([&] { call(rank); });
        if (rank == 0)
            result = s;
    });
    return result;
}

} // namespace

Metrics
runProbes(DeckRun& run)
{
    Metrics m;
    Mesh& mesh = run.mesh(0);
    EvolutionDriver& driver = run.driver(0);
    const PackageDescriptor& package = run.package();
    const DriverConfig& config = run.driverConfig();

    std::int64_t cells = 0;
    for (const MeshBlock* block : mesh.ownedBlocks())
        cells += block->shape().interiorCells();
    const double blocks = static_cast<double>(mesh.ownedBlocks().size());
    m["pkg.probe_cells"] = {static_cast<double>(cells), "count"};
    m["pkg.probe_blocks"] = {blocks, "count"};

    // Interior kernels over rank 0's owned blocks (no communication).
    MeshBlockPack pack;
    pack.ensureBuilt(mesh);
    const double flux =
        medianSeconds([&] { package.calculateFluxesPack(mesh, pack); });
    const double div =
        medianSeconds([&] { package.fluxDivergencePack(mesh, pack); });
    m["pkg.calculate_fluxes_pack_ms"] = {flux * 1e3, "ms"};
    m["pkg.flux_divergence_pack_ms"] = {div * 1e3, "ms"};
    m["pkg.cells_per_s"] = {static_cast<double>(cells) / (flux + div),
                            "cells/s"};
    // The dt estimate ends in an AllReduce: every rank joins.
    const double dt = collectiveMedianSeconds(run, [&](int rank) {
        MeshBlockPack rank_pack;
        rank_pack.ensureBuilt(run.mesh(rank));
        package.estimateTimestepPack(run.mesh(rank), rank_pack, run.world(),
                                     config.fixedDt);
    });
    m["pkg.estimate_dt_pack_ms"] = {dt * 1e3, "ms"};

    // Pool dispatch cost: empty launches on the deck's execution space.
    const ExecContext& ctx = mesh.ctx();
    const int items = 64 * ctx.space().concurrency();
    const double batch = medianSeconds([&] {
        for (int i = 0; i < kLaunchesPerBatch; ++i)
            parForExec(ctx, 0, items - 1, [](int) {});
    });
    m["exec.launch_us"] = {batch / kLaunchesPerBatch * 1e6, "us"};
    m["exec.launch_items"] = {static_cast<double>(items), "count"};

    GradientTagger tagger(package);
    const double tag = medianSeconds(
        [&] { tagger.tagAll(mesh, driver.time(), driver.cycle()); });
    m["driver.tag_ms"] = {tag * 1e3, "ms"};
    m["driver.tag_blocks"] = {blocks, "count"};

    BoundaryPlan& plan = driver.exchange().plan();
    const double build = medianSeconds([&] {
        plan.invalidate();
        plan.ensureBuilt();
    });
    double entries = 0;
    double messages = 0;
    for (PlanPhase phase : {PlanPhase::Bounds, PlanPhase::Flux})
        for (const PlanMessage& msg : plan.messages(phase)) {
            entries += static_cast<double>(msg.entries.size());
            messages += 1;
        }
    m["comm.plan_build_ms"] = {build * 1e3, "ms"};
    m["comm.plan_entries"] = {entries, "count"};
    m["comm.plan_messages"] = {messages, "count"};

    // Capture is a gather to every rank; encoding is local to rank 0.
    CheckpointImage image;
    onEachRank(run, [&](int rank) {
        CheckpointImage mine = captureCheckpoint(
            run.mesh(rank), run.world(), package.name(),
            run.driver(rank).cycle(), run.driver(rank).time());
        if (rank == 0)
            image = std::move(mine);
    });
    std::size_t bytes = 0;
    const double encode =
        medianSeconds([&] { bytes = encodeCheckpoint(image).size(); });
    m["io.checkpoint_mb"] = {static_cast<double>(bytes) / 1e6, "MB"};
    m["io.encode_mbps"] = {static_cast<double>(bytes) / 1e6 / encode,
                           "MB/s"};

    // Last: a partition the probe adopts would move blocks under the
    // other probes.
    LoadBalanceOptions options;
    options.imbalanceTrigger = config.lbImbalanceTrigger;
    options.costMode = config.lbCost;
    const double lb = collectiveMedianSeconds(run, [&](int rank) {
        loadBalance(run.mesh(rank), run.world(), options);
    });
    m["driver.lb_probe_ms"] = {lb * 1e3, "ms"};
    m["driver.lb_blocks"] = {static_cast<double>(mesh.numBlocks()), "count"};
    return m;
}

} // namespace amrbench
