/**
 * @file trace_smoke.cpp
 * Observability smoke driver (the CI trace leg).
 *
 * Default mode runs a small numeric burgers simulation on 2 simulated
 * ranks x 2 pool threads with tracing, JSONL metrics, and periodic
 * checkpoints all enabled, writing the two obs artifacts to the paths
 * given on the command line; tools/obs/validate_trace.py then checks
 * them against the schema. The configuration is chosen to exercise
 * every span site: remesh, load-balance migration, coalesced boundary
 * exchange, rendezvous collectives, and the async checkpoint drain.
 *
 * --overhead mode is the release-bench guard for the "near-zero cost
 * when off" contract: it runs the same workload three times with
 * tracing off — asserting the figure of merit is stable to within a
 * generous noise bound (a hot-path regression such as accidentally
 * enabled recording or a per-span allocation shows up as a gross
 * outlier) — plus once with tracing on, asserting the simulation state
 * (conserved mass history) is bitwise identical either way.
 *
 * Usage:
 *   trace_smoke TRACE.json METRICS.jsonl
 *   trace_smoke --overhead
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace {

vibe::ExperimentSpec
smokeSpec()
{
    vibe::ExperimentSpec spec;
    spec.meshSize = 16;
    spec.blockSize = 8;
    spec.amrLevels = 2;
    spec.ncycles = 6;
    spec.numeric = true;
    spec.package = "burgers";
    spec.numThreads = 2;
    spec.numRanks = 2;
    spec.platform = vibe::PlatformConfig::cpu(4);
    return spec;
}

int
runSmoke(const std::string& trace_path,
         const std::string& metrics_path)
{
    using namespace vibe;
    ExperimentSpec spec = smokeSpec();
    spec.tracePath = trace_path;
    spec.metricsPath = metrics_path;
    spec.checkpointEvery = 3;
    spec.checkpointPath = metrics_path + ".ckpt";
    ExperimentResult result = Experiment(spec).run();

    std::cout << "trace_smoke: " << result.history.size()
              << " cycles, " << result.finalBlocks << " final blocks, "
              << result.checkpointsWritten << " checkpoints\n"
              << "  trace:   " << trace_path << "\n"
              << "  metrics: " << metrics_path << "\n"
              << "  idle fraction: " << result.idle.idleFraction()
              << "\n";
    if (result.history.empty()) {
        std::cerr << "trace_smoke: run recorded no cycles\n";
        return 1;
    }
    return 0;
}

int
runOverhead()
{
    using namespace vibe;
    const ExperimentSpec spec = smokeSpec();

    std::vector<double> off_foms;
    std::vector<double> off_mass;
    for (int attempt = 0; attempt < 3; ++attempt) {
        const ExperimentResult result = Experiment(spec).run();
        off_foms.push_back(result.measuredFom());
        off_mass.push_back(result.history.back().mass);
    }

    ExperimentSpec on_spec = spec;
    on_spec.tracePath = "trace_smoke_overhead.trace.json";
    on_spec.metricsPath = "trace_smoke_overhead.metrics.jsonl";
    const ExperimentResult on = Experiment(on_spec).run();

    double fom_min = off_foms.front();
    double fom_max = off_foms.front();
    for (double fom : off_foms) {
        fom_min = fom < fom_min ? fom : fom_min;
        fom_max = fom > fom_max ? fom : fom_max;
    }
    std::cout << "trace_smoke --overhead: tracing-off FOM ["
              << fom_min << ", " << fom_max << "] zc/s, tracing-on "
              << on.measuredFom() << " zc/s\n";

    int failures = 0;
    // Noise bound: loaded CI machines jitter, but a hot-path
    // regression (recording while "off", allocation per span site)
    // costs integer factors, not percents.
    if (fom_min < 0.25 * fom_max) {
        std::cerr << "FAIL: tracing-off FOM spread exceeds noise "
                     "bound: ["
                  << fom_min << ", " << fom_max << "]\n";
        ++failures;
    }
    for (double mass : off_mass) {
        if (std::memcmp(&mass, &off_mass.front(), sizeof mass) != 0) {
            std::cerr << "FAIL: tracing-off runs disagree on mass\n";
            ++failures;
            break;
        }
    }
    const double on_mass = on.history.back().mass;
    if (std::memcmp(&on_mass, &off_mass.front(), sizeof on_mass) !=
        0) {
        std::cerr << "FAIL: tracing-on mass differs from tracing-off "
                     "(tracing must not perturb the simulation): "
                  << on_mass << " vs " << off_mass.front() << "\n";
        ++failures;
    }
    if (failures == 0)
        std::cout << "trace_smoke --overhead: OK\n";
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 2 && std::string(argv[1]) == "--overhead")
        return runOverhead();
    if (argc == 3)
        return runSmoke(argv[1], argv[2]);
    std::cerr << "usage: trace_smoke TRACE.json METRICS.jsonl\n"
                 "       trace_smoke --overhead\n";
    return 2;
}
