/**
 * @file amrbench.cpp
 * Benchmark driver: one deck, one seed, one mode.
 *
 *   amrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--workdir <dir>]
 *
 * --trace 0 repeats closed runs of the deck (construct, initialize,
 * evolve its fixed cycle count) until `seconds` have passed and at
 * least enough cycles were sampled for the deck's tail percentile,
 * then reports the end-to-end metrics with tracing off.
 *
 * --trace 1 makes an untraced warm-up run, one traced run and one more
 * untraced run (the overhead baseline), reduces the trace to the
 * per-module layer table, runs the layer probes on the traced run's
 * settled mesh, and reports the per-layer metrics.
 *
 * Every run is checked (finite state, conservation or positivity, and
 * the cons digest the caller compares with the stored golden value).
 * Human-readable tables go to stderr; the last stdout line is one JSON
 * object with the metrics, checks and digests.
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <sstream>

#include "amrbench.hpp"
#include "layers.hpp"
#include "perfmodel/execution_model.hpp"
#include "perfmodel/platform.hpp"
#include "probes.hpp"

namespace {

using namespace vibe;
using namespace amrbench;
using Clock = std::chrono::steady_clock;

/** The interior kernels the per-kernel layer metrics follow. */
const std::vector<std::string> kKernels = {
    "CalculateFluxes", "FluxDivergence",  "WeightedSumData",
    "CalculateDerived", "EstTimeMesh",    "MassHistory",
    "FirstDerivative"};

/**
 * Tail percentile per deck: the highest of 99/95/90/75 that leaves at
 * least ten cycles above it once the minimum number of runs is made.
 */
constexpr double kTailCandidates[] = {99.0, 95.0, 90.0, 75.0};
constexpr int kMaxTailRuns = 6;
constexpr int kTailSamplesBeyond = 10;

struct TailPlan
{
    double percentile = 50;
    int minRuns = 1;
};

TailPlan
tailPlan(std::int64_t cycles_per_run)
{
    for (double p : kTailCandidates) {
        const double beyond_per_run =
            static_cast<double>(cycles_per_run) * (1.0 - p / 100.0);
        const int runs = static_cast<int>(
            std::ceil(kTailSamplesBeyond / beyond_per_run - 1e-9));
        if (runs <= kMaxTailRuns)
            return {p, std::max(runs, 1)};
    }
    return {50.0, kMaxTailRuns};
}

/** Linear-interpolated percentile (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
hex(std::uint32_t value)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", value);
    return buf;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

/** Evolve-phase facts of one finished run. */
struct RunSample
{
    double setup = 0;
    double evolve = 0;
    double zoneCycles = 0;
    double simTime = 0;
    std::vector<double> cycles;
};

RunSample
sample(DeckRun& run)
{
    RunSample s;
    s.setup = run.setupSeconds();
    s.cycles = run.cycleSeconds();
    s.evolve = std::accumulate(s.cycles.begin(), s.cycles.end(), 0.0);
    for (const CycleStats& c : run.history()) {
        s.zoneCycles += static_cast<double>(c.interiorCells);
        s.simTime += c.dt;
    }
    return s;
}

/** Correctness checks on a finished run's state and history. */
void
checkRun(DeckRun& run, const std::string& label, std::vector<Check>* checks)
{
    const Workload& w = run.workload();
    const std::vector<CycleStats> history = run.history();
    checks->push_back(
        {label + ".cycles",
         static_cast<std::int64_t>(history.size()) == w.ncycles,
         std::to_string(history.size()) + " cycles"});

    std::int64_t nonfinite = 0;
    double min_value = INFINITY;
    for (const auto& block : run.mesh(0).blocks()) {
        const MeshBlock* owned = run.ownedBlock(block->loc());
        if (owned == nullptr || !owned->hasData()) {
            ++nonfinite;
            continue;
        }
        const RealArray4& cons = owned->cons();
        const BlockShape& s = owned->shape();
        for (std::size_t i = 0; i < cons.size(); ++i)
            if (!std::isfinite(cons.data()[i]))
                ++nonfinite;
        for (int n = 0; n < cons.nvar(); ++n)
            for (int k = s.ks(); k <= s.ke(); ++k)
                for (int j = s.js(); j <= s.je(); ++j)
                    for (int i = s.is(); i <= s.ie(); ++i)
                        min_value = std::min(min_value, cons(n, k, j, i));
    }
    checks->push_back({label + ".finite", nonfinite == 0,
                       std::to_string(nonfinite) + " non-finite values"});

    if (w.massCheck && !history.empty()) {
        const double first = history.front().mass;
        const double last = history.back().mass;
        const double drift =
            std::abs(last - first) / std::max(std::abs(first), 1e-300);
        checks->push_back({label + ".mass_drift", drift <= 1e-12,
                           "relative drift " + jsonNumber(drift)});
    }
    if (w.nonNegativeCheck)
        checks->push_back({label + ".nonnegative", min_value >= 0.0,
                           "min interior value " + jsonNumber(min_value)});
}

/** Run one deck under the caller's checks; a throw is a failed check. */
bool
runChecked(DeckRun& run, const std::string& label,
           std::vector<Check>* checks, std::vector<std::string>* digests)
{
    try {
        run.run();
    } catch (const std::exception& e) {
        checks->push_back({label + ".completed", false, e.what()});
        return false;
    }
    checks->push_back({label + ".completed", true, ""});
    checkRun(run, label, checks);
    digests->push_back(hex(run.stateDigest()));
    return true;
}

Metrics
endToEnd(const Workload& w, std::uint64_t seed, double seconds,
         const std::string& workdir, std::vector<Check>* checks,
         std::vector<std::string>* digests, std::ostream& log)
{
    const TailPlan tail = tailPlan(w.ncycles);
    std::vector<RunSample> samples;
    const auto start = Clock::now();
    int runs = 0;
    do {
        const std::string label = "run" + std::to_string(runs);
        ++runs;
        {
            DeckRun run(w, seed, workdir);
            if (!runChecked(run, label, checks, digests))
                break;
            samples.push_back(sample(run));
        }
        // Hand the run's freed heap back to the system, so every run
        // starts from the same resident set and the process high-water
        // mark is one run's peak.
        malloc_trim(0);
        const RunSample& s = samples.back();
        log << label << ": setup " << s.setup << " s, evolve " << s.evolve
            << " s, " << s.zoneCycles / s.evolve << " zone-cycles/s\n";
    } while (secondsSince(start) < seconds ||
             (seconds > 0 && runs < tail.minRuns));

    Metrics m;
    if (samples.empty())
        return m;
    std::vector<double> fom, simrate, setup, cycles;
    for (const RunSample& s : samples) {
        fom.push_back(s.zoneCycles / s.evolve);
        simrate.push_back(s.simTime / s.evolve);
        setup.push_back(s.setup);
        cycles.insert(cycles.end(), s.cycles.begin(), s.cycles.end());
    }
    // Too few runs for the planned tail (a --seconds 0 digest run):
    // fall back to the median.
    const double tail_p =
        runs >= tail.minRuns ? tail.percentile : 50.0;
    m["fom_zcps"] = {median(fom), "zc/s"};
    m["simtime_per_s"] = {median(simrate), "s/s"};
    m["cycle_ms_p50"] = {median(cycles) * 1e3, "ms"};
    m["cycle_ms_tail"] = {percentile(cycles, tail_p) * 1e3, "ms"};
    m["setup_s"] = {median(setup), "s"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};
    log << w.name << ": " << samples.size() << " runs x " << w.ncycles
        << " cycles; cycle_ms_tail is p" << tail_p << " of "
        << cycles.size() << " cycles ("
        << std::lround(static_cast<double>(cycles.size()) *
                       (1 - tail_p / 100))
        << " beyond it)\n";
    return m;
}

double
sumSpans(const LayerTable& t, std::initializer_list<const char*> names)
{
    double total = 0;
    for (const char* n : names) {
        const auto it = t.spanSeconds.find(n);
        if (it != t.spanSeconds.end())
            total += it->second;
    }
    return total;
}

Metrics
perLayer(const Workload& w, std::uint64_t seed, const std::string& workdir,
         std::vector<Check>* checks, std::vector<std::string>* digests,
         std::ostream& log)
{
    Metrics m;
    // The first run in a process pays cold caches and page faults, so
    // an untraced warm-up precedes the traced run and the overhead
    // baseline is an untraced run made after it.
    {
        DeckRun warmup(w, seed, workdir);
        if (!runChecked(warmup, "warmup", checks, digests))
            return m;
    }
    malloc_trim(0);

    TraceRecorder& recorder = TraceRecorder::instance();
    recorder.start();
    DeckRun run(w, seed, workdir);
    const bool traced_ok = runChecked(run, "traced", checks, digests);
    const std::uint64_t dropped = recorder.dropped();
    // drain() also stops recording, whether or not the run completed.
    const std::vector<TraceEvent> events = recorder.drain();
    if (!traced_ok)
        return m;
    const RunSample traced = sample(run);
    double base_evolve = 0;
    {
        DeckRun base(w, seed, workdir);
        if (!runChecked(base, "untraced", checks, digests))
            return m;
        base_evolve = sample(base).evolve;
    }

    const int threads = w.threads;
    const LayerTable t = reduceTrace(
        events, threads,
        [&run](int rank) -> const std::vector<CycleStats>& {
            return run.driver(rank).history();
        });
    checks->push_back({"trace.dropped", dropped == 0,
                       std::to_string(dropped) + " events dropped"});
    checks->push_back(
        {"trace.windows", t.windows == w.ranks * w.ncycles,
         std::to_string(t.windows) + " rank-cycle windows"});
    // Spans may not claim more than the capacity (beyond timer noise),
    // and the task spans must add up to the graphs' busy time.
    checks->push_back({"trace.closure", t.worstResidual >= -0.02,
                       "smallest cycle residual " +
                           jsonNumber(t.worstResidual) + " of capacity"});
    checks->push_back({"trace.busy_matches_cyclestats",
                       t.worstBusyGap <= 0.01,
                       "worst cycle gap " + jsonNumber(t.worstBusyGap) +
                           " of capacity"});

    // Counters and the model are read before the probes add launches.
    const KernelProfiler profiler = run.profiler();
    const DeckRun::MemoryFacts memory = run.memory();
    const Traffic traffic = run.world().traffic();
    const std::vector<CycleStats> history = run.history();

    for (const std::string& k : kKernels) {
        KernelStats stats;
        for (const auto& [key, s] : profiler.kernels())
            if (key.second == k && key.first != "Initialise") {
                stats.launches += s.launches;
                stats.flops += s.flops;
                stats.bytes += s.bytes;
            }
        const auto it = t.spanSeconds.find(k);
        m["pkg." + k + ".s"] = {it != t.spanSeconds.end() ? it->second : 0,
                                "thread-s"};
        m["pkg." + k + ".launches"] = {static_cast<double>(stats.launches),
                                       "count"};
        m["pkg." + k + ".gflop"] = {stats.flops / 1e9, "GFLOP"};
        m["pkg." + k + ".gb_computed"] = {stats.bytes / 1e9, "GB"};
    }

    double busy = 0;
    for (const auto& [module, seconds] : t.modules)
        if (module != "idle" && module != "unattributed")
            busy += seconds;
    m["exec.busy_thread_s"] = {busy, "thread-s"};
    m["exec.idle_thread_s"] = {t.modules.at("idle"), "thread-s"};
    m["exec.parallel_eff"] = {t.capacity > 0 ? busy / t.capacity : 0,
                              "frac"};

    m["comm.send_s"] = {sumSpans(t, {"SendBoundBufs"}), "thread-s"};
    m["comm.set_bounds_s"] = {sumSpans(t, {"SetBounds"}), "thread-s"};
    m["comm.recv_poll_s"] = {
        sumSpans(t, {"ReceiveBoundBufs", "StartReceiveBoundBufs"}),
        "thread-s"};
    m["comm.flux_corr_s"] = {
        sumSpans(t, {"FluxCorrSend", "FluxCorrRecv", "FluxCorrApply",
                     "ExchangeFluxCorrections"}),
        "thread-s"};
    m["comm.polls"] = {static_cast<double>(t.polls), "count"};
    m["comm.poll_hit_ratio"] = {
        t.polls > 0 ? static_cast<double>(t.pollHits) /
                          static_cast<double>(t.polls)
                    : 1.0,
        "frac"};

    const double ncycles = static_cast<double>(history.size());
    double msgs = 0, bytes = 0, wire = 0, ghost_bytes = 0, blocks = 0;
    double refined = 0, derefined = 0, moved = 0, migrated = 0;
    double critical = 0, lb_imbalance = 0, lb_samples = 0;
    double task_wall = 0, task_busy = 0;
    // Ghost volume: every block's ghost shell, every conserved
    // component, both RK stages of a cycle.
    const MeshBlock& any =
        *run.ownedBlock(run.mesh(0).blocks().front()->loc());
    const double ghost_cells_per_block = static_cast<double>(
        any.shape().totalCells() - any.shape().interiorCells());
    const int ncons = any.cons().nvar();
    for (const CycleStats& c : history) {
        msgs += static_cast<double>(c.boundaryMessages);
        bytes += c.boundaryBytes;
        wire += static_cast<double>(c.wireCells);
        ghost_bytes += 2.0 * static_cast<double>(c.nblocks) *
                       ghost_cells_per_block * ncons * sizeof(double);
        blocks += static_cast<double>(c.nblocks);
        refined += c.refined;
        derefined += c.derefined;
        moved += c.movedBlocks;
        migrated += c.migratedStorageBytes;
        critical += c.criticalPathSeconds;
        task_wall += c.taskWallSeconds;
        task_busy += c.busySeconds;
        if (c.lbImbalance > 0) {
            lb_imbalance += c.lbImbalance;
            lb_samples += 1;
        }
    }
    m["comm.msgs_per_cycle"] = {msgs / ncycles, "count"};
    m["comm.bytes_per_cycle"] = {bytes / ncycles, "B"};
    m["comm.wire_cells_per_cycle"] = {wire / ncycles, "count"};
    m["comm.bytes_over_ghost"] = {ghost_bytes > 0 ? bytes / ghost_bytes : 0,
                                  "ratio"};
    m["comm.rendezvous_s"] = {sumSpans(t, {"Rendezvous"}), "thread-s"};
    m["comm.remote_msgs"] = {static_cast<double>(traffic.remoteMessages),
                             "count"};
    m["comm.remote_bytes"] = {traffic.remoteBytes, "B"};
    // Straggler idle: capacity of the slowest rank's graph windows on
    // every rank that task bodies did not use.
    const double team_capacity = task_wall * w.ranks * w.threads;
    m["driver.straggler_idle_frac"] = {
        team_capacity > 0 ? 1.0 - task_busy / team_capacity : 0, "frac"};
    m["driver.lb_imbalance"] = {
        lb_samples > 0 ? lb_imbalance / lb_samples : 1.0, "ratio"};

    m["mesh.blocks_mean"] = {blocks / ncycles, "count"};
    m["mesh.refined"] = {refined, "count"};
    m["mesh.derefined"] = {derefined, "count"};
    m["mesh.prolong_restrict_s"] = {sumSpans(t, {"ProlongRestrictLoop"}),
                                    "thread-s"};
    m["driver.lb_amr_s"] = {sumSpans(t, {"LoadBalancingAndAMR"}), "thread-s"};
    m["driver.migrate_s"] = {sumSpans(t, {"MigrateBlocks"}), "thread-s"};
    m["driver.moved_blocks"] = {moved, "count"};
    m["driver.migrated_mb"] = {migrated / 1e6, "MB"};

    m["io.capture_s"] = {
        sumSpans(t, {"CheckpointCapture", "CheckpointCaptureGather"}),
        "thread-s"};
    m["io.drain_s"] = {t.drainSeconds, "s"};
    m["io.snapshots"] = {static_cast<double>(run.snapshots()), "count"};

    m["mesh.tracked_peak_mb"] = {static_cast<double>(memory.peakBytes) /
                                     1e6,
                                 "MB"};
    const double pool_requests =
        static_cast<double>(memory.poolHits + memory.poolMisses);
    m["mesh.pool_hit_ratio"] = {
        pool_requests > 0
            ? static_cast<double>(memory.poolHits) / pool_requests
            : 0,
        "frac"};

    m["driver.estimate_dt_s"] = {sumSpans(t, {"EstimateTimeStep"}),
                                 "thread-s"};
    m["driver.critical_path_s"] = {critical, "s"};
    m["driver.unattributed_frac"] = {
        t.capacity > 0 ? t.modules.at("unattributed") / t.capacity : 0,
        "frac"};
    for (const std::string& module : kModules)
        m["layer." + module + "_s"] = {t.modules.at(module), "thread-s"};
    m["layer.capacity_s"] = {t.capacity, "thread-s"};

    m["obs.trace_overhead_frac"] = {traced.evolve / base_evolve - 1.0,
                                    "frac"};
    m["obs.trace_events"] = {static_cast<double>(events.size()), "count"};
    m["obs.trace_dropped"] = {static_cast<double>(dropped), "count"};

    // src/perfmodel's per-kernel CPU time for the same evolve-phase
    // counters, on the cores PlatformConfig::cpu(4) grants.
    const ExecutionModel model;
    const PlatformConfig platform = PlatformConfig::cpu(4);
    const int cores =
        std::min(platform.ranks, model.cpu().cores * platform.nodes);
    std::map<std::string, double> modeled;
    for (const auto& [key, s] : profiler.kernels())
        if (key.first != "Initialise")
            modeled[key.second] +=
                model.kernelModel().evaluateCpu(s, model.cpu(), cores);
    double model_total = 0, measured_total = 0;
    for (const std::string& k : kKernels) {
        model_total += modeled[k];
        measured_total += m["pkg." + k + ".s"].value;
    }
    double gap = 0;
    log << "\nkernel share of the seven interior kernels: model "
           "(src/perfmodel, PlatformConfig::cpu(4)) vs measured (trace)\n";
    char line[160];
    for (const std::string& k : kKernels) {
        const double model =
            model_total > 0 ? modeled[k] / model_total : 0;
        const double measured =
            measured_total > 0 ? m["pkg." + k + ".s"].value / measured_total
                               : 0;
        gap = std::max(gap, std::abs(model - measured));
        m["perfmodel." + k + ".model_frac"] = {model, "frac"};
        m["perfmodel." + k + ".measured_frac"] = {measured, "frac"};
        std::snprintf(line, sizeof line,
                      "  %-18s model %6.3f  measured %6.3f\n", k.c_str(),
                      model, measured);
        log << line;
    }
    m["perfmodel.kernel_frac_gap"] = {gap, "frac"};

    log << "\nlayer table (" << t.windows << " rank-cycle windows, "
        << w.threads << " threads per rank; thread-seconds)\n";
    for (const std::string& module : kModules) {
        std::snprintf(line, sizeof line, "  %-14s %10.4f  %6.1f%%\n",
                      module.c_str(), t.modules.at(module),
                      t.capacity > 0 ? 100 * t.modules.at(module) / t.capacity
                                     : 0);
        log << line;
    }
    std::snprintf(line, sizeof line, "  %-14s %10.4f  (cycle wall x threads)\n",
                  "capacity", t.capacity);
    log << line;
    log << "  off-thread checkpoint drain " << t.drainSeconds
        << " s; trace overhead "
        << 100 * m["obs.trace_overhead_frac"].value << "% of evolve\n";

    const Metrics probes = runProbes(run);
    log << "\nprobes (median of repeated calls on the settled mesh)\n";
    for (const auto& [name, metric] : probes) {
        std::snprintf(line, sizeof line, "  %-28s %14.6g %s\n", name.c_str(),
                      metric.value, metric.unit.c_str());
        log << line;
        m[name] = metric;
    }
    return m;
}

void
usage()
{
    std::cerr << "usage: amrbench --workload <burgers_amr|advection_amr|"
                 "reaction_lb> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>]\n";
}

} // namespace

int
main(int argc, char** argv)
{
    // One malloc arena for every thread: glibc otherwise gives threads
    // arenas by first use, and the pool and rank threads each run makes
    // land in different ones, so the resident set would vary with
    // thread scheduling rather than with the program.
    mallopt(M_ARENA_MAX, 1);
    std::string workload_name;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string workdir = ".bench_build/work";
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (a + 1 >= argc) {
            usage();
            return 2;
        }
        const char* value = argv[++a];
        if (arg == "--workload")
            workload_name = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(value);
        else if (arg == "--trace")
            trace = std::atoi(value);
        else if (arg == "--workdir")
            workdir = value;
        else {
            usage();
            return 2;
        }
    }
    const Workload* w = findWorkload(workload_name);
    if (w == nullptr || (trace != 0 && trace != 1)) {
        usage();
        return 2;
    }
    std::filesystem::create_directories(workdir);

    std::vector<Check> checks;
    std::vector<std::string> digests;
    Metrics metrics;
    try {
        metrics = trace ? perLayer(*w, seed, workdir, &checks, &digests,
                                   std::cerr)
                        : endToEnd(*w, seed, seconds, workdir, &checks,
                                   &digests, std::cerr);
    } catch (const std::exception& e) {
        checks.push_back({"benchmark", false, e.what()});
    }

    std::ostringstream out;
    out << "{\"workload\":" << jsonString(w->name) << ",\"seed\":" << seed
        << ",\"variant\":"
        << (w->velocityBlock.empty() ? -1 : seedVariant(seed))
        << ",\"trace\":" << trace << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, metric] : metrics) {
        out << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
            << jsonNumber(metric.value)
            << ",\"unit\":" << jsonString(metric.unit) << "}";
        first = false;
    }
    out << "},\"checks\":[";
    first = true;
    for (const Check& c : checks) {
        out << (first ? "" : ",") << "{\"name\":" << jsonString(c.name)
            << ",\"ok\":" << (c.ok ? "true" : "false")
            << ",\"detail\":" << jsonString(c.detail) << "}";
        first = false;
    }
    out << "],\"digests\":[";
    first = true;
    for (const std::string& d : digests) {
        out << (first ? "" : ",") << jsonString(d);
        first = false;
    }
    out << "]}";
    std::cout << out.str() << std::endl;
    return 0;
}
