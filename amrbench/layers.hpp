/**
 * @file layers.hpp
 * Reduces one traced run's span stream to the per-module layer table
 * (exec idle, pkg, comm, mesh, driver, io, unattributed) and checks
 * that it closes to the cycle wall.
 *
 * Accounting, per rank and cycle (the program's "Cycle" span):
 *
 * - capacity = cycle wall x threads per rank;
 * - every span's self time (duration minus nested spans on its
 *   thread) goes to its module; a kernel span outside any task is a
 *   pool launch that occupies every thread, so it counts x threads;
 * - idle = the task graphs' idle thread-seconds (CycleStats) plus the
 *   threads left waiting while the driver thread runs serial spans;
 * - unattributed = capacity minus all of the above: driver-thread time
 *   no span covers (graph construction, bookkeeping).
 *
 * The table closes when no cycle's unattributed share is negative
 * beyond timer noise (spans never claim more than the capacity) and
 * the task spans add up to the graph busy time CycleStats reports.
 * Off-thread checkpoint drains run beside the ranks' threads, so they
 * are reported on their own, outside the closure.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "driver/evolution_driver.hpp"
#include "obs/trace.hpp"

namespace amrbench {

/** The layer modules, in table order. */
extern const std::vector<std::string> kModules;

struct LayerTable
{
    /** (rank, cycle) windows reduced. */
    int windows = 0;
    /** Sum over windows of cycle wall x threads (thread-seconds). */
    double capacity = 0;
    /** Thread-seconds per module (kModules); sums to `capacity`. */
    std::map<std::string, double> modules;
    /** Self thread-seconds per span base name (before any ':'). */
    std::map<std::string, double> spanSeconds;
    /** Poll attempts (bounds + flux receives) and those that hit. */
    std::int64_t polls = 0;
    std::int64_t pollHits = 0;
    /** Off-thread checkpoint drain seconds (outside the closure). */
    double drainSeconds = 0;
    /** Smallest per-window unattributed share of capacity. */
    double worstResidual = 0;
    /** Largest per-window |task spans - CycleStats busy| / capacity. */
    double worstBusyGap = 0;
};

/**
 * Reduce `events` (one traced run, all ranks). `history(rank)` is that
 * rank's CycleStats, indexed by cycle.
 */
LayerTable
reduceTrace(const std::vector<vibe::TraceEvent>& events, int threads,
            const std::function<const std::vector<vibe::CycleStats>&(int)>&
                history);

} // namespace amrbench
