#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "util/logging.hpp"

namespace amrbench {

using namespace vibe;

const std::vector<std::string> kModules = {
    "pkg", "comm", "mesh", "driver", "io", "idle", "unattributed"};

namespace {

std::string_view
baseName(const TraceEvent& e)
{
    const std::string_view name = e.nameView();
    return name.substr(0, name.find(':'));
}

/** Comm-category spans the driver/comm layers open outside tasks. */
bool
isNonTaskComm(std::string_view base)
{
    return base == "ExchangeBounds" || base == "ExchangeFluxCorrections" ||
           base == "Rendezvous" || base == "MigrateBlocks";
}

/** A task attempt recorded by the task-graph executor. */
bool
isTask(const TraceEvent& e)
{
    return e.cat == TraceCat::Compute ||
           (e.cat == TraceCat::Comm && !isNonTaskComm(baseName(e)));
}

/** The src/ module a span's work belongs to. */
const char*
moduleOf(const TraceEvent& e)
{
    const std::string_view base = baseName(e);
    if (base == "ProlongRestrictLoop")
        return "mesh";
    if (base.substr(0, 10) == "Checkpoint")
        return "io";
    if (base == "MigrateBlocks")
        return "driver";
    switch (e.cat) {
    case TraceCat::Compute:
    case TraceCat::Kernel:
        return "pkg";
    case TraceCat::Comm:
        return "comm";
    case TraceCat::Io:
        return "io";
    case TraceCat::Driver:
        return "driver";
    }
    return "driver";
}

struct Span
{
    const TraceEvent* e = nullptr;
    double end = 0;
    double childUs = 0;
    bool task = false;
    bool inTask = false;
};

struct Window
{
    double begin = 0, end = 0;
    std::int64_t cycle = 0;
    int driverTid = 0;
    std::map<std::string, double> modules;
    double serialUs = 0; ///< Driver-thread serial self time.
    double taskUs = 0;   ///< Task attempts (the graphs' busy time).
};

} // namespace

LayerTable
reduceTrace(const std::vector<TraceEvent>& events, int threads,
            const std::function<const std::vector<CycleStats>&(int)>&
                history)
{
    LayerTable table;
    for (const std::string& m : kModules)
        table.modules[m] = 0;

    // Rank of every recording thread: a rank's driver thread records
    // its Cycle spans and every pool thread runs that rank's tasks,
    // whose spans carry the graph's rank.
    std::map<int, int> tid_rank;
    std::map<int, std::vector<Window>> windows; // by rank
    std::map<int, std::vector<Span>> by_tid;
    for (const TraceEvent& e : events) {
        if (e.kind != TraceEvent::Kind::Span)
            continue;
        if (baseName(e) == "CheckpointDrain") {
            table.drainSeconds += e.durUs * 1e-6;
            continue;
        }
        if (baseName(e) == "Cycle") {
            tid_rank.emplace(e.tid, e.rank);
            windows[e.rank].push_back(
                {e.tsUs, e.tsUs + e.durUs, e.cycle, e.tid, {}, 0, 0});
            continue;
        }
        if (isTask(e))
            tid_rank.emplace(e.tid, e.rank);
        by_tid[e.tid].push_back({&e, e.tsUs + e.durUs, 0, isTask(e), false});
    }
    for (auto& [rank, list] : windows)
        std::sort(list.begin(), list.end(),
                  [](const Window& a, const Window& b) {
                      return a.begin < b.begin;
                  });

    // Nesting per thread: spans on one thread are properly nested, so
    // a stack over (start asc, duration desc) finds each parent.
    constexpr double kEpsUs = 1e-3;
    for (auto& [tid, spans] : by_tid) {
        std::sort(spans.begin(), spans.end(),
                  [](const Span& a, const Span& b) {
                      if (a.e->tsUs != b.e->tsUs)
                          return a.e->tsUs < b.e->tsUs;
                      return a.e->durUs > b.e->durUs;
                  });
        std::vector<Span*> stack;
        for (Span& s : spans) {
            while (!stack.empty() && stack.back()->end <= s.e->tsUs + kEpsUs)
                stack.pop_back();
            if (!stack.empty()) {
                stack.back()->childUs += s.e->durUs;
                s.inTask = stack.back()->task || stack.back()->inTask;
            }
            stack.push_back(&s);
        }
    }

    for (auto& [tid, spans] : by_tid) {
        const auto rank_it = tid_rank.find(tid);
        const int rank =
            rank_it != tid_rank.end() ? rank_it->second : spans.front().e->rank;
        auto win_it = windows.find(rank);
        if (win_it == windows.end())
            continue;
        std::vector<Window>& list = win_it->second;
        for (const Span& s : spans) {
            const TraceEvent& e = *s.e;
            auto w = std::upper_bound(
                list.begin(), list.end(), e.tsUs,
                [](double t, const Window& win) { return t < win.begin; });
            if (w == list.begin())
                continue; // before the first cycle: setup
            --w;
            if (e.tsUs >= w->end)
                continue; // between cycles
            const double self_us = std::max(0.0, e.durUs - s.childUs);
            const bool kernel = e.cat == TraceCat::Kernel;
            // A kernel launched outside any task runs on the whole
            // pool; inside a task it runs in line on one thread.
            const double mult = kernel && !s.inTask ? threads : 1;
            const double thread_s = self_us * mult * 1e-6;
            w->modules[moduleOf(e)] += thread_s;
            const std::string base(baseName(e));
            table.spanSeconds[base] += thread_s;
            if (s.task && !s.inTask)
                w->taskUs += e.durUs;
            if (!s.task && !s.inTask && !kernel && tid == w->driverTid)
                w->serialUs += self_us;
            if (base == "ReceiveBoundBufs" || base == "FluxCorrRecv") {
                ++table.polls;
                if (!(e.flags & TraceEvent::kPollRetry))
                    ++table.pollHits;
            }
        }
    }

    table.worstResidual = windows.empty() ? 0.0 : 1.0;
    for (auto& [rank, list] : windows) {
        const std::vector<CycleStats>& stats = history(rank);
        for (const Window& w : list) {
            require(w.cycle >= 0 &&
                        w.cycle < static_cast<std::int64_t>(stats.size()),
                    "trace cycle ", w.cycle, " of rank ", rank,
                    " has no CycleStats record");
            const CycleStats& c = stats[static_cast<std::size_t>(w.cycle)];
            const double capacity = (w.end - w.begin) * 1e-6 * threads;
            const double serial_idle = (threads - 1) * w.serialUs * 1e-6;
            double attributed = 0;
            for (const auto& [module, seconds] : w.modules) {
                table.modules[module] += seconds;
                attributed += seconds;
            }
            const double idle = c.idleSeconds + serial_idle;
            const double residual = capacity - attributed - idle;
            table.modules["idle"] += idle;
            table.modules["unattributed"] += residual;
            table.capacity += capacity;
            ++table.windows;
            if (capacity > 0) {
                table.worstResidual =
                    std::min(table.worstResidual, residual / capacity);
                table.worstBusyGap = std::max(
                    table.worstBusyGap,
                    std::abs(w.taskUs * 1e-6 - c.busySeconds) / capacity);
            }
        }
    }
    return table;
}

} // namespace amrbench
