/**
 * @file test_obs.cpp
 * Observability subsystem: TraceRecorder hot-path contracts (no
 * allocation steady-state, cheap when off), Chrome trace export
 * structure, MetricsRegistry + JSONL writer records, ObsConfig deck /
 * environment resolution, and the end-to-end guarantees — a
 * tracing-off run is bitwise identical to a traced run, traced
 * non-retry event counts are deterministic across pool sizes, the
 * heartbeat carries its schema through remesh + migration +
 * checkpoint cycles, and the idle/critical-path attribution obeys its
 * arithmetic identities.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "io/metrics_writer.hpp"
#include "io/trace_writer.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_config.hpp"
#include "obs/trace.hpp"
#include "util/parameter_input.hpp"

// Global allocation counter for the hot-path test: the recorder's
// contract is zero allocation per recorded event in steady state.
namespace {
std::atomic<std::int64_t> g_allocations{0};
}

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

// The nothrow form must allocate from the same heap the replaced
// deletes free to (std::stable_sort's temporary buffer uses it);
// otherwise ASan reports an operator new vs free mismatch.
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace vibe {
namespace {

struct TempFile
{
    std::string path;
    explicit TempFile(std::string name) : path(std::move(name)) {}
    ~TempFile() { std::remove(path.c_str()); }
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

ExperimentSpec
smallNumericSpec()
{
    ExperimentSpec spec;
    spec.meshSize = 16;
    spec.blockSize = 8;
    spec.amrLevels = 2;
    spec.ncycles = 3;
    spec.numeric = true;
    spec.package = "burgers";
    spec.platform = PlatformConfig::cpu(4);
    return spec;
}

// --- TraceRecorder ----------------------------------------------------

TEST(TraceRecorder, RecordsAndDrainsSorted)
{
    TraceRecorder& recorder = TraceRecorder::instance();
    ASSERT_FALSE(TraceRecorder::enabled());
    recorder.start();
    ASSERT_TRUE(TraceRecorder::enabled());

    {
        TraceSpan outer("Outer", TraceCat::Driver, 0, 7);
        TraceSpan inner("Inner", TraceCat::Compute, 0, 7, "Stage1", 3);
    }
    traceInstant("Marker", TraceCat::Driver, 0, 7, 2.0);
    traceCounter("nblocks", 0, 7, 64.0);

    const std::vector<TraceEvent> events = recorder.drain();
    ASSERT_FALSE(TraceRecorder::enabled());
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].tsUs, events[i].tsUs);
    // RAII order: the inner span destructs (and records) first, but
    // the sort puts the enclosing span, whose ts is earlier, first.
    EXPECT_EQ(events[0].nameView(), "Outer");
    EXPECT_EQ(events[1].nameView(), "Inner");
    EXPECT_EQ(events[1].phaseView(), "Stage1");
    EXPECT_EQ(events[1].gid, 3);
    EXPECT_EQ(events[2].kind, TraceEvent::Kind::Instant);
    EXPECT_EQ(events[3].kind, TraceEvent::Kind::Counter);
    EXPECT_EQ(events[3].value, 64.0);
    EXPECT_EQ(recorder.dropped(), 0u);

    // Drained: a second drain is empty.
    EXPECT_TRUE(recorder.drain().empty());
}

TEST(TraceRecorder, EmptyNameAndPhaseViewsRecordEmptyFields)
{
    // A defaulted string_view has a null data(); the field copy must
    // not hand that pointer to memcpy (UBSan's nonnull-attribute check
    // flags it even for a zero-byte copy).
    TraceRecorder& recorder = TraceRecorder::instance();
    recorder.start();
    {
        TraceSpan span(std::string_view{}, TraceCat::Driver, 0, 1);
    }
    traceInstant(std::string_view{}, TraceCat::Driver, 0, 1);
    const std::vector<TraceEvent> events = recorder.drain();
    ASSERT_EQ(events.size(), 2u);
    for (const TraceEvent& event : events) {
        EXPECT_TRUE(event.nameView().empty());
        EXPECT_TRUE(event.phaseView().empty());
    }
}

TEST(TraceRecorder, DisabledSitesRecordNothing)
{
    TraceRecorder& recorder = TraceRecorder::instance();
    ASSERT_FALSE(TraceRecorder::enabled());
    {
        TraceSpan span("Ignored", TraceCat::Driver, 0);
        traceInstant("Ignored", TraceCat::Driver, 0);
        traceCounter("ignored", 0, 0, 1.0);
    }
    EXPECT_TRUE(recorder.drain().empty());
}

TEST(TraceRecorder, SteadyStateHotPathDoesNotAllocate)
{
    TraceRecorder& recorder = TraceRecorder::instance();
    recorder.start();
    // Warm up: the first record on this thread assigns a tid and
    // reserves the chunked buffer.
    traceInstant("warmup", TraceCat::Driver, 0);

    const std::int64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        TraceSpan span("HotSpan", TraceCat::Compute, 0, i);
    }
    const std::int64_t after =
        g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(before, after)
        << "recording a span allocated on the hot path";

    recorder.drain();

    // Tracing off: a span site is one relaxed load, no allocation.
    const std::int64_t off_before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        TraceSpan span("OffSpan", TraceCat::Compute, 0, i);
    }
    EXPECT_EQ(off_before, g_allocations.load(std::memory_order_relaxed));
}

// --- Chrome trace export ----------------------------------------------

TEST(TraceWriter, ChromeTraceJsonStructure)
{
    std::vector<TraceEvent> events;
    TraceEvent span;
    span.kind = TraceEvent::Kind::Span;
    span.cat = TraceCat::Comm;
    span.rank = 1;
    span.tid = 2;
    span.cycle = 5;
    span.gid = 9;
    span.tsUs = 10.0;
    span.durUs = 4.0;
    span.flags = TraceEvent::kPollRetry;
    detail::copyField(span.name, "Say \"hi\"\n");
    detail::copyField(span.phase, "Stage1");
    events.push_back(span);

    TraceEvent counter;
    counter.kind = TraceEvent::Kind::Counter;
    counter.rank = 0;
    counter.tid = 0;
    counter.tsUs = 11.0;
    counter.value = 32.0;
    detail::copyField(counter.name, "nblocks");
    events.push_back(counter);

    const std::string json = chromeTraceJson(events);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Metadata rows for every (rank) and (rank, thread) seen.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"comm\""), std::string::npos);
    // JSON escaping of the quote and newline in the span name.
    EXPECT_NE(json.find("Say \\\"hi\\\"\\n"), std::string::npos);
    EXPECT_NE(json.find("\"poll_retry\":true"), std::string::npos);
    EXPECT_NE(json.find("\"gid\":9"), std::string::npos);
    EXPECT_NE(json.find("\"phase\":\"Stage1\""), std::string::npos);
}

// --- Metrics ----------------------------------------------------------

TEST(Metrics, RegistryBasics)
{
    MetricsRegistry metrics;
    EXPECT_EQ(metrics.size(), 0u);
    metrics.set("b.second", 2.0);
    metrics.set("a.first", 1.0);
    metrics.add("a.first", 0.5);
    EXPECT_TRUE(metrics.has("a.first"));
    EXPECT_FALSE(metrics.has("missing"));
    EXPECT_EQ(metrics.get("a.first"), 1.5);
    EXPECT_EQ(metrics.get("missing"), 0.0);
    // std::map: deterministic name-sorted iteration for the writer.
    const auto& values = metrics.values();
    EXPECT_EQ(values.begin()->first, "a.first");
    metrics.clear();
    EXPECT_EQ(metrics.size(), 0u);
}

TEST(Metrics, WriterEmitsCycleAndFooterRecords)
{
    TempFile file("test_obs_metrics.jsonl");
    {
        MetricsWriter writer(file.path);
        MetricsRegistry cycle;
        cycle.set("cycle", 1);
        cycle.set("wall_seconds", 0.25);
        writer.writeCycle(cycle);

        std::map<std::string, std::string> identity;
        identity["git"] = "deadbeef";
        identity["package"] = "burgers";
        MetricsRegistry totals;
        totals.set("cycles", 1);
        writer.writeFooter(identity, totals);
        EXPECT_EQ(writer.records(), 2);
    }
    const std::string text = readFile(file.path);
    EXPECT_NE(text.find("\"type\":\"cycle\""), std::string::npos);
    EXPECT_NE(text.find("\"type\":\"footer\""), std::string::npos);
    EXPECT_NE(text.find("\"git\":\"deadbeef\""), std::string::npos);
    EXPECT_NE(text.find("\"cycle\":1"), std::string::npos);
    // One record per line, footer last.
    std::istringstream lines(text);
    std::string line;
    std::vector<std::string> records;
    while (std::getline(lines, line))
        if (!line.empty())
            records.push_back(line);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records.back().find("{\"type\":\"footer\""), 0u);
}

// --- ObsConfig --------------------------------------------------------

TEST(ObsConfig, DeckKnobsWinOverEnvironment)
{
    ::setenv("VIBE_TRACE", "env_trace.json", 1);
    ::setenv("VIBE_METRICS", "env_metrics.jsonl", 1);
    const ObsConfig env = ObsConfig::fromEnv();
    EXPECT_EQ(env.tracePath, "env_trace.json");
    EXPECT_EQ(env.metricsPath, "env_metrics.jsonl");
    EXPECT_TRUE(env.any());

    ParameterInput pin;
    pin.set("obs", "trace", "deck_trace.json");
    const ObsConfig merged = ObsConfig::fromParams(pin);
    EXPECT_EQ(merged.tracePath, "deck_trace.json");
    EXPECT_EQ(merged.metricsPath, "env_metrics.jsonl");

    ::unsetenv("VIBE_TRACE");
    ::unsetenv("VIBE_METRICS");
    const ObsConfig off = ObsConfig::fromEnv();
    EXPECT_FALSE(off.any());
    EXPECT_NE(std::string(buildDescribe()), "");
}

// --- End-to-end guarantees --------------------------------------------

TEST(ObsEndToEnd, TracingOffIsBitwiseIdenticalToTracingOn)
{
    ExperimentSpec spec = smallNumericSpec();
    spec.numThreads = 2;
    const ExperimentResult off = Experiment(spec).run();

    TempFile trace("test_obs_equiv.trace.json");
    TempFile metrics("test_obs_equiv.metrics.jsonl");
    ExperimentSpec traced = spec;
    traced.tracePath = trace.path;
    traced.metricsPath = metrics.path;
    const ExperimentResult on = Experiment(traced).run();

    ASSERT_EQ(off.history.size(), on.history.size());
    for (std::size_t c = 0; c < off.history.size(); ++c) {
        EXPECT_EQ(off.history[c].mass, on.history[c].mass);
        EXPECT_EQ(off.history[c].dt, on.history[c].dt);
        EXPECT_EQ(off.history[c].nblocks, on.history[c].nblocks);
    }
    EXPECT_EQ(off.finalBlocks, on.finalBlocks);
    EXPECT_EQ(off.zoneCycles, on.zoneCycles);
}

/** Per-name counts of deterministic (non-poll-retry) traced events. */
std::map<std::string, int>
tracedEventCounts(const std::string& package, int ranks, int threads)
{
    ExperimentSpec spec = smallNumericSpec();
    spec.package = package;
    spec.numRanks = ranks;
    spec.numThreads = threads;

    TraceRecorder& recorder = TraceRecorder::instance();
    recorder.start();
    Experiment(spec).run();
    const std::vector<TraceEvent> events = recorder.drain();
    EXPECT_EQ(recorder.dropped(), 0u);

    std::map<std::string, int> counts;
    for (const TraceEvent& event : events) {
        if (event.flags & TraceEvent::kPollRetry)
            continue;
        ++counts[std::string(event.nameView())];
    }
    EXPECT_FALSE(counts.empty());
    return counts;
}

TEST(ObsEndToEnd, EventCountsDeterministicAcrossThreadCounts)
{
    for (const char* package : {"burgers", "advection"}) {
        for (int ranks : {1, 2}) {
            const auto baseline =
                tracedEventCounts(package, ranks, 1);
            for (int threads : {2, 4}) {
                const auto counts =
                    tracedEventCounts(package, ranks, threads);
                EXPECT_EQ(baseline, counts)
                    << package << " with " << ranks
                    << " rank(s): non-retry event counts changed "
                    << "between 1 and " << threads << " threads";
            }
        }
    }
}

TEST(ObsEndToEnd, HeartbeatCarriesSchemaThroughRemeshAndCheckpoint)
{
    TempFile metrics("test_obs_heartbeat.metrics.jsonl");
    TempFile ckpt("test_obs_heartbeat.ckpt");
    ExperimentSpec spec = smallNumericSpec();
    spec.ncycles = 6;
    spec.numRanks = 2;
    spec.numThreads = 2;
    spec.metricsPath = metrics.path;
    spec.checkpointEvery = 3;
    spec.checkpointPath = ckpt.path;
    const ExperimentResult result = Experiment(spec).run();
    EXPECT_GT(result.checkpointsWritten, 0);

    const std::string text = readFile(metrics.path);
    std::istringstream lines(text);
    std::string line;
    int cycles = 0;
    int footers = 0;
    const char* required[] = {
        "\"cycle\":",        "\"time\":",
        "\"dt\":",           "\"wall_seconds\":",
        "\"nblocks\":",      "\"amr.refined\":",
        "\"lb.moved_blocks\":", "\"checkpoint.seconds\":",
        "\"task.idle_seconds\":",
        "\"task.critical_path_seconds\":",
        "\"traffic.remote_messages\":", "\"pool.hits\":",
        "\"fom.zone_cycles_per_s\":",
    };
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        if (line.find("\"type\":\"cycle\"") != std::string::npos) {
            ++cycles;
            for (const char* key : required)
                EXPECT_NE(line.find(key), std::string::npos)
                    << "cycle record missing " << key << ": " << line;
        } else if (line.find("\"type\":\"footer\"") !=
                   std::string::npos) {
            ++footers;
            EXPECT_NE(line.find("\"git\":"), std::string::npos);
            EXPECT_NE(line.find("\"package\":\"burgers\""),
                      std::string::npos);
            EXPECT_NE(line.find("\"ranks\":2"), std::string::npos);
        }
    }
    EXPECT_EQ(cycles, 6);
    EXPECT_EQ(footers, 1);
}

TEST(ObsEndToEnd, IdleAttributionObeysArithmeticIdentities)
{
    ExperimentSpec spec = smallNumericSpec();
    spec.numRanks = 2;
    spec.numThreads = 2;
    const ExperimentResult result = Experiment(spec).run();

    ASSERT_FALSE(result.history.empty());
    for (const CycleStats& stats : result.history) {
        EXPECT_GT(stats.taskWallSeconds, 0.0);
        EXPECT_GT(stats.busySeconds, 0.0);
        EXPECT_GE(stats.idleSeconds, 0.0);
        EXPECT_GT(stats.criticalPathSeconds, 0.0);
        // One dependency chain cannot outweigh all tasks.
        EXPECT_LE(stats.criticalPathSeconds,
                  stats.busySeconds + 1e-9);
        ASSERT_EQ(stats.rankIdleSeconds.size(), 2u);
        double rank_sum = 0;
        for (double idle : stats.rankIdleSeconds) {
            EXPECT_GE(idle, 0.0);
            rank_sum += idle;
        }
        EXPECT_NEAR(rank_sum, stats.idleSeconds,
                    1e-9 * (1.0 + stats.idleSeconds));
    }

    const IdleSummary& idle = result.idle;
    EXPECT_GT(idle.busySeconds, 0.0);
    EXPECT_GE(idle.idleFraction(), 0.0);
    EXPECT_LE(idle.idleFraction(), 1.0);
    double wall = 0, busy = 0, idle_sum = 0, critical = 0;
    for (const CycleStats& stats : result.history) {
        wall += stats.taskWallSeconds;
        busy += stats.busySeconds;
        idle_sum += stats.idleSeconds;
        critical += stats.criticalPathSeconds;
    }
    EXPECT_NEAR(idle.taskWallSeconds, wall, 1e-12 * (1.0 + wall));
    EXPECT_NEAR(idle.busySeconds, busy, 1e-12 * (1.0 + busy));
    EXPECT_NEAR(idle.idleSeconds, idle_sum,
                1e-12 * (1.0 + idle_sum));
    EXPECT_NEAR(idle.criticalPathSeconds, critical,
                1e-12 * (1.0 + critical));
    ASSERT_EQ(idle.rankIdleSeconds.size(), 2u);
}

TEST(ObsEndToEnd, TraceFileValidatesStructurally)
{
    TempFile trace("test_obs_file.trace.json");
    ExperimentSpec spec = smallNumericSpec();
    spec.numThreads = 2;
    spec.tracePath = trace.path;
    Experiment(spec).run();

    const std::string json = readFile(trace.path);
    EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"Cycle\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"comm\""), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
}

} // namespace
} // namespace vibe
