/**
 * @file trace.hpp
 * Timeline tracing: low-overhead span/instant/counter event recording.
 *
 * The aggregated kernel counters (KernelProfiler) answer "how much
 * work ran"; this recorder answers "when, where, and alongside what" —
 * the timeline questions behind task-graph overlap, fused-boundary
 * coalescing and async checkpoint draining that per-phase aggregates
 * cannot show. Events are recorded into per-thread append buffers
 * (same owner-thread + per-thread-buffer discipline as KernelProfiler:
 * the hot path never takes a lock) and drained at a quiescent point
 * into one timestamp-sorted stream that src/io/trace_writer.cpp
 * exports as Chrome trace-event JSON (Perfetto / chrome://tracing):
 * one process row per simulated rank, one thread row per pool thread.
 *
 * Cost when tracing is off: every instrumentation site checks one
 * relaxed atomic load and does nothing else — no clock read, no
 * buffer touch, no allocation — so a tracing-off run is bitwise
 * identical to (and within run-to-run noise of) an uninstrumented
 * build. Cost when on: one steady_clock read per span edge and one
 * fixed-size struct append into a pre-reserved per-thread buffer
 * (no allocation until a buffer chunk fills, which re-reserves in
 * large steps).
 *
 * Event names are copied into fixed-size arrays at record time, so
 * callers may pass transient strings (task names) without lifetime
 * coupling; names longer than the field are truncated, never dropped.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace vibe {

/** Coarse event classification (the Chrome trace "cat" field). */
enum class TraceCat : std::uint8_t
{
    Compute, ///< Interior kernel work executed by a task.
    Comm,    ///< Boundary send/poll/set, collectives, migration.
    Kernel,  ///< A parFor / fused-pack kernel launch.
    Driver,  ///< Cycle structure: step, remesh, load balance, dt.
    Io,      ///< Checkpoint capture/drain, trace/metrics output.
};

/** Chrome trace "cat" string for a category. */
const char* traceCatName(TraceCat cat);

/** One recorded event (POD: fixed-size, no owning pointers). */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        Span,    ///< Complete event ("X"): [ts, ts + dur].
        Instant, ///< Instant event ("i") at ts.
        Counter, ///< Counter sample ("C") at ts with `value`.
    };

    /** A span attempt that returned Iterate (a fruitless poll probe);
     *  retry counts are timing-dependent, so determinism checks on
     *  event counts filter these out. */
    static constexpr std::uint16_t kPollRetry = 1u << 0;

    Kind kind = Kind::Span;
    TraceCat cat = TraceCat::Driver;
    std::uint16_t flags = 0;
    int rank = 0;             ///< Simulated rank (Chrome pid row).
    int tid = 0;              ///< Recording thread (Chrome tid row).
    std::int64_t cycle = -1;  ///< Evolution cycle, -1 outside cycles.
    std::int64_t gid = -1;    ///< Block gid where applicable.
    double tsUs = 0;          ///< Microseconds since recorder start.
    double durUs = 0;         ///< Span duration (0 for non-spans).
    double value = 0;         ///< Counter value.
    char name[48] = {};
    char phase[24] = {};      ///< Graph/phase label ("" = none).

    std::string_view nameView() const { return {name}; }
    std::string_view phaseView() const { return {phase}; }
};

namespace detail {

/**
 * Truncating copy into a fixed char field (always NUL-terminated). An
 * empty view may carry a null data() (a defaulted string_view), which
 * memcpy must never see, even for a zero-byte copy.
 */
template <std::size_t N>
inline void
copyField(char (&dst)[N], std::string_view src)
{
    const std::size_t n = src.size() < N - 1 ? src.size() : N - 1;
    if (n > 0)
        std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

} // namespace detail

template <typename T>
class ThreadLocalRegistry;

/**
 * Process-wide event sink. A singleton rather than a plumbed
 * dependency: span sites live in every layer (exec, driver, comm, io)
 * and tracing is a run-scoped mode, not per-component state. start()
 * and drain() must be called from quiescent points (no kernels or
 * rank threads in flight), exactly like KernelProfiler::sync.
 */
class TraceRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    static TraceRecorder& instance();

    /** The per-site guard: one relaxed atomic load. */
    static bool enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Reset all thread buffers, restart the epoch, and enable
     * recording. Quiescent-point only.
     */
    void start();

    /** Disable recording (buffers keep their events until drain). */
    void stop();

    /**
     * Collect every thread's events into one stream sorted by
     * (tsUs, tid), clearing the buffers. Stops recording first.
     * Quiescent-point only.
     */
    std::vector<TraceEvent> drain();

    /** Events discarded because a thread hit its hard buffer cap. */
    std::uint64_t dropped() const;

    /** Microseconds since the current epoch. */
    double nowUs() const { return usSince(epoch_); }

    double usSince(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t)
            .count();
    }

    double usAt(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }

    /** Append one event (hot path: owner-thread buffer, no lock). */
    void record(TraceEvent event);

    /**
     * Record a completed span from explicit clock points (for call
     * sites that already timed the interval, e.g. task execution).
     */
    void recordSpan(std::string_view name, TraceCat cat, int rank,
                    std::int64_t cycle, std::string_view phase,
                    Clock::time_point begin, double seconds,
                    std::uint16_t flags = 0, std::int64_t gid = -1);

    /** This thread's stable row id (assigned on first record). */
    int threadTid();

    /** Initial per-thread buffer reservation (events). */
    static constexpr std::size_t kReserveEvents = 1u << 14;
    /** Hard per-thread cap; beyond it events are counted as dropped. */
    static constexpr std::size_t kMaxEvents = 1u << 22;

  private:
    TraceRecorder();
    ~TraceRecorder() = delete;

    struct ThreadBuffer
    {
        int tid = -1;
        std::uint64_t dropped = 0;
        std::vector<TraceEvent> events;
    };

    ThreadBuffer& localBuffer();

    static std::atomic<bool> enabled_;
    std::atomic<int> next_tid_{0};
    Clock::time_point epoch_;
    ThreadLocalRegistry<ThreadBuffer>* buffers_;
};

/**
 * RAII span. Constructing with tracing off costs one atomic load;
 * destruction then does nothing. The name/phase views must stay valid
 * until the constructor returns (they are copied immediately).
 */
class TraceSpan
{
  public:
    TraceSpan(std::string_view name, TraceCat cat, int rank,
              std::int64_t cycle = -1, std::string_view phase = {},
              std::int64_t gid = -1)
    {
        if (!TraceRecorder::enabled())
            return;
        active_ = true;
        event_.kind = TraceEvent::Kind::Span;
        event_.cat = cat;
        event_.rank = rank;
        event_.cycle = cycle;
        event_.gid = gid;
        detail::copyField(event_.name, name);
        detail::copyField(event_.phase, phase);
        begin_ = TraceRecorder::Clock::now();
    }

    ~TraceSpan()
    {
        if (!active_)
            return;
        TraceRecorder& recorder = TraceRecorder::instance();
        event_.tsUs = recorder.usAt(begin_);
        event_.durUs = recorder.usSince(begin_);
        recorder.record(event_);
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    bool active_ = false;
    TraceRecorder::Clock::time_point begin_;
    TraceEvent event_;
};

/** Record an instant event (a point-in-time marker). */
inline void
traceInstant(std::string_view name, TraceCat cat, int rank,
             std::int64_t cycle = -1, double value = 0,
             std::int64_t gid = -1)
{
    if (!TraceRecorder::enabled())
        return;
    TraceRecorder& recorder = TraceRecorder::instance();
    TraceEvent event;
    event.kind = TraceEvent::Kind::Instant;
    event.cat = cat;
    event.rank = rank;
    event.cycle = cycle;
    event.gid = gid;
    event.value = value;
    detail::copyField(event.name, name);
    event.tsUs = recorder.nowUs();
    recorder.record(event);
}

/** Record a counter sample (its own Chrome track per name). */
inline void
traceCounter(std::string_view name, int rank, std::int64_t cycle,
             double value)
{
    if (!TraceRecorder::enabled())
        return;
    TraceRecorder& recorder = TraceRecorder::instance();
    TraceEvent event;
    event.kind = TraceEvent::Kind::Counter;
    event.cat = TraceCat::Driver;
    event.rank = rank;
    event.cycle = cycle;
    event.value = value;
    detail::copyField(event.name, name);
    event.tsUs = recorder.nowUs();
    recorder.record(event);
}

} // namespace vibe
