/**
 * @file ghost_exchange.hpp
 * The four-function ghost-cell communication cycle (paper §II-D) and
 * the flux-correction exchange at fine-coarse faces.
 *
 * - StartReceiveBoundBufs: post/prepare receive bookkeeping.
 * - SendBoundBufs: restrict fine data destined for coarser neighbors
 *   (GPU-offloaded), pack variable data, and start non-blocking sends
 *   or local copies.
 * - ReceiveBoundBufs: poll with Iprobe/Test until every expected buffer
 *   has arrived.
 * - SetBounds: unpack buffers into ghost zones, prolongating coarse
 *   slabs into fine ghosts (GPU-offloaded), and mark buffers stale.
 *
 * Flux correction reuses the same machinery on flux fields only
 * (§II-C), replacing the coarse face flux with the restricted sum of
 * the fine fluxes so conservation holds across levels.
 *
 * Every phase runs over the BoundaryPlan: all pack (or unpack) work
 * for a phase is ONE launch over the plan's buffer table, and all
 * traffic per (src rank, dst rank) pair per phase travels as ONE
 * coalesced mailbox message (Parthenon's one-buffer exchange). The
 * per-channel pack/unpack arithmetic (packBoundsChannel and friends)
 * is the row kernel of those launches. Rows are independent — every
 * channel writes a disjoint payload slice or receiver region, and
 * prolongation's interior fallback reads cells no unpack writes — so
 * results are bitwise identical at any thread or rank count.
 *
 * The phases are callable one by one (the driver's task graphs and
 * direct tests) or as one monolithic exchange (exchangeBounds(),
 * exchangeFluxCorrections(): driver initialization and tests). The
 * plan must be current (BoundaryPlan::ensureBuilt() at a serial point
 * — the driver's graph builders and the monolithic entry points do
 * this) before any phase function runs.
 *
 * Per-cycle state (wire-cell and message counters, stale mailbox
 * entries from a cycle that threw) is reset at the top of
 * startReceiveBoundBufs(), so an exchange aborted mid-cycle can never
 * leave the next one waiting on phantom messages.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "comm/boundary_buffers.hpp"
#include "comm/boundary_plan.hpp"
#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"

namespace vibe {

/** Drives ghost and flux-correction exchanges over a RankWorld. */
class GhostExchange
{
  public:
    GhostExchange(Mesh& mesh, RankWorld& world,
                  BoundaryBufferCache& cache);

    /**
     * Run one complete ghost exchange (the four phases, in order).
     * A serial point: rebuilds the plan first if it is stale.
     */
    void exchangeBounds();

    /**
     * Run one flux-correction exchange. Must be called after fluxes are
     * computed and before FluxDivergence consumes them.
     */
    void exchangeFluxCorrections();

    /**
     * Fill ghost zones at non-periodic physical boundaries with
     * zero-gradient (outflow) data. No-op for periodic domains.
     */
    void applyPhysicalBoundaries();
    /** Physical-boundary fill for one block (task-graph node). */
    void applyPhysicalBoundariesBlock(MeshBlock& block);

    /** The plan (lazily rebuilt; see BoundaryPlan's lifecycle). */
    BoundaryPlan& plan() { return plan_; }
    const BoundaryPlan& plan() const { return plan_; }

    /**
     * Coalesced messages this replica sends / expects for `phase`:
     * the shard rank's pairs on a sharded replica, every pair on a
     * classic mesh (which steps all blocks). Plan must be current.
     */
    std::vector<int> sendIds(PlanPhase phase) const;
    std::vector<int> recvIds(PlanPhase phase) const;

    // --- Bounds phases -----------------------------------------------

    /** Reset per-cycle state; account the inbound buffers to prepare. */
    void startReceiveBoundBufs();
    /** Pack all outbound bounds entries (one launch), send each pair. */
    void sendBoundBufs();
    /**
     * Probe one coalesced message (task-graph poll node); records the
     * polling cost on success.
     */
    bool pollMessage(const PlanMessage& msg);
    /** Blocking poll for every inbound bounds message (monolithic). */
    void receiveBoundBufs();
    /** Receive + one unpack launch over all inbound entries. */
    void setBounds();

    // --- Flux-correction phases --------------------------------------

    /** Pack all outbound flux entries (one launch), send each pair. */
    void sendFluxCorrections();
    /** Blocking poll for every inbound flux message (monolithic). */
    void receiveFluxCorrections();
    /** Receive + one unpack launch over the flux entries. */
    void setFluxCorrections();

    /** Ghost cells moved in the most recent exchange cycle. */
    std::int64_t lastWireCells() const { return last_wire_cells_.load(); }

    /**
     * Boundary messages sent / modeled bytes since the last
     * startReceiveBoundBufs (bounds + flux). The driver folds these
     * into CycleStats so benches can report messages and bytes per
     * cycle.
     */
    std::uint64_t lastBoundaryMessages() const
    {
        return last_messages_.load();
    }
    double lastBoundaryBytes() const
    {
        return static_cast<double>(last_send_bytes_.load());
    }
    /**
     * Plan entries (per-face channels) those messages carried since the
     * last startReceiveBoundBufs: the message count an uncoalesced
     * exchange would pay for the same bytes.
     */
    std::uint64_t lastBoundaryEntries() const
    {
        return last_entries_.load();
    }

  private:
    // Per-channel payload arithmetic: the row kernels of the pack and
    // unpack launches.
    void packBoundsChannel(const BoundsChannel& ch, double* out) const;
    void unpackBoundsChannel(const BoundsChannel& ch,
                             const double* payload,
                             std::size_t count) const;
    void packFluxChannel(const FluxChannel& ch, double* out) const;
    void unpackFluxChannel(const FluxChannel& ch, const double* payload,
                           std::size_t count) const;

    /** Every message index of `phase` (a classic mesh's id list). */
    std::vector<int> allMessageIds(PlanPhase phase) const;

    /** Shared body of the two send phases. */
    void sendPhase(PlanPhase phase);
    /** Shared body of the two blocking receive-poll phases. */
    void receivePhase(PlanPhase phase);
    /** Shared body of the two set phases. */
    void setPhase(PlanPhase phase);

    /** Account one coalesced send against the per-cycle counters. */
    void countSend(const PlanMessage& msg);

    /**
     * Discard stale coalesced deliveries from an aborted cycle.
     * Classic worlds only — see the body for why the sweep is wrong
     * with concurrent rank drivers.
     */
    void discardStaleDeliveries();

    Mesh* mesh_;
    RankWorld* world_;
    BoundaryBufferCache* cache_;
    BoundaryPlan plan_;
    std::atomic<std::int64_t> last_wire_cells_{0};
    std::atomic<std::uint64_t> last_messages_{0};
    std::atomic<std::uint64_t> last_entries_{0};
    /** Modeled bytes are integral (cells x components x 8). */
    std::atomic<std::int64_t> last_send_bytes_{0};
};

} // namespace vibe
