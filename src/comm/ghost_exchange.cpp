#include "comm/ghost_exchange.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "exec/par_for.hpp"
#include "mesh/prolong_restrict.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

int
rangeStart(const Region3& r, int d)
{
    return d == 0 ? r.i.lo : d == 1 ? r.j.lo : r.k.lo;
}

int
rangeCount(const Region3& r, int d)
{
    return d == 0 ? r.i.count() : d == 1 ? r.j.count() : r.k.count();
}

} // namespace

GhostExchange::GhostExchange(Mesh& mesh, RankWorld& world,
                             BoundaryBufferCache& cache)
    : mesh_(&mesh), world_(&world), cache_(&cache),
      plan_(mesh, cache, world)
{
    const MeshConfig& config = mesh.config();
    if (mesh.ctx().executing() && config.amrLevels > 1) {
        const BlockShape shape = config.blockShape();
        const int min_nx = std::min(
            {shape.nx1, shape.ndim >= 2 ? shape.nx2 : shape.nx1,
             shape.ndim >= 3 ? shape.nx3 : shape.nx1});
        if (min_nx < 2 * shape.ng)
            fatal("numeric AMR runs require MeshBlockSize >= 2*num_ghost "
                  "(got ",
                  min_nx, " < ", 2 * shape.ng,
                  "); use counting mode for smaller blocks");
        if (shape.ng % 2 != 0)
            fatal("AMR requires an even ghost count, got ", shape.ng);
    }
}

void
GhostExchange::exchangeBounds()
{
    // Monolithic (non-graph) path: initialization and direct tests.
    // In-cycle exchanges run as task graphs and get per-task spans.
    TraceSpan span("ExchangeBounds", TraceCat::Comm,
                   mesh_->collectiveRank());
    // Monolithic callers are serial points, so the lazy plan rebuild
    // may happen right here.
    plan_.ensureBuilt();
    startReceiveBoundBufs();
    sendBoundBufs();
    receiveBoundBufs();
    setBounds();
}

void
GhostExchange::exchangeFluxCorrections()
{
    TraceSpan span("ExchangeFluxCorrections", TraceCat::Comm,
                   mesh_->collectiveRank());
    // Serial point for monolithic callers; see exchangeBounds().
    plan_.ensureBuilt();
    sendFluxCorrections();
    receiveFluxCorrections();
    setFluxCorrections();
}

void
GhostExchange::discardStaleDeliveries()
{
    // Classic single-driver world: any pending delivery at the top of
    // a cycle is stale garbage from an aborted cycle. With concurrent
    // rank drivers this sweep would be wrong: a neighbor rank may
    // legitimately run up to one stage ahead, and its early sends
    // queue in FIFO order until this rank's matching receive — exactly
    // MPI's eager-message semantics. Every rank pair's coalesced ids
    // are swept, constructed directly: the plan may be stale or
    // unbuilt here.
    std::size_t stale = 0;
    const int nranks = world_->nranks();
    for (int src = 0; src < nranks; ++src)
        for (int dst = 0; dst < nranks; ++dst) {
            stale += world_->discardPending(coalescedChannelId(
                src, dst, ChannelKind::CoalescedBounds));
            stale += world_->discardPending(coalescedChannelId(
                src, dst, ChannelKind::CoalescedFlux));
        }
    if (stale > 0)
        warn("ghost exchange discarded ", stale,
             " stale buffers left by an aborted cycle");
}

void
GhostExchange::packBoundsChannel(const BoundsChannel& ch,
                                 double* out) const
{
    require(ch.sender->hasData(), "pack from a storage-less block ",
            ch.sender->loc().str(),
            " (sender not owned by this rank?)");
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    const RealArray4& cons = ch.sender->cons();
    std::size_t idx = 0;
    if (ch.levelDiff == 1) {
        // Restrict on send: iterate the receiver's coarse target
        // region; average the covering fine cells.
        const int lo[3] = {shape.is(), shape.js(), shape.ks()};
        const double inv = 1.0 / (1 << ndim);
        for (int n = 0; n < ncomp; ++n)
            for (int K = ch.recv.k.lo; K <= ch.recv.k.hi; ++K)
                for (int J = ch.recv.j.lo; J <= ch.recv.j.hi; ++J)
                    for (int I = ch.recv.i.lo; I <= ch.recv.i.hi;
                         ++I) {
                        const int fi =
                            lo[0] + 2 * (I - lo[0]) - ch.base2[0];
                        const int fj =
                            ndim >= 2
                                ? lo[1] + 2 * (J - lo[1]) - ch.base2[1]
                                : 0;
                        const int fk =
                            ndim >= 3
                                ? lo[2] + 2 * (K - lo[2]) - ch.base2[2]
                                : 0;
                        double sum = 0.0;
                        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0);
                             ++dk)
                            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0);
                                 ++dj)
                                for (int di = 0; di <= 1; ++di)
                                    sum += cons(n, fk + dk, fj + dj,
                                                fi + di);
                        out[idx++] = sum * inv;
                    }
    } else {
        // Same level or coarse slab: straight copy of the send box.
        for (int n = 0; n < ncomp; ++n)
            for (int k = ch.send.k.lo; k <= ch.send.k.hi; ++k)
                for (int j = ch.send.j.lo; j <= ch.send.j.hi; ++j)
                    for (int i = ch.send.i.lo; i <= ch.send.i.hi; ++i)
                        out[idx++] = cons(n, k, j, i);
    }
}

void
GhostExchange::countSend(const PlanMessage& msg)
{
    last_messages_.fetch_add(1);
    last_entries_.fetch_add(msg.entries.size());
    last_send_bytes_.fetch_add(static_cast<std::int64_t>(msg.bytes));
}

void
GhostExchange::unpackBoundsChannel(const BoundsChannel& ch,
                                   const double* payload,
                                   std::size_t count) const
{
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    RealArray4& cons = ch.receiver->cons();

    if (ch.levelDiff >= 0) {
        // Same level or pre-restricted: straight copy into recv box.
        // One size check up front, then unchecked indexing in the
        // per-cell loop (matching the slab branch below).
        require(count ==
                    static_cast<std::size_t>(ch.recv.cells()) * ncomp,
                "bounds payload size mismatch");
        std::size_t idx = 0;
        for (int n = 0; n < ncomp; ++n)
            for (int k = ch.recv.k.lo; k <= ch.recv.k.hi; ++k)
                for (int j = ch.recv.j.lo; j <= ch.recv.j.hi; ++j)
                    for (int i = ch.recv.i.lo; i <= ch.recv.i.hi; ++i)
                        cons(n, k, j, i) = payload[idx++];
        return;
    }

    // Coarse slab -> fine ghosts: slope-limited prolongation. Slope
    // neighbors come from the slab where available; where the missing
    // neighbor lies on the *receiver's* side of the interface (the
    // innermost ghost layer), it is restricted on the fly from the
    // receiver's own fine interior — the role of Parthenon's
    // receiver-side coarse buffer. Elsewhere the slope clamps to zero.
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nx[3] = {shape.nx1, ndim >= 2 ? shape.nx2 : 1,
                       ndim >= 3 ? shape.nx3 : 1};
    const int slab_lo[3] = {rangeStart(ch.send, 0), rangeStart(ch.send, 1),
                            rangeStart(ch.send, 2)};
    const int sc[3] = {rangeCount(ch.send, 0), rangeCount(ch.send, 1),
                       rangeCount(ch.send, 2)};
    const std::size_t slab_stride_n =
        static_cast<std::size_t>(sc[2]) * sc[1] * sc[0];
    require(count == slab_stride_n * ncomp,
            "slab payload size mismatch");
    auto slab_at = [&](int n, int ck, int cj, int ci) {
        return payload[(static_cast<std::size_t>(n) * sc[2] + ck) *
                           sc[1] * sc[0] +
                       static_cast<std::size_t>(cj) * sc[0] + ci];
    };

    // Coarse value at sender-local interior-relative index c_rel[3];
    // returns false if unobtainable from slab or receiver restriction.
    auto coarse_at = [&](int n, const int c_rel[3], double* out) {
        int s_idx[3];
        bool in_slab = true;
        for (int d = 0; d < 3; ++d) {
            s_idx[d] = c_rel[d] + lo[d] - slab_lo[d];
            if (s_idx[d] < 0 || s_idx[d] >= sc[d])
                in_slab = false;
        }
        if (in_slab) {
            *out = slab_at(n, s_idx[2], s_idx[1], s_idx[0]);
            return true;
        }
        // Restrict from the receiver's own interior if the coarse cell
        // maps entirely inside it.
        int f0[3] = {0, 0, 0};
        for (int d = 0; d < ndim; ++d) {
            f0[d] = ch.base[d] + 2 * c_rel[d];
            if (f0[d] < 0 || f0[d] + 1 >= nx[d])
                return false;
        }
        double sum = 0.0;
        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                for (int di = 0; di <= 1; ++di)
                    sum += cons(n, lo[2] * (ndim >= 3) + f0[2] + dk,
                                lo[1] * (ndim >= 2) + f0[1] + dj,
                                lo[0] + f0[0] + di);
        *out = sum / (1 << ndim);
        return true;
    };

    for (int n = 0; n < ncomp; ++n) {
        for (int k = ch.recv.k.lo; k <= ch.recv.k.hi; ++k)
            for (int j = ch.recv.j.lo; j <= ch.recv.j.hi; ++j)
                for (int i = ch.recv.i.lo; i <= ch.recv.i.hi; ++i) {
                    const int fidx[3] = {i, j, k};
                    int c_rel[3] = {0, 0, 0}; // interior-relative coarse
                    int p[3] = {0, 0, 0};     // fine parity in cell
                    for (int d = 0; d < ndim; ++d) {
                        const int t = fidx[d] - lo[d] - ch.base[d];
                        require(t >= 0, "negative alignment offset");
                        c_rel[d] = t >> 1;
                        p[d] = t & 1;
                    }
                    double center;
                    require(coarse_at(n, c_rel, &center),
                            "ghost prolongation center missing");
                    double value = center;
                    for (int d = 0; d < ndim; ++d) {
                        int cm[3] = {c_rel[0], c_rel[1], c_rel[2]};
                        int cp[3] = {c_rel[0], c_rel[1], c_rel[2]};
                        cm[d] -= 1;
                        cp[d] += 1;
                        double vm, vp;
                        double slope = 0.0;
                        if (coarse_at(n, cm, &vm) &&
                            coarse_at(n, cp, &vp))
                            slope = minmod(vp - center, center - vm);
                        value += (p[d] == 1 ? 0.25 : -0.25) * slope;
                    }
                    cons(n, k, j, i) = value;
                }
    }
}

void
GhostExchange::packFluxChannel(const FluxChannel& ch, double* out) const
{
    require(ch.sender->hasData(), "flux pack from a storage-less block ",
            ch.sender->loc().str());
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    const RealArray4& flux = ch.sender->flux(ch.dir);
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nfine = 1 << (ndim - 1);
    const double inv = 1.0 / nfine;
    std::size_t idx = 0;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi; ++J)
                for (int I = ch.recvFaces.i.lo; I <= ch.recvFaces.i.hi;
                     ++I) {
                    const int cidx[3] = {I, J, K};
                    int f[3];
                    for (int d = 0; d < 3; ++d) {
                        if (d == ch.dir) {
                            f[d] = ch.sendFaceIdx;
                        } else if (d < ndim) {
                            f[d] = lo[d] + 2 * (cidx[d] - lo[d]) -
                                   ch.base2[d];
                        } else {
                            f[d] = 0;
                        }
                    }
                    double sum = 0.0;
                    for (int dk = 0;
                         dk <= (ndim >= 3 && ch.dir != 2 ? 1 : 0); ++dk)
                        for (int dj = 0;
                             dj <= (ndim >= 2 && ch.dir != 1 ? 1 : 0);
                             ++dj)
                            for (int di = 0; di <= (ch.dir != 0 ? 1 : 0);
                                 ++di)
                                sum += flux(n, f[2] + dk, f[1] + dj,
                                            f[0] + di);
                    out[idx++] = sum * inv;
                }
}

void
GhostExchange::unpackFluxChannel(const FluxChannel& ch,
                                 const double* payload,
                                 std::size_t count) const
{
    const int ncomp = mesh_->registry().ncompConserved();
    // One size check up front, then unchecked indexing in the per-face
    // loop — the same hoist the bounds-unpack path received.
    require(count == static_cast<std::size_t>(ch.wireFaces()) * ncomp,
            "flux-correction payload size mismatch");
    RealArray4& flux = ch.receiver->flux(ch.dir);
    std::size_t idx = 0;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi; ++J)
                for (int I = ch.recvFaces.i.lo; I <= ch.recvFaces.i.hi;
                     ++I)
                    flux(n, K, J, I) = payload[idx++];
}

void
GhostExchange::applyPhysicalBoundaries()
{
    for (MeshBlock* block : mesh_->ownedBlocks())
        applyPhysicalBoundariesBlock(*block);
}

void
GhostExchange::applyPhysicalBoundariesBlock(MeshBlock& block)
{
    const ExecContext& ctx = mesh_->ctx();
    if (mesh_->config().periodic || !ctx.executing())
        return;
    const BlockShape shape = mesh_->config().blockShape();
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockTree& tree = mesh_->tree();

    // Outflow (zero-gradient): clamp every ghost index to the
    // interior for directions without a neighbor.
    const auto& loc = block.loc();
    auto at_boundary = [&](int d, int side) {
        LogicalLocation probe = loc;
        std::int64_t* lx = d == 0   ? &probe.lx1
                           : d == 1 ? &probe.lx2
                                    : &probe.lx3;
        *lx += side;
        return !tree.validIndex(probe);
    };
    RealArray4& cons = block.cons();
    const int is = shape.is(), ie = shape.ie();
    const int js = shape.js(), je = shape.je();
    const int ks = shape.ks(), ke = shape.ke();
    auto clamp_fill = [&](int kl, int ku, int jl, int ju, int il,
                          int iu) {
        for (int n = 0; n < ncomp; ++n)
            for (int k = kl; k <= ku; ++k)
                for (int j = jl; j <= ju; ++j)
                    for (int i = il; i <= iu; ++i)
                        cons(n, k, j, i) =
                            cons(n, std::clamp(k, ks, ke),
                                 std::clamp(j, js, je),
                                 std::clamp(i, is, ie));
    };
    const int nk = shape.nk(), nj = shape.nj(), ni = shape.ni();
    if (at_boundary(0, -1))
        clamp_fill(0, nk - 1, 0, nj - 1, 0, is - 1);
    if (at_boundary(0, +1))
        clamp_fill(0, nk - 1, 0, nj - 1, ie + 1, ni - 1);
    if (shape.ndim >= 2 && at_boundary(1, -1))
        clamp_fill(0, nk - 1, 0, js - 1, 0, ni - 1);
    if (shape.ndim >= 2 && at_boundary(1, +1))
        clamp_fill(0, nk - 1, je + 1, nj - 1, 0, ni - 1);
    if (shape.ndim >= 3 && at_boundary(2, -1))
        clamp_fill(0, ks - 1, 0, nj - 1, 0, ni - 1);
    if (shape.ndim >= 3 && at_boundary(2, +1))
        clamp_fill(ke + 1, nk - 1, 0, nj - 1, 0, ni - 1);
}

// The phase functions below read the plan tables lock-free: they require
// a current plan and never call plan_.ensureBuilt() themselves — a
// rebuild racing a pack launch would be a data race on the tables. The
// accessors panic on a stale generation.

std::vector<int>
GhostExchange::allMessageIds(PlanPhase phase) const
{
    // A classic mesh steps every block, so it plays all ranks' parts.
    std::vector<int> ids(plan_.messages(phase).size());
    for (std::size_t m = 0; m < ids.size(); ++m)
        ids[m] = static_cast<int>(m);
    return ids;
}

std::vector<int>
GhostExchange::sendIds(PlanPhase phase) const
{
    return mesh_->sharded() ? plan_.sendIds(phase, mesh_->shardRank())
                            : allMessageIds(phase);
}

std::vector<int>
GhostExchange::recvIds(PlanPhase phase) const
{
    return mesh_->sharded() ? plan_.recvIds(phase, mesh_->shardRank())
                            : allMessageIds(phase);
}

void
GhostExchange::startReceiveBoundBufs()
{
    // Per-cycle state reset lives here, at the top of the cycle, so an
    // exchange that threw mid-cycle cannot leak wire counts, message
    // counts, or stale mailbox deliveries into the next one.
    last_wire_cells_.store(0);
    last_messages_.store(0);
    last_entries_.store(0);
    last_send_bytes_.store(0);
    if (!world_->concurrent())
        discardStaleDeliveries();
    const std::vector<int> inbound = recvIds(PlanPhase::Bounds);
    // One coalesced buffer to prepare per inbound rank pair — this is
    // the point of the plan: O(ranks) bookkeeping, not O(faces).
    recordSerialAt(mesh_->ctx(), "StartReceiveBoundBufs",
                   mesh_->collectiveRank(), "recv_buf_prepare",
                   static_cast<double>(inbound.size()));
}

void
GhostExchange::sendPhase(PlanPhase phase)
{
    const ExecContext& ctx = mesh_->ctx();
    const bool bounds = phase == PlanPhase::Bounds;
    const auto& msgs = plan_.messages(phase);
    const std::vector<int> ids = sendIds(phase);
    if (ids.empty())
        return;

    // One row per plan entry; each row writes its disjoint payload
    // slice, so the single launch below is race-free by construction.
    struct Row
    {
        int channel;
        double* out;
    };
    std::size_t nentries = 0;
    for (int id : ids)
        nentries += msgs[static_cast<std::size_t>(id)].entries.size();
    std::vector<std::vector<double>> payloads(ids.size());
    std::vector<Row> rows;
    std::vector<int> ranks;
    std::vector<double> items;
    ranks.reserve(nentries);
    items.reserve(nentries);
    if (ctx.executing())
        rows.reserve(nentries);
    double innermost = 0;
    for (std::size_t s = 0; s < ids.size(); ++s) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(ids[s])];
        if (ctx.executing())
            payloads[s].resize(m.doubles);
        for (const PlanEntry& e : m.entries) {
            ranks.push_back(m.src);
            items.push_back(static_cast<double>(e.count));
            if (bounds) {
                const BoundsChannel& ch = cache_->bounds()[e.channel];
                innermost += rangeCount(
                    ch.levelDiff == 1 ? ch.recv : ch.send, 0);
            } else {
                innermost += cache_->flux()[e.channel].recvFaces.i.count();
            }
            if (ctx.executing())
                rows.push_back({e.channel, payloads[s].data() + e.offset});
        }
    }

    // ONE launch packs (and restricts) every outbound channel of the
    // phase.
    parForExecRows(
        ctx, 0, static_cast<int>(rows.size()) - 1, 0, 0,
        [&](int, int row, int) {
            const Row& r = rows[static_cast<std::size_t>(row)];
            if (bounds)
                packBoundsChannel(cache_->bounds()[r.channel], r.out);
            else
                packFluxChannel(cache_->flux()[r.channel], r.out);
        });
    recordPackKernelItems(
        ctx, "SendBoundBufs", "SendBoundBufs", {1.0, 2.0 * sizeof(double)},
        ranks.data(), items.data(), static_cast<int>(ranks.size()),
        innermost / static_cast<double>(ranks.size()));

    for (std::size_t s = 0; s < ids.size(); ++s) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(ids[s])];
        const bool remote = m.src != m.dst;
        recordSerialAt(ctx, "SendBoundBufs", m.src,
                       remote ? "msg_remote" : "msg_local", 1.0);
        recordSerialAt(ctx, "SendBoundBufs", m.src,
                       remote ? "msg_remote_bytes" : "msg_local_bytes",
                       m.bytes);
        // Directory bookkeeping is one item per entry, but it is paid
        // once per rank pair, not once per block.
        recordSerialAt(ctx, "SendBoundBufs", m.src, "bound_buf_metadata",
                       static_cast<double>(m.entries.size()));
        if (bounds)
            last_wire_cells_.fetch_add(m.wireUnits);
        countSend(m);
        world_->isend(m.id, m.src, m.dst, std::move(payloads[s]),
                      m.bytes);
    }
}

void
GhostExchange::sendBoundBufs()
{
    sendPhase(PlanPhase::Bounds);
}

void
GhostExchange::sendFluxCorrections()
{
    sendPhase(PlanPhase::Flux);
}

bool
GhostExchange::pollMessage(const PlanMessage& msg)
{
    if (!world_->iprobe(msg.id))
        return false;
    // One probe per rank pair, recorded once, on completion.
    recordSerialAt(mesh_->ctx(), "ReceiveBoundBufs", msg.dst,
                   "recv_poll", 1.0);
    return true;
}

void
GhostExchange::receivePhase(PlanPhase phase)
{
    const auto& msgs = plan_.messages(phase);
    const std::vector<int> ids = recvIds(phase);
    if (mesh_->sharded()) {
        // Remote senders run on their own threads: poll until every
        // expected message arrived (the real code's Iprobe progress
        // loop), bounded by a deadline.
        // vibe-lint: allow(obs-isolation) peer-wait deadline bounding
        // the Iprobe progress loop, not timing instrumentation.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(kPeerWaitSeconds);
        for (int id : ids) {
            const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
            while (!world_->iprobe(m.id)) {
                require(!world_->failed(),
                        "ghost exchange aborted: a peer rank failed");
                require(std::chrono::steady_clock::now() < deadline,
                        "ghost exchange timed out waiting for "
                        "the coalesced ",
                        planPhaseName(phase), " message from rank ",
                        m.src, " on rank ", m.dst);
                std::this_thread::yield();
            }
        }
    } else {
        for (int id : ids)
            require(world_->iprobe(
                        msgs[static_cast<std::size_t>(id)].id),
                    "ghost exchange lost a coalesced ",
                    planPhaseName(phase), " message");
    }
    recordSerialAt(mesh_->ctx(), "ReceiveBoundBufs",
                   mesh_->collectiveRank(), "recv_poll",
                   static_cast<double>(ids.size()));
}

void
GhostExchange::receiveBoundBufs()
{
    receivePhase(PlanPhase::Bounds);
}

void
GhostExchange::receiveFluxCorrections()
{
    receivePhase(PlanPhase::Flux);
}

void
GhostExchange::setPhase(PlanPhase phase)
{
    const ExecContext& ctx = mesh_->ctx();
    const bool bounds = phase == PlanPhase::Bounds;
    const int ncomp = mesh_->registry().ncompConserved();
    const auto& msgs = plan_.messages(phase);
    const std::vector<int> ids = recvIds(phase);
    if (ids.empty())
        return;

    struct Row
    {
        int channel;
        const double* payload;
        std::size_t count;
    };
    // Reserve up front: rows hold pointers into received payloads, and
    // a Message move keeps its payload's heap buffer stable.
    std::vector<Message> received;
    received.reserve(ids.size());
    std::vector<Row> rows;
    std::vector<int> ranks;
    std::vector<double> items;
    double innermost = 0;
    for (int id : ids) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
        auto msg = world_->receive(m.id);
        require(msg.has_value(), "missing coalesced ",
                planPhaseName(phase), " message ", m.src, " -> ",
                m.dst);
        require(msg->src == m.src && msg->dst == m.dst,
                "coalesced ", planPhaseName(phase),
                " message rank mismatch: carried ", msg->src, " -> ",
                msg->dst, ", expected ", m.src, " -> ", m.dst);
        require(!ctx.executing() || msg->payload.size() == m.doubles,
                "coalesced ", planPhaseName(phase),
                " payload size mismatch: ", msg->payload.size(),
                " doubles, directory says ", m.doubles);
        received.push_back(std::move(*msg));
        const Message& stored = received.back();
        for (const PlanEntry& e : m.entries) {
            ranks.push_back(m.dst);
            if (bounds) {
                const BoundsChannel& ch = cache_->bounds()[e.channel];
                items.push_back(static_cast<double>(ch.recv.cells()) *
                                ncomp);
                innermost += ch.recv.i.count();
            } else {
                const FluxChannel& ch = cache_->flux()[e.channel];
                items.push_back(static_cast<double>(ch.wireFaces()) *
                                ncomp);
                innermost += ch.recvFaces.i.count();
            }
            if (ctx.executing())
                rows.push_back(
                    {e.channel, stored.payload.data() + e.offset,
                     e.count});
        }
    }

    // ONE launch unpacks (and prolongates) every inbound entry.
    // Each entry writes only its receiver's ghost region (or its own
    // flux faces), and prolongation's interior fallback reads cells no
    // unpack writes, so rows are independent.
    parForExecRows(
        ctx, 0, static_cast<int>(rows.size()) - 1, 0, 0,
        [&](int, int row, int) {
            const Row& r = rows[static_cast<std::size_t>(row)];
            if (bounds)
                unpackBoundsChannel(cache_->bounds()[r.channel],
                                    r.payload, r.count);
            else
                unpackFluxChannel(cache_->flux()[r.channel], r.payload,
                                  r.count);
        });
    const KernelCosts costs =
        bounds ? KernelCosts{1.0, 2.0 * sizeof(double)}
               : KernelCosts{0.0, 2.0 * sizeof(double)};
    recordPackKernelItems(ctx, "SetBounds", "SetBounds", costs,
                          ranks.data(), items.data(),
                          static_cast<int>(ranks.size()),
                          innermost /
                              static_cast<double>(ranks.size()));
    if (bounds) {
        for (int id : ids) {
            const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
            recordSerialAt(ctx, "SetBounds", m.dst,
                           "bound_buf_metadata",
                           static_cast<double>(m.entries.size()));
        }
    }
}

void
GhostExchange::setBounds()
{
    setPhase(PlanPhase::Bounds);
}

void
GhostExchange::setFluxCorrections()
{
    setPhase(PlanPhase::Flux);
}

} // namespace vibe
