#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/obs.hpp"

namespace imc::sim {

Simulation::Simulation(ClusterSpec spec) : spec_(std::move(spec))
{
    require(spec_.num_nodes > 0, "Simulation: cluster needs >= 1 node");
    const auto n = static_cast<std::size_t>(spec_.num_nodes);
    crashed_.assign(n, 0);
    node_tenants_.resize(n);
    node_procs_.resize(n);
}

EventId
Simulation::schedule(double dt, Callback cb)
{
    require(dt >= 0.0, "Simulation::schedule: negative delay");
    return queue_.schedule_at(now() + dt, std::move(cb));
}

TenantId
Simulation::add_tenant(NodeId node, const TenantDemand& demand)
{
    require(node >= 0 && node < spec_.num_nodes,
            "add_tenant: node index out of range");
    require(!crashed_[static_cast<std::size_t>(node)],
            "add_tenant: node has crashed");
    const auto id = static_cast<TenantId>(tenant_node_.size());
    tenant_node_.push_back(node);
    tenant_live_.push_back(1);
    tenant_slowdown_.push_back(1.0);
    tenant_demand_.push_back(demand);
    node_tenants_[static_cast<std::size_t>(node)].push_back(id);
    resolve_node(node);
    return id;
}

void
Simulation::remove_tenant(TenantId t)
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "remove_tenant: no such tenant");
    invariant(tenant_live_[ti], "remove_tenant: tenant already removed");
    const NodeId node = tenant_node_[ti];
    for (const ProcId pid : node_procs_[static_cast<std::size_t>(node)]) {
        const Proc& p = procs_[static_cast<std::size_t>(pid)];
        invariant(p.tenant != t || !p.busy,
                  "remove_tenant: tenant still has a busy proc");
    }
    auto& list = node_tenants_[static_cast<std::size_t>(node)];
    list.erase(std::find(list.begin(), list.end(), t));
    tenant_live_[ti] = 0;
    resolve_node(node);
}

void
Simulation::set_demand(TenantId t, const TenantDemand& demand)
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "set_demand: no such tenant");
    invariant(tenant_live_[ti], "set_demand: tenant removed");
    tenant_demand_[ti] = demand;
    resolve_node(tenant_node_[ti]);
}

double
Simulation::tenant_slowdown(TenantId t) const
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "tenant_slowdown: no such tenant");
    invariant(tenant_live_[ti], "tenant_slowdown: tenant removed");
    return tenant_slowdown_[ti];
}

const TenantDemand&
Simulation::tenant_demand(TenantId t) const
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "tenant_demand: no such tenant");
    return tenant_demand_[ti];
}

NodeId
Simulation::node_of(TenantId t) const
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "node_of: no such tenant");
    return tenant_node_[ti];
}

int
Simulation::tenants_on(NodeId node) const
{
    require(node >= 0 && node < spec_.num_nodes,
            "tenants_on: node index out of range");
    return static_cast<int>(
        node_tenants_[static_cast<std::size_t>(node)].size());
}

ProcId
Simulation::add_proc(TenantId t)
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "add_proc: no such tenant");
    invariant(tenant_live_[ti], "add_proc: tenant removed");
    const auto id = static_cast<ProcId>(procs_.size());
    Proc& p = procs_.emplace_back();
    p.rate = 1.0 / tenant_slowdown_[ti];
    p.tenant = t;
    // Appended in ascending ProcId order: a re-solve reschedules the
    // node's procs in ascending-pid order, which fixes the seq order
    // of their re-rated completions.
    node_procs_[static_cast<std::size_t>(tenant_node_[ti])].push_back(id);
    return id;
}

void
Simulation::compute(ProcId pid, double work, Callback done)
{
    require(work >= 0.0, "compute: negative work");
    const auto pi = static_cast<std::size_t>(pid);
    require(pi < procs_.size(), "compute: no such proc");
    Proc& p = procs_[pi];
    invariant(!p.busy, "compute: proc already busy");
    const auto ti = static_cast<std::size_t>(p.tenant);
    invariant(tenant_live_[ti],
              "compute: proc's tenant was removed or crashed");
    p.busy = true;
    p.remaining = work;
    p.rate = 1.0 / tenant_slowdown_[ti];
    p.last_update = now();
    ++stats_.computes;
    // The completion is tagged with the proc; its callback slot holds
    // the caller's done, which step() runs after complete().
    p.event = queue_.schedule_at(now() + completion_delay(p),
                                 std::move(done),
                                 static_cast<std::uint32_t>(pid));
}

bool
Simulation::proc_busy(ProcId pid) const
{
    const auto pi = static_cast<std::size_t>(pid);
    require(pi < procs_.size(), "proc_busy: no such proc");
    return procs_[pi].busy;
}

void
Simulation::abort_proc(ProcId pid)
{
    const auto pi = static_cast<std::size_t>(pid);
    require(pi < procs_.size(), "abort_proc: no such proc");
    Proc& p = procs_[pi];
    if (!p.busy)
        return;
    // Settle for consistent accounting, then cancel the completion,
    // which drops the done callback with it: the in-flight work is
    // abandoned, not finished.
    settle(p);
    queue_.cancel(p.event);
    p.busy = false;
    p.remaining = 0.0;
}

bool
Simulation::tenant_live(TenantId t) const
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_live_.size(), "tenant_live: no such tenant");
    return tenant_live_[ti] != 0;
}

void
Simulation::refresh_all_nodes()
{
    for (NodeId node = 0; node < spec_.num_nodes; ++node)
        resolve_node(node);
}

void
Simulation::crash_node(NodeId node)
{
    require(node >= 0 && node < spec_.num_nodes,
            "crash_node: node index out of range");
    const auto ni = static_cast<std::size_t>(node);
    if (crashed_[ni])
        return;
    crashed_[ni] = 1;
    ++stats_.node_crashes;
    IMC_OBS_COUNT("sim.node_crashes");

    // Kill in-flight work first: the work is lost with the node.
    for (const ProcId pid : node_procs_[ni])
        abort_proc(pid);

    // Then drop the tenants and re-solve the (now empty) node.
    auto& list = node_tenants_[ni];
    for (const TenantId t : list)
        tenant_live_[static_cast<std::size_t>(t)] = 0;
    list.clear();
    resolve_node(node);
}

bool
Simulation::node_crashed(NodeId node) const
{
    require(node >= 0 && node < spec_.num_nodes,
            "node_crashed: node index out of range");
    return crashed_[static_cast<std::size_t>(node)] != 0;
}

void
Simulation::run(std::uint64_t max_events)
{
    const std::uint64_t start = queue_.executed();
    const SimStats stats_before = stats_;
    (void)stats_before; // consumed only by the obs block below
    while (step()) {
        invariant(queue_.executed() - start <= max_events,
                  "Simulation::run: event budget exceeded (runaway?)");
    }
    // Aggregate deltas once per run() — the per-event loop above stays
    // untouched so the hot path costs nothing when obs is off.
    if (IMC_OBS_ENABLED()) {
        IMC_OBS_COUNT("sim.runs");
        IMC_OBS_COUNT("sim.events", queue_.executed() - start);
        IMC_OBS_COUNT("sim.contention_solves",
                   static_cast<std::uint64_t>(
                       stats_.contention_solves -
                       stats_before.contention_solves));
        IMC_OBS_COUNT("sim.proc_reschedules",
                   static_cast<std::uint64_t>(
                       stats_.proc_reschedules -
                       stats_before.proc_reschedules));
        IMC_OBS_COUNT("sim.computes",
                   static_cast<std::uint64_t>(stats_.computes -
                                              stats_before.computes));
    }
}

bool
Simulation::step()
{
    EventQueue::Fired ev;
    if (!queue_.pop(ev))
        return false;
    if (ev.tag != EventQueue::kNoTag)
        complete(static_cast<ProcId>(ev.tag));
    if (ev.cb)
        ev.cb();
    return true;
}

void
Simulation::resolve_node(NodeId node)
{
    const auto ni = static_cast<std::size_t>(node);
    const auto& ids = node_tenants_[ni];

    solver_.clear();
    for (const TenantId t : ids)
        solver_.push(tenant_demand_[static_cast<std::size_t>(t)]);

    ++stats_.contention_solves;
    solver_.solve(spec_.node);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        tenant_slowdown_[static_cast<std::size_t>(ids[i])] =
            solver_.slowdown(i);
    }

    // Settle and reschedule the node's busy procs — and only the
    // node's: the per-node index list spares a scan of every proc in
    // the cluster.
    for (const ProcId pid : node_procs_[ni]) {
        Proc& p = procs_[static_cast<std::size_t>(pid)];
        if (!p.busy)
            continue;
        reschedule_proc(p,
                        tenant_slowdown_[static_cast<std::size_t>(p.tenant)]);
    }
}

void
Simulation::settle(Proc& p)
{
    const double elapsed = now() - p.last_update;
    p.remaining = std::max(0.0, p.remaining - elapsed * p.rate);
    p.last_update = now();
}

void
Simulation::reschedule_proc(Proc& p, double slowdown)
{
    settle(p);
    p.rate = 1.0 / slowdown;
    ++stats_.proc_reschedules;
    const bool pending =
        queue_.reschedule(p.event, now() + completion_delay(p));
    invariant(pending, "reschedule_proc: busy proc has no completion");
}

double
Simulation::completion_delay(const Proc& p)
{
    invariant(p.rate > 0.0, "completion_delay: nonpositive rate");
    return p.remaining / p.rate;
}

void
Simulation::complete(ProcId pid)
{
    Proc& p = procs_[static_cast<std::size_t>(pid)];
    invariant(p.busy, "complete: proc not busy");
    settle(p);
    // The completion time now() + remaining / rate rounded to within
    // an ulp of now(), which leaves up to that much time's work
    // unsettled: bound the remainder by a few ulp of now() at the
    // proc's rate, not only absolutely.
    constexpr double kEps = std::numeric_limits<double>::epsilon();
    invariant(p.remaining <= 1e-9 + 4.0 * kEps * now() * p.rate,
              "complete: fired with work remaining");
    p.busy = false;
    p.remaining = 0.0;
}

std::size_t
Simulation::approx_bytes() const
{
    std::size_t bytes = queue_.approx_bytes() + solver_.approx_bytes();
    bytes += crashed_.capacity() * sizeof(char);
    bytes += node_tenants_.capacity() * sizeof(node_tenants_[0]);
    for (const auto& v : node_tenants_)
        bytes += v.capacity() * sizeof(TenantId);
    bytes += node_procs_.capacity() * sizeof(node_procs_[0]);
    for (const auto& v : node_procs_)
        bytes += v.capacity() * sizeof(ProcId);
    bytes += tenant_node_.capacity() * sizeof(NodeId);
    bytes += tenant_live_.capacity() * sizeof(char);
    bytes += tenant_slowdown_.capacity() * sizeof(double);
    bytes += tenant_demand_.capacity() * sizeof(TenantDemand);
    bytes += procs_.capacity() * sizeof(Proc);
    return bytes;
}

} // namespace imc::sim
