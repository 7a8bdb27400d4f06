#include "sched/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "placement/slo.hpp"

namespace imc::sched {

SchedulerCore::SchedulerCore(placement::Evaluator& evaluator,
                             int num_nodes, int slots_per_node,
                             SchedOptions opts)
    : eval_(evaluator),
      scorer_(evaluator,
              placement::Placement(std::vector<placement::Instance>{},
                                   num_nodes, slots_per_node)),
      opts_(opts), base_rng_(opts.seed),
      alive_(static_cast<std::size_t>(num_nodes), 1),
      room_key_(static_cast<std::size_t>(num_nodes)),
      dirty_(static_cast<std::size_t>(num_nodes), 0)
{
    require(evaluator.supports_dynamic(),
            "SchedulerCore: evaluator must support dynamic "
            "instance add/remove");
    require(evaluator.supports_delta(),
            "SchedulerCore: evaluator must support the delta path");
    require(num_nodes >= 1, "SchedulerCore: need >= 1 node");
    require(slots_per_node >= 1, "SchedulerCore: need >= 1 slot");
    require(opts_.candidate_nodes >= 1,
            "SchedulerCore: candidate_nodes must be >= 1");
    require(opts_.polish_proposals >= 0,
            "SchedulerCore: polish_proposals must be >= 0");
    // Every node starts idle and alive: no tenant, so a newcomer sees
    // pressure 0 there. Each node owns one tree node from here on.
    for (sim::NodeId n = 0; n < num_nodes; ++n) {
        room_key_[static_cast<std::size_t>(n)] = {0.0, 0, n};
        room_.insert(room_.end(), room_key_[static_cast<std::size_t>(n)]);
    }
    spare_.reserve(room_key_.size());
    dirty_nodes_.reserve(room_key_.size());
}

Admission
SchedulerCore::arrive(std::int64_t id, const workload::AppSpec& app,
                      int units, double slo)
{
    ++event_seq_;
    require(units >= 1, "SchedulerCore::arrive: need >= 1 unit");
    require(units <= scorer_.placement().num_nodes(),
            "SchedulerCore::arrive: more units than nodes");
    require(index_of_.find(id) == index_of_.end(),
            "SchedulerCore::arrive: duplicate app id " +
                std::to_string(id));

    Admission out;
    if (IMC_FAULT_PROBE("sched.admit", "app#" + std::to_string(id), 0)
            .fail) {
        out.fault_rejected = true;
        return out;
    }

    if (nodes_with_room() < units) {
        // Admission control: only an SLO arrival may push best-effort
        // work out of the cluster.
        if (!opts_.allow_eviction || slo <= 0.0)
            return out;
        out.evicted = evict_until_room(units);
        if (nodes_with_room() < units)
            return out;
    }

    const placement::Instance inst{app, units};
    const int new_index = num_apps();
    std::vector<sim::NodeId> chosen;
    {
        IMC_OBS_SPAN(span, "sched.event.choose");
        // Evaluator leads, scorer follows: greedy insertion reads the
        // newcomer's score and predict_instance() at its new index.
        eval_.push_instance(inst);
        chosen = choose_nodes(new_index, units);
        scorer_.push_instance(inst, chosen);
    }

    ids_.push_back(id);
    slo_.push_back(slo);
    units_.push_back(units);
    index_of_[id] = new_index;
    for (sim::NodeId n : chosen)
        mark_dirty(n); // one tenant more

    out.admitted = true;
    polish(chosen);
    return out;
}

bool
SchedulerCore::depart(std::int64_t id)
{
    ++event_seq_;
    const auto it = index_of_.find(id);
    if (it == index_of_.end())
        return false;
    const std::vector<sim::NodeId> freed =
        scorer_.nodes_sorted(it->second);
    {
        IMC_OBS_SPAN(span, "sched.event.remove");
        remove_index(it->second);
    }
    polish(freed);
    return true;
}

RepairOutcome
SchedulerCore::crash(sim::NodeId node)
{
    ++event_seq_;
    require(node >= 0 && node < scorer_.placement().num_nodes(),
            "SchedulerCore::crash: node out of range");
    RepairOutcome out;
    if (!alive_[static_cast<std::size_t>(node)])
        return out; // crash of an already-dead node: nothing to do
    alive_[static_cast<std::size_t>(node)] = 0;
    mark_dirty(node); // leaves the room index
    polish(repair_displaced(node, out));
    return out;
}

bool
SchedulerCore::join(sim::NodeId node)
{
    ++event_seq_;
    require(node >= 0 && node < scorer_.placement().num_nodes(),
            "SchedulerCore::join: node out of range");
    if (alive_[static_cast<std::size_t>(node)])
        return false;
    alive_[static_cast<std::size_t>(node)] = 1;
    mark_dirty(node); // rejoins the room index
    // The polish may rebalance pressured units onto the fresh node.
    polish({node});
    return true;
}

std::vector<sim::NodeId>
SchedulerCore::repair_displaced(sim::NodeId dead, RepairOutcome& out)
{
    IMC_OBS_SPAN(span, "sched.event.repair");
    const placement::Placement& p = scorer_.placement();
    const int slots = p.slots_per_node();
    std::vector<std::int64_t> vetoed;
    std::vector<sim::NodeId> dests;
    while (!scorer_.tenants_on(dead).empty()) {
        // The lowest displaced instance, re-read after every move or
        // eviction: the list stays ascending under the swap-with-last
        // renumbering evictions cause. An instance holds one unit per
        // node, so exactly one of its units is on the dead node.
        const int di = scorer_.tenants_on(dead).front();
        int du = 0;
        while (p.node_of(di, du) != dead)
            ++du;

        // Least-loaded live node with a free slot the instance does
        // not occupy; ascending scan + strict < ties to the lowest id.
        sim::NodeId best = -1;
        int best_load = slots;
        for (sim::NodeId n = 0; n < p.num_nodes(); ++n) {
            if (!alive_[static_cast<std::size_t>(n)])
                continue;
            const int load = load_of(n);
            if (load < best_load && !p.occupies(di, n)) {
                best = n;
                best_load = load;
            }
        }
        if (best < 0) {
            // SLO-aware eviction: push best-effort work out to make
            // room for the displaced unit (which may itself be the
            // victim — that also resolves the displacement). With
            // eviction off, or no unvetoed best-effort app left, the
            // displaced app itself is dropped.
            int victim = opts_.allow_eviction ? pick_victim(vetoed) : -1;
            if (victim < 0)
                victim = di;
            out.evicted.push_back(ids_[static_cast<std::size_t>(victim)]);
            remove_index(victim);
            continue; // indices renumbered: re-read the list
        }

        scorer_.move_unit(di, du, best);
        // The dead source is out of the room index until its join
        // re-keys it, so only the destination needs a mark.
        mark_dirty(best);
        ++out.moved_units;
        dests.push_back(best);
    }
    return dests;
}

double
SchedulerCore::objective() const
{
    return placement::tail_objective(scorer_.times(),
                                     scorer_.placement().instances(),
                                     slo_, opts_.slo_penalty);
}

std::int64_t
SchedulerCore::id_at(int index) const
{
    return ids_.at(static_cast<std::size_t>(index));
}

int
SchedulerCore::index_of(std::int64_t id) const
{
    const auto it = index_of_.find(id);
    return it == index_of_.end() ? -1 : it->second;
}

bool
SchedulerCore::node_alive(sim::NodeId node) const
{
    return alive_.at(static_cast<std::size_t>(node)) != 0;
}

int
SchedulerCore::load_of(sim::NodeId node) const
{
    return static_cast<int>(scorer_.tenants_on(node).size());
}

void
SchedulerCore::remove_index(int index)
{
    for (sim::NodeId n : scorer_.nodes_sorted(index))
        mark_dirty(n); // one tenant fewer
    const std::size_t last = ids_.size() - 1;
    if (static_cast<std::size_t>(index) != last) {
        // The last instance is renumbered into `index`. It keeps its
        // nodes and score, but a newcomer's pressure there combines
        // the tenants' scores in ascending index order, and that sum
        // is order-sensitive in floating point (the reason
        // DeltaScorer::remove_instance_swap re-scores these tenants).
        // Only a node with room and three or more tenants can see
        // the order change, and then only in a key's last bits, so
        // a missing mark here would rarely change a decision; it
        // keeps every key equal to what a fresh scan computes.
        for (sim::NodeId n : scorer_.nodes_sorted(static_cast<int>(last)))
            mark_dirty(n);
    }
    // Evaluator leads, scorer follows (the pop order the scorer's
    // rescoring relies on).
    eval_.pop_instance_swap(index);
    scorer_.remove_instance_swap(index);

    index_of_.erase(ids_[static_cast<std::size_t>(index)]);
    if (static_cast<std::size_t>(index) != last) {
        ids_[static_cast<std::size_t>(index)] = ids_[last];
        slo_[static_cast<std::size_t>(index)] = slo_[last];
        units_[static_cast<std::size_t>(index)] = units_[last];
        index_of_[ids_[static_cast<std::size_t>(index)]] = index;
    }
    ids_.pop_back();
    slo_.pop_back();
    units_.pop_back();
}

int
SchedulerCore::pick_victim(std::vector<std::int64_t>& vetoed) const
{
    const std::vector<double>& times = scorer_.times();
    for (;;) {
        int victim = -1;
        for (int i = 0; i < num_apps(); ++i) {
            if (slo_[static_cast<std::size_t>(i)] > 0.0)
                continue; // SLO apps are never evicted
            if (std::find(vetoed.begin(), vetoed.end(),
                          ids_[static_cast<std::size_t>(i)]) !=
                vetoed.end())
                continue;
            if (victim < 0 ||
                times[static_cast<std::size_t>(i)] >
                    times[static_cast<std::size_t>(victim)] ||
                (times[static_cast<std::size_t>(i)] ==
                     times[static_cast<std::size_t>(victim)] &&
                 ids_[static_cast<std::size_t>(i)] <
                     ids_[static_cast<std::size_t>(victim)]))
                victim = i;
        }
        if (victim < 0)
            return -1;
        const std::int64_t vid = ids_[static_cast<std::size_t>(victim)];
        if (!IMC_FAULT_PROBE("sched.evict", "app#" + std::to_string(vid),
                             0)
                 .fail)
            return victim;
        vetoed.push_back(vid);
    }
}

std::vector<std::int64_t>
SchedulerCore::evict_until_room(int units)
{
    IMC_OBS_SPAN(span, "sched.event.evict");
    std::vector<std::int64_t> evicted;
    std::vector<std::int64_t> vetoed;
    while (nodes_with_room() < units) {
        const int victim = pick_victim(vetoed);
        if (victim < 0)
            break;
        evicted.push_back(ids_[static_cast<std::size_t>(victim)]);
        remove_index(victim);
    }
    return evicted;
}

int
SchedulerCore::nodes_with_room()
{
    refresh_room();
    return static_cast<int>(room_.size());
}

void
SchedulerCore::mark_dirty(sim::NodeId node)
{
    char& dirty = dirty_[static_cast<std::size_t>(node)];
    if (!dirty) {
        dirty = 1;
        dirty_nodes_.push_back(node);
    }
}

void
SchedulerCore::refresh_room()
{
    const int slots = scorer_.placement().slots_per_node();
    for (const sim::NodeId n : dirty_nodes_) {
        const auto ni = static_cast<std::size_t>(n);
        dirty_[ni] = 0;
        RoomKey fresh; // out of the index
        const int load = load_of(n);
        if (alive_[ni] && load < slots)
            fresh = {scorer_.newcomer_pressure(n), load, n};
        RoomKey& key = room_key_[ni];
        if (fresh == key)
            continue;
        // The node's tree node sits in room_ while it has room and in
        // spare_ while it has none, so no re-key allocates.
        RoomIndex::node_type handle;
        if (key.node >= 0) {
            handle = room_.extract(key);
        } else {
            invariant(!spare_.empty(),
                      "refresh_room: a node without its tree node");
            handle = std::move(spare_.back());
            spare_.pop_back();
        }
        key = fresh;
        if (fresh.node >= 0) {
            handle.value() = fresh;
            room_.insert(std::move(handle));
        } else {
            spare_.push_back(std::move(handle));
        }
    }
    dirty_nodes_.clear();
}

std::vector<sim::NodeId>
SchedulerCore::choose_nodes(int new_index, int units)
{
    refresh_room();
    const double new_score =
        eval_.scores().at(static_cast<std::size_t>(new_index));

    std::vector<sim::NodeId> chosen;
    chosen.reserve(static_cast<std::size_t>(units));
    // Pressures the newcomer sees on its chosen nodes, aligned with
    // `chosen` (unsorted); rebuilt into node order per candidate.
    std::vector<double> own_pressures;
    std::vector<std::pair<sim::NodeId, double>> own;
    std::vector<double> scratch;

    for (int u = 0; u < units; ++u) {
        // Cheap ranking: the first candidate_nodes keys that no
        // earlier unit took are the only nodes that get the exact
        // marginal-cost evaluation, best key first.
        const RoomKey* best = nullptr;
        double best_cost = 0.0;
        int ranked = 0;
        for (auto c = room_.begin();
             c != room_.end() && ranked < opts_.candidate_nodes; ++c) {
            const sim::NodeId n = c->node;
            if (std::find(chosen.begin(), chosen.end(), n) != chosen.end())
                continue;
            ++ranked;
            // Exact marginal cost of placing this unit on n:
            // co-tenants on n each gain the newcomer's score in the
            // slot of node n of their pressure list (the newcomer has
            // the largest index, so "+ new_score" is bit-identical to
            // the ascending-order recombination a rescore would do)...
            double cost = 0.0;
            for (int t : scorer_.tenants_on(n)) {
                const std::vector<sim::NodeId>& tnodes =
                    scorer_.nodes_sorted(t);
                const std::size_t k = static_cast<std::size_t>(
                    std::lower_bound(tnodes.begin(), tnodes.end(), n) -
                    tnodes.begin());
                scratch = scorer_.pressure_list(t);
                scratch[k] += new_score;
                const double after = eval_.predict_instance(t, scratch);
                cost += units_[static_cast<std::size_t>(t)] *
                        (after - scorer_.time_of(t));
            }
            // ... and the newcomer itself pays its predicted time
            // under the pressures of the nodes picked so far plus n,
            // zero-padded for units not yet placed (optimistic: the
            // remaining units may land on idle nodes).
            scratch.assign(static_cast<std::size_t>(units), 0.0);
            own.clear();
            for (std::size_t i = 0; i < chosen.size(); ++i)
                own.emplace_back(chosen[i], own_pressures[i]);
            own.emplace_back(n, c->pressure);
            std::sort(own.begin(), own.end());
            for (std::size_t i = 0; i < own.size(); ++i)
                scratch[i] = own[i].second;
            cost += units * eval_.predict_instance(new_index, scratch);

            if (best == nullptr || cost < best_cost) {
                best = &*c;
                best_cost = cost;
            }
        }
        invariant(best != nullptr,
                  "choose_nodes: admission let an unplaceable app in");
        chosen.push_back(best->node);
        own_pressures.push_back(best->pressure);
    }
    return chosen;
}

void
SchedulerCore::polish(const std::vector<sim::NodeId>& dirty)
{
    if (opts_.polish_proposals <= 0 || num_apps() < 1)
        return;
    IMC_OBS_SPAN(span, "sched.event.polish");
    const placement::Placement& p = scorer_.placement();
    const int slots = p.slots_per_node();
    // One stream per event index: byte-identical replays regardless
    // of wall-clock, thread count, or earlier polish outcomes.
    Rng rng = base_rng_.fork("polish").fork(event_seq_);
    // Each proposal is kept iff it lowers objective(), decided from
    // the instances it re-scored (placement::filter_change); only a
    // too-close call re-sums both objectives. The magnitude bound
    // starts from one pass and only widens with kept changes.
    double magnitude = placement::objective_magnitude(
        scorer_.times(), units_, slo_, opts_.slo_penalty);
    std::uint64_t compared = 0;
    std::uint64_t fallbacks = 0;
    const auto keep_if_lower = [&] {
        ++compared;
        const placement::ChangeVerdict v = placement::filter_change(
            scorer_.last_affected(), scorer_.last_old_times(),
            scorer_.times(), units_, slo_, opts_.slo_penalty,
            magnitude);
        bool lower = v.change == placement::Change::kLower;
        if (v.change == placement::Change::kUnsure) {
            ++fallbacks;
            lower = placement::full_change_lower(
                scorer_.last_affected(), scorer_.last_old_times(),
                scorer_.times(), units_, slo_, opts_.slo_penalty);
        }
        if (lower)
            magnitude = v.magnitude_after;
        else
            scorer_.undo();
        return lower;
    };
    for (int i = 0; i < opts_.polish_proposals; ++i) {
        if (!dirty.empty() && rng.bernoulli(0.5)) {
            // Swap a unit on a dirty node with a random other unit.
            const sim::NodeId dn =
                dirty[rng.uniform_index(dirty.size())];
            const std::vector<int>& tenants = scorer_.tenants_on(dn);
            if (tenants.empty())
                continue;
            const int a = tenants[rng.uniform_index(tenants.size())];
            int ua = -1;
            const int a_units = units_[static_cast<std::size_t>(a)];
            for (int u = 0; u < a_units; ++u) {
                if (p.node_of(a, u) == dn) {
                    ua = u;
                    break;
                }
            }
            const int b = static_cast<int>(
                rng.uniform_index(static_cast<std::uint64_t>(num_apps())));
            const int b_units = units_[static_cast<std::size_t>(b)];
            const int ub = static_cast<int>(rng.uniform_index(
                static_cast<std::uint64_t>(b_units)));
            if (!p.swap_is_valid(a, ua, b, ub))
                continue;
            const sim::NodeId bn = p.node_of(b, ub);
            scorer_.apply({a, ua, b, ub});
            // Loads are unchanged by a swap, but both tenant sets
            // changed. dn is one of the event's own nodes, which the
            // event has marked already.
            if (keep_if_lower())
                mark_dirty(bn);
        } else {
            // Move a random unit to a random live node with room.
            const int a = static_cast<int>(
                rng.uniform_index(static_cast<std::uint64_t>(num_apps())));
            const int a_units = units_[static_cast<std::size_t>(a)];
            const int ua = static_cast<int>(rng.uniform_index(
                static_cast<std::uint64_t>(a_units)));
            const sim::NodeId from = p.node_of(a, ua);
            const sim::NodeId to =
                static_cast<sim::NodeId>(rng.uniform_index(
                    static_cast<std::uint64_t>(p.num_nodes())));
            if (to == from || !alive_[static_cast<std::size_t>(to)] ||
                load_of(to) >= slots || p.occupies(a, to))
                continue;
            scorer_.move_unit(a, ua, to);
            if (keep_if_lower()) {
                mark_dirty(from);
                mark_dirty(to);
            }
        }
    }
    if (IMC_OBS_ENABLED()) {
        IMC_OBS_COUNT("sched.polish.proposals", compared);
        IMC_OBS_COUNT("sched.polish.filter_fallbacks", fallbacks);
    }
}

} // namespace imc::sched
