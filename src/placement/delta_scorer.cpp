#include "placement/delta_scorer.hpp"

#include <algorithm>

#include "bubble/bubble.hpp"
#include "common/error.hpp"

namespace imc::placement {

DeltaScorer::DeltaScorer(const Evaluator& evaluator, Placement placement,
                         bool force_full)
    : evaluator_(evaluator), placement_(std::move(placement)),
      incremental_(!force_full && evaluator.supports_delta())
{
    require(placement_.valid(), "DeltaScorer: placement invalid");
    if (!incremental_) {
        times_ = evaluator_.predict(placement_);
        return;
    }
    scores_ = evaluator_.scores();
    require(scores_.size() ==
                static_cast<std::size_t>(placement_.num_instances()),
            "DeltaScorer: score count mismatch");

    node_tenants_.resize(
        static_cast<std::size_t>(placement_.num_nodes()));
    for (int i = 0; i < placement_.num_instances(); ++i) {
        const int units =
            placement_.instances()[static_cast<std::size_t>(i)].units;
        for (int u = 0; u < units; ++u) {
            node_tenants_[static_cast<std::size_t>(
                              placement_.node_of(i, u))]
                .push_back(i);
        }
        sorted_nodes_.push_back(placement_.nodes_of(i));
    }
    // Instances were visited in ascending id, so every tenant list is
    // already sorted — the order co_tenants() yields.
    pressures_.resize(sorted_nodes_.size());
    times_.resize(sorted_nodes_.size());
    for (int i = 0; i < placement_.num_instances(); ++i)
        rescore_instance(i);
}

double
DeltaScorer::total_time() const
{
    double total = 0.0;
    for (std::size_t i = 0; i < times_.size(); ++i)
        total += times_[i] * placement_.instances()[i].units;
    return total;
}

double
DeltaScorer::pressure_at(int i, sim::NodeId node)
{
    partner_buf_.clear();
    for (int other : node_tenants_[static_cast<std::size_t>(node)]) {
        if (other != i)
            partner_buf_.push_back(
                scores_[static_cast<std::size_t>(other)]);
    }
    // Fast paths mirror combine_pressures exactly: no partner is
    // pressure 0, a single positive partner is its own score.
    if (partner_buf_.empty())
        return 0.0;
    if (partner_buf_.size() == 1)
        return partner_buf_[0] > 0.0 ? partner_buf_[0] : 0.0;
    return bubble::combine_pressures(partner_buf_);
}

void
DeltaScorer::rescore_instance(int i)
{
    const auto idx = static_cast<std::size_t>(i);
    auto& list = pressures_[idx];
    list.clear();
    for (sim::NodeId node : sorted_nodes_[idx])
        list.push_back(pressure_at(i, node));
    times_[idx] = evaluator_.predict_instance(i, list);
}

void
DeltaScorer::apply(const UnitSwap& swap)
{
    relocate(swap, placement_.node_of(swap.instance_a, swap.unit_a),
             placement_.node_of(swap.instance_b, swap.unit_b));
}

void
DeltaScorer::move_unit(int instance, int unit, sim::NodeId to)
{
    const sim::NodeId from = placement_.node_of(instance, unit);
    require(to >= 0 && to < placement_.num_nodes(),
            "DeltaScorer::move_unit: node out of range");
    require(to != from && !placement_.occupies(instance, to),
            "DeltaScorer::move_unit: instance already on target node");
    relocate(UnitSwap{instance, unit, instance, unit}, from, to);
}

void
DeltaScorer::relocate(const UnitSwap& change, sim::NodeId node_a,
                      sim::NodeId node_b)
{
    const bool swap = change.instance_b != change.instance_a;
    last_.valid = true;
    last_.change = change;
    last_.node_a = node_a;
    last_.node_b = node_b;
    placement_.assign(change.instance_a, change.unit_a, node_b);
    if (swap)
        placement_.assign(change.instance_b, change.unit_b, node_a);
    if (!incremental_) {
        last_.times = times_;
        times_ = evaluator_.predict(placement_);
        return;
    }

    const auto na = static_cast<std::size_t>(node_a);
    const auto nb = static_cast<std::size_t>(node_b);
    const auto ia = static_cast<std::size_t>(change.instance_a);
    const auto ib = static_cast<std::size_t>(change.instance_b);
    last_.tenants_a = node_tenants_[na];
    last_.tenants_b = node_tenants_[nb];
    last_.nodes_a = sorted_nodes_[ia];
    if (swap)
        last_.nodes_b = sorted_nodes_[ib];

    // Instance a leaves node_a for node_b, and in a swap instance b
    // goes the other way. Tenant lists stay sorted by erase+insert at
    // the right position, and so do the movers' node lists, without
    // reallocating; everyone else's node lists don't change.
    auto move_tenant = [](std::vector<int>& from, std::vector<int>& to,
                          int instance) {
        from.erase(std::find(from.begin(), from.end(), instance));
        to.insert(std::lower_bound(to.begin(), to.end(), instance),
                  instance);
    };
    auto move_node = [](std::vector<sim::NodeId>& nodes,
                        sim::NodeId from, sim::NodeId to) {
        nodes.erase(std::find(nodes.begin(), nodes.end(), from));
        nodes.insert(std::upper_bound(nodes.begin(), nodes.end(), to),
                     to);
    };
    move_tenant(node_tenants_[na], node_tenants_[nb], change.instance_a);
    move_node(sorted_nodes_[ia], node_a, node_b);
    if (swap) {
        move_tenant(node_tenants_[nb], node_tenants_[na],
                    change.instance_b);
        move_node(sorted_nodes_[ib], node_b, node_a);
    }

    // Affected = union of the two nodes' (post-change) tenants; the
    // movers are in it by construction.
    last_.affected.clear();
    last_.affected.insert(last_.affected.end(),
                          node_tenants_[na].begin(),
                          node_tenants_[na].end());
    last_.affected.insert(last_.affected.end(),
                          node_tenants_[nb].begin(),
                          node_tenants_[nb].end());
    std::sort(last_.affected.begin(), last_.affected.end());
    last_.affected.erase(
        std::unique(last_.affected.begin(), last_.affected.end()),
        last_.affected.end());

    // Snapshot the outgoing pressure lists, then re-score: the movers
    // get a full rebuild (their node lists changed); a bystander
    // keeps its node list, so only its entries on the two touched
    // nodes are recomputed before re-predicting.
    if (last_.pressures.size() < last_.affected.size())
        last_.pressures.resize(last_.affected.size());
    last_.times.clear();
    for (std::size_t k = 0; k < last_.affected.size(); ++k) {
        const int inst = last_.affected[k];
        const auto i = static_cast<std::size_t>(inst);
        last_.times.push_back(times_[i]);
        if (inst == change.instance_a || inst == change.instance_b) {
            std::swap(last_.pressures[k], pressures_[i]);
            rescore_instance(inst);
            continue;
        }
        auto& list = pressures_[i];
        last_.pressures[k] = list; // copy into recycled buffer
        const auto& nodes = sorted_nodes_[i];
        for (std::size_t pos = 0; pos < nodes.size(); ++pos) {
            if (nodes[pos] == node_a || nodes[pos] == node_b)
                list[pos] = pressure_at(inst, nodes[pos]);
        }
        times_[i] = evaluator_.predict_instance(inst, list);
    }
}

void
DeltaScorer::undo()
{
    invariant(last_.valid, "DeltaScorer::undo: nothing to undo");
    last_.valid = false;
    const UnitSwap& change = last_.change;
    // Unit b goes back before unit a: a move names one unit as both,
    // and it must end on node_a.
    placement_.assign(change.instance_b, change.unit_b, last_.node_b);
    placement_.assign(change.instance_a, change.unit_a, last_.node_a);
    if (!incremental_) {
        std::swap(times_, last_.times);
        return;
    }
    node_tenants_[static_cast<std::size_t>(last_.node_a)] =
        last_.tenants_a;
    node_tenants_[static_cast<std::size_t>(last_.node_b)] =
        last_.tenants_b;
    sorted_nodes_[static_cast<std::size_t>(change.instance_a)] =
        last_.nodes_a;
    if (change.instance_b != change.instance_a) {
        sorted_nodes_[static_cast<std::size_t>(change.instance_b)] =
            last_.nodes_b;
    }
    for (std::size_t k = 0; k < last_.affected.size(); ++k) {
        const auto i = static_cast<std::size_t>(last_.affected[k]);
        std::swap(pressures_[i], last_.pressures[k]);
        times_[i] = last_.times[k];
    }
}

void
DeltaScorer::push_instance(const Instance& inst,
                           const std::vector<sim::NodeId>& nodes)
{
    last_.valid = false; // dynamic ops invalidate the undo snapshot
    placement_.push_instance(inst, nodes);
    if (!incremental_) {
        times_ = evaluator_.predict(placement_);
        return;
    }
    const int id = placement_.num_instances() - 1;
    const auto& eval_scores = evaluator_.scores();
    require(eval_scores.size() ==
                static_cast<std::size_t>(placement_.num_instances()),
            "DeltaScorer::push_instance: push the evaluator first");
    scores_.push_back(eval_scores[static_cast<std::size_t>(id)]);
    // The new id is the largest, so push_back keeps every tenant list
    // ascending.
    for (sim::NodeId node : nodes)
        node_tenants_[static_cast<std::size_t>(node)].push_back(id);
    sorted_nodes_.push_back(placement_.nodes_of(id));
    pressures_.emplace_back();
    times_.push_back(0.0);
    rescore_instance(id);
    // Every co-tenant on a touched node gained a partner.
    for (sim::NodeId node : nodes) {
        for (int other : node_tenants_[static_cast<std::size_t>(node)])
            if (other != id)
                rescore_instance(other);
    }
}

void
DeltaScorer::remove_instance_swap(int instance)
{
    last_.valid = false; // dynamic ops invalidate the undo snapshot
    const int last_id = placement_.num_instances() - 1;
    require(instance >= 0 && instance <= last_id,
            "DeltaScorer::remove_instance_swap: instance out of range");
    if (!incremental_) {
        placement_.remove_instance_swap(instance);
        times_ = evaluator_.predict(placement_);
        return;
    }
    const auto idx = static_cast<std::size_t>(instance);
    const std::vector<sim::NodeId> freed = sorted_nodes_[idx];
    const std::vector<sim::NodeId> moved =
        instance == last_id
            ? std::vector<sim::NodeId>{}
            : sorted_nodes_[static_cast<std::size_t>(last_id)];

    placement_.remove_instance_swap(instance);
    scores_[idx] = scores_.back();
    scores_.pop_back();
    sorted_nodes_[idx] = std::move(sorted_nodes_.back());
    sorted_nodes_.pop_back();
    pressures_[idx] = std::move(pressures_.back());
    pressures_.pop_back();
    times_[idx] = times_.back();
    times_.pop_back();

    // Drop the dying id from its nodes' tenant lists, then renumber
    // last_id -> instance in the moved instance's lists (re-inserting
    // at the ascending position, matching a from-scratch build).
    for (sim::NodeId node : freed) {
        auto& t = node_tenants_[static_cast<std::size_t>(node)];
        t.erase(std::find(t.begin(), t.end(), instance));
    }
    for (sim::NodeId node : moved) {
        auto& t = node_tenants_[static_cast<std::size_t>(node)];
        t.erase(std::find(t.begin(), t.end(), last_id));
        t.insert(std::lower_bound(t.begin(), t.end(), instance),
                 instance);
    }

    // Re-score everyone whose partner set or partner *order* changed:
    // tenants of the freed nodes lost a partner, and tenants of the
    // moved instance's nodes see the same scores in a new ascending
    // order (combine_pressures is order-sensitive in floating point).
    std::vector<int> affected;
    for (sim::NodeId node : freed) {
        const auto& t = node_tenants_[static_cast<std::size_t>(node)];
        affected.insert(affected.end(), t.begin(), t.end());
    }
    for (sim::NodeId node : moved) {
        const auto& t = node_tenants_[static_cast<std::size_t>(node)];
        affected.insert(affected.end(), t.begin(), t.end());
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    for (int i : affected)
        rescore_instance(i);
}

const std::vector<int>&
DeltaScorer::tenants_on(sim::NodeId node) const
{
    invariant(incremental_,
              "DeltaScorer::tenants_on: incremental mode only");
    return node_tenants_.at(static_cast<std::size_t>(node));
}

const std::vector<double>&
DeltaScorer::pressure_list(int instance) const
{
    invariant(incremental_,
              "DeltaScorer::pressure_list: incremental mode only");
    return pressures_.at(static_cast<std::size_t>(instance));
}

const std::vector<sim::NodeId>&
DeltaScorer::nodes_sorted(int instance) const
{
    invariant(incremental_,
              "DeltaScorer::nodes_sorted: incremental mode only");
    return sorted_nodes_.at(static_cast<std::size_t>(instance));
}

const std::vector<int>&
DeltaScorer::last_affected() const
{
    invariant(incremental_ && last_.valid,
              "DeltaScorer::last_affected: no incremental change to "
              "report");
    return last_.affected;
}

const std::vector<double>&
DeltaScorer::last_old_times() const
{
    invariant(incremental_ && last_.valid,
              "DeltaScorer::last_old_times: no incremental change to "
              "report");
    return last_.times;
}

double
DeltaScorer::newcomer_pressure(sim::NodeId node)
{
    invariant(incremental_,
              "DeltaScorer::newcomer_pressure: incremental mode only");
    require(node >= 0 && node < placement_.num_nodes(),
            "DeltaScorer::newcomer_pressure: node out of range");
    return pressure_at(-1, node); // no instance has index -1
}

} // namespace imc::placement
