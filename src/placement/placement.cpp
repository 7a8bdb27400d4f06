#include "placement/placement.hpp"

#include <algorithm>
#include <numeric>

#include "bubble/bubble.hpp"
#include "common/error.hpp"

namespace imc::placement {

Placement::Placement(std::vector<Instance> instances, int num_nodes,
                     int slots_per_node)
    : instances_(std::make_shared<std::vector<Instance>>(
          std::move(instances))),
      num_nodes_(num_nodes),
      slots_per_node_(slots_per_node)
{
    // An empty instance list is legal: the event-driven scheduler
    // starts from an empty cluster and grows the placement via
    // push_instance as apps arrive.
    require(num_nodes_ >= 1, "Placement: need at least one node");
    require(slots_per_node_ >= 1, "Placement: need at least one slot");
    int total_units = 0;
    for (const auto& inst : *instances_) {
        require(inst.units >= 1, "Placement: instance with no units");
        require(inst.units <= num_nodes_,
                "Placement: instance has more units than nodes");
        total_units += inst.units;
        assignment_.emplace_back(
            static_cast<std::size_t>(inst.units), sim::NodeId{-1});
    }
    require(total_units <= num_nodes_ * slots_per_node_,
            "Placement: more units than slots");
}

Placement
Placement::random(std::vector<Instance> instances,
                  const sim::ClusterSpec& cluster, Rng& rng)
{
    Placement p(std::move(instances), cluster.num_nodes,
                cluster.slots_per_node);
    // Rejection-free construction: shuffle the slot list, deal slots
    // to units; retry on the (rare) same-instance-same-node clash.
    std::vector<sim::NodeId> slots;
    for (int n = 0; n < p.num_nodes_; ++n) {
        for (int s = 0; s < p.slots_per_node_; ++s)
            slots.push_back(n);
    }
    for (int attempt = 0; attempt < 10'000; ++attempt) {
        // Fisher-Yates shuffle.
        for (std::size_t i = slots.size(); i > 1; --i) {
            const std::size_t j = rng.uniform_index(i);
            std::swap(slots[i - 1], slots[j]);
        }
        std::size_t next = 0;
        for (int i = 0; i < p.num_instances(); ++i) {
            for (int u = 0; u < p.instances()[static_cast<std::size_t>(
                                                 i)].units; ++u)
                p.assign(i, u, slots[next++]);
        }
        if (p.valid())
            return p;
    }
    throw ConfigError(
        "Placement::random: no valid placement for " +
        std::to_string(p.num_instances()) + " instances on " +
        std::to_string(p.num_nodes_) + " nodes x " +
        std::to_string(p.slots_per_node_) +
        " slots after 10000 shuffles; the cluster is too small or "
        "an instance spans more units than there are nodes");
}

sim::NodeId
Placement::node_of(int instance, int unit) const
{
    return assignment_.at(static_cast<std::size_t>(instance))
        .at(static_cast<std::size_t>(unit));
}

void
Placement::assign(int instance, int unit, sim::NodeId node)
{
    require(node >= -1 && node < num_nodes_,
            "Placement::assign: node out of range");
    assignment_.at(static_cast<std::size_t>(instance))
        .at(static_cast<std::size_t>(unit)) = node;
}

bool
Placement::valid() const
{
    std::vector<int> load(static_cast<std::size_t>(num_nodes_), 0);
    for (const auto& units : assignment_) {
        std::vector<sim::NodeId> seen;
        for (sim::NodeId node : units) {
            if (node < 0)
                return false; // unassigned
            if (std::find(seen.begin(), seen.end(), node) != seen.end())
                return false; // instance doubled up on a node
            seen.push_back(node);
            if (++load[static_cast<std::size_t>(node)] >
                slots_per_node_)
                return false; // slot overflow
        }
    }
    return true;
}

std::vector<sim::NodeId>
Placement::nodes_of(int instance) const
{
    auto nodes = assignment_.at(static_cast<std::size_t>(instance));
    for (sim::NodeId node : nodes)
        invariant(node >= 0, "nodes_of: placement not fully assigned");
    std::sort(nodes.begin(), nodes.end());
    return nodes;
}

std::vector<int>
Placement::co_tenants(int instance, sim::NodeId node) const
{
    std::vector<int> out;
    for (int other = 0; other < num_instances(); ++other) {
        if (other == instance)
            continue;
        const auto& units =
            assignment_[static_cast<std::size_t>(other)];
        if (std::find(units.begin(), units.end(), node) != units.end())
            out.push_back(other);
    }
    return out;
}

bool
Placement::occupies(int instance, sim::NodeId node) const
{
    const auto& units = assignment_.at(static_cast<std::size_t>(instance));
    return std::find(units.begin(), units.end(), node) != units.end();
}

std::vector<std::vector<double>>
Placement::pressure_lists(const std::vector<double>& scores) const
{
    require(scores.size() == instances_->size(),
            "pressure_lists: score count mismatch");
    std::vector<std::vector<double>> lists;
    lists.reserve(instances_->size());
    for (int i = 0; i < num_instances(); ++i) {
        std::vector<double> list;
        for (sim::NodeId node : nodes_of(i)) {
            // More than one co-tenant (slots > 2): merge their scores
            // into one equivalent pressure, the Section 4.4 pairwise
            // extension. With the usual two-slot nodes this is just
            // the single partner's score.
            std::vector<double> partner_scores;
            for (int other : co_tenants(i, node))
                partner_scores.push_back(
                    scores[static_cast<std::size_t>(other)]);
            list.push_back(bubble::combine_pressures(partner_scores));
        }
        lists.push_back(std::move(list));
    }
    return lists;
}

void
Placement::push_instance(const Instance& inst,
                         const std::vector<sim::NodeId>& nodes)
{
    require(inst.units >= 1, "push_instance: instance with no units");
    require(static_cast<int>(nodes.size()) == inst.units,
            "push_instance: node count != units");
    for (std::size_t a = 0; a < nodes.size(); ++a) {
        require(nodes[a] >= 0 && nodes[a] < num_nodes_,
                "push_instance: node out of range");
        for (std::size_t b = a + 1; b < nodes.size(); ++b)
            require(nodes[a] != nodes[b],
                    "push_instance: instance doubled up on a node");
    }
    own_instances().push_back(inst);
    assignment_.push_back(nodes);
}

std::vector<Instance>&
Placement::own_instances()
{
    if (instances_.use_count() > 1)
        instances_ = std::make_shared<std::vector<Instance>>(*instances_);
    return *instances_;
}

void
Placement::remove_instance_swap(int instance)
{
    require(instance >= 0 && instance < num_instances(),
            "remove_instance_swap: instance out of range");
    const auto idx = static_cast<std::size_t>(instance);
    std::vector<Instance>& list = own_instances();
    list[idx] = std::move(list.back());
    list.pop_back();
    assignment_[idx] = std::move(assignment_.back());
    assignment_.pop_back();
}

bool
Placement::swap_is_valid(int instance_a, int unit_a, int instance_b,
                         int unit_b) const
{
    if (instance_a == instance_b)
        return false;
    const sim::NodeId node_a = node_of(instance_a, unit_a);
    const sim::NodeId node_b = node_of(instance_b, unit_b);
    if (node_a == node_b)
        return false; // no-op swap
    // Instance a moves a unit to node_b: it must not already be there
    // (and symmetrically for b).
    const auto& units_a =
        assignment_[static_cast<std::size_t>(instance_a)];
    if (std::find(units_a.begin(), units_a.end(), node_b) !=
        units_a.end())
        return false;
    const auto& units_b =
        assignment_[static_cast<std::size_t>(instance_b)];
    if (std::find(units_b.begin(), units_b.end(), node_a) !=
        units_b.end())
        return false;
    return true;
}

std::string
Placement::to_string() const
{
    std::string out;
    for (int n = 0; n < num_nodes_; ++n) {
        if (n)
            out += ' ';
        out += 'n' + std::to_string(n) + ":[";
        bool first = true;
        for (int i = 0; i < num_instances(); ++i) {
            const auto& units =
                assignment_[static_cast<std::size_t>(i)];
            if (std::find(units.begin(), units.end(), n) !=
                units.end()) {
                if (!first)
                    out += ',';
                out += instances()[static_cast<std::size_t>(i)]
                           .app.abbrev;
                first = false;
            }
        }
        out += ']';
    }
    return out;
}

} // namespace imc::placement
