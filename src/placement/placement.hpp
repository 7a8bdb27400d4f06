#ifndef IMC_PLACEMENT_PLACEMENT_HPP
#define IMC_PLACEMENT_PLACEMENT_HPP

/**
 * @file
 * Placement representation (Section 5.1).
 *
 * A placement assigns application *units* to node slots. A unit is the
 * paper's scheduling granule: 4 VMs of one application that always
 * share a host, so a node with two slots hosts at most two distinct
 * applications — the pairwise co-location the model supports. Units of
 * the same instance must land on distinct nodes (an instance's unit is
 * its per-node share).
 */

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/types.hpp"
#include "workload/app_spec.hpp"

namespace imc::placement {

/** One application instance participating in a placement. */
struct Instance {
    workload::AppSpec app;
    /** Units (nodes) this instance occupies. */
    int units = 4;
};

/** An assignment of every unit of every instance to a node. */
class Placement {
  public:
    /**
     * Create an unassigned placement (every unit at node -1).
     *
     * @param instances      participating instances
     * @param num_nodes      nodes in the cluster
     * @param slots_per_node co-location slots per node
     */
    Placement(std::vector<Instance> instances, int num_nodes,
              int slots_per_node);

    /**
     * A uniformly random *valid* placement.
     *
     * @throws ConfigError if total units exceed total slots
     */
    static Placement random(std::vector<Instance> instances,
                            const sim::ClusterSpec& cluster, Rng& rng);

    /** Number of instances. */
    int num_instances() const
    {
        return static_cast<int>(instances_->size());
    }

    /** Participating instances. */
    const std::vector<Instance>& instances() const { return *instances_; }

    /** Cluster node count. */
    int num_nodes() const { return num_nodes_; }

    /** Co-location slots per node. */
    int slots_per_node() const { return slots_per_node_; }

    /** Node of one unit (-1 while unassigned). */
    sim::NodeId node_of(int instance, int unit) const;

    /** Assign one unit to a node (no validity check until valid()). */
    void assign(int instance, int unit, sim::NodeId node);

    /**
     * True when every unit is assigned, no node exceeds its slots,
     * and no instance has two units on one node.
     */
    bool valid() const;

    /** Sorted node list of one instance. @pre fully assigned */
    std::vector<sim::NodeId> nodes_of(int instance) const;

    /** Instances (other than @p instance) with a unit on @p node. */
    std::vector<int> co_tenants(int instance, sim::NodeId node) const;

    /** True when @p instance has a unit assigned to @p node. */
    bool occupies(int instance, sim::NodeId node) const;

    /**
     * Per-node interference pressure lists for every instance: entry
     * [i][k] is the summed bubble score of the other instances
     * co-located on instance i's k-th node (order matches
     * nodes_of(i)).
     *
     * @param scores per-instance bubble scores
     */
    std::vector<std::vector<double>>
    pressure_lists(const std::vector<double>& scores) const;

    /**
     * Append an instance with its units already assigned to
     * @p nodes (one node per unit, distinct, in range). The new
     * instance gets the largest index. Used by the event-driven
     * scheduler; does not re-check global slot capacity — callers
     * enforce admission before placing.
     */
    void push_instance(const Instance& inst,
                       const std::vector<sim::NodeId>& nodes);

    /**
     * Remove instance @p instance by swapping the last instance into
     * its index and popping the tail (O(1), same discipline as the
     * evaluator/scorer dynamic ops). The instance formerly at the
     * largest index is renumbered to @p instance; all other indices
     * are unchanged.
     */
    void remove_instance_swap(int instance);

    /**
     * True if swapping the two units keeps the placement valid (they
     * belong to different instances and neither instance already
     * occupies the other's node).
     */
    bool swap_is_valid(int instance_a, int unit_a, int instance_b,
                       int unit_b) const;

    /** Human-readable per-node summary, e.g. "n0:[A,B] n1:[C,D]". */
    std::string to_string() const;

  private:
    /** instances_, first unshared when a copy still holds it. */
    std::vector<Instance>& own_instances();

    /**
     * The instance list, shared by copies of this placement until a
     * push_instance() or remove_instance_swap() changes one of them:
     * a search copies placements often but only reassigns units.
     */
    std::shared_ptr<std::vector<Instance>> instances_;
    int num_nodes_;
    int slots_per_node_;
    /** assignment_[i][u] = node of unit u of instance i. */
    std::vector<std::vector<sim::NodeId>> assignment_;
};

} // namespace imc::placement

#endif // IMC_PLACEMENT_PLACEMENT_HPP
