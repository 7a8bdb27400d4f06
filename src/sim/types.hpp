#ifndef IMC_SIM_TYPES_HPP
#define IMC_SIM_TYPES_HPP

/**
 * @file
 * Identifier and callback types shared across the cluster simulator.
 */

#include <cstdint>
#include <functional>

namespace imc::sim {

/** Index of a physical node within a cluster. */
using NodeId = int;

/** Handle of a tenant (one co-located application's share of a node). */
using TenantId = int;

/** Handle of a simulated process (one VM's worth of execution). */
using ProcId = int;

/** Handle of a scheduled event, usable to cancel or reschedule it. */
using EventId = std::uint64_t;

/** Continuation invoked when an event fires or an action completes. */
using Callback = std::function<void()>;

} // namespace imc::sim

#endif // IMC_SIM_TYPES_HPP
