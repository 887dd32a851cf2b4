// Fluid flow-progress simulation: finite flows draining under max-min fair
// sharing, with rates recomputed at every flow completion.
//
// The static flow simulator (flowsim.h) answers "what rates do concurrent
// flows get"; real transfers *finish*, releasing capacity to the survivors.
// This module advances that process exactly: compute max-min rates, jump to
// the next completion, repeat. The result is per-flow completion times —
// the quantity application-level metrics (shuffle/coflow completion time,
// F23) are built from.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "routing/route.h"
#include "sim/failures.h"

namespace dcn::sim {

struct FluidResult {
  // Completion time of each flow (same order as the inputs). Flows with an
  // empty route (unroutable) get infinity.
  std::vector<double> finish_time;
  double makespan = 0.0;  // max finite finish time (0 if none)
  int rate_recomputations = 0;
  // Flows terminated by a mid-run fault (finish_time stays infinity). Zero
  // for the schedule-free overload.
  std::uint64_t killed_flows = 0;
};

// `bytes[f]` units of data for flow f over routes[f]; link capacity is in
// units per time per direction. All byte counts must be positive.
FluidResult FluidCompletionTimes(const graph::Graph& graph,
                                 const std::vector<routing::Route>& routes,
                                 const std::vector<double>& bytes,
                                 double link_capacity = 1.0);

// Fault-aware overload: the drain loop advances to min(next completion, next
// fault time); at a fault, kLinkDown / kNodeDown terminate every active flow
// whose route crosses the dead element (finish_time stays infinity, counted
// in killed_flows) and the survivors' max-min rates are recomputed with the
// released capacity. kLinkDegrade / kLinkRestore are queueing-granularity
// events and are ignored by the fluid model. Every event is still validated
// up front (SortedFaultEvents), so a malformed one throws
// dcn::InvalidArgument even when it would never apply. An empty schedule is
// byte-identical to the overload above.
FluidResult FluidCompletionTimes(const graph::Graph& graph,
                                 const std::vector<routing::Route>& routes,
                                 const std::vector<double>& bytes,
                                 const FaultSchedule& faults,
                                 double link_capacity = 1.0);

// A coflow: the set of flow indices belonging to one application stage; its
// completion time is its slowest member's.
double CoflowCompletionTime(const FluidResult& result,
                            const std::vector<std::size_t>& members);

}  // namespace dcn::sim
