// Flow-equivalent cut tree over the servers (Gusfield, switches as Steiner
// nodes): every server-pair min cut from S-1 max-flow solves instead of
// S²/2. For servers u, v the min cut in the full graph equals the smallest
// edge weight on the tree path between them.
//
// The solves run on the batched unit-capacity Dinic (EdgeConnectivityBatch):
// arcs built once with failures applied, capacities restored by memcpy, flow
// bounded by the smaller live degree. Dead servers and partitioned graphs
// need no special case: the solve returns 0, giving a weight-0 tree edge.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace dcn::graph {

struct CutTree {
  // Indexed by node id. The tree spans the servers, rooted at Servers()[0]:
  // depth[n] >= 0 exactly for servers, parent[root] is kInvalidNode, and
  // cut[n] is the min cut separating server n from parent[n]. Switches are
  // not in the tree (parent kInvalidNode, cut 0, depth -1).
  std::vector<NodeId> parent;
  std::vector<std::int64_t> cut;
  std::vector<std::int32_t> depth;

  // Exact min cut between servers u and v (u != v): minimum edge weight on
  // the tree path, found by walking both up to their meeting point. O(depth).
  // Throws InvalidArgument for a switch endpoint.
  std::int64_t MinCut(NodeId u, NodeId v) const;
};

// Builds the cut tree with S-1 unit-Dinic solves, in server order, each cut
// scaled by the uniform `edge_capacity`. Dead nodes/links from `failures`
// are excluded (a dead server becomes a cut-0 leaf). Deterministic: server
// order fixes the solve sequence, so the tree is identical at any thread
// count.
CutTree BuildCutTree(const Graph& graph, std::int64_t edge_capacity = 1,
                     const FailureSet* failures = nullptr);

}  // namespace dcn::graph
