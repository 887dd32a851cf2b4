#include "graph/cuttree.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "graph/paths.h"
#include "obs/obs.h"

namespace dcn::graph {

std::int64_t CutTree::MinCut(NodeId u, NodeId v) const {
  DCN_REQUIRE(u != v, "min cut needs two distinct nodes");
  DCN_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < parent.size() &&
                  v >= 0 && static_cast<std::size_t>(v) < parent.size(),
              "cut tree node out of range");
  DCN_REQUIRE(depth[static_cast<std::size_t>(u)] >= 0 &&
                  depth[static_cast<std::size_t>(v)] >= 0,
              "cut tree answers server pairs only: switches are Steiner nodes");
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  while (u != v) {
    // Lift the deeper endpoint; lifting u at equal depth keeps the walk
    // deterministic.
    NodeId& lift = depth[static_cast<std::size_t>(u)] >=
                   depth[static_cast<std::size_t>(v)] ? u : v;
    best = std::min(best, cut[static_cast<std::size_t>(lift)]);
    lift = parent[static_cast<std::size_t>(lift)];
  }
  return best;
}

CutTree BuildCutTree(const Graph& graph, std::int64_t edge_capacity,
                     const FailureSet* failures) {
  DCN_REQUIRE(edge_capacity > 0, "edge capacity must be positive");
  OBS_SPAN("cuttree/build");
  const auto servers = graph.Servers();
  CutTree tree;
  tree.parent.assign(graph.NodeCount(), kInvalidNode);
  tree.cut.assign(graph.NodeCount(), 0);
  tree.depth.assign(graph.NodeCount(), -1);
  if (servers.empty()) return tree;
  for (const NodeId server : servers.subspan(1)) {
    tree.parent[static_cast<std::size_t>(server)] = servers[0];
  }

  // Gusfield: every server starts parented to the root; a min cut between
  // src and its parent re-parents the later servers that share that parent
  // and fall on src's side. Solving from the parent lets its children share
  // its first-phase levels; src's side is what the parent cannot reach in
  // the residual network. Any min cut works, so a saturated src (flow = its
  // live degree) takes {src}: nothing re-parents and no BFS is needed.
  FlowScope ws;
  EdgeConnectivityBatch batch{graph.Csr(), *ws, failures};
  std::vector<char> side;
  for (std::size_t i = 1; i < servers.size(); ++i) {
    const NodeId src = servers[i];
    const NodeId dst = tree.parent[static_cast<std::size_t>(src)];
    const std::size_t flow = batch.Connectivity(dst, src, /*repeated_source=*/true);
    tree.cut[static_cast<std::size_t>(src)] =
        static_cast<std::int64_t>(flow) * edge_capacity;
    if (flow == batch.LiveDegree(src)) continue;
    batch.SourceSide(side);
    for (const NodeId later : servers.subspan(i + 1)) {
      NodeId& p = tree.parent[static_cast<std::size_t>(later)];
      if (p == dst && !side[static_cast<std::size_t>(later)]) p = src;
    }
  }
  static obs::Counter& c_solves = obs::GetCounter("cuttree/solves");
  c_solves.Add(servers.size() - 1);

  // Depths for the path-min query. A parent is the root or an earlier
  // server (re-parenting only points later servers at src), so server order
  // is topological.
  for (const NodeId server : servers) {
    const NodeId up = tree.parent[static_cast<std::size_t>(server)];
    tree.depth[static_cast<std::size_t>(server)] =
        up == kInvalidNode ? 0 : tree.depth[static_cast<std::size_t>(up)] + 1;
  }
  return tree;
}

}  // namespace dcn::graph
