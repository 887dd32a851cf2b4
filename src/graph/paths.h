// Edge-disjoint path extraction between two servers.
//
// The BCCC/ABCCC papers advertise "multiple near-equal parallel paths"; this
// module measures that claim: it computes a maximum set of pairwise
// link-disjoint paths (max-flow with unit link capacities) and returns the
// concrete paths so their lengths can be compared.
//
// The workspace overloads run the solver on caller-provided scratch
// (graph/workspace.h): the flat arc arrays are overwritten, not reallocated,
// so steady-state sampling loops (the batch path of
// metrics::SampledPairCuts, taken when pairs are few against the servers)
// stay allocation-free. The Graph overloads borrow a per-thread workspace.
#pragma once

#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/workspace.h"

namespace dcn::graph {

// A maximum-cardinality set of pairwise link-disjoint src->dst paths (each a
// node sequence src..dst). Stops early once `max_paths` are found. Paths come
// out shortest-first-ish (Dinic augments along level graphs) but no strict
// order is guaranteed. Empty result iff dst is unreachable.
std::vector<std::vector<NodeId>> EdgeDisjointPaths(
    const Graph& graph, NodeId src, NodeId dst,
    std::size_t max_paths = static_cast<std::size_t>(-1),
    const FailureSet* failures = nullptr);

std::vector<std::vector<NodeId>> EdgeDisjointPaths(
    const CsrView& csr, NodeId src, NodeId dst, FlowWorkspace& ws,
    std::size_t max_paths = static_cast<std::size_t>(-1),
    const FailureSet* failures = nullptr);

// Cardinality only (cheaper than materializing paths).
std::size_t EdgeConnectivity(const Graph& graph, NodeId src, NodeId dst,
                             const FailureSet* failures = nullptr);

std::size_t EdgeConnectivity(const CsrView& csr, NodeId src, NodeId dst,
                             FlowWorkspace& ws,
                             const FailureSet* failures = nullptr);

// Batched link-connectivity queries against one (graph, failure set): arcs
// are built once and each query restores pristine capacities with a memcpy,
// so Q queries pay one arc build instead of Q. Answers are bit-identical to
// EdgeConnectivity. Pass `repeated_source = true` when more queries from the
// same src follow: the first phase's level graph is then built once and shared.
class EdgeConnectivityBatch {
 public:
  EdgeConnectivityBatch(const CsrView& csr, FlowWorkspace& ws,
                        const FailureSet* failures = nullptr);

  std::size_t Connectivity(NodeId src, NodeId dst,
                           bool repeated_source = false);

  // Live incident links of `node`, which bound any flow it terminates.
  std::size_t LiveDegree(NodeId node) const;

  // Min-cut source side of the last query: side[n] != 0 iff n is reachable
  // from its src in the residual network (src's live component if an
  // endpoint was dead).
  void SourceSide(std::vector<char>& side);

 private:
  FlowWorkspace& ws_;
  const FailureSet* failures_;
  std::size_t nodes_;
  NodeId cached_src_ = kInvalidNode;  // source the cached levels belong to
  NodeId last_src_ = kInvalidNode;    // source of the last query
  bool first_ = true;
};

}  // namespace dcn::graph
