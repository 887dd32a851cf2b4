// Common interface for data-center topologies.
//
// A Topology owns an immutable network graph plus the addressing metadata
// needed for its native routing algorithm. Everything downstream (metrics,
// simulators, benches) programs against this interface so ABCCC and the
// baselines (BCube, DCell, fat-tree, BCCC) are interchangeable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace dcn::topo {

// Throws InvalidArgument unless `nodes` nodes and `links` links fit
// graph::NodeId and graph::EdgeId. Materialized builders call it before their
// first AddNode, so a shape that validates (its totals fit 64 bits) but
// cannot be indexed fails at once instead of growing the graph until memory
// runs out.
void RequireGraphIdRange(std::uint64_t nodes, std::uint64_t links);

class Topology {
 public:
  Topology() = default;
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  virtual ~Topology() = default;

 protected:
  // Subclasses with named factory functions (CustomTopology::FromStream)
  // move-return; moving a topology is safe because the graph owns no
  // back-references.
  Topology(Topology&&) = default;
  Topology& operator=(Topology&&) = default;

 public:

  const graph::Graph& Network() const { return graph_; }

  // Short family name, e.g. "ABCCC".
  virtual std::string Name() const = 0;
  // Name with parameters, e.g. "ABCCC(n=4,k=2,c=3)".
  virtual std::string Describe() const = 0;

  std::size_t ServerCount() const { return graph_.ServerCount(); }
  std::size_t SwitchCount() const { return graph_.SwitchCount(); }
  std::size_t LinkCount() const { return graph_.EdgeCount(); }
  std::span<const graph::NodeId> Servers() const { return graph_.Servers(); }

  // Human-readable label for a node (address for servers, role for switches).
  virtual std::string NodeLabel(graph::NodeId node) const = 0;

  // The topology's native one-to-one routing algorithm: a src..dst node
  // sequence (servers and switches) using only the deterministic rules the
  // paper defines — not a graph search. src and dst must be servers.
  virtual std::vector<graph::NodeId> Route(graph::NodeId src,
                                           graph::NodeId dst) const = 0;

  // Maximum NIC ports used by any server (the c the design requires).
  virtual int ServerPorts() const = 0;

  // Worst-case route length in links as guaranteed by the routing algorithm
  // (an upper bound on the diameter; exact diameter is measured by BFS).
  virtual int RouteLengthBound() const = 0;

  // The canonical balanced server bipartition used for bisection
  // measurements (e.g. split on the most significant digit). Both halves are
  // non-empty for any network with >= 2 servers; |A| - |B| <= one natural
  // "slice" of the topology.
  virtual std::pair<std::vector<graph::NodeId>, std::vector<graph::NodeId>>
  BisectionHalves() const;

  // Analytic bisection width in links where the paper/literature gives a
  // closed form; 0 means "no closed form, measure it".
  virtual double TheoreticalBisection() const { return 0.0; }

 protected:
  graph::Graph& MutableNetwork() { return graph_; }

 private:
  graph::Graph graph_;
};

}  // namespace dcn::topo
