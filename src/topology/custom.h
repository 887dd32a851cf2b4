// Custom topology: any server/switch graph loaded from an edge-list text
// format, analyzable with the full metrics/sim pipeline.
//
// The library's value extends beyond the built-in families: operators can
// feed their actual plant (or a proposed variant) through the same bisection,
// cost, resilience, and simulation machinery. Routing on a custom topology is
// shortest-path (BFS) — there is no algebraic structure to exploit.
//
// Format (one record per line, '#' comments and blank lines ignored):
//   node <id> server|switch [label]
//   link <id-u> <id-v>
// Node ids must be dense 0..N-1, written as whole decimal tokens, and
// declared before use; a link line carries exactly its two endpoints, and
// self-loops are rejected. Labels are free text to the end of the line. The
// format is deliberately trivial — it round-trips with WriteEdgeCsv output
// via one awk invocation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace dcn::topo {

class CustomTopology final : public Topology {
 public:
  // Parses the format above; throws InvalidArgument with line numbers on any
  // malformed record.
  static CustomTopology FromStream(std::istream& in, std::string name = "Custom");
  static CustomTopology FromString(const std::string& text,
                                   std::string name = "Custom");

  std::string Name() const override { return "Custom"; }
  std::string Describe() const override;
  std::string NodeLabel(graph::NodeId node) const override;
  // BFS shortest path (no structural routing exists for arbitrary graphs).
  std::vector<graph::NodeId> Route(graph::NodeId src,
                                   graph::NodeId dst) const override;
  int ServerPorts() const override;      // max observed server degree
  int RouteLengthBound() const override; // |V| links (walks are simple)

 private:
  CustomTopology() = default;

  std::string name_;
  std::vector<std::string> labels_;
};

}  // namespace dcn::topo
