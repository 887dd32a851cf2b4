#include "topology/custom.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <sstream>

#include "common/error.h"
#include "graph/bfs.h"

namespace dcn::topo {
namespace {

// Reads the next whitespace-separated token as a whole decimal node id: "1x",
// "1.5", "+1" and values outside long all fail, where `stream >> long` would
// accept a prefix.
bool ReadNodeId(std::istream& fields, long& id) {
  std::string token;
  if (!(fields >> token)) return false;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, id);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

CustomTopology CustomTopology::FromStream(std::istream& in, std::string name) {
  CustomTopology net;
  net.name_ = std::move(name);
  graph::Graph& g = net.MutableNetwork();

  std::string line;
  int line_number = 0;
  bool links_started = false;
  while (std::getline(in, line)) {
    ++line_number;
    const auto where = [&] { return " (line " + std::to_string(line_number) + ")"; };
    // Strip comments.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields{line};
    std::string kind;
    if (!(fields >> kind)) continue;  // blank line

    if (kind == "node") {
      DCN_REQUIRE(!links_started,
                  "custom topology: all nodes must precede links" + where());
      long id = -1;
      std::string role;
      DCN_REQUIRE(ReadNodeId(fields, id) && static_cast<bool>(fields >> role),
                  "custom topology: expected 'node <id> server|switch'" + where());
      DCN_REQUIRE(id == static_cast<long>(g.NodeCount()),
                  "custom topology: node ids must be dense and in order" + where());
      DCN_REQUIRE(role == "server" || role == "switch",
                  "custom topology: role must be server or switch" + where());
      g.AddNode(role == "server" ? graph::NodeKind::kServer
                                 : graph::NodeKind::kSwitch);
      std::string label;
      std::getline(fields, label);
      const std::size_t start = label.find_first_not_of(' ');
      net.labels_.push_back(start == std::string::npos ? "" : label.substr(start));
    } else if (kind == "link") {
      links_started = true;
      long u = -1, v = -1;
      DCN_REQUIRE(ReadNodeId(fields, u) && ReadNodeId(fields, v),
                  "custom topology: expected 'link <u> <v>'" + where());
      std::string extra;
      DCN_REQUIRE(!(fields >> extra),
                  "custom topology: unexpected '" + extra +
                      "' after 'link <u> <v>'" + where());
      DCN_REQUIRE(u >= 0 && v >= 0 &&
                      u < static_cast<long>(g.NodeCount()) &&
                      v < static_cast<long>(g.NodeCount()),
                  "custom topology: link endpoint out of range" + where());
      try {
        g.AddEdge(static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v));
      } catch (const InvalidArgument& e) {
        throw InvalidArgument{std::string{e.what()} + where()};
      }
    } else {
      throw InvalidArgument{"custom topology: unknown record '" + kind + "'" +
                            where()};
    }
  }
  DCN_REQUIRE(g.ServerCount() > 0, "custom topology: needs at least one server");
  return net;
}

CustomTopology CustomTopology::FromString(const std::string& text,
                                          std::string name) {
  std::istringstream in{text};
  return FromStream(in, std::move(name));
}

std::string CustomTopology::Describe() const {
  return name_ + "(servers=" + std::to_string(ServerCount()) +
         ",switches=" + std::to_string(SwitchCount()) +
         ",links=" + std::to_string(LinkCount()) + ")";
}

std::string CustomTopology::NodeLabel(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < Network().NodeCount(),
              "node id out of range");
  if (!labels_[node].empty()) return labels_[node];
  return (Network().IsServer(node) ? "server" : "switch") + std::to_string(node);
}

std::vector<graph::NodeId> CustomTopology::Route(graph::NodeId src,
                                                 graph::NodeId dst) const {
  DCN_REQUIRE(Network().IsServer(src), "route src must be a server");
  DCN_REQUIRE(Network().IsServer(dst), "route dst must be a server");
  std::vector<graph::NodeId> path = graph::ShortestPath(Network(), src, dst);
  DCN_REQUIRE(!path.empty(), "custom topology: destination unreachable");
  return path;
}

int CustomTopology::ServerPorts() const {
  std::size_t ports = 0;
  for (const graph::NodeId server : Servers()) {
    ports = std::max(ports, Network().Degree(server));
  }
  return static_cast<int>(ports);
}

int CustomTopology::RouteLengthBound() const {
  return static_cast<int>(Network().NodeCount());
}

}  // namespace dcn::topo
