// Streaming broadcast simulator: a root pushes a Poisson stream of messages
// down a spanning tree (routing/broadcast.h); every relay server replicates
// each received message to its children. Store-and-forward FIFO links with
// unit service time, drop-tail queues — the one-to-all counterpart of
// sim/packetsim.h, validating the GBC3 broadcast claim under load: how fast
// can the tree stream, and where does replication congest first? It shares
// packetsim's run plumbing (ring link store, fault capacities, monitor
// windows, flight scope, link totals) through sim::RunHarness
// (sim/run_harness.h); its own event loop pops (time, seq).
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "graph/graph.h"
#include "obs/monitor.h"
#include "routing/broadcast.h"
#include "sim/failures.h"

namespace dcn::sim {

struct BroadcastSimConfig {
  double message_rate = 0.1;  // messages per time unit injected at the root
  double duration = 1000.0;   // generation window (packet service times)
  double warmup = 200.0;      // messages born earlier are not measured
  int queue_capacity = 16;    // per directed link, incl. the copy in service
  std::uint64_t seed = 0xb40adca57;
  // Mid-run fault schedule + online monitor, with the same semantics as
  // sim/packetsim.h: capacity-at-enqueue faults that never touch the RNG,
  // and an observational detector grid over per-link tx/drop windows.
  FaultSchedule faults;
  obs::monitor::MonitorConfig monitor;
};

struct BroadcastSimResult {
  std::uint64_t messages = 0;   // generated
  std::uint64_t measured = 0;   // born after warmup
  std::uint64_t complete = 0;   // measured messages that reached EVERY server
  std::uint64_t copies_dropped = 0;  // measured replica drops
  // Time from injection until the LAST covered server holds the message
  // (complete measured messages only).
  SampleSet completion_latency;
  // Per-receiver delivery latencies (measured messages, delivered copies).
  SampleSet delivery_latency;
  double max_link_utilization = 0.0;
  int max_queue_depth = 0;
  // Online-monitor verdicts; populated only when config.monitor.enabled.
  obs::monitor::MonitorResult monitor;

  double CompleteFraction() const {
    return measured == 0
               ? 0.0
               : static_cast<double>(complete) / static_cast<double>(measured);
  }
};

// `tree` must cover at least 2 servers and be consistent with `graph`
// (parents adjacent to via switches adjacent to children). Runs until every
// injected copy is delivered or dropped, and checks that it was: copies
// created == copies delivered + copies dropped.
BroadcastSimResult RunBroadcastSim(const graph::Graph& graph,
                                   const routing::SpanningTree& tree,
                                   const BroadcastSimConfig& config = {});

}  // namespace dcn::sim
