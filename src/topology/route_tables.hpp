// Deterministic shortest-path routing tables for any topology graph.
//
// build_route_tables runs one reverse-graph Dijkstra per destination over
// the topology's directed links, weighted by per-link latency, and packs the
// result into the flat RouteTables layout (topology/topology.hpp: one byte
// per (src, dst) for the productive-port count and first two ports).
// Irregular topologies route on these tables. Grid topologies route on the
// analytic dimension-order rule instead, and tests use this builder's grid
// branch as an independent oracle for it.
//
// Determinism is pinned by construction, not by heap order: candidate ports
// are ranked from the *final* distance array, so any Dijkstra visit order
// yields the same tables.
//   - Grid families rank candidates in dimension order (x, then y, then z);
//     when both directions of a torus ring tie (even ring, half-way around),
//     the positive direction wins — exactly the analytic rule's tie-break.
//   - Irregular graphs rank by output-port index (ports are assigned in
//     ascending neighbour order by the parser), i.e. lowest-index next-hop.
//
// Deadlock freedom is checked, not assumed: check_cdg_acyclic walks the
// channel-dependency graph of the table's preferred paths under the buffered
// fabric's VC-class transform (dateline classes on wrap links) and reports
// whether it is cycle-free.
#pragma once

#include "topology/topology.hpp"

namespace nocsim {

/// Build the full table set. CHECKs that every node can reach every other.
RouteTables build_route_tables(const Topology& topo);

/// True iff the channel-dependency graph of the tables' preferred (dirs[0])
/// paths is acyclic under the buffered fabric's VC-class model: wrap-free
/// topologies collapse to one class per link; torus families split each link
/// into dateline classes exactly as BufferedFabric's vc_state transform
/// does. Acyclic CDG + credit flow control => the buffered fabric cannot
/// deadlock on these tables (the bufferless fabric never blocks and needs no
/// such argument).
bool check_cdg_acyclic(const Topology& topo, const RouteTables& tables);

}  // namespace nocsim
