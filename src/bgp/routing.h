// AS-level BGP route computation and per-flow ingress resolution.
//
// For each WAN anycast prefix and each routing domain (AS node), the engine
// computes the Gao-Rexford outcome: the local-preference class of the best
// route (customer > peer > provider), its AS-path length, and the set of
// next-hop adjacencies that attain it. Classic three-phase propagation:
//
//   1. customer routes climb provider edges (exported to everyone),
//   2. peer routes cross a single peer edge from ASes whose best route is a
//      customer route,
//   3. provider routes descend customer edges (providers export their best
//      route to customers), computed with a Dijkstra over export distances.
//
// A concrete flow is then resolved by walking the candidate sets from its
// source (node, metro): at every AS the exit among equally-preferred
// candidates is chosen by hot-potato routing - the geographically nearest
// interconnection - perturbed by per-adjacency policy biases that drift
// slowly day over day (IGP re-weighting, TE churn) and by per-flow jitter
// (ECMP). Near-ties split the flow, which is how one flow aggregate comes
// to ingress the WAN on several peering links (§3.1, Figure 5's imperfect
// k=1 oracle).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bgp/advertisement.h"
#include "geo/geo.h"
#include "topo/as_graph.h"

namespace tipsy::bgp {

using topo::AsGraph;
using topo::NodeId;
using topo::PeeringLinkSpec;
using util::LinkId;
using util::MetroId;
using util::PrefixId;

// Local-preference class, in decreasing preference order.
enum class RouteClass : std::uint8_t {
  kCustomer = 0,
  kPeer = 1,
  kProvider = 2,
  kNone = 3,  // unreachable
};

// Routing outcome at one node for one prefix.
struct NodeRoute {
  RouteClass cls = RouteClass::kNone;
  std::uint16_t as_path_len = 0;  // hops to the WAN, direct peer == 1
  // Indices into AsNode::adjacencies attaining (cls, as_path_len).
  std::vector<std::uint16_t> candidates;

  [[nodiscard]] bool reachable() const { return cls != RouteClass::kNone; }
};

struct PrefixRouting {
  std::vector<NodeRoute> per_node;  // indexed by NodeId
};

// A share of a flow landing on one WAN peering link.
struct LinkShare {
  LinkId link;
  double fraction = 0.0;  // in (0, 1], sums to 1 over the vector
};

// A share with its full AS-level path (debugging / property checks).
struct TracedShare {
  LinkId link;
  double fraction = 0.0;
  // Routing domains traversed from the source up to (excluding) the WAN.
  std::vector<NodeId> as_path;
};

struct ResolveConfig {
  // Hot-potato softness: exits within `tau_km` of the best are candidates
  // for splitting, weighted exp(-delta/tau_km).
  double tau_km = 120.0;
  // Max simultaneous next-hops considered at one AS and max total ingress
  // links returned for a flow.
  std::size_t max_split = 2;
  std::size_t max_ingress_links = 8;
  // Shares below this fraction are pruned (then renormalized).
  double min_fraction = 0.04;
  // Per-flow multiplicative jitter on exit distances: different flows of
  // the same AS favour different exits (per-prefix policies, intra-AS
  // attachment diversity), while each flow's own choice stays stable.
  double flow_jitter = 0.30;
  // Day-varying policy bias amplitudes, in km of equivalent IGP distance.
  double static_bias_km = 350.0;
  double slow_bias_km = 220.0;   // re-drawn every slow_bias_period_days
  double daily_bias_km = 55.0;
  int slow_bias_period_days = 10;
  // Extra scale on the per-interconnect-point bias at the final hop into
  // the WAN (which of a peer's interconnects wins is policy-heavy).
  double point_bias_scale = 0.55;
  // Fraction of (session, prefix) pairs dropped by per-session policy
  // filters (neighbor import policy / selective acceptance). Filtered
  // sessions never carry that prefix, so failover after an outage can
  // leave the peer AS entirely - one reason geographic fallback is good
  // but not perfect in the paper.
  double session_filter_rate = 0.25;
  // Ablation: disable hot-potato (exit choice becomes hash-random).
  bool hot_potato = true;
  std::uint64_t bias_seed = 0x9e37c0ffee1234ULL;
};

class RoutingEngine {
 public:
  // All referenced objects must outlive the engine.
  RoutingEngine(const AsGraph* graph, const geo::MetroCatalogue* metros,
                const std::vector<PeeringLinkSpec>* links,
                std::size_t prefix_count, ResolveConfig config = {});

  // Routing for one prefix under `state`; cached until the state's version
  // for that prefix changes.
  const PrefixRouting& Routing(PrefixId prefix,
                               const AdvertisementState& state) {
    return *SharedRouting(prefix, state);
  }
  // The same cached routing, shared: it stays valid after the cache moves
  // on to a newer version, so a caller can hold several versions at once.
  std::shared_ptr<const PrefixRouting> SharedRouting(
      PrefixId prefix, const AdvertisementState& state);

  // Where a flow sourced at (src, src_metro) towards `prefix` enters the
  // WAN: a distribution over peering links. Empty when unreachable.
  // `flow_hash` identifies the flow aggregate (stable jitter); `day` drives
  // policy drift. `routing` must be Routing(prefix, state); the const
  // overloads touch no cache, so threads may resolve concurrently.
  [[nodiscard]] std::vector<LinkShare> ResolveIngress(
      NodeId src, MetroId src_metro, PrefixId prefix,
      std::uint64_t flow_hash, int day, const AdvertisementState& state,
      const PrefixRouting& routing) const;
  std::vector<LinkShare> ResolveIngress(NodeId src, MetroId src_metro,
                                        PrefixId prefix,
                                        std::uint64_t flow_hash, int day,
                                        const AdvertisementState& state) {
    return ResolveIngress(src, src_metro, prefix, flow_hash, day, state,
                          Routing(prefix, state));
  }

  // Like ResolveIngress but keeps one entry per distinct path with the
  // traversed AS-level nodes; slower, intended for analysis and tests.
  [[nodiscard]] std::vector<TracedShare> ResolveIngressTraced(
      NodeId src, MetroId src_metro, PrefixId prefix,
      std::uint64_t flow_hash, int day, const AdvertisementState& state,
      const PrefixRouting& routing) const;
  std::vector<TracedShare> ResolveIngressTraced(
      NodeId src, MetroId src_metro, PrefixId prefix,
      std::uint64_t flow_hash, int day, const AdvertisementState& state) {
    return ResolveIngressTraced(src, src_metro, prefix, flow_hash, day,
                                state, Routing(prefix, state));
  }

  // Valley-free AS-hop distance from `src` to the WAN assuming every link
  // advertises (used for the Figure 2/3 analyses). 0 == the WAN itself,
  // 1 == direct neighbor; nullopt when unreachable.
  [[nodiscard]] std::optional<int> AsDistance(NodeId src);

  // Whether the session's policy filter lets it carry the prefix at all
  // (independent of the advertisement state).
  [[nodiscard]] bool SessionAccepts(LinkId link, PrefixId prefix) const;

  [[nodiscard]] const ResolveConfig& config() const { return config_; }

 private:
  struct WalkState {
    NodeId node;
    MetroId metro;
    double fraction;
    int depth;
    std::vector<NodeId> path;  // traversed nodes, starting at the source
  };

  void ComputeRouting(PrefixId prefix, const AdvertisementState& state,
                      PrefixRouting& out) const;

  // Policy bias of adjacency `adj_ordinal` of `node` on `day`, in km.
  [[nodiscard]] double PolicyBiasKm(NodeId node, std::size_t adj_ordinal,
                                    int day) const;

  const AsGraph* graph_;
  const geo::MetroCatalogue* metros_;
  const std::vector<PeeringLinkSpec>* links_;
  std::size_t prefix_count_;
  ResolveConfig config_;
  NodeId wan_;

  // Per-prefix cache keyed by AdvertisementState::PrefixVersion.
  std::vector<std::shared_ptr<const PrefixRouting>> cache_;
  std::vector<std::uint64_t> cache_version_;
};

}  // namespace tipsy::bgp
