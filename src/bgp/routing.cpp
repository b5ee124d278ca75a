#include "bgp/routing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <unordered_map>

#include "util/hash.h"

namespace tipsy::bgp {
namespace {

constexpr std::uint16_t kInf = std::numeric_limits<std::uint16_t>::max();
constexpr int kMaxWalkDepth = 32;

// Deterministic uniform in [-1, 1] from a composite key.
double SignedUnit(std::uint64_t key) {
  return (static_cast<double>(util::Mix64(key) >> 11) * 0x1.0p-53) * 2.0 -
         1.0;
}

}  // namespace

RoutingEngine::RoutingEngine(const AsGraph* graph,
                             const geo::MetroCatalogue* metros,
                             const std::vector<PeeringLinkSpec>* links,
                             std::size_t prefix_count, ResolveConfig config)
    : graph_(graph),
      metros_(metros),
      links_(links),
      prefix_count_(prefix_count),
      config_(config),
      wan_(graph->wan_node()),
      cache_(prefix_count),
      cache_version_(prefix_count, ~0ULL) {}

std::shared_ptr<const PrefixRouting> RoutingEngine::SharedRouting(
    PrefixId prefix, const AdvertisementState& state) {
  assert(prefix.value() < prefix_count_);
  const std::uint64_t version = state.PrefixVersion(prefix);
  auto& slot = cache_[prefix.value()];
  if (!slot || cache_version_[prefix.value()] != version) {
    auto routing = std::make_shared<PrefixRouting>();
    ComputeRouting(prefix, state, *routing);
    slot = std::move(routing);
    cache_version_[prefix.value()] = version;
  }
  return slot;
}

bool RoutingEngine::SessionAccepts(LinkId link, PrefixId prefix) const {
  if (config_.session_filter_rate <= 0.0) return true;
  const double u =
      static_cast<double>(
          util::Mix64(util::HashAll(link.value(), prefix.value(),
                                    config_.bias_seed ^ 0xf117e2)) >>
          11) *
      0x1.0p-53;
  return u >= config_.session_filter_rate;
}

void RoutingEngine::ComputeRouting(PrefixId prefix,
                                   const AdvertisementState& state,
                                   PrefixRouting& out) const {
  const std::size_t n = graph_->node_count();
  out.per_node.assign(n, NodeRoute{});

  std::vector<std::uint16_t> dist_c(n, kInf);
  std::vector<std::uint16_t> dist_p(n, kInf);
  std::vector<std::uint16_t> dist_down(n, kInf);

  // True when the adjacency towards the WAN currently has at least one
  // live advertisement of the prefix.
  auto wan_adjacency_live = [&](const topo::Adjacency& adj) {
    if (adj.neighbor != wan_) return false;
    for (const auto& point : adj.points) {
      for (LinkId link : point.wan_links) {
        if (state.IsAdvertised(link, prefix) &&
            SessionAccepts(link, prefix)) {
          return true;
        }
      }
    }
    return false;
  };

  // --- Seeds at WAN neighbors, by business relationship.
  std::deque<NodeId> frontier;  // customer-route BFS frontier
  for (const auto& node : graph_->nodes()) {
    if (node.id == wan_) continue;
    for (const auto& adj : node.adjacencies) {
      if (!wan_adjacency_live(adj)) continue;
      switch (adj.rel) {
        case topo::Relationship::kCustomer:
          // The WAN is this node's customer (it sells the WAN transit):
          // a customer route of length 1.
          if (dist_c[node.id.value()] == kInf) {
            dist_c[node.id.value()] = 1;
            frontier.push_back(node.id);
          }
          break;
        case topo::Relationship::kPeer:
          dist_p[node.id.value()] = 1;
          break;
        case topo::Relationship::kProvider:
          // WAN as someone's provider does not occur with our generator,
          // but handle it for hand-built graphs.
          dist_down[node.id.value()] = 1;
          break;
      }
    }
  }

  // --- Phase 1: customer routes climb provider edges (uniform weights, so
  // plain BFS in distance order).
  while (!frontier.empty()) {
    const NodeId x = frontier.front();
    frontier.pop_front();
    const std::uint16_t d = dist_c[x.value()];
    for (const auto& adj : graph_->node(x).adjacencies) {
      // x announces its customer route to its providers.
      if (adj.rel != topo::Relationship::kProvider) continue;
      if (adj.neighbor == wan_) continue;
      auto& dn = dist_c[adj.neighbor.value()];
      if (d + 1 < dn) {
        dn = static_cast<std::uint16_t>(d + 1);
        frontier.push_back(adj.neighbor);
      }
    }
  }

  // --- Phase 2: one peer edge, from ASes whose best route is a customer
  // route (only those export across peering).
  for (const auto& node : graph_->nodes()) {
    if (node.id == wan_) continue;
    for (const auto& adj : node.adjacencies) {
      if (adj.rel != topo::Relationship::kPeer) continue;
      if (adj.neighbor == wan_) continue;
      const std::uint16_t dc = dist_c[adj.neighbor.value()];
      if (dc == kInf) continue;
      auto& dp = dist_p[node.id.value()];
      dp = std::min<std::uint16_t>(dp, static_cast<std::uint16_t>(dc + 1));
    }
  }

  // --- Phase 3: provider routes descend customer edges; a provider
  // exports its best route, whose length is its "export distance".
  auto export_dist = [&](std::size_t i) -> std::uint16_t {
    if (dist_c[i] != kInf) return dist_c[i];
    if (dist_p[i] != kInf) return dist_p[i];
    return dist_down[i];
  };
  using HeapItem = std::pair<std::uint16_t, std::uint32_t>;  // (dist, node)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t i = 0; i < n; ++i) {
    if (NodeId{static_cast<std::uint32_t>(i)} == wan_) continue;
    const std::uint16_t e = export_dist(i);
    if (e != kInf) heap.emplace(e, static_cast<std::uint32_t>(i));
  }
  while (!heap.empty()) {
    const auto [d, xi] = heap.top();
    heap.pop();
    if (d != export_dist(xi)) continue;  // stale entry
    for (const auto& adj :
         graph_->node(NodeId{xi}).adjacencies) {
      // x exports its best route to its customers.
      if (adj.rel != topo::Relationship::kCustomer) continue;
      if (adj.neighbor == wan_) continue;
      const std::size_t yi = adj.neighbor.value();
      // A node with a customer or peer route never prefers the provider
      // route, and its export distance is already final.
      if (dist_c[yi] != kInf || dist_p[yi] != kInf) continue;
      if (d + 1 < dist_down[yi]) {
        dist_down[yi] = static_cast<std::uint16_t>(d + 1);
        heap.emplace(dist_down[yi], static_cast<std::uint32_t>(yi));
      }
    }
  }

  // --- Collect best class / length / candidate adjacencies per node.
  for (const auto& node : graph_->nodes()) {
    auto& route = out.per_node[node.id.value()];
    if (node.id == wan_) {
      route.cls = RouteClass::kCustomer;
      route.as_path_len = 0;
      continue;
    }
    const std::size_t i = node.id.value();
    RouteClass cls = RouteClass::kNone;
    std::uint16_t len = kInf;
    if (dist_c[i] != kInf) {
      cls = RouteClass::kCustomer;
      len = dist_c[i];
    } else if (dist_p[i] != kInf) {
      cls = RouteClass::kPeer;
      len = dist_p[i];
    } else if (dist_down[i] != kInf) {
      cls = RouteClass::kProvider;
      len = dist_down[i];
    }
    if (cls == RouteClass::kNone) continue;
    route.cls = cls;
    route.as_path_len = len;
    for (std::size_t ai = 0; ai < node.adjacencies.size(); ++ai) {
      const auto& adj = node.adjacencies[ai];
      bool is_candidate = false;
      if (adj.neighbor == wan_) {
        // Direct delivery, if the relationship matches the best class and
        // a live advertisement exists.
        const bool class_match =
            (cls == RouteClass::kCustomer &&
             adj.rel == topo::Relationship::kCustomer) ||
            (cls == RouteClass::kPeer &&
             adj.rel == topo::Relationship::kPeer) ||
            (cls == RouteClass::kProvider &&
             adj.rel == topo::Relationship::kProvider);
        is_candidate = class_match && len == 1 && wan_adjacency_live(adj);
      } else {
        const std::size_t yi = adj.neighbor.value();
        switch (cls) {
          case RouteClass::kCustomer:
            is_candidate = adj.rel == topo::Relationship::kCustomer &&
                           dist_c[yi] != kInf && dist_c[yi] + 1 == len;
            break;
          case RouteClass::kPeer:
            is_candidate = adj.rel == topo::Relationship::kPeer &&
                           dist_c[yi] != kInf && dist_c[yi] + 1 == len;
            break;
          case RouteClass::kProvider:
            is_candidate = adj.rel == topo::Relationship::kProvider &&
                           export_dist(yi) != kInf &&
                           export_dist(yi) + 1 == len;
            break;
          case RouteClass::kNone:
            break;
        }
      }
      if (is_candidate) {
        route.candidates.push_back(static_cast<std::uint16_t>(ai));
      }
    }
    assert(!route.candidates.empty());
  }
}

double RoutingEngine::PolicyBiasKm(NodeId node, std::size_t adj_ordinal,
                                   int day) const {
  const std::uint64_t edge_key =
      util::HashAll(node.value(), adj_ordinal, config_.bias_seed);
  const double h_static = SignedUnit(edge_key);
  const double h_slow = SignedUnit(util::HashCombine(
      edge_key, static_cast<std::uint64_t>(
                    day / std::max(1, config_.slow_bias_period_days) + 7)));
  const double h_daily = SignedUnit(
      util::HashCombine(edge_key, 0xd417ULL + static_cast<std::uint64_t>(day)));
  return config_.static_bias_km * h_static +
         config_.slow_bias_km * h_slow + config_.daily_bias_km * h_daily;
}

std::vector<LinkShare> RoutingEngine::ResolveIngress(
    NodeId src, MetroId src_metro, PrefixId prefix, std::uint64_t flow_hash,
    int day, const AdvertisementState& state,
    const PrefixRouting& routing) const {
  // Thin wrapper over the traced walk: merge per-path shares by link.
  const auto traced = ResolveIngressTraced(src, src_metro, prefix, flow_hash,
                                           day, state, routing);
  std::unordered_map<LinkId, double> merged;
  for (const auto& share : traced) {
    merged[share.link] += share.fraction;
  }
  std::vector<LinkShare> result;
  result.reserve(merged.size());
  for (const auto& [link, fraction] : merged) {
    result.push_back(LinkShare{link, fraction});
  }
  std::sort(result.begin(), result.end(),
            [](const LinkShare& a, const LinkShare& b) {
              if (a.fraction != b.fraction) return a.fraction > b.fraction;
              return a.link < b.link;
            });
  if (result.size() > config_.max_ingress_links) {
    result.resize(config_.max_ingress_links);
  }
  std::size_t keep = result.size();
  while (keep > 1 &&
         result[keep - 1].fraction < config_.min_fraction) {
    --keep;
  }
  result.resize(keep);
  double total = 0.0;
  for (const auto& share : result) total += share.fraction;
  if (total > 0.0) {
    for (auto& share : result) share.fraction /= total;
  }
  return result;
}

std::vector<TracedShare> RoutingEngine::ResolveIngressTraced(
    NodeId src, MetroId src_metro, PrefixId prefix, std::uint64_t flow_hash,
    int day, const AdvertisementState& state,
    const PrefixRouting& routing) const {
  std::vector<TracedShare> shares;

  std::deque<WalkState> queue;
  queue.push_back(WalkState{src, src_metro, 1.0, 0, {src}});

  // One exit option at one AS hop: either a transit hop towards another AS
  // or terminal delivery onto a set of parallel WAN links.
  struct Option {
    double cost = 0.0;
    NodeId next;             // invalid when terminal
    MetroId metro;           // interconnect metro
    std::vector<LinkId> live_links;  // terminal only
  };
  std::vector<Option> options;
  std::vector<double> weights;

  while (!queue.empty()) {
    const WalkState cur = queue.front();
    queue.pop_front();
    if (cur.depth > kMaxWalkDepth) continue;
    const auto& node = graph_->node(cur.node);
    const NodeRoute& route = routing.per_node[cur.node.value()];
    if (!route.reachable() || cur.node == wan_) continue;

    options.clear();
    for (std::uint16_t ai : route.candidates) {
      const auto& adj = node.adjacencies[ai];
      const double bias = PolicyBiasKm(cur.node, ai, day);
      if (adj.neighbor == wan_) {
        // Terminal: each interconnect point with live links is an option.
        // Each point carries its own policy bias - which of a peer's many
        // interconnects with the WAN wins is policy, not just geography,
        // otherwise the geographic fallback would be a perfect oracle.
        for (const auto& point : adj.points) {
          std::vector<LinkId> live;
          for (LinkId link : point.wan_links) {
            if (state.IsAdvertised(link, prefix) &&
                SessionAccepts(link, prefix)) {
              live.push_back(link);
            }
          }
          if (live.empty()) continue;
          const double d =
              metros_->DistanceKmBetween(cur.metro, point.metro);
          const double jitter =
              SignedUnit(util::HashAll(flow_hash, cur.node.value(),
                                       std::size_t{ai},
                                       point.metro.value()));
          const double point_bias =
              config_.point_bias_scale *
              PolicyBiasKm(cur.node, ai * 131 + point.metro.value() + 1,
                           day);
          const double cost =
              config_.hot_potato
                  ? d * (1.0 + config_.flow_jitter * jitter) + bias +
                        point_bias
                  : 1000.0 * jitter;
          options.push_back(
              Option{cost, NodeId{}, point.metro, std::move(live)});
        }
      } else {
        // Transit hop: exit at the geographically best interconnect point
        // of this adjacency.
        const topo::InterconnectPoint* best_point = nullptr;
        double best_cost = 0.0;
        for (const auto& point : adj.points) {
          const double d =
              metros_->DistanceKmBetween(cur.metro, point.metro);
          const double jitter =
              SignedUnit(util::HashAll(flow_hash, cur.node.value(),
                                       std::size_t{ai},
                                       point.metro.value()));
          const double cost =
              config_.hot_potato
                  ? d * (1.0 + config_.flow_jitter * jitter) + bias
                  : 1000.0 * jitter;
          if (best_point == nullptr || cost < best_cost) {
            best_point = &point;
            best_cost = cost;
          }
        }
        if (best_point != nullptr) {
          options.push_back(
              Option{best_cost, adj.neighbor, best_point->metro, {}});
        }
      }
    }
    if (options.empty()) continue;  // blackholed share

    // Keep the best few options, softmax-weighted by cost above the best.
    std::sort(options.begin(), options.end(),
              [](const Option& a, const Option& b) { return a.cost < b.cost; });
    if (options.size() > config_.max_split) {
      options.resize(config_.max_split);
    }
    const double best_cost = options.front().cost;
    weights.clear();
    double total_weight = 0.0;
    for (const auto& opt : options) {
      const double w =
          std::exp(-(opt.cost - best_cost) / std::max(1.0, config_.tau_km));
      weights.push_back(w);
      total_weight += w;
    }
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      const double child_fraction =
          cur.fraction * weights[oi] / total_weight;
      if (child_fraction < config_.min_fraction * 0.25) continue;
      const Option& opt = options[oi];
      if (!opt.next.valid()) {
        // Terminal: spread over the parallel eBGP sessions at this point
        // (per-flow load balancing with a mild hash skew).
        // A border router selects one best session per prefix; only mild
        // spillover to siblings (multipath corner cases, route flap).
        double link_total = 0.0;
        std::vector<double> link_w(opt.live_links.size());
        for (std::size_t li = 0; li < opt.live_links.size(); ++li) {
          link_w[li] = std::exp(
              2.5 * SignedUnit(util::HashAll(
                        flow_hash, opt.live_links[li].value())));
          link_total += link_w[li];
        }
        for (std::size_t li = 0; li < opt.live_links.size(); ++li) {
          shares.push_back(TracedShare{
              opt.live_links[li],
              child_fraction * link_w[li] / link_total, cur.path});
        }
      } else {
        auto path = cur.path;
        path.push_back(opt.next);
        queue.push_back(WalkState{opt.next, opt.metro, child_fraction,
                                  cur.depth + 1, std::move(path)});
      }
    }
  }

  // Largest shares first; tiny slivers are left for the caller to merge
  // or prune.
  std::sort(shares.begin(), shares.end(),
            [](const TracedShare& a, const TracedShare& b) {
              if (a.fraction != b.fraction) return a.fraction > b.fraction;
              return a.link < b.link;
            });
  return shares;
}

std::optional<int> RoutingEngine::AsDistance(NodeId src) {
  // Distance under full advertisement; prefix 0 stands in for "anycast".
  static_assert(sizeof(std::size_t) >= 8);
  AdvertisementState full(links_->size(), prefix_count_);
  const PrefixRouting& routing = Routing(PrefixId{0}, full);
  const NodeRoute& route = routing.per_node[src.value()];
  if (!route.reachable()) return std::nullopt;
  return route.as_path_len;
}

}  // namespace tipsy::bgp
