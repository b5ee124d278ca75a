#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/hash.h"
#include "util/parallel.h"

namespace tipsy::scenario {
namespace {

// Flow chunks per pool thread: more chunks than threads even out flows of
// unequal cost. The chunk count never changes the results.
constexpr std::size_t kChunksPerThread = 4;

}  // namespace

ScenarioConfig TinyScenarioConfig() {
  ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.topology.seed = 42;
  cfg.topology.metro_count = 12;
  cfg.topology.tier1_count = 3;
  cfg.topology.regionals_per_continent = 2;
  cfg.topology.access_isp_count = 10;
  cfg.topology.cdn_count = 2;
  cfg.topology.enterprise_count = 15;
  cfg.topology.exchange_count = 2;
  cfg.topology.wan_metro_count = 8;
  cfg.topology.wan_transit_provider_count = 1;
  cfg.traffic.seed = 42;
  cfg.traffic.flow_target = 600;
  cfg.prefix_count = 8;
  cfg.outages.seed = 42;
  cfg.horizon = util::HourRange{0, 5 * util::kHoursPerDay};
  return cfg;
}

ScenarioConfig DefaultScenarioConfig() {
  ScenarioConfig cfg;
  cfg.seed = 20211110;  // the paper's main window starts 10 Nov 2021
  cfg.topology.seed = cfg.seed;
  cfg.traffic.seed = cfg.seed + 1;
  cfg.outages.seed = cfg.seed + 2;
  cfg.ipfix.seed = cfg.seed + 3;
  cfg.horizon = util::HourRange{0, 28 * util::kHoursPerDay};
  return cfg;
}

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config),
      topology_(topo::GenerateTopology(config.topology)),
      outages_(OutageSchedule::None(0)),
      state_(1, 1),  // placeholder; rebuilt below once links are known
      sampler_(config.ipfix) {
  // The WAN's regions are its presence metros.
  wan_ = std::make_unique<wan::Wan>(
      topology_.peering_links,
      topology_.graph.node(topology_.wan).presence, config_.prefix_count,
      config_.seed ^ 0xabcdef);
  workload_ = std::make_unique<traffic::Workload>(traffic::Workload::Generate(
      topology_, *wan_, config_.traffic, &geoip_));
  if (config_.geoip_error_rate > 0.0) {
    geoip_ = geoip_.WithNoise(topology_.metros, config_.geoip_error_rate,
                              util::Rng(config_.seed ^ 0x9e0));
  }
  engine_ = std::make_unique<bgp::RoutingEngine>(
      &topology_.graph, &topology_.metros, &topology_.peering_links,
      config_.prefix_count, config_.resolve);
  outages_ = OutageSchedule::Generate(topology_.peering_links.size(),
                                      config_.horizon, config_.outages);
  state_ = bgp::AdvertisementState(topology_.peering_links.size(),
                                   config_.prefix_count);
  aggregator_ =
      std::make_unique<const pipeline::HourlyAggregator>(wan_.get(), &geoip_);
  resolve_cache_.assign(workload_->flows().size(), ResolveCache{});
  last_down_mask_.assign(topology_.peering_links.size(), false);
  Calibrate();
}

core::FlowFeatures Scenario::FlowFeaturesOf(std::size_t flow_idx) const {
  const auto& flow = workload_->flows()[flow_idx];
  const auto& endpoint = workload_->endpoints()[flow.endpoint];
  const auto& destination = wan_->destination(flow.destination);
  core::FlowFeatures features;
  features.src_asn = topology_.graph.node(endpoint.node).asn;
  features.src_prefix24 = endpoint.prefix24;
  features.src_metro =
      geoip_.Lookup(endpoint.prefix24).value_or(util::MetroId{});
  features.dest_region = destination.region;
  features.dest_service = destination.service;
  return features;
}

std::vector<bgp::LinkShare> Scenario::ResolveFlow(std::size_t flow_idx,
                                                  util::HourIndex hour) {
  const auto& flow = workload_->flows()[flow_idx];
  const auto prefix = wan_->destination(flow.destination).prefix;
  return CachedShares(flow_idx, hour, state_.PrefixVersion(prefix), state_,
                      engine_->Routing(prefix, state_));
}

const std::vector<bgp::LinkShare>& Scenario::CachedShares(
    std::size_t flow_idx, util::HourIndex hour, std::uint64_t version,
    const bgp::AdvertisementState& state, const bgp::PrefixRouting& routing) {
  const int day = static_cast<int>(util::DayIndex(hour));
  ResolveCache& cache = resolve_cache_[flow_idx];
  if (cache.day != day || cache.version != version) {
    const auto& flow = workload_->flows()[flow_idx];
    const auto& endpoint = workload_->endpoints()[flow.endpoint];
    const auto prefix = wan_->destination(flow.destination).prefix;
    cache.shares = engine_->ResolveIngress(
        endpoint.node, endpoint.metro, prefix, flow.hash, day, state,
        routing);
    cache.day = day;
    cache.version = version;
  }
  return cache.shares;
}

void Scenario::SimulateHours(util::HourRange range, const RowSink& rows,
                             const LoadSink& loads) {
  for (util::HourIndex begin = range.begin; begin < range.end;) {
    // A loads sink (the CMS loop) may change the advertisement state
    // between hours, so it gets one-hour blocks; otherwise a block runs
    // to the end of the day.
    const util::HourIndex end =
        loads ? begin + 1
              : std::min(range.end,
                         (util::DayIndex(begin) + 1) * util::kHoursPerDay);
    SimulateBlock(util::HourRange{begin, end}, rows, loads);
    begin = end;
  }
}

void Scenario::PlanHour(util::HourIndex hour, bool plan_routing,
                        HourPlan& plan) {
  outages_.ApplyTo(state_, hour);
  plan.hour = hour;
  // BMP session events on outage transitions, recorded at hand-off.
  plan.session_events.clear();
  for (std::uint32_t l = 0; l < wan_->link_count(); ++l) {
    const bool down = outages_.IsDown(util::LinkId{l}, hour);
    if (down != last_down_mask_[l]) {
      plan.session_events.push_back(telemetry::BmpMessage{
          hour, util::LinkId{l}, util::PrefixId{},
          down ? telemetry::BmpEventType::kSessionDown
               : telemetry::BmpEventType::kSessionUp});
      last_down_mask_[l] = down;
    }
  }
  if (!plan_routing) return;
  plan.state = state_;
  plan.versions.resize(config_.prefix_count);
  plan.routing.resize(config_.prefix_count);
  for (std::uint32_t p = 0; p < config_.prefix_count; ++p) {
    plan.versions[p] = state_.PrefixVersion(util::PrefixId{p});
    plan.routing[p] = engine_->SharedRouting(util::PrefixId{p}, state_);
  }
}

void Scenario::SimulateFlowChunk(std::size_t begin, std::size_t end,
                                 std::size_t chunk, std::size_t chunks,
                                 bool want_records, bool want_loads) {
  const auto& flows = workload_->flows();
  for (std::size_t fi = begin; fi < end; ++fi) {
    const auto& flow = flows[fi];
    const auto& endpoint = workload_->endpoints()[flow.endpoint];
    const auto& destination = wan_->destination(flow.destination);
    const std::uint32_t prefix = destination.prefix.value();
    for (std::size_t off = 0; off < plans_.size(); ++off) {
      const HourPlan& plan = plans_[off];
      const util::HourIndex h = plan.hour;
      const double bytes = workload_->BytesAt(fi, h);
      if (bytes <= 0.0) continue;
      const auto& shares = CachedShares(fi, h, plan.versions[prefix],
                                        plan.state, *plan.routing[prefix]);
      for (const auto& share : shares) {
        const double link_bytes = bytes * share.fraction;
        if (want_loads) {
          chunk_loads_[off * chunks + chunk].push_back(
              LoadTerm{share.link.value(), link_bytes});
        }
        if (!want_records) continue;
        const std::uint64_t record_key = util::HashAll(
            flow.hash, static_cast<std::uint64_t>(h), share.link.value());
        const auto sampled = sampler_.SampleBytes(link_bytes, record_key);
        if (!sampled.has_value()) continue;
        if (config_.collector_loss_rate > 0.0) {
          const double u =
              static_cast<double>(util::Mix64(record_key ^ 0x10cc) >> 11) *
              0x1.0p-53;
          if (u < config_.collector_loss_rate) continue;  // record lost
        }
        telemetry::IpfixRecord record;
        record.hour = h;
        record.link = share.link;
        record.src_prefix24 = endpoint.prefix24;
        record.src_asn = topology_.graph.node(endpoint.node).asn;
        record.dest_addr = destination.address;
        record.scaled_bytes = *sampled;
        chunk_records_[off * chunks + chunk].push_back(record);
      }
    }
  }
}

void Scenario::SimulateBlock(util::HourRange block, const RowSink& rows,
                             const LoadSink& loads) {
  const bool simulate_flows = rows || loads;
  const auto hours = static_cast<std::size_t>(block.length());

  // 1. Serial pre-pass: outages, session events, routing per hour.
  plans_.resize(hours);
  for (std::size_t off = 0; off < hours; ++off) {
    PlanHour(block.begin + static_cast<util::HourIndex>(off),
             simulate_flows, plans_[off]);
  }

  auto& pool = util::CurrentPool();
  const std::size_t flow_count = workload_->flows().size();
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(flow_count, pool.thread_count() * kChunksPerThread));
  if (simulate_flows) {
    // 2. Flow-major: contiguous flow chunks over every hour of the block.
    if (rows) chunk_records_.resize(hours * chunks);
    if (loads) chunk_loads_.resize(hours * chunks);
    pool.Run(chunks, [&](std::size_t chunk) {
      SimulateFlowChunk(flow_count * chunk / chunks,
                        flow_count * (chunk + 1) / chunks, chunk, chunks,
                        rows != nullptr, loads != nullptr);
    });
  }
  if (rows) {
    // 3. Hour-parallel aggregation of the chunks' records, concatenated
    // in chunk (= flow) order.
    hour_rows_.resize(hours);
    hour_stats_.resize(hours);
    pool.Run(hours, [&](std::size_t off) {
      const std::span pieces(chunk_records_.data() + off * chunks, chunks);
      std::size_t total = 0;
      for (const auto& piece : pieces) total += piece.size();
      std::vector<telemetry::IpfixRecord> records;
      records.reserve(total);
      for (auto& piece : pieces) {
        records.insert(records.end(), piece.begin(), piece.end());
        piece.clear();
      }
      hour_stats_[off] = aggregator_->Aggregate(records, hour_rows_[off]);
    });
  }

  // 4. Hand-off, strictly in hour order on the caller's thread.
  std::vector<double> true_loads;
  if (loads) true_loads.resize(wan_->link_count());
  for (std::size_t off = 0; off < hours; ++off) {
    const HourPlan& plan = plans_[off];
    for (const auto& event : plan.session_events) bmp_.Record(event);
    if (rows) {
      aggregate_stats_ += hour_stats_[off];
      ++aggregated_hours_;
      rows(plan.hour, hour_rows_[off]);
    }
    if (loads) {
      std::fill(true_loads.begin(), true_loads.end(), 0.0);
      for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        auto& terms = chunk_loads_[off * chunks + chunk];
        for (const auto& term : terms) true_loads[term.link] += term.bytes;
        terms.clear();
      }
      loads(plan.hour, true_loads);
    }
    // The later hours of the block were simulated under the planned
    // states; a sink that changed the live state would have changed them.
    if (simulate_flows && off + 1 < hours) {
      const auto& planned = plans_.back().versions;
      for (std::uint32_t p = 0; p < config_.prefix_count; ++p) {
        if (state_.PrefixVersion(util::PrefixId{p}) != planned[p]) {
          std::fprintf(stderr,
                       "Scenario::SimulateHours: a rows sink changed the "
                       "advertisement state at hour %lld, inside a day "
                       "block (attach a loads sink for hourly blocks)\n",
                       static_cast<long long>(plan.hour));
          std::abort();
        }
      }
    }
  }
}

std::size_t Scenario::EstimatedRows(util::HourRange range) const {
  if (aggregated_hours_ == 0 || range.end <= range.begin) return 0;
  const std::size_t per_hour =
      aggregate_stats_.aggregated_rows / aggregated_hours_;
  return per_hour * static_cast<std::size_t>(range.end - range.begin);
}

void Scenario::ResetAdvertisements() {
  for (std::uint32_t l = 0; l < wan_->link_count(); ++l) {
    for (std::uint32_t p = 0; p < config_.prefix_count; ++p) {
      state_.Announce(util::PrefixId{p}, util::LinkId{l});
    }
  }
}

void Scenario::Calibrate() {
  // Resolve all flows under full advertisement and measure utilization at
  // a few representative hours of day 0, then scale volumes so the p99
  // busiest link sits at the target.
  const bgp::AdvertisementState full(wan_->link_count(),
                                     config_.prefix_count);
  std::vector<double> loads(wan_->link_count(), 0.0);
  const util::HourIndex probe_hours[] = {4, 10, 14, 20};
  const auto& flows = workload_->flows();
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    const auto& endpoint = workload_->endpoints()[flows[fi].endpoint];
    const auto prefix = wan_->destination(flows[fi].destination).prefix;
    const auto shares = engine_->ResolveIngress(
        endpoint.node, endpoint.metro, prefix, flows[fi].hash, /*day=*/0,
        full);
    if (shares.empty()) continue;
    double peak_bytes = 0.0;
    for (util::HourIndex h : probe_hours) {
      peak_bytes = std::max(peak_bytes, workload_->BytesAt(fi, h));
    }
    for (const auto& share : shares) {
      loads[share.link.value()] += peak_bytes * share.fraction;
    }
  }
  std::vector<double> utilization;
  utilization.reserve(loads.size());
  for (std::uint32_t l = 0; l < loads.size(); ++l) {
    const double cap = wan_->link(util::LinkId{l}).CapacityBytesPerHour();
    if (cap > 0.0 && loads[l] > 0.0) utilization.push_back(loads[l] / cap);
  }
  if (utilization.empty()) return;
  std::sort(utilization.begin(), utilization.end());
  const double p99 = utilization[static_cast<std::size_t>(
      0.99 * static_cast<double>(utilization.size() - 1))];
  if (p99 > 0.0) {
    workload_->ScaleVolumes(config_.target_p99_utilization / p99);
  }
}

}  // namespace tipsy::scenario
