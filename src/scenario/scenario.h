// End-to-end simulation scenario: topology + WAN + workload + routing +
// outages + telemetry + aggregation, driven hour by hour.
//
// A Scenario owns every substrate and exposes a streaming interface: each
// simulated hour resolves ground-truth ingress for every flow under the
// current advertisement state (outage schedule applied, plus any CMS
// withdrawals the caller injected), runs the flows through the IPFIX
// sampler, aggregates + joins the records, and hands the hour's rows to a
// sink. Memory stays bounded by one day of records, whatever the window.
//
// Hours are simulated in blocks, one fork-join per block: a serial
// pre-pass fixes each hour's advertisement state and routing, contiguous
// flow chunks resolve and sample on util::CurrentPool(), the hours
// aggregate in parallel, and the sinks then see the hours strictly in
// order on the caller's thread. Each hour's records are the chunks'
// records concatenated in flow order, so the rows (and their order), the
// aggregation statistics, the BMP feed and the loads are bit-identical at
// any thread count.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "bgp/routing.h"
#include "core/features.h"
#include "geo/geoip.h"
#include "pipeline/aggregate.h"
#include "pipeline/link_hour.h"
#include "scenario/outage.h"
#include "telemetry/bmp.h"
#include "telemetry/ipfix.h"
#include "topo/generator.h"
#include "traffic/workload.h"
#include "wan/wan.h"

namespace tipsy::scenario {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  topo::GeneratorConfig topology;
  traffic::TrafficConfig traffic;
  telemetry::IpfixConfig ipfix;
  bgp::ResolveConfig resolve;
  OutageScheduleConfig outages;
  std::size_t prefix_count = 48;
  // The whole simulated timeline; the outage schedule covers it.
  util::HourRange horizon{0, 28 * util::kHoursPerDay};
  // Calibration: scale workload volumes so the 99th-percentile link
  // utilization at a busy hour lands here.
  double target_p99_utilization = 0.55;
  // Geo-IP imprecision knob (fraction of /24s mapped to a wrong metro).
  double geoip_error_rate = 0.0;
  // Failure injection: fraction of IPFIX records lost between exporter
  // and data lake (collector crashes, export drops). The paper's
  // collectors "use automatic mechanisms to recover from failures"; this
  // knob measures how much residual loss the models tolerate.
  double collector_loss_rate = 0.0;
};

// A scenario sized for unit tests: tiny topology, few flows, fast.
[[nodiscard]] ScenarioConfig TinyScenarioConfig();
// The default evaluation scenario ("the Azure-like world").
[[nodiscard]] ScenarioConfig DefaultScenarioConfig();

// Anything that can stream hourly aggregated rows to an experiment: a live
// Scenario, or a RowCache replaying a pre-simulated span (used by the
// sweep benches that train dozens of models over overlapping windows).
class RowSource {
 public:
  using RowSink =
      std::function<void(util::HourIndex, std::span<const pipeline::AggRow>)>;

  virtual ~RowSource() = default;
  virtual void StreamHours(util::HourRange range, const RowSink& sink) = 0;
  [[nodiscard]] virtual const wan::Wan& wan() const = 0;
  [[nodiscard]] virtual const geo::MetroCatalogue& metros() const = 0;
  [[nodiscard]] virtual const OutageSchedule& outages() const = 0;
  // Rough number of aggregated rows `range` will stream (0 = unknown);
  // used to pre-size training and evaluation hash tables.
  [[nodiscard]] virtual std::size_t EstimatedRows(util::HourRange) const {
    return 0;
  }
};

class Scenario : public RowSource {
 public:
  explicit Scenario(const ScenarioConfig& config);

  // --- Substrate access.
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] const topo::GeneratedTopology& topology() const {
    return topology_;
  }
  [[nodiscard]] const geo::MetroCatalogue& metros() const override {
    return topology_.metros;
  }
  [[nodiscard]] const wan::Wan& wan() const override { return *wan_; }
  [[nodiscard]] const traffic::Workload& workload() const {
    return *workload_;
  }
  // For scripted incident experiments (inflating specific flows).
  [[nodiscard]] traffic::Workload& mutable_workload() { return *workload_; }
  [[nodiscard]] const geo::GeoIpDb& geoip() const { return geoip_; }
  [[nodiscard]] bgp::RoutingEngine& engine() { return *engine_; }
  [[nodiscard]] const OutageSchedule& outages() const override {
    return outages_;
  }
  [[nodiscard]] bgp::AdvertisementState& advertisement() { return state_; }
  [[nodiscard]] const telemetry::BmpFeed& bmp() const { return bmp_; }
  // The CMS records its withdrawal/announce messages here too.
  [[nodiscard]] telemetry::BmpFeed& mutable_bmp() { return bmp_; }
  [[nodiscard]] pipeline::AggregateStats aggregate_stats() const {
    return aggregate_stats_;
  }

  // --- Simulation.
  // Ground-truth (unsampled) ingress bytes per link for the hour, indexed
  // by LinkId; used by the CMS, which watches real interface counters.
  using LoadSink =
      std::function<void(util::HourIndex, std::span<const double>)>;

  // Simulates [range.begin, range.end): applies the outage schedule to the
  // advertisement state at each hour (preserving caller withdrawals),
  // resolves, samples, aggregates. Either sink may be null; for each hour
  // the rows sink runs before the loads sink.
  //
  // Sink contract. With a loads sink attached, hours are simulated one
  // at a time, so the sinks may change the advertisement state or the
  // workload between hours (the CMS loop withdraws prefixes at hour h
  // that hour h+1 must see). With only a rows sink, a block is the rest
  // of the current day, simulated before its first hour is handed off:
  // such a sink must not change the advertisement state or the workload
  // before the block's last hour. A changed advertisement state aborts
  // the process at hand-off rather than silently skewing the rows.
  void SimulateHours(util::HourRange range, const RowSink& rows,
                     const LoadSink& loads = nullptr);

  void StreamHours(util::HourRange range, const RowSink& sink) override {
    SimulateHours(range, sink);
  }

  // Estimate from the cumulative aggregation statistics (0 until at least
  // one hour has been simulated with a row sink).
  [[nodiscard]] std::size_t EstimatedRows(
      util::HourRange range) const override;

  // Re-announces every withdrawn (prefix, link) pair, restoring the
  // default full-anycast advertisement (link outage state untouched).
  // Used to replay the same hours under different CMS policies.
  void ResetAdvertisements();

  // The features of a flow as TIPSY sees them (post Geo-IP join).
  [[nodiscard]] core::FlowFeatures FlowFeaturesOf(std::size_t flow_idx) const;
  // Ground-truth ingress distribution of a flow at `hour` under the
  // current advertisement state.
  [[nodiscard]] std::vector<bgp::LinkShare> ResolveFlow(
      std::size_t flow_idx, util::HourIndex hour);

 private:
  // What the serial pre-pass fixes for one hour of a block.
  struct HourPlan {
    util::HourIndex hour = 0;
    bgp::AdvertisementState state{0, 0};  // a copy of the live state
    // Per prefix: the live state's version (the resolve cache key; the
    // copy above has a fresh identity) and the routing under it.
    std::vector<std::uint64_t> versions;
    std::vector<std::shared_ptr<const bgp::PrefixRouting>> routing;
    std::vector<telemetry::BmpMessage> session_events;
  };

  void SimulateBlock(util::HourRange block, const RowSink& rows,
                     const LoadSink& loads);
  void PlanHour(util::HourIndex hour, bool plan_routing, HourPlan& plan);
  // Resolves, samples and records flows [begin, end) for every planned
  // hour into the chunk's buffers. Chunks own disjoint flows (and so
  // disjoint resolve-cache entries) and otherwise only read.
  void SimulateFlowChunk(std::size_t begin, std::size_t end,
                         std::size_t chunk, std::size_t chunks,
                         bool want_records, bool want_loads);
  // The flow's ingress at `hour` under `state`, whose live version for the
  // flow's prefix is `version`: the cached shares, or resolved afresh
  // with `routing`.
  const std::vector<bgp::LinkShare>& CachedShares(
      std::size_t flow_idx, util::HourIndex hour, std::uint64_t version,
      const bgp::AdvertisementState& state,
      const bgp::PrefixRouting& routing);
  void Calibrate();

  ScenarioConfig config_;
  topo::GeneratedTopology topology_;
  std::unique_ptr<wan::Wan> wan_;
  geo::GeoIpDb geoip_;
  std::unique_ptr<traffic::Workload> workload_;
  std::unique_ptr<bgp::RoutingEngine> engine_;
  OutageSchedule outages_;
  bgp::AdvertisementState state_;
  telemetry::IpfixSampler sampler_;
  telemetry::BmpFeed bmp_;
  std::unique_ptr<const pipeline::HourlyAggregator> aggregator_;
  pipeline::AggregateStats aggregate_stats_;

  // Per-flow resolution cache: valid while (day, prefix version) match.
  struct ResolveCache {
    int day = -1;
    std::uint64_t version = ~0ULL;
    std::vector<bgp::LinkShare> shares;
  };
  std::vector<ResolveCache> resolve_cache_;
  std::vector<bool> last_down_mask_;  // for BMP session events
  std::size_t aggregated_hours_ = 0;  // hours simulated with a row sink

  // One (link, bytes) term of an hour's ground-truth loads, kept so the
  // loads are summed serially in flow order.
  struct LoadTerm {
    std::uint32_t link = 0;
    double bytes = 0.0;
  };
  // The block's working set, reused across blocks. Per-chunk buffers are
  // indexed [hour offset * chunks + chunk].
  std::vector<HourPlan> plans_;
  std::vector<std::vector<telemetry::IpfixRecord>> chunk_records_;
  std::vector<std::vector<LoadTerm>> chunk_loads_;
  std::vector<std::vector<pipeline::AggRow>> hour_rows_;
  std::vector<pipeline::AggregateStats> hour_stats_;
};

}  // namespace tipsy::scenario
