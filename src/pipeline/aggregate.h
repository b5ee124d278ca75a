// Aggregation and metadata-join stage (§4.2).
//
// Raw IPFIX is reduced to hour-long chunks indexed only by the features
// TIPSY uses: source AS, source /24 prefix, source metro (joined from the
// Geo-IP database), destination region and destination service type (joined
// from the WAN's destination catalogue), per ingress peering link. Rows
// identical in all features are merged by summing bytes - the step that
// shrinks IPFIX to ~2% of its raw size in the paper.
#pragma once

#include <span>
#include <vector>

#include "geo/geoip.h"
#include "telemetry/ipfix.h"
#include "util/ids.h"
#include "util/ip.h"
#include "util/sim_time.h"
#include "wan/wan.h"

namespace tipsy::pipeline {

using util::HourIndex;
using util::LinkId;

// Fully joined, hour-aggregated observation - the unit the learning system
// consumes.
struct AggRow {
  HourIndex hour = 0;
  LinkId link;
  util::AsId src_asn;
  util::Ipv4Prefix src_prefix24;
  util::MetroId src_metro;  // invalid when the Geo-IP lookup missed
  util::RegionId dest_region;
  wan::ServiceType dest_service = wan::ServiceType::kStorage;
  // The advertised anycast prefix serving the destination - the unit the
  // CMS can withdraw. Determined by (region, service), so it is not part
  // of the merge key.
  util::PrefixId dest_prefix;
  std::uint64_t bytes = 0;
};

struct AggregateStats {
  std::size_t raw_records = 0;
  std::size_t aggregated_rows = 0;
  std::size_t geoip_misses = 0;
  // Records whose destination address matched no known WAN VIP.
  std::size_t unknown_destinations = 0;
  AggregateStats& operator+=(const AggregateStats& other) {
    raw_records += other.raw_records;
    aggregated_rows += other.aggregated_rows;
    geoip_misses += other.geoip_misses;
    unknown_destinations += other.unknown_destinations;
    return *this;
  }
  [[nodiscard]] double CompressionRatio() const {
    return raw_records == 0
               ? 1.0
               : static_cast<double>(aggregated_rows) /
                     static_cast<double>(raw_records);
  }
};

class HourlyAggregator {
 public:
  HourlyAggregator(const wan::Wan* wan, const geo::GeoIpDb* geoip)
      : wan_(wan), geoip_(geoip) {}

  // Joins and merges one hour's worth of records into `out`, replacing
  // its contents, and returns the hour's statistics (callers sum them).
  // Records with a Geo-IP miss keep an invalid src_metro (models not using
  // location still use them). Const, so several hours may aggregate at
  // once.
  AggregateStats Aggregate(std::span<const telemetry::IpfixRecord> records,
                           std::vector<AggRow>& out) const;

 private:
  const wan::Wan* wan_;
  const geo::GeoIpDb* geoip_;
};

}  // namespace tipsy::pipeline
