#include "pipeline/aggregate.h"

#include <unordered_map>

#include "util/hash.h"

namespace tipsy::pipeline {
namespace {

// Merge key: every feature plus the link (hour is constant per batch).
struct RowKey {
  std::uint32_t link;
  std::uint32_t asn;
  std::uint64_t prefix;
  std::uint32_t metro;
  std::uint32_t region;
  std::uint8_t service;

  bool operator==(const RowKey&) const = default;
};

struct RowKeyHash {
  std::size_t operator()(const RowKey& k) const {
    return util::HashAll(k.link, k.asn, k.prefix,
                         k.metro, k.region,
                         static_cast<std::uint32_t>(k.service));
  }
};

}  // namespace

AggregateStats HourlyAggregator::Aggregate(
    std::span<const telemetry::IpfixRecord> records,
    std::vector<AggRow>& out) const {
  AggregateStats stats;
  std::unordered_map<RowKey, AggRow, RowKeyHash> merged;
  merged.reserve(records.size());
  for (const auto& record : records) {
    ++stats.raw_records;
    // Metadata join: the record carries only the destination address; the
    // service/region and the withdrawable announced prefix come from the
    // WAN's catalogue (exact VIP match + longest-prefix match).
    const auto dest_index = wan_->DestinationOfAddress(record.dest_addr);
    if (!dest_index.has_value()) {
      ++stats.unknown_destinations;
      continue;
    }
    const auto& destination = wan_->destination(*dest_index);
    const auto metro = geoip_->Lookup(record.src_prefix24);
    if (!metro.has_value()) ++stats.geoip_misses;

    RowKey key{record.link.value(),
               record.src_asn.value(),
               (static_cast<std::uint64_t>(record.src_prefix24.address()
                                               .bits())
                << 8) |
                   record.src_prefix24.length(),
               metro.value_or(util::MetroId{}).value(),
               destination.region.value(),
               static_cast<std::uint8_t>(destination.service)};
    auto [it, inserted] = merged.try_emplace(key);
    AggRow& row = it->second;
    if (inserted) {
      row.hour = record.hour;
      row.link = record.link;
      row.src_asn = record.src_asn;
      row.src_prefix24 = record.src_prefix24;
      row.src_metro = metro.value_or(util::MetroId{});
      row.dest_region = destination.region;
      row.dest_service = destination.service;
      row.dest_prefix = wan_->PrefixOfAddress(record.dest_addr);
      assert(row.dest_prefix == destination.prefix);
    }
    row.bytes += record.scaled_bytes;
  }
  out.clear();
  out.reserve(merged.size());
  for (auto& [key, row] : merged) out.push_back(row);
  stats.aggregated_rows = out.size();
  return stats;
}

}  // namespace tipsy::pipeline
