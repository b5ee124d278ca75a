// TIPSY feature definitions (§3.2).
//
// Every model always uses source AS plus both destination features (region
// and service type); the feature sets differ in whether they add the source
// /24 prefix (AP) or the source metro location (AL). APL is omitted because
// a /24 maps to exactly one location (Table 1).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "util/hash.h"
#include "util/ids.h"
#include "util/ip.h"
#include "wan/wan.h"

namespace tipsy::core {

enum class FeatureSet : std::uint8_t {
  kA,   // source AS + destination
  kAP,  // + source /24 prefix
  kAL,  // + source metro location
};

[[nodiscard]] inline const char* ToString(FeatureSet fs) {
  switch (fs) {
    case FeatureSet::kA: return "A";
    case FeatureSet::kAP: return "AP";
    case FeatureSet::kAL: return "AL";
  }
  return "?";
}

// Raw features of one flow aggregate, before any model-specific reduction.
struct FlowFeatures {
  util::AsId src_asn;
  util::Ipv4Prefix src_prefix24;
  util::MetroId src_metro;  // invalid when geolocation missed
  util::RegionId dest_region;
  wan::ServiceType dest_service = wan::ServiceType::kStorage;

  bool operator==(const FlowFeatures&) const = default;
};

struct FlowFeaturesHash {
  std::size_t operator()(const FlowFeatures& f) const {
    return util::HashAll(
        f.src_asn.value(),
        (static_cast<std::uint64_t>(f.src_prefix24.address().bits()) << 8) |
            f.src_prefix24.length(),
        f.src_metro.value(), f.dest_region.value(),
        static_cast<std::uint32_t>(f.dest_service));
  }
};

// The reduced tuple a feature set actually keys on, packed into a hashable
// value. Distinct raw values always produce distinct keys (no hashing of
// the feature values themselves, only of the packed struct). Keys order
// by (hi, lo), the order every export and serving table is laid out in.
struct TupleKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  auto operator<=>(const TupleKey&) const = default;
};

struct TupleKeyHash {
  std::size_t operator()(const TupleKey& k) const {
    return util::HashCombine(k.hi, k.lo);
  }
};

// Builds the tuple key for `fs` from raw features. The destination features
// are always included.
[[nodiscard]] inline TupleKey MakeTupleKey(FeatureSet fs,
                                           const FlowFeatures& f) {
  TupleKey key;
  key.hi = (static_cast<std::uint64_t>(f.src_asn.value()) << 32) |
           (static_cast<std::uint64_t>(f.dest_region.value()) << 8) |
           static_cast<std::uint64_t>(f.dest_service);
  switch (fs) {
    case FeatureSet::kA:
      key.lo = 0;
      break;
    case FeatureSet::kAP:
      key.lo = 1ULL << 62 |
               (static_cast<std::uint64_t>(f.src_prefix24.address().bits())
                << 8) |
               f.src_prefix24.length();
      break;
    case FeatureSet::kAL:
      key.lo = 2ULL << 62 | static_cast<std::uint64_t>(f.src_metro.value());
      break;
  }
  return key;
}

// True when the features required by `fs` are present (an AL model cannot
// key a flow whose geolocation lookup missed).
[[nodiscard]] inline bool HasFeatures(FeatureSet fs, const FlowFeatures& f) {
  switch (fs) {
    case FeatureSet::kA: return f.src_asn.valid();
    case FeatureSet::kAP:
      return f.src_asn.valid() && f.src_prefix24.length() == 24;
    case FeatureSet::kAL: return f.src_asn.valid() && f.src_metro.valid();
  }
  return false;
}

}  // namespace tipsy::core
