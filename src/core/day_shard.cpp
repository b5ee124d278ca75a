#include "core/day_shard.h"

#include <algorithm>
#include <limits>

namespace tipsy::core {
namespace {

// Smallest power-of-two capacity keeping the load factor at or below
// ~0.7, the serving table's rule (core/flat_table.cpp).
std::size_t CapacityFor(std::size_t tuples) {
  std::size_t capacity = 16;
  while (capacity * 7 < tuples * 10) capacity <<= 1;
  return capacity;
}

// An exported count back to an integer. Exports carry integers below
// 2^64; anything else comes from a damaged source and is clamped.
std::uint64_t CountOf(double value) {
  if (!(value > 0.0)) return 0;
  if (value >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(value);
}

}  // namespace

std::size_t TupleCountTable::FindIndex(const TupleKey& key) const {
  if (size_ == 0) return buckets_.size();
  std::size_t i = TupleKeyHash{}(key) & mask_;
  while (buckets_[i].head != kEmpty) {
    if (buckets_[i].key == key) return i;
    i = (i + 1) & mask_;
  }
  return buckets_.size();
}

TupleCountTable::Bucket& TupleCountTable::FindOrInsert(const TupleKey& key) {
  if ((size_ + 1) * 10 > buckets_.size() * 7) {
    Rehash(CapacityFor(size_ + 1));
  }
  std::size_t i = TupleKeyHash{}(key) & mask_;
  while (buckets_[i].head != kEmpty) {
    if (buckets_[i].key == key) return buckets_[i];
    i = (i + 1) & mask_;
  }
  Bucket& bucket = buckets_[i];
  bucket.key = key;
  bucket.total = 0;
  bucket.head = kNil;
  bucket.tail = kNil;
  ++size_;
  return bucket;
}

void TupleCountTable::AppendLink(Bucket& bucket, std::uint32_t link,
                                 std::uint64_t bytes) {
  const auto index = static_cast<std::uint32_t>(links_.size());
  links_.push_back(LinkNode{link, kNil, bytes});
  if (bucket.head == kNil) {
    bucket.head = index;
  } else {
    links_[bucket.tail].next = index;
  }
  bucket.tail = index;
  ++live_links_;
}

void TupleCountTable::AddToLink(Bucket& bucket, std::uint32_t link,
                                std::uint64_t bytes) {
  for (std::uint32_t i = bucket.head; i != kNil; i = links_[i].next) {
    if (links_[i].link == link) {
      links_[i].bytes += bytes;
      return;
    }
  }
  AppendLink(bucket, link, bytes);
}

void TupleCountTable::Add(const pipeline::AggRow& row) {
  const FlowFeatures flow{row.src_asn, row.src_prefix24, row.src_metro,
                          row.dest_region, row.dest_service};
  if (!HasFeatures(feature_set_, flow)) return;
  const std::uint64_t weight = weight_by_bytes_ ? row.bytes : 1;
  Bucket& bucket = FindOrInsert(MakeTupleKey(feature_set_, flow));
  bucket.total += weight;
  AddToLink(bucket, row.link.value(), weight);
}

void TupleCountTable::AddRows(std::span<const pipeline::AggRow> rows) {
  for (const auto& row : rows) Add(row);
}

void TupleCountTable::Merge(const TupleCountTable& other) {
  for (const Bucket& incoming : other.buckets_) {
    if (incoming.head == kEmpty) continue;
    Bucket& bucket = FindOrInsert(incoming.key);
    bucket.total += incoming.total;
    for (std::uint32_t i = incoming.head; i != kNil;
         i = other.links_[i].next) {
      AddToLink(bucket, other.links_[i].link, other.links_[i].bytes);
    }
  }
}

util::Status TupleCountTable::Subtract(const TupleCountTable& other) {
  // Validate fully before mutating, so a failed subtraction leaves the
  // aggregate usable (the caller falls back to a from-scratch rebuild).
  for (const Bucket& incoming : other.buckets_) {
    if (incoming.head == kEmpty) continue;
    const std::size_t index = FindIndex(incoming.key);
    if (index == buckets_.size()) {
      return util::Status::InvalidArgument(
          "subtracting a tuple the aggregate does not hold");
    }
    const Bucket& bucket = buckets_[index];
    if (bucket.total < incoming.total) {
      return util::Status::InvalidArgument(
          "subtracting more byte mass than the aggregate holds");
    }
    for (std::uint32_t j = incoming.head; j != kNil;
         j = other.links_[j].next) {
      std::uint32_t i = bucket.head;
      while (i != kNil && links_[i].link != other.links_[j].link) {
        i = links_[i].next;
      }
      if (i == kNil) {
        return util::Status::InvalidArgument(
            "subtracting a link the aggregate does not hold");
      }
      if (links_[i].bytes < other.links_[j].bytes) {
        return util::Status::InvalidArgument(
            "subtracting more link bytes than the aggregate holds");
      }
    }
  }
  for (const Bucket& incoming : other.buckets_) {
    if (incoming.head == kEmpty) continue;
    const std::size_t index = FindIndex(incoming.key);
    Bucket& bucket = buckets_[index];
    bucket.total -= incoming.total;
    for (std::uint32_t j = incoming.head; j != kNil;
         j = other.links_[j].next) {
      std::uint32_t prev = kNil;
      std::uint32_t i = bucket.head;
      while (i != kNil && links_[i].link != other.links_[j].link) {
        prev = i;
        i = links_[i].next;
      }
      // Only a table restored from a damaged export can list a link
      // twice; its second copy finds the link already drained.
      if (i == kNil) continue;
      links_[i].bytes -= other.links_[j].bytes;
      // A fully drained link is unlinked, so the aggregate matches what
      // the remaining days would build from scratch.
      if (links_[i].bytes != 0) continue;
      (prev == kNil ? bucket.head : links_[prev].next) = links_[i].next;
      if (bucket.tail == i) bucket.tail = prev;
      --live_links_;
    }
    if (bucket.total == 0 && bucket.head == kNil) EraseAt(index);
  }
  CompactIfSparse();
  return util::Status::Ok();
}

void TupleCountTable::Decay(int generations) {
  if (generations <= 0 || size_ == 0) return;
  const unsigned shift =
      generations >= 53 ? 53u : static_cast<unsigned>(generations);
  std::vector<TupleKey> drained;
  for (Bucket& bucket : buckets_) {
    if (bucket.head == kEmpty) continue;
    std::uint64_t total = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t i = bucket.head; i != kNil; i = links_[i].next) {
      links_[i].bytes >>= shift;
      if (links_[i].bytes == 0) {
        (prev == kNil ? bucket.head : links_[prev].next) = links_[i].next;
        --live_links_;
      } else {
        total += links_[i].bytes;
        prev = i;
      }
    }
    bucket.tail = prev;
    bucket.total = total;
    if (bucket.head == kNil) drained.push_back(bucket.key);
  }
  // Erased after the sweep: a backward shift mid-sweep could move a
  // bucket the sweep has already decayed into a slot it has not reached.
  for (const TupleKey& key : drained) EraseAt(FindIndex(key));
  CompactIfSparse();
}

void TupleCountTable::EraseAt(std::size_t index) {
  std::size_t hole = index;
  for (std::size_t i = (hole + 1) & mask_; buckets_[i].head != kEmpty;
       i = (i + 1) & mask_) {
    // The bucket at i may move back into the hole unless its home slot
    // lies cyclically in (hole, i].
    const std::size_t home = TupleKeyHash{}(buckets_[i].key) & mask_;
    const bool stays = hole < i ? (hole < home && home <= i)
                                : (hole < home || home <= i);
    if (stays) continue;
    buckets_[hole] = buckets_[i];
    hole = i;
  }
  buckets_[hole] = Bucket{};
  --size_;
}

void TupleCountTable::Rehash(std::size_t capacity) {
  std::vector<Bucket> old(capacity);
  old.swap(buckets_);
  mask_ = capacity - 1;
  for (const Bucket& bucket : old) {
    if (bucket.head == kEmpty) continue;
    std::size_t i = TupleKeyHash{}(bucket.key) & mask_;
    while (buckets_[i].head != kEmpty) i = (i + 1) & mask_;
    buckets_[i] = bucket;
  }
}

void TupleCountTable::CompactIfSparse() {
  if (links_.size() - live_links_ <= live_links_) return;
  std::vector<LinkNode> compact;
  compact.reserve(live_links_);
  for (Bucket& bucket : buckets_) {
    if (bucket.head == kEmpty || bucket.head == kNil) continue;
    const auto head = static_cast<std::uint32_t>(compact.size());
    for (std::uint32_t i = bucket.head; i != kNil; i = links_[i].next) {
      const auto next = static_cast<std::uint32_t>(compact.size() + 1);
      compact.push_back(LinkNode{links_[i].link, next, links_[i].bytes});
    }
    compact.back().next = kNil;
    bucket.head = head;
    bucket.tail = static_cast<std::uint32_t>(compact.size() - 1);
  }
  links_.swap(compact);
}

void TupleCountTable::Reserve(std::size_t expected_tuples) {
  const std::size_t capacity = CapacityFor(expected_tuples);
  if (capacity > buckets_.size()) Rehash(capacity);
}

void TupleCountTable::Clear() {
  buckets_.clear();
  links_.clear();
  mask_ = 0;
  size_ = 0;
  live_links_ = 0;
}

std::vector<TupleCountTable::ExportEntry> TupleCountTable::Export() const {
  std::vector<const Bucket*> sorted;
  sorted.reserve(size_);
  for (const Bucket& bucket : buckets_) {
    if (bucket.head != kEmpty) sorted.push_back(&bucket);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Bucket* a, const Bucket* b) { return a->key < b->key; });
  std::vector<ExportEntry> out;
  out.reserve(sorted.size());
  for (const Bucket* bucket : sorted) {
    ExportEntry entry{bucket->key, static_cast<double>(bucket->total), {}};
    for (std::uint32_t i = bucket->head; i != kNil; i = links_[i].next) {
      entry.links.push_back(LinkBytes{util::LinkId(links_[i].link),
                                      static_cast<double>(links_[i].bytes)});
    }
    out.push_back(std::move(entry));
  }
  return out;
}

TupleCountTable TupleCountTable::FromExport(
    FeatureSet feature_set, bool weight_by_bytes,
    const std::vector<ExportEntry>& entries) {
  TupleCountTable table(feature_set, weight_by_bytes);
  table.Reserve(entries.size());
  std::size_t links = 0;
  for (const auto& entry : entries) links += entry.links.size();
  table.links_.reserve(links);
  for (const auto& entry : entries) {
    const std::size_t before = table.size_;
    Bucket& bucket = table.FindOrInsert(entry.key);
    if (table.size_ == before) continue;  // a repeated key keeps its first
    bucket.total = CountOf(entry.total_bytes);
    for (const auto& link : entry.links) {
      table.AppendLink(bucket, link.link.value(), CountOf(link.bytes));
    }
  }
  return table;
}

bool TupleCountTable::SameCounts(const TupleCountTable& other) const {
  // The exports, each tuple's links put in link order.
  const auto canonical = [](std::vector<ExportEntry> entries) {
    for (auto& entry : entries) {
      std::sort(entry.links.begin(), entry.links.end(),
                [](const LinkBytes& a, const LinkBytes& b) {
                  return a.link < b.link;
                });
    }
    return entries;
  };
  return canonical(Export()) == canonical(other.Export());
}

FlatTupleTable TupleCountTable::Rank(std::size_t max_links_per_tuple) const {
  std::vector<FlatTupleTable::Bucket> runs;
  runs.reserve(size_);
  std::vector<LinkBytes> ranked;
  ranked.reserve(live_links_);
  for (const Bucket& bucket : buckets_) {
    if (bucket.head == kEmpty) continue;
    const std::size_t begin = ranked.size();
    for (std::uint32_t i = bucket.head; i != kNil; i = links_[i].next) {
      ranked.push_back(LinkBytes{util::LinkId(links_[i].link),
                                 static_cast<double>(links_[i].bytes)});
    }
    std::sort(ranked.begin() + static_cast<std::ptrdiff_t>(begin),
              ranked.end(), [](const LinkBytes& a, const LinkBytes& b) {
                if (a.bytes != b.bytes) return a.bytes > b.bytes;
                return a.link < b.link;
              });
    const std::size_t count =
        std::min(ranked.size() - begin, max_links_per_tuple);
    ranked.resize(begin + count);
    FlatTupleTable::Bucket run;
    run.key = bucket.key;
    run.total_bytes = static_cast<double>(bucket.total);
    run.links_begin = static_cast<std::uint32_t>(begin);
    run.link_count = static_cast<std::uint32_t>(count);
    runs.push_back(run);
  }
  return FlatTupleTable::Build(runs, ranked);
}

void ShardTables::Merge(const ShardTables& other) {
  a.Merge(other.a);
  ap.Merge(other.ap);
  al.Merge(other.al);
}

util::Status ShardTables::Subtract(const ShardTables& other) {
  if (auto status = a.Subtract(other.a); !status.ok()) return status;
  if (auto status = ap.Subtract(other.ap); !status.ok()) return status;
  return al.Subtract(other.al);
}

void ShardTables::Decay(int generations) {
  a.Decay(generations);
  ap.Decay(generations);
  al.Decay(generations);
}

void ShardTables::Clear() {
  a.Clear();
  ap.Clear();
  al.Clear();
}

DayShard DayShard::Build(util::HourIndex day,
                         std::span<const pipeline::AggRow> rows) {
  DayShard shard;
  shard.day = day;
  shard.AddRows(rows);
  return shard;
}

}  // namespace tipsy::core
