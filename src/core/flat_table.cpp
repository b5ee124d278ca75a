#include "core/flat_table.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"

namespace tipsy::core {
namespace {

// Capacity is the smallest power of two keeping the load factor at or
// below ~0.7: linear probing stays short (max probe lengths in the
// single digits at this load) while two-thirds of the bucket lines still
// hold data.
std::size_t BucketCapacityFor(std::size_t tuples) {
  std::size_t capacity = 16;
  while (capacity * 7 < tuples * 10) capacity <<= 1;
  return capacity;
}

}  // namespace

FlatTupleTable FlatTupleTable::Build(std::span<const Bucket> tuples,
                                     std::span<const LinkBytes> links) {
  const std::uint64_t start_ns = obs::NowNanos();
  // Insert in key-sorted order so the bucket layout and the arena are a
  // pure function of the runs, not of their order - the same
  // determinism discipline as ExportTable(). The stable sort keeps a
  // repeated key's first run first, and unique() keeps only that one.
  // (Indices, not buckets: libstdc++'s stable_sort buffer ignores the
  // buckets' 32-byte alignment.)
  std::vector<std::uint32_t> order(tuples.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return tuples[a].key < tuples[b].key;
                   });
  order.erase(std::unique(order.begin(), order.end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                            return tuples[a].key == tuples[b].key;
                          }),
              order.end());
  FlatTupleTable table;
  table.size_ = order.size();
  if (order.empty()) {
    table.build_ns_ = obs::NowNanos() - start_ns;
    return table;
  }
  std::size_t total_links = 0;
  for (const std::uint32_t t : order) total_links += tuples[t].link_count;

  table.buckets_.resize(BucketCapacityFor(order.size()));
  table.mask_ = table.buckets_.size() - 1;
  table.links_.reserve(total_links);
  for (const std::uint32_t t : order) {
    const Bucket& tuple = tuples[t];
    std::size_t i = TupleKeyHash{}(tuple.key) & table.mask_;
    std::size_t probe_length = 1;
    while (table.buckets_[i].links_begin != kEmpty) {
      i = (i + 1) & table.mask_;
      ++probe_length;
    }
    Bucket& bucket = table.buckets_[i];
    bucket = tuple;
    bucket.links_begin = static_cast<std::uint32_t>(table.links_.size());
    const auto run = links.subspan(tuple.links_begin, tuple.link_count);
    table.links_.insert(table.links_.end(), run.begin(), run.end());
    table.max_probe_length_ =
        std::max(table.max_probe_length_, probe_length);
  }
  table.build_ns_ = obs::NowNanos() - start_ns;
  return table;
}

}  // namespace tipsy::core
