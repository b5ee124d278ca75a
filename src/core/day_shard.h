// Mergeable per-day partial count tables for incremental retraining.
//
// The paper's serving loop retrains the byte-weighted B(f, l) tables from
// a sliding ~21-day window every day (Appendix B.2) - yet only one day of
// data changes per retrain. A DayShard holds one day's partial counts for
// every historical feature set; the retrainer keeps a ring of them and
// maintains the window aggregate by merging the newest day and
// subtracting the expired one, instead of re-aggregating the full window.
// The same TupleCountTable is also the training accumulator of every
// HistoricalModel, so there is one B(f, l) table in the code base.
//
// Exactness contract: counts are integers by type - uint64_t byte
// volumes, or 1 per observation under the unweighted ablation - so
// addition and subtraction are exact in any order. Merging day shards
// therefore reproduces, bit for bit, the table a serial pass over the
// same rows builds; subtracting a day leaves exactly the table the
// remaining days would build (Subtract erases links and tuples that drain
// to exactly 0, so the aggregate never accumulates tombstones). Counts
// leave the table as doubles (Export, Rank), exact while they stay below
// 2^53.
//
// Decay (RetrainPolicy::decay_half_life_days) extends the contract to
// exponential down-weighting without giving up exactness: one decay
// generation halves every count by an integer floor (x -> x >> 1), so
// decayed counts remain integers that Export/FromExport and the snapshot
// codec round-trip bit-exactly. Floor-halving composes (Decay(Decay(x, a),
// b) == Decay(x, a + b)), which is what makes the retrainer's
// incrementally maintained decayed aggregate identical to a from-scratch
// canonical fold over the same day shards.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/features.h"
#include "core/flat_table.h"
#include "pipeline/aggregate.h"
#include "util/sim_time.h"
#include "util/status.h"

namespace tipsy::core {

// One feature set's B(f, l) counts over some slice of training data (a
// day, a window, a model's training pass): addable row by row, mergeable
// and subtractable slice by slice, all bit-exact.
//
// Layout: FlatTupleTable's, made writable. A power-of-two bucket array
// (linear probing, load <= 0.7, backward-shift deletion) holds each
// tuple's key, total and the head and tail of its link chain; one arena
// holds every (link, bytes) node, chained per tuple in first-occurrence
// order. Unlinked nodes stay in the arena until dead nodes outnumber live
// ones, when the arena is compacted, so a rolling window aggregate stays
// within 2x its live links. One writer at a time.
class TupleCountTable {
 public:
  TupleCountTable() = default;
  explicit TupleCountTable(FeatureSet feature_set,
                           bool weight_by_bytes = true)
      : feature_set_(feature_set), weight_by_bytes_(weight_by_bytes) {}

  // Accumulates one row (rows missing the feature set's features are
  // skipped; a zero-byte row still records its link).
  void Add(const pipeline::AggRow& row);
  void AddRows(std::span<const pipeline::AggRow> rows);

  // *this += other. Links new to a tuple are appended in other's
  // first-occurrence order, so merging slices in order reproduces a
  // serial pass over their rows, link order included.
  void Merge(const TupleCountTable& other);
  // *this -= other. kInvalidArgument when `other` holds a (tuple, link)
  // or byte mass this table does not - the caller tried to subtract a day
  // that was never merged. The table is unchanged on failure.
  [[nodiscard]] util::Status Subtract(const TupleCountTable& other);

  // Applies `generations` exponential-decay steps: every per-link count
  // becomes count >> generations. Links decayed to zero are erased,
  // tuples left without links are erased, and each tuple's total is
  // recomputed as the sum of its surviving link counts so the table's
  // invariant (total == sum of links) holds. Generations >= 53 shift by
  // 53, which drains any count below 2^53. No-op for generations <= 0.
  void Decay(int generations);

  [[nodiscard]] FeatureSet feature_set() const { return feature_set_; }
  [[nodiscard]] bool weight_by_bytes() const { return weight_by_bytes_; }
  [[nodiscard]] std::size_t tuple_count() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  // Live (tuple, link) counts, and the arena slots holding them (live
  // plus not yet compacted dead ones).
  [[nodiscard]] std::size_t link_count() const { return live_links_; }
  [[nodiscard]] std::size_t arena_size() const { return links_.size(); }

  // Sizes the bucket array for `expected_tuples` without rehashing later.
  void Reserve(std::size_t expected_tuples);
  void Clear();

  // Deterministic plain-data view (tuples sorted by key; links in
  // accumulation order) for serialization and equality checks.
  struct ExportEntry {
    TupleKey key;
    double total_bytes = 0.0;
    std::vector<LinkBytes> links;

    bool operator==(const ExportEntry&) const = default;
  };
  [[nodiscard]] std::vector<ExportEntry> Export() const;
  // Rebuilds a table from Export() output. Entries are taken verbatim (a
  // repeated key keeps its first entry); counts convert back to integers,
  // negative or NaN values reading as 0.
  [[nodiscard]] static TupleCountTable FromExport(
      FeatureSet feature_set, bool weight_by_bytes,
      const std::vector<ExportEntry>& entries);

  // Structural equality up to accumulation order: same tuples, same
  // per-link byte mass (link order within a tuple may differ).
  [[nodiscard]] bool SameCounts(const TupleCountTable& other) const;

  // The servable form: each tuple's links ranked by (bytes desc, link
  // asc), truncated to `max_links_per_tuple`, and laid out by
  // FlatTupleTable::Build. The ranking depends only on the (link, bytes)
  // pairs, so it is independent of accumulation order.
  [[nodiscard]] FlatTupleTable Rank(std::size_t max_links_per_tuple) const;

 private:
  // head == kEmpty marks a free bucket; kNil ends a link chain (a tuple
  // restored from a hostile export may hold no links at all).
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::uint32_t kNil = 0xfffffffeu;

  struct Bucket {
    TupleKey key;
    std::uint64_t total = 0;
    std::uint32_t head = kEmpty;
    std::uint32_t tail = kNil;
  };
  static_assert(sizeof(Bucket) == 32, "two buckets per cache line");
  struct LinkNode {
    std::uint32_t link = 0;
    std::uint32_t next = kNil;
    std::uint64_t bytes = 0;
  };

  // Index of `key`'s bucket, or buckets_.size() when absent.
  [[nodiscard]] std::size_t FindIndex(const TupleKey& key) const;
  // `key`'s bucket, inserted with no links and a zero total when absent.
  Bucket& FindOrInsert(const TupleKey& key);
  // Adds `bytes` to the tuple's `link`, appending the link when new.
  void AddToLink(Bucket& bucket, std::uint32_t link, std::uint64_t bytes);
  void AppendLink(Bucket& bucket, std::uint32_t link, std::uint64_t bytes);
  // Frees bucket `index`, shifting its probe chain back over the hole.
  void EraseAt(std::size_t index);
  void Rehash(std::size_t capacity);
  // Rewrites the arena chain by chain once dead nodes outnumber live ones.
  void CompactIfSparse();

  FeatureSet feature_set_ = FeatureSet::kA;
  bool weight_by_bytes_ = true;
  std::vector<Bucket> buckets_;  // power-of-two size; empty until first use
  std::vector<LinkNode> links_;
  std::size_t mask_ = 0;  // buckets_.size() - 1
  std::size_t size_ = 0;
  std::size_t live_links_ = 0;
};

// The three historical feature sets' counts over one slice of data - the
// unit the incremental retrainer merges and subtracts.
struct ShardTables {
  TupleCountTable a{FeatureSet::kA};
  TupleCountTable ap{FeatureSet::kAP};
  TupleCountTable al{FeatureSet::kAL};

  // Table by table, so each table's buckets stay hot across the batch.
  void AddRows(std::span<const pipeline::AggRow> rows) {
    a.AddRows(rows);
    ap.AddRows(rows);
    al.AddRows(rows);
  }
  void Merge(const ShardTables& other);
  [[nodiscard]] util::Status Subtract(const ShardTables& other);
  // Floor-halves all three tables by `generations` decay steps (see
  // TupleCountTable::Decay).
  void Decay(int generations);
  [[nodiscard]] bool empty() const {
    return a.empty() && ap.empty() && al.empty();
  }
  void Clear();
};

// One training day's partial counts, the ring element the retrainer
// maintains per buffered day. Ingest adds each hour's rows straight into
// the open day's shard.
struct DayShard {
  util::HourIndex day = 0;
  std::uint64_t row_count = 0;
  ShardTables tables;

  void AddRows(std::span<const pipeline::AggRow> rows) {
    tables.AddRows(rows);
    row_count += rows.size();
  }
  // Builds the shard for a whole day of rows at once (restore path and
  // tests); identical to incremental AddRows over the same rows.
  [[nodiscard]] static DayShard Build(
      util::HourIndex day, std::span<const pipeline::AggRow> rows);
};

}  // namespace tipsy::core
