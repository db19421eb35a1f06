#ifndef PPP_EXEC_JOIN_OPS_H_
#define PPP_EXEC_JOIN_OPS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/table.h"
#include "exec/column_buffer.h"
#include "exec/operator.h"
#include "storage/record_id.h"

namespace ppp::exec {

/// Pipelined nested-loop join: the inner subtree is re-Open()ed for every
/// outer tuple, re-reading its pages through the buffer pool — the
/// behaviour the paper's `j{R}|S|` cost term describes. The primary
/// predicate (possibly expensive, possibly absent for a cross product) is
/// evaluated on each candidate pair through a CachedPredicate, in
/// outer-major, inner-minor order at any batch size.
///
/// The outer streams rows; the inner streams column batches (ColumnCursor:
/// NextColumnBatch under ExecParams::vectorized, row batches transposed
/// otherwise, with the same pins either way). A candidate pair's cache key
/// is written from the outer row and the inner batch's columns, so the
/// pair is built only for a predicate miss or an emitted row.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(std::unique_ptr<Operator> outer,
                   std::unique_ptr<Operator> inner,
                   std::optional<CachedPredicate> primary, ExecContext* ctx);

  std::string Describe() const override;
  std::vector<Operator*> Children() override {
    return {outer_.get(), inner_.get()};
  }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;
  void RefreshLocalStats() const override;

 private:
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  RowCursor outer_rows_;
  ColumnCursor inner_rows_;
  std::optional<CachedPredicate> primary_;
  ExecContext* ctx_;
  types::Tuple* outer_row_ = nullptr;  // Current outer row, in outer_rows_.
};

/// Index nested-loop join: for each outer tuple, probes the inner table's
/// B-tree on the join column and fetches the matching tuples.
class IndexNestedLoopJoinOp : public Operator {
 public:
  IndexNestedLoopJoinOp(std::unique_ptr<Operator> outer,
                        const catalog::Table* inner_table,
                        const std::string& inner_alias,
                        std::string inner_column, size_t outer_key_index);

  std::string Describe() const override;
  /// The probed inner table is not an operator, so the outer input is the
  /// only child.
  std::vector<Operator*> Children() override { return {outer_.get()}; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;

 private:
  std::unique_ptr<Operator> outer_;
  RowCursor outer_rows_;
  const catalog::Table* inner_table_;
  std::string inner_column_;
  size_t outer_key_index_;
  const storage::BTree* index_ = nullptr;  // Resolved on Open.
  types::Tuple* outer_row_ = nullptr;
  std::vector<storage::RecordId> matches_;
  size_t match_pos_ = 0;
};

/// Sort-merge join on a simple equi-join key. Inputs are drained on Open
/// into column batches and only their row positions are sorted, in memory
/// (the sort's I/O is modeled, not simulated — see DESIGN.md); rows with
/// NULL keys never match and are dropped. A joined row is built only when
/// it is emitted.
class MergeJoinOp : public Operator {
 public:
  /// `vectorized` (ExecParams::vectorized) picks how the inputs are
  /// drained: column batches, or row batches transposed (ColumnBuffer).
  MergeJoinOp(std::unique_ptr<Operator> outer,
              std::unique_ptr<Operator> inner, size_t outer_key_index,
              size_t inner_key_index, bool vectorized);

  std::string Describe() const override;
  std::vector<Operator*> Children() override {
    return {outer_.get(), inner_.get()};
  }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;

 private:
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  size_t outer_key_;
  size_t inner_key_;
  bool vectorized_;
  ColumnBuffer outer_input_;
  ColumnBuffer inner_input_;
  SortedRun outer_rows_;
  SortedRun inner_rows_;
  size_t oi_ = 0;
  size_t inner_base_ = 0;   // First inner row of the current key group.
  size_t inner_end_ = 0;    // One past the group.
  size_t group_pos_ = 0;    // Cursor within the group.
  bool group_active_ = false;
};

/// In-memory hash join: builds on the inner input, streams the outer.
///
/// The build side is drained into column batches (ColumnBuffer) and its
/// row positions are bucketed by key: an open-addressing table of the
/// distinct keys, each heading a chain of its rows in insertion order. Each
/// build key is hashed exactly once, from column storage (HashCell, equal
/// to Value::Hash); the hash lands in the key's group and, when a
/// BloomTransfer is attached, in the transferred Bloom filter. The probe
/// side hashes one Value per outer tuple, builds a build row only for a
/// match it emits, and feeds join misses back to the transfer as measured
/// false positives.
class HashJoinOp : public Operator {
 public:
  /// `vectorized` (ExecParams::vectorized) picks how the build side is
  /// drained: column batches, or row batches transposed (ColumnBuffer).
  HashJoinOp(std::unique_ptr<Operator> outer,
             std::unique_ptr<Operator> inner, size_t outer_key_index,
             size_t inner_key_index, bool vectorized,
             std::shared_ptr<BloomTransfer> transfer = nullptr);

  std::string Describe() const override;
  std::vector<Operator*> Children() override {
    return {outer_.get(), inner_.get()};
  }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;

 private:
  /// One distinct build key: its hash and the first and last build rows
  /// (indexes into build_.rows()) of its chain.
  struct KeyGroup {
    uint64_t hash;
    uint32_t first;
    uint32_t last;
  };
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// Slot of `hash`'s probe sequence start.
  size_t HomeSlot(uint64_t hash) const;
  /// Buckets build_'s rows into groups_/slots_/next_.
  void BuildTable();
  /// First build row (index into build_.rows()) whose key equals the
  /// non-NULL `key`, or kEnd.
  uint32_t Find(const types::Value& key, uint64_t hash) const;

  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  size_t outer_key_;
  size_t inner_key_;
  bool vectorized_;
  ColumnBuffer build_;
  std::vector<KeyGroup> groups_;
  /// Open addressing over groups_: group index + 1, 0 = empty. Sized to a
  /// power of two at least twice the build rows.
  std::vector<uint32_t> slots_;
  int slot_shift_ = 64;
  /// Per build row: the next build row with the same key, or kEnd.
  std::vector<uint32_t> next_;
  std::shared_ptr<BloomTransfer> transfer_;
  RowCursor outer_rows_;
  types::Tuple* outer_row_ = nullptr;
  uint32_t match_ = kEnd;  // Next build row to emit for outer_row_.
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_JOIN_OPS_H_
