#ifndef PPP_EXEC_JOIN_OPS_H_
#define PPP_EXEC_JOIN_OPS_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "catalog/table.h"
#include "exec/operator.h"
#include "storage/record_id.h"

namespace ppp::exec {

/// Pipelined nested-loop join: the inner subtree is re-Open()ed for every
/// outer tuple, re-reading its pages through the buffer pool — the
/// behaviour the paper's `j{R}|S|` cost term describes. The primary
/// predicate (possibly expensive, possibly absent for a cross product) is
/// evaluated on each candidate pair through a CachedPredicate, in
/// outer-major, inner-minor order at any batch size.
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
  RowCursor inner_rows_;
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

/// Sort-merge join on a simple equi-join key. Inputs are drained and
/// sorted in memory on Open (the sort's I/O is modeled, not simulated —
/// see DESIGN.md); rows with NULL keys never match and are dropped.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(std::unique_ptr<Operator> outer,
              std::unique_ptr<Operator> inner, size_t outer_key_index,
              size_t inner_key_index);

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
  std::vector<types::Tuple> outer_rows_;
  std::vector<types::Tuple> inner_rows_;
  size_t oi_ = 0;
  size_t inner_base_ = 0;   // First inner row of the current key group.
  size_t inner_end_ = 0;    // One past the group.
  size_t group_pos_ = 0;    // Cursor within the group.
  bool group_active_ = false;
};

/// In-memory hash join: builds on the inner input, streams the outer.
///
/// The build path hashes each join key exactly once per tuple: the hash is
/// stored alongside the key in the table (HashedKey) and, when a
/// BloomTransfer is attached, the same hash feeds the transferred Bloom
/// filter — never a second Value::Hash() call. The probe side reuses the
/// one hash per outer tuple the same way, and feeds join misses back to
/// the transfer as measured false positives.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(std::unique_ptr<Operator> outer,
             std::unique_ptr<Operator> inner, size_t outer_key_index,
             size_t inner_key_index,
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
  /// Join key plus its precomputed hash, so the unordered_map never
  /// re-hashes the Value.
  struct HashedKey {
    types::Value value;
    uint64_t hash;
    bool operator==(const HashedKey& other) const {
      return value == other.value;
    }
  };
  struct HashedKeyHasher {
    size_t operator()(const HashedKey& key) const {
      return static_cast<size_t>(key.hash);
    }
  };

  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  size_t outer_key_;
  size_t inner_key_;
  std::unordered_map<HashedKey, std::vector<types::Tuple>, HashedKeyHasher>
      table_;
  std::shared_ptr<BloomTransfer> transfer_;
  RowCursor outer_rows_;
  types::Tuple* outer_row_ = nullptr;
  const std::vector<types::Tuple>* current_matches_ = nullptr;
  size_t match_pos_ = 0;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_JOIN_OPS_H_
