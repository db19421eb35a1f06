#include "exec/join_ops.h"

#include <algorithm>
#include <optional>

#include "obs/span.h"

namespace ppp::exec {

// ---- NestedLoopJoinOp ------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(std::unique_ptr<Operator> outer,
                                   std::unique_ptr<Operator> inner,
                                   std::optional<CachedPredicate> primary,
                                   ExecContext* ctx)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_rows_(outer_.get()),
      inner_rows_(inner_.get()),
      primary_(std::move(primary)),
      ctx_(ctx) {
  schema_ = types::RowSchema::Concat(outer_->schema(), inner_->schema());
}

common::Status NestedLoopJoinOp::OpenImpl() {
  outer_row_ = nullptr;
  return outer_rows_.Open();
}

common::Status NestedLoopJoinOp::NextBatchImpl(size_t max_rows,
                                               TupleBatch* batch,
                                               bool* eof) {
  *eof = false;
  while (batch->size() < max_rows) {
    if (outer_row_ == nullptr) {
      PPP_RETURN_IF_ERROR(outer_rows_.Advance(batch_size_, &outer_row_));
      if (outer_row_ == nullptr) {
        *eof = true;
        break;
      }
      // Rescan: the inner pipeline restarts and re-reads its pages.
      PPP_RETURN_IF_ERROR(inner_rows_.Open());
    }
    types::Tuple* inner_row = nullptr;
    PPP_RETURN_IF_ERROR(inner_rows_.Advance(batch_size_, &inner_row));
    if (inner_row == nullptr) {
      outer_row_ = nullptr;
      continue;
    }
    // The pair is concatenated only for a predicate miss or an emitted row.
    std::optional<types::Tuple> joined;
    if (primary_.has_value() &&
        !primary_->Eval(*outer_row_, *inner_row, &ctx_->eval, &joined)) {
      continue;
    }
    batch->tuples.push_back(joined.has_value()
                                ? std::move(*joined)
                                : types::Tuple::Concat(*outer_row_,
                                                       *inner_row));
  }
  return common::Status::OK();
}

std::string NestedLoopJoinOp::Describe() const {
  return primary_.has_value() ? "NestedLoopJoin" : "NestedLoopJoin(cross)";
}

void NestedLoopJoinOp::RefreshLocalStats() const {
  if (!primary_.has_value()) return;
  stats_.has_cache = true;
  stats_.cache_enabled = primary_->cache_enabled();
  stats_.cache_hits = primary_->cache_hits();
  stats_.cache_entries = primary_->cache_entries();
  stats_.cache_evictions = primary_->cache_evictions();
}

// ---- IndexNestedLoopJoinOp -------------------------------------------------

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(
    std::unique_ptr<Operator> outer, const catalog::Table* inner_table,
    const std::string& inner_alias, std::string inner_column,
    size_t outer_key_index)
    : outer_(std::move(outer)),
      outer_rows_(outer_.get()),
      inner_table_(inner_table),
      inner_column_(std::move(inner_column)),
      outer_key_index_(outer_key_index) {
  schema_ = types::RowSchema::Concat(
      outer_->schema(), inner_table->RowSchemaForAlias(inner_alias));
}

common::Status IndexNestedLoopJoinOp::OpenImpl() {
  index_ = inner_table_->GetIndex(inner_column_);
  if (index_ == nullptr) {
    return common::Status::NotFound("no index on " + inner_table_->name() +
                                    "." + inner_column_);
  }
  outer_row_ = nullptr;
  matches_.clear();
  match_pos_ = 0;
  return outer_rows_.Open();
}

common::Status IndexNestedLoopJoinOp::NextBatchImpl(size_t max_rows,
                                                    TupleBatch* batch,
                                                    bool* eof) {
  *eof = false;
  while (batch->size() < max_rows) {
    if (match_pos_ < matches_.size()) {
      PPP_ASSIGN_OR_RETURN(types::Tuple inner_tuple,
                           inner_table_->Read(matches_[match_pos_]));
      ++match_pos_;
      batch->tuples.push_back(types::Tuple::Concat(*outer_row_, inner_tuple));
      continue;
    }
    PPP_RETURN_IF_ERROR(outer_rows_.Advance(batch_size_, &outer_row_));
    if (outer_row_ == nullptr) {
      *eof = true;
      break;
    }
    const types::Value& key = outer_row_->Get(outer_key_index_);
    matches_.clear();
    match_pos_ = 0;
    if (!key.is_null() && key.type() == types::TypeId::kInt64) {
      matches_ = index_->Lookup(key.AsInt64());
    }
  }
  return common::Status::OK();
}

std::string IndexNestedLoopJoinOp::Describe() const {
  return "IndexNestedLoopJoin(" + inner_table_->name() + "." +
         inner_column_ + ")";
}

// ---- MergeJoinOp -----------------------------------------------------------

MergeJoinOp::MergeJoinOp(std::unique_ptr<Operator> outer,
                         std::unique_ptr<Operator> inner,
                         size_t outer_key_index, size_t inner_key_index)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_key_(outer_key_index),
      inner_key_(inner_key_index) {
  schema_ = types::RowSchema::Concat(outer_->schema(), inner_->schema());
}

common::Status MergeJoinOp::OpenImpl() {
  outer_rows_.clear();
  inner_rows_.clear();
  PPP_RETURN_IF_ERROR(Drain(outer_.get(), batch_size_, &outer_rows_));
  PPP_RETURN_IF_ERROR(Drain(inner_.get(), batch_size_, &inner_rows_));
  // NULL keys never join.
  auto null_key = [](size_t key) {
    return [key](const types::Tuple& t) { return t.Get(key).is_null(); };
  };
  outer_rows_.erase(std::remove_if(outer_rows_.begin(), outer_rows_.end(),
                                   null_key(outer_key_)),
                    outer_rows_.end());
  inner_rows_.erase(std::remove_if(inner_rows_.begin(), inner_rows_.end(),
                                   null_key(inner_key_)),
                    inner_rows_.end());
  auto by_key = [](size_t key) {
    return [key](const types::Tuple& a, const types::Tuple& b) {
      return a.Get(key).Compare(b.Get(key)) < 0;
    };
  };
  std::stable_sort(outer_rows_.begin(), outer_rows_.end(),
                   by_key(outer_key_));
  std::stable_sort(inner_rows_.begin(), inner_rows_.end(),
                   by_key(inner_key_));
  oi_ = 0;
  inner_base_ = 0;
  inner_end_ = 0;
  group_pos_ = 0;
  group_active_ = false;
  return common::Status::OK();
}

common::Status MergeJoinOp::NextBatchImpl(size_t max_rows,
                                          TupleBatch* batch, bool* eof) {
  *eof = false;
  while (batch->size() < max_rows) {
    if (group_active_) {
      if (group_pos_ < inner_end_) {
        batch->tuples.push_back(types::Tuple::Concat(
            outer_rows_[oi_], inner_rows_[group_pos_]));
        ++group_pos_;
        continue;
      }
      // Outer row exhausted its group; the next outer row may share the
      // key and reuse the same group.
      const types::Value key = outer_rows_[oi_].Get(outer_key_);
      ++oi_;
      group_active_ = false;
      if (oi_ < outer_rows_.size() &&
          outer_rows_[oi_].Get(outer_key_).Compare(key) == 0) {
        group_pos_ = inner_base_;
        group_active_ = true;
        continue;
      }
      inner_base_ = inner_end_;
      continue;
    }
    if (oi_ >= outer_rows_.size() || inner_base_ >= inner_rows_.size()) {
      *eof = true;
      break;
    }
    const int cmp = outer_rows_[oi_].Get(outer_key_).Compare(
        inner_rows_[inner_base_].Get(inner_key_));
    if (cmp < 0) {
      ++oi_;
    } else if (cmp > 0) {
      ++inner_base_;
    } else {
      // Delimit the inner group of this key.
      const types::Value key = inner_rows_[inner_base_].Get(inner_key_);
      inner_end_ = inner_base_ + 1;
      while (inner_end_ < inner_rows_.size() &&
             inner_rows_[inner_end_].Get(inner_key_).Compare(key) == 0) {
        ++inner_end_;
      }
      group_pos_ = inner_base_;
      group_active_ = true;
    }
  }
  return common::Status::OK();
}

std::string MergeJoinOp::Describe() const { return "MergeJoin"; }

// ---- HashJoinOp ------------------------------------------------------------

HashJoinOp::HashJoinOp(std::unique_ptr<Operator> outer,
                       std::unique_ptr<Operator> inner,
                       size_t outer_key_index, size_t inner_key_index,
                       std::shared_ptr<BloomTransfer> transfer)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_key_(outer_key_index),
      inner_key_(inner_key_index),
      transfer_(std::move(transfer)),
      outer_rows_(outer_.get()) {
  schema_ = types::RowSchema::Concat(outer_->schema(), inner_->schema());
}

common::Status HashJoinOp::OpenImpl() {
  table_.clear();
  // Per-batch build loop: each key is hashed exactly once; the hash lands
  // in the table entry and (below) in the transferred Bloom filter.
  PPP_RETURN_IF_ERROR(inner_->Open());
  TupleBatch batch;
  bool eof = false;
  while (!eof) {
    batch.clear();
    PPP_RETURN_IF_ERROR(inner_->NextBatch(batch_size_, &batch, &eof));
    for (types::Tuple& row : batch.tuples) {
      const types::Value& key = row.Get(inner_key_);
      if (key.is_null()) continue;
      const uint64_t hash = static_cast<uint64_t>(key.Hash());
      table_[HashedKey{key, hash}].push_back(std::move(row));
    }
  }
  if (transfer_ != nullptr && !transfer_->published()) {
    // Build the sideways filter over the distinct build keys (their hashes
    // were computed above) and publish it before the probe side opens, so
    // the consuming scan prunes from its very first batch.
    std::optional<obs::Span> span;
    if (obs::SpanTracer::Global().enabled()) {
      span.emplace("exec", "bloom.build");
      span->AddArg("site", transfer_->Site());
    }
    auto filter = std::make_unique<BloomFilter>(table_.size());
    for (const auto& [key, rows] : table_) filter->InsertHash(key.hash);
    if (span.has_value()) {
      span->AddArg("keys", std::to_string(table_.size()));
      span->AddArg("bits_set", std::to_string(filter->BitsSet()));
    }
    transfer_->Publish(std::move(filter));
  }
  outer_row_ = nullptr;
  current_matches_ = nullptr;
  match_pos_ = 0;
  return outer_rows_.Open();
}

common::Status HashJoinOp::NextBatchImpl(size_t max_rows,
                                         TupleBatch* batch, bool* eof) {
  *eof = false;
  while (batch->size() < max_rows) {
    if (current_matches_ != nullptr &&
        match_pos_ < current_matches_->size()) {
      const types::Tuple& inner = (*current_matches_)[match_pos_];
      ++match_pos_;
      if (match_pos_ == current_matches_->size()) {
        // Last (typically only) match for this outer row: steal the outer
        // tuple instead of copying every value. The cursor advances before
        // the row is read again.
        batch->tuples.push_back(
            types::Tuple::Concat(std::move(*outer_row_), inner));
        current_matches_ = nullptr;
      } else {
        batch->tuples.push_back(types::Tuple::Concat(*outer_row_, inner));
      }
      continue;
    }
    PPP_RETURN_IF_ERROR(outer_rows_.Advance(batch_size_, &outer_row_));
    if (outer_row_ == nullptr) {
      *eof = true;
      break;
    }
    match_pos_ = 0;
    current_matches_ = nullptr;
    const types::Value& key = outer_row_->Get(outer_key_);
    if (key.is_null()) continue;
    auto it = table_.find(
        HashedKey{key, static_cast<uint64_t>(key.Hash())});
    if (it != table_.end()) {
      current_matches_ = &it->second;
    } else if (transfer_ != nullptr &&
               transfer_->ActiveFilter() != nullptr) {
      // This row survived the transferred filter but has no join partner:
      // a measured false positive.
      transfer_->RecordJoinMiss();
    }
  }
  return common::Status::OK();
}

std::string HashJoinOp::Describe() const {
  return transfer_ != nullptr ? "HashJoin(bloom)" : "HashJoin";
}

}  // namespace ppp::exec
