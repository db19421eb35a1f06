#include "exec/join_ops.h"

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
      inner_rows_(inner_.get(), ctx->params.vectorized),
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
    const types::ColumnBatch* inner = nullptr;
    uint32_t row = 0;
    PPP_RETURN_IF_ERROR(inner_rows_.Advance(batch_size_, &inner, &row));
    if (inner == nullptr) {
      outer_row_ = nullptr;
      continue;
    }
    // The pair is built only for a predicate miss or an emitted row.
    std::optional<types::Tuple> joined;
    if (primary_.has_value() &&
        !primary_->Eval(*outer_row_, *inner, row, &ctx_->eval, &joined)) {
      continue;
    }
    batch->tuples.push_back(joined.has_value()
                                ? std::move(*joined)
                                : inner->JoinRow(*outer_row_, row));
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
                         size_t outer_key_index, size_t inner_key_index,
                         bool vectorized)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_key_(outer_key_index),
      inner_key_(inner_key_index),
      vectorized_(vectorized) {
  schema_ = types::RowSchema::Concat(outer_->schema(), inner_->schema());
}

common::Status MergeJoinOp::OpenImpl() {
  PPP_RETURN_IF_ERROR(
      outer_input_.Fill(outer_.get(), batch_size_, vectorized_));
  PPP_RETURN_IF_ERROR(
      inner_input_.Fill(inner_.get(), batch_size_, vectorized_));
  // NULL keys never join.
  outer_rows_.Build(outer_input_, outer_key_, /*drop_nulls=*/true);
  inner_rows_.Build(inner_input_, inner_key_, /*drop_nulls=*/true);
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
            outer_input_.RowAsTuple(outer_rows_.row(oi_)),
            inner_input_.RowAsTuple(inner_rows_.row(group_pos_))));
        ++group_pos_;
        continue;
      }
      // Outer row exhausted its group; the next outer row may share the
      // key and reuse the same group.
      ++oi_;
      group_active_ = false;
      if (oi_ < outer_rows_.size() &&
          outer_rows_.Compare(oi_, outer_rows_, oi_ - 1) == 0) {
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
    const int cmp = outer_rows_.Compare(oi_, inner_rows_, inner_base_);
    if (cmp < 0) {
      ++oi_;
    } else if (cmp > 0) {
      ++inner_base_;
    } else {
      // Delimit the inner group of this key.
      inner_end_ = inner_base_ + 1;
      while (inner_end_ < inner_rows_.size() &&
             inner_rows_.Compare(inner_end_, inner_rows_, inner_base_) ==
                 0) {
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
                       bool vectorized,
                       std::shared_ptr<BloomTransfer> transfer)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_key_(outer_key_index),
      inner_key_(inner_key_index),
      vectorized_(vectorized),
      transfer_(std::move(transfer)),
      outer_rows_(outer_.get()) {
  schema_ = types::RowSchema::Concat(outer_->schema(), inner_->schema());
}

size_t HashJoinOp::HomeSlot(uint64_t hash) const {
  // Fibonacci mix: std::hash of an int64 that is not exact as a double is
  // the identity.
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> slot_shift_);
}

void HashJoinOp::BuildTable() {
  const std::vector<ColumnBuffer::Pos>& rows = build_.rows();
  size_t num_slots = 2;
  int bits = 1;
  while (num_slots < 2 * rows.size()) {
    num_slots <<= 1;
    ++bits;
  }
  slots_.assign(num_slots, 0);
  slot_shift_ = 64 - bits;
  groups_.clear();
  next_.assign(rows.size(), kEnd);
  const size_t mask = num_slots - 1;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const ColumnBuffer::Pos pos = rows[i];
    if (build_.IsNull(pos, inner_key_)) continue;
    const uint64_t hash = build_.HashCell(pos, inner_key_);
    for (size_t slot = HomeSlot(hash);; slot = (slot + 1) & mask) {
      uint32_t& entry = slots_[slot];
      if (entry == 0) {
        groups_.push_back({hash, i, i});
        entry = static_cast<uint32_t>(groups_.size());
        break;
      }
      KeyGroup& group = groups_[entry - 1];
      if (group.hash == hash &&
          build_.CellEquals(rows[group.first], inner_key_,
                            build_.GetValue(pos, inner_key_))) {
        next_[group.last] = i;
        group.last = i;
        break;
      }
    }
  }
}

uint32_t HashJoinOp::Find(const types::Value& key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = HomeSlot(hash);; slot = (slot + 1) & mask) {
    const uint32_t entry = slots_[slot];
    if (entry == 0) return kEnd;
    const KeyGroup& group = groups_[entry - 1];
    if (group.hash == hash &&
        build_.CellEquals(build_.rows()[group.first], inner_key_, key)) {
      return group.first;
    }
  }
}

common::Status HashJoinOp::OpenImpl() {
  PPP_RETURN_IF_ERROR(build_.Fill(inner_.get(), batch_size_, vectorized_));
  BuildTable();
  if (transfer_ != nullptr && !transfer_->published()) {
    // Build the sideways filter over the distinct build keys (their hashes
    // were computed above) and publish it before the probe side opens, so
    // the consuming scan prunes from its very first batch.
    std::optional<obs::Span> span;
    if (obs::SpanTracer::Global().enabled()) {
      span.emplace("exec", "bloom.build");
      span->AddArg("site", transfer_->Site());
    }
    auto filter = std::make_unique<BloomFilter>(groups_.size());
    for (const KeyGroup& group : groups_) filter->InsertHash(group.hash);
    if (span.has_value()) {
      span->AddArg("keys", std::to_string(groups_.size()));
      span->AddArg("bits_set", std::to_string(filter->BitsSet()));
    }
    transfer_->Publish(std::move(filter));
  }
  outer_row_ = nullptr;
  match_ = kEnd;
  return outer_rows_.Open();
}

common::Status HashJoinOp::NextBatchImpl(size_t max_rows,
                                         TupleBatch* batch, bool* eof) {
  *eof = false;
  while (batch->size() < max_rows) {
    if (match_ != kEnd) {
      const types::Tuple inner = build_.RowAsTuple(build_.rows()[match_]);
      match_ = next_[match_];
      if (match_ == kEnd) {
        // Last (typically only) match for this outer row: steal the outer
        // tuple instead of copying every value. The cursor advances before
        // the row is read again.
        batch->tuples.push_back(
            types::Tuple::Concat(std::move(*outer_row_), inner));
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
    const types::Value& key = outer_row_->Get(outer_key_);
    if (key.is_null()) continue;
    match_ = Find(key, static_cast<uint64_t>(key.Hash()));
    if (match_ == kEnd && transfer_ != nullptr &&
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
