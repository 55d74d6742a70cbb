#include "storage/heap_relation.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/string_util.h"

namespace ariel {

HeapRelation::HeapRelation(uint32_t id, std::string name, Schema schema)
    : id_(id),
      name_(ToLower(name)),
      schema_(std::move(schema)) {}

Status HeapRelation::CoerceToSchema(Tuple* tuple) const {
  if (tuple->size() != schema_.num_attributes()) {
    return Status::ExecutionError(
        "tuple arity " + std::to_string(tuple->size()) +
        " does not match schema of \"" + name_ + "\" " + schema_.ToString());
  }
  for (size_t i = 0; i < tuple->size(); ++i) {
    const Value& v = tuple->at(i);
    DataType want = schema_.attribute(i).type;
    if (v.is_null() || v.type() == want) continue;
    if (v.is_int() && want == DataType::kFloat) {
      tuple->at(i) = Value::Float(static_cast<double>(v.int_value()));
      continue;
    }
    return Status::ExecutionError(
        "value " + v.ToString() + " has type " + DataTypeToString(v.type()) +
        " but attribute \"" + schema_.attribute(i).name + "\" of \"" + name_ +
        "\" has type " + DataTypeToString(want));
  }
  return Status::OK();
}

Result<TupleId> HeapRelation::Insert(Tuple tuple) {
  ARIEL_RETURN_NOT_OK(CoerceToSchema(&tuple));
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(tuple);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(tuple));
  }
  ++live_count_;
  InvalidateColumnCache();
  TupleId tid{id_, slot};
  for (auto& [attr_pos, index] : indexes_) {
    index->Insert(slots_[slot]->at(attr_pos), tid);
  }
  return tid;
}

Status HeapRelation::InsertAt(TupleId tid, Tuple tuple) {
  if (tid.relation_id != id_) {
    return Status::ExecutionError("InsertAt of " + tid.ToString() +
                                  " into foreign relation \"" + name_ + "\"");
  }
  ARIEL_RETURN_NOT_OK(CoerceToSchema(&tuple));
  if (tid.slot < slots_.size()) {
    if (slots_[tid.slot].has_value()) {
      return Status::ExecutionError("InsertAt into occupied slot " +
                                    tid.ToString() + " of \"" + name_ + "\"");
    }
    if (!free_slots_.empty() && free_slots_.back() == tid.slot) {
      free_slots_.pop_back();
    } else {
      auto it = std::find(free_slots_.begin(), free_slots_.end(), tid.slot);
      if (it == free_slots_.end()) {
        return Status::Internal("empty slot " + tid.ToString() + " of \"" +
                                name_ + "\" is missing from the free list");
      }
      free_slots_.erase(it);
    }
    slots_[tid.slot] = std::move(tuple);
  } else {
    // Restoring past the end re-grows the heap; any intermediate slots the
    // growth creates become free (cannot happen during rollback, where the
    // slot existed at forward-mutation time, but keeps the call total).
    while (slots_.size() < tid.slot) {
      free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
      slots_.emplace_back();
    }
    slots_.push_back(std::move(tuple));
  }
  ++live_count_;
  InvalidateColumnCache();
  for (auto& [attr_pos, index] : indexes_) {
    index->Insert(slots_[tid.slot]->at(attr_pos), tid);
  }
  return Status::OK();
}

Status HeapRelation::Delete(TupleId tid) {
  if (tid.relation_id != id_ || tid.slot >= slots_.size() ||
      !slots_[tid.slot].has_value()) {
    return Status::ExecutionError("delete of nonexistent tuple " +
                                  tid.ToString() + " in \"" + name_ + "\"");
  }
  for (auto& [attr_pos, index] : indexes_) {
    index->Remove(slots_[tid.slot]->at(attr_pos), tid);
  }
  slots_[tid.slot].reset();
  free_slots_.push_back(tid.slot);
  --live_count_;
  InvalidateColumnCache();
  return Status::OK();
}

Status HeapRelation::Update(TupleId tid, Tuple tuple,
                            const std::vector<std::string>* updated_attrs) {
  if (tid.relation_id != id_ || tid.slot >= slots_.size() ||
      !slots_[tid.slot].has_value()) {
    return Status::ExecutionError("update of nonexistent tuple " +
                                  tid.ToString() + " in \"" + name_ + "\"");
  }
  ARIEL_RETURN_NOT_OK(CoerceToSchema(&tuple));
  if (updated_attrs == nullptr || updated_attrs->empty()) {
    for (auto& [attr_pos, index] : indexes_) {
      index->Remove(slots_[tid.slot]->at(attr_pos), tid);
    }
    slots_[tid.slot] = std::move(tuple);
    for (auto& [attr_pos, index] : indexes_) {
      index->Insert(slots_[tid.slot]->at(attr_pos), tid);
    }
    InvalidateColumnCache();
    return Status::OK();
  }
  std::vector<bool> listed(schema_.num_attributes(), false);
  for (const std::string& attr : *updated_attrs) {
    ARIEL_ASSIGN_OR_RETURN(size_t pos, schema_.Find(attr));
    listed[pos] = true;
  }
  {
    const Tuple& current = *slots_[tid.slot];
    for (size_t i = 0; i < schema_.num_attributes(); ++i) {
      if (listed[i] || current.at(i) == tuple.at(i)) continue;
      return Status::ExecutionError(
          "update of \"" + name_ + "\" changes attribute \"" +
          schema_.attribute(i).name + "\" (" + current.at(i).ToString() +
          " -> " + tuple.at(i).ToString() + ") not named in its target list");
    }
  }
  for (auto& [attr_pos, index] : indexes_) {
    if (listed[attr_pos]) {
      index->Remove(slots_[tid.slot]->at(attr_pos), tid);
    }
  }
  slots_[tid.slot] = std::move(tuple);
  for (auto& [attr_pos, index] : indexes_) {
    if (listed[attr_pos]) {
      index->Insert(slots_[tid.slot]->at(attr_pos), tid);
    }
  }
  InvalidateColumnCache();
  return Status::OK();
}

const Tuple* HeapRelation::Get(TupleId tid) const {
  if (tid.relation_id != id_ || tid.slot >= slots_.size() ||
      !slots_[tid.slot].has_value()) {
    return nullptr;
  }
  return &*slots_[tid.slot];
}

void HeapRelation::ForEach(
    const std::function<void(TupleId, const Tuple&)>& fn) const {
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].has_value()) {
      fn(TupleId{id_, slot}, *slots_[slot]);
    }
  }
}

std::vector<TupleId> HeapRelation::AllTupleIds() const {
  std::vector<TupleId> tids;
  tids.reserve(live_count_);
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].has_value()) tids.push_back(TupleId{id_, slot});
  }
  return tids;
}

Status HeapRelation::CreateIndex(std::string_view attribute) {
  ARIEL_ASSIGN_OR_RETURN(size_t pos, schema_.Find(attribute));
  if (indexes_.contains(pos)) return Status::OK();
  auto index = std::make_unique<BTreeIndex>();
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].has_value()) {
      index->Insert(slots_[slot]->at(pos), TupleId{id_, slot});
    }
  }
  indexes_.emplace(pos, std::move(index));
  return Status::OK();
}

Status HeapRelation::DropIndex(std::string_view attribute) {
  ARIEL_ASSIGN_OR_RETURN(size_t pos, schema_.Find(attribute));
  indexes_.erase(pos);
  return Status::OK();
}

const BTreeIndex* HeapRelation::GetIndex(std::string_view attribute) const {
  int pos = schema_.IndexOf(attribute);
  if (pos < 0) return nullptr;
  auto it = indexes_.find(static_cast<size_t>(pos));
  return it == indexes_.end() ? nullptr : it->second.get();
}

void HeapRelation::InvalidateColumnCache() {
  ++version_;
  std::lock_guard<std::mutex> lock(column_mu_);
  if (column_cache_ != nullptr) {
    column_cache_.reset();
    Metrics().columnar_batch_invalidations.Increment();
  }
}

std::shared_ptr<const ColumnBatch> HeapRelation::ColumnView() const {
  std::lock_guard<std::mutex> lock(column_mu_);
  if (column_cache_ != nullptr &&
      column_cache_->source_version() == version_) {
    return column_cache_;
  }
  ColumnBatchBuilder builder(schema_, live_count_);
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].has_value()) {
      builder.Append(TupleId{id_, slot}, *slots_[slot]);
    }
  }
  column_cache_ = builder.Build(version_);
  Metrics().columnar_batches_built.Increment();
  return column_cache_;
}

std::shared_ptr<const ColumnBatch> HeapRelation::column_cache_if_built()
    const {
  std::lock_guard<std::mutex> lock(column_mu_);
  if (column_cache_ != nullptr &&
      column_cache_->source_version() == version_) {
    return column_cache_;
  }
  return nullptr;
}

void HeapRelation::CorruptColumnCacheForTesting() {
  std::shared_ptr<const ColumnBatch> batch = ColumnView();
  // The cache is logically immutable to readers; the test hook reaches
  // through that on purpose to plant a heap/batch disagreement.
  const_cast<ColumnBatch*>(batch.get())->CorruptForTesting();
}

std::string HeapRelation::AuditColumnCache() const {
  std::shared_ptr<const ColumnBatch> cache = column_cache_if_built();
  if (cache == nullptr) {
    // No cache, or a stale one: legal either way (ColumnView rebuilds on
    // version mismatch); only a version-matched batch claims to mirror the
    // heap.
    return "";
  }
  const ColumnBatch& batch = *cache;
  if (batch.num_rows() != live_count_) {
    return "column cache has " + std::to_string(batch.num_rows()) +
           " row(s) but the heap holds " + std::to_string(live_count_);
  }
  for (size_t row = 0; row < batch.num_rows(); ++row) {
    const TupleId tid = batch.tids()[row];
    const Tuple* tuple = Get(tid);
    if (tuple == nullptr) {
      return "column cache row " + std::to_string(row) + " references dead " +
             tid.ToString();
    }
    for (size_t c = 0; c < schema_.num_attributes(); ++c) {
      Value cached = batch.ValueAt(c, row);
      if (cached.Compare(tuple->at(c)) != 0) {
        return "column cache cell (" + schema_.attribute(c).name + ", " +
               tid.ToString() + ") holds " + cached.ToString() +
               " but the heap holds " + tuple->at(c).ToString();
      }
    }
  }
  return "";
}

std::vector<std::string> HeapRelation::IndexedAttributes() const {
  std::vector<std::string> names;
  for (const auto& [pos, index] : indexes_) {
    names.push_back(schema_.attribute(pos).name);
  }
  return names;
}

}  // namespace ariel
