#ifndef ARIEL_STORAGE_HEAP_RELATION_H_
#define ARIEL_STORAGE_HEAP_RELATION_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "storage/btree_index.h"
#include "storage/column_batch.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace ariel {

/// An in-memory heap of tuples with stable slot-based tuple identifiers.
///
/// This is the engine's substitute for Ariel's EXODUS-backed storage: slots
/// survive unrelated inserts/deletes, so a TupleId captured in a P-node stays
/// valid until that specific tuple is deleted — exactly the property the
/// paper's replace'/delete' commands rely on (§5.1). Freed slots are recycled
/// via a free list.
///
/// Secondary B+tree indexes may be attached per attribute; all mutators keep
/// them synchronized.
class HeapRelation {
 public:
  HeapRelation(uint32_t id, std::string name, Schema schema);

  HeapRelation(const HeapRelation&) = delete;
  HeapRelation& operator=(const HeapRelation&) = delete;

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Number of live tuples.
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Inserts a tuple (must match the schema arity; type agreement is checked
  /// by the executor) and returns its id.
  [[nodiscard]] Result<TupleId> Insert(Tuple tuple);

  /// Re-inserts a tuple under a specific id (transaction rollback restoring
  /// a deleted tuple with its original TupleId, which P-nodes and primed
  /// commands captured). The slot must currently be free; undo replays in
  /// reverse mutation order, so the slot is normally on top of the LIFO
  /// free list and even the free-list order is restored exactly.
  [[nodiscard]] Status InsertAt(TupleId tid, Tuple tuple);

  /// Deletes the tuple at `tid`. Fails if the slot is empty.
  [[nodiscard]] Status Delete(TupleId tid);

  /// Replaces the tuple at `tid`. When `updated_attrs` is non-null and
  /// non-empty it is the replace command's target list: every attribute
  /// *not* listed must be unchanged (ExecutionError otherwise — the rule
  /// and non-rule mutation paths must agree on what a replace touched),
  /// and only indexes over listed attributes are re-keyed. A null or empty
  /// list means "unspecified": wholesale replace, every index re-keyed.
  [[nodiscard]] Status Update(TupleId tid, Tuple tuple,
                              const std::vector<std::string>* updated_attrs =
                                  nullptr);

  /// Returns the tuple at `tid`, or nullptr if the slot is empty/invalid.
  const Tuple* Get(TupleId tid) const;

  /// Invokes `fn` for every live tuple. `fn` must not mutate the relation.
  void ForEach(const std::function<void(TupleId, const Tuple&)>& fn) const;

  /// Materializes all live tuple ids (used by operators that mutate while
  /// scanning).
  std::vector<TupleId> AllTupleIds() const;

  /// Creates a B+tree index on `attribute`; idempotent.
  [[nodiscard]] Status CreateIndex(std::string_view attribute);

  /// Drops the B+tree index on `attribute` (undo of CreateIndex);
  /// idempotent.
  [[nodiscard]] Status DropIndex(std::string_view attribute);

  /// Returns the index on `attribute`, or nullptr.
  const BTreeIndex* GetIndex(std::string_view attribute) const;

  /// Names of indexed attributes (for introspection).
  std::vector<std::string> IndexedAttributes() const;

  /// Checks that the tuple has the right arity and value types coercible to
  /// the schema (coercing in place: int literals into float columns).
  [[nodiscard]] Status CoerceToSchema(Tuple* tuple) const;

  /// Monotonic mutation counter: every Insert/InsertAt/Delete/Update bumps
  /// it (index creation does not — it never changes tuple contents).
  /// Columnar readers compare it against ColumnBatch::source_version to
  /// detect mid-scan mutation and fall back to the row path.
  uint64_t version() const { return version_; }

  /// Column-major view of the live tuples, built lazily and cached until
  /// the next mutation. Thread-safe: the cache slot is mutex-guarded, so
  /// concurrent readers may materialize and share one batch.
  std::shared_ptr<const ColumnBatch> ColumnView() const;

  /// The cached view if one is currently materialized and fresh, else null.
  /// Never builds — the NetworkAuditor coherence check uses this so the
  /// audit can't vacuously validate a batch it just created itself.
  std::shared_ptr<const ColumnBatch> column_cache_if_built() const;

  /// Test-only: materializes the column view and flips one validity bit in
  /// it, planting exactly the incoherence the auditor must detect.
  void CorruptColumnCacheForTesting();

  /// Coherence check for the cached column view: empty when no cache is
  /// materialized or it agrees with the heap cell-for-cell, else a
  /// description of the first disagreement (NetworkAuditor wraps it as
  /// kColumnCacheIncoherent).
  std::string AuditColumnCache() const;

 private:
  void InvalidateColumnCache();

  uint32_t id_;
  std::string name_;
  Schema schema_;
  std::vector<std::optional<Tuple>> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_count_ = 0;
  // attribute position -> index
  std::unordered_map<size_t, std::unique_ptr<BTreeIndex>> indexes_;
  uint64_t version_ = 0;
  // Lazily-built column view of the live tuples; reset by every mutation.
  // Guarded by column_mu_ so concurrent readers can share it.
  mutable std::mutex column_mu_;
  mutable std::shared_ptr<const ColumnBatch> column_cache_;
};

}  // namespace ariel

#endif  // ARIEL_STORAGE_HEAP_RELATION_H_
