// idxsel::kernel — flat cost-evaluation substrate.
//
// The paper's scalability argument (Sections I-A, III-A) is that each H6
// construction step touches few queries; this module makes each *touch*
// cheap. Three ingredients, shared by the selector, the heuristics, and
// the MIP problem builder through WhatIfEngine's dense fast path:
//
//   * IndexArena — interns ordered attribute tuples into dense IndexIds.
//     Tuples live in one contiguous pool (small-buffer: tuples of up to
//     kInlineAttrs attributes are stored inline in their arena entry), and
//     every entry precomputes a 64-bit attribute mask, so the hot-path
//     Index operations (equality, containment, full-cover tests,
//     tie-break comparisons) become integer ops on flat memory instead of
//     std::vector traffic and FNV hashing.
//   * QueryMasks — per-query 64-bit attribute masks built once per
//     workload. Combined with the workload's attribute→query posting
//     lists (Workload::queries_with), a candidate move only visits the
//     queries whose mask intersects the affected attribute set.
//   * Dense per-id tables (DenseValueTable, DenseCostTable) holding the
//     engine's cached sizes, maintenance penalties, and per-(index,
//     posting slot) costs.
//
// Masks are *exact* when the workload has at most 64 attributes (bit i
// set iff attribute i present) and *conservative* otherwise (bit i%64):
// a clear bit proves absence, a set bit must be confirmed against the
// attribute list. All mask-based filters in the pipeline only ever use
// masks in this one-sided way, which is why the kernel changes layout,
// never answers — see doc/cost_model.md ("The evaluation kernel").
//
// Thread-safety: interning takes a mutex; reads of interned entries are
// lock-free and valid for any id obtained by this thread or published to
// it with external synchronization (the exec::ThreadPool barriers of the
// parallel selector provide exactly that). Entry storage is chunked with
// stable addresses, so growth never invalidates concurrent readers.

#ifndef IDXSEL_KERNEL_KERNEL_H_
#define IDXSEL_KERNEL_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "workload/workload.h"

namespace idxsel::kernel {

using workload::AttributeId;
using workload::QueryId;

/// Dense id of an interned attribute tuple; valid within one IndexArena.
using IndexId = uint32_t;
inline constexpr IndexId kInvalidIndexId = ~IndexId{0};

// -- Attribute masks --------------------------------------------------------

/// Bit of attribute `a` in a 64-bit mask (exact for a < 64, folded mod 64
/// otherwise).
inline uint64_t AttrBit(AttributeId a) { return uint64_t{1} << (a & 63u); }

/// Mask of an attribute span.
inline uint64_t MaskOf(const AttributeId* attrs, size_t n) {
  uint64_t mask = 0;
  for (size_t u = 0; u < n; ++u) mask |= AttrBit(attrs[u]);
  return mask;
}

/// Per-query attribute masks of one workload, built once. `exact()` is
/// true when the workload has at most 64 attributes; then a mask *is* the
/// attribute set. Otherwise masks are conservative filters: subset /
/// membership tests that fail on the mask are definitive, successes must
/// be confirmed against the sorted attribute list.
///
/// Construction is allocation-lean by contract: masks are computed from
/// the workload's attribute spans in place (one reservation for the
/// per-query table, two for the posting-order mirror below — never a
/// per-query temporary), which bench_kernel asserts by counting global
/// allocations across two workload sizes.
class QueryMasks {
 public:
  explicit QueryMasks(const workload::Workload& w)
      : exact_(w.num_attributes() <= 64) {
    masks_.reserve(w.num_queries());
    for (QueryId j = 0; j < w.num_queries(); ++j) {
      const auto& attrs = w.query(j).attributes;
      masks_.push_back(MaskOf(attrs.data(), attrs.size()));
    }
    // Posting-order mirror: for every attribute, the masks of its posting
    // list (Workload::queries_with) packed contiguously, CSR-style. The
    // selector's affected-query filters walk posting lists, so this is
    // the layout the 4-wide simd::FilterMasks streams — one load per
    // block instead of a per-query indirection through masks_.
    posting_offsets_.reserve(w.num_attributes() + 1);
    size_t total = 0;
    for (AttributeId a = 0; a < w.num_attributes(); ++a) {
      posting_offsets_.push_back(total);
      total += w.queries_with(a).size();
    }
    posting_offsets_.push_back(total);
    posting_masks_.reserve(total);
    for (AttributeId a = 0; a < w.num_attributes(); ++a) {
      for (const QueryId j : w.queries_with(a)) {
        posting_masks_.push_back(masks_[j]);
      }
    }
  }

  uint64_t mask(QueryId j) const { return masks_[j]; }
  bool exact() const { return exact_; }

  /// Definitive "attribute not in query" test; a false return means
  /// *maybe present* unless exact().
  bool DefinitelyAbsent(QueryId j, AttributeId a) const {
    return (masks_[j] & AttrBit(a)) == 0;
  }

  /// Masks of attribute `a`'s posting list in posting order — element s
  /// is mask(queries_with(a)[s]). Contiguous: feed to simd::FilterMasks.
  const uint64_t* posting_masks(AttributeId a) const {
    return posting_masks_.data() + posting_offsets_[a];
  }

  /// Length of the posting_masks(a) span (== queries_with(a).size()).
  size_t posting_size(AttributeId a) const {
    return posting_offsets_[a + 1] - posting_offsets_[a];
  }

 private:
  std::vector<uint64_t> masks_;
  std::vector<uint64_t> posting_masks_;  ///< CSR payload, posting order
  std::vector<size_t> posting_offsets_;  ///< CSR offsets, num_attributes+1
  bool exact_;
};

// -- Index arena ------------------------------------------------------------

/// Interns ordered attribute tuples; assigns dense, never-reused ids.
///
/// Storage is chunked (kBlockSize entries per block, published through
/// atomic block pointers) so entry addresses are stable for the arena's
/// lifetime and concurrent readers never race with growth. Tuples of up
/// to kInlineAttrs attributes are stored inline in the entry; wider ones
/// live in the arena's contiguous overflow pool (also chunked, also
/// address-stable).
class IndexArena {
 public:
  static constexpr uint32_t kInlineAttrs = 4;

  IndexArena() = default;
  ~IndexArena();
  IndexArena(const IndexArena&) = delete;
  IndexArena& operator=(const IndexArena&) = delete;

  /// Interns the ordered tuple `attrs[0..width)`; returns its dense id.
  /// The same tuple always maps to the same id. Thread-safe.
  IndexId Intern(const AttributeId* attrs, uint32_t width);

  /// Interns `base`'s tuple extended by `extra` (the H6 morphing step
  /// k ⊕ a) without materializing an intermediate tuple. Thread-safe.
  IndexId InternAppend(IndexId base, AttributeId extra);

  /// Number of interned tuples (monotone; a momentary snapshot).
  size_t size() const { return count_.load(std::memory_order_acquire); }

  // -- O(1) per-id metadata (id must have been obtained happens-before) --

  const AttributeId* attrs(IndexId id) const { return entry(id).attrs; }
  uint32_t width(IndexId id) const { return entry(id).width; }
  AttributeId leading(IndexId id) const { return entry(id).attrs[0]; }
  /// Precomputed 64-bit attribute mask of the tuple.
  uint64_t mask(IndexId id) const { return entry(id).mask; }

  /// Whether the tuple contains `a` at any position: O(1) mask rejection,
  /// O(width) confirmation only on (rare) mask hits with folded bits.
  bool Contains(IndexId id, AttributeId a) const {
    const Entry& e = entry(id);
    if ((e.mask & AttrBit(a)) == 0) return false;
    for (uint32_t u = 0; u < e.width; ++u) {
      if (e.attrs[u] == a) return true;
    }
    return false;
  }

  /// Lexicographic tuple order — the arena equivalent of
  /// costmodel::Index::operator< (deterministic tie-breaks).
  bool Less(IndexId a, IndexId b) const;

 private:
  struct Entry {
    const AttributeId* attrs = nullptr;  ///< inline_attrs or overflow pool
    uint64_t mask = 0;
    uint32_t width = 0;
    AttributeId inline_attrs[kInlineAttrs] = {};
  };

  static constexpr size_t kBlockShift = 10;
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;  // 1024
  static constexpr size_t kBlockMask = kBlockSize - 1;
  static constexpr size_t kMaxBlocks = 1 << 14;  // 16M ids
  static constexpr size_t kPoolChunk = 4096;     // attrs per overflow chunk

  const Entry& entry(IndexId id) const {
    IDXSEL_DCHECK(id < count_.load(std::memory_order_acquire));
    return blocks_[id >> kBlockShift].load(std::memory_order_acquire)
        [id & kBlockMask];
  }

  /// Copies `attrs` into the contiguous overflow pool; returns the stable
  /// address.
  const AttributeId* PoolCopy(const AttributeId* attrs, uint32_t width)
      IDXSEL_REQUIRES(mu_);

  static uint64_t TupleHash(const AttributeId* attrs, uint32_t width) {
    uint64_t h = SplitMix64(width);
    for (uint32_t u = 0; u < width; ++u) h = HashCombine(h, attrs[u]);
    return h;
  }

  mutable common::Mutex mu_;
  std::atomic<size_t> count_{0};
  std::atomic<Entry*> blocks_[kMaxBlocks] = {};
  // tuple hash -> interned ids with that hash (collisions resolved by
  // comparing the tuples themselves).
  std::unordered_multimap<uint64_t, IndexId> interned_ IDXSEL_GUARDED_BY(mu_);
  // Contiguous overflow pool for tuples wider than kInlineAttrs; chunked
  // so addresses stay stable while the pool grows.
  std::vector<std::unique_ptr<AttributeId[]>> pool_ IDXSEL_GUARDED_BY(mu_);
  size_t pool_used_ IDXSEL_GUARDED_BY(mu_) = 0;  ///< newest chunk usage
};

// -- Dense per-id value table -----------------------------------------------

/// Flat IndexId -> double cache (NaN = unset) with the same chunked,
/// address-stable layout as the arena. Backs WhatIfEngine's dense
/// per-index memory/maintenance fast paths. Values must be deterministic
/// per id: racing writers store the same bits, so relaxed atomics suffice.
class DenseValueTable {
 public:
  DenseValueTable() = default;
  ~DenseValueTable();
  DenseValueTable(const DenseValueTable&) = delete;
  DenseValueTable& operator=(const DenseValueTable&) = delete;

  /// NaN when unset.
  double Get(IndexId id) const {
    const std::atomic<double>* block =
        blocks_[id >> kBlockShift].load(std::memory_order_acquire);
    if (block == nullptr) return kUnset();
    return block[id & kBlockMask].load(std::memory_order_relaxed);
  }

  void Put(IndexId id, double value);

  /// Resets every allocated slot to unset (blocks are kept — ids stay
  /// addressable without reallocation). Serve's warm-state reuse hook:
  /// WhatIfEngine::InvalidateFrequencyDependentCaches clears the dense
  /// maintenance mirror this way after a frequency shift. Not safe
  /// concurrently with Put/Get.
  void Invalidate();

  static double kUnset() {
    return std::numeric_limits<double>::quiet_NaN();
  }

 private:
  static constexpr size_t kBlockShift = 10;
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;
  static constexpr size_t kBlockMask = kBlockSize - 1;
  static constexpr size_t kMaxBlocks = 1 << 14;

  // idxsel-lint: allow(guarded-field) reason=serializes block allocation
  // only; the slots are atomics published through atomic block pointers
  common::Mutex mu_;
  std::atomic<std::atomic<double>*> blocks_[kMaxBlocks] = {};
};

// -- Dense per-(id, posting-slot) cost table --------------------------------

/// Flat (IndexId, posting slot) -> double cost cache, the dense fast path
/// in front of WhatIfEngine's sharded hash cache. A row holds one cost
/// per query of the index's leading attribute's posting list
/// (Workload::queries_with) — exactly the queries the engine would ever
/// consult the backend for — indexed by position in that list, so lookups
/// from posting-list iterations are a single load with no hashing.
/// NaN = unset. Rows are created lazily per id.
class DenseCostTable {
 public:
  DenseCostTable() = default;
  ~DenseCostTable();
  DenseCostTable(const DenseCostTable&) = delete;
  DenseCostTable& operator=(const DenseCostTable&) = delete;

  /// NaN when unset (or the row does not exist yet). `slot` is the
  /// query's position in the posting list of the id's leading attribute.
  double Get(IndexId id, uint32_t slot) const {
    const Row* row = FindRow(id);
    if (row == nullptr) return DenseValueTable::kUnset();
    IDXSEL_DCHECK(slot < row->len);
    return row->values[slot].load(std::memory_order_relaxed);
  }

  /// Stores a cost, creating the id's row (sized `row_len`, all-NaN) on
  /// first touch.
  void Put(IndexId id, uint32_t slot, uint32_t row_len, double value);

  /// Borrowed view of one id's row for bulk reads (batched what-if
  /// evaluation, audit sweeps). `values` is null when the row does not
  /// exist yet. Stable for the table's lifetime.
  struct RowView {
    const std::atomic<double>* values = nullptr;
    uint32_t len = 0;
  };
  RowView ViewRow(IndexId id) const {
    const Row* row = FindRow(id);
    if (row == nullptr) return {};
    return {row->values.get(), row->len};
  }

  /// Copies every set slot of `from`'s row into *unset* slots of `to`'s
  /// row (both rows share the posting list: same leading attribute).
  /// Used on H6 append commits: f_j(k ⊕ a) == f_j(k) for every query
  /// that cannot exploit the extension, so the morphed index inherits the
  /// replaced index's costs wholesale — the delta-costing trick that
  /// keeps steady-state steps allocation- and hash-free. Slots already
  /// set on `to` (the re-estimated affected queries) are left untouched.
  void InheritRow(IndexId from, IndexId to, uint32_t row_len);

  /// Resets every slot of every row to NaN (rows stay allocated). Engine
  /// cache invalidation; not safe concurrently with in-flight lookups.
  void Invalidate();

 private:
  struct Row {
    std::unique_ptr<std::atomic<double>[]> values;
    uint32_t len = 0;
  };

  static constexpr size_t kBlockShift = 8;
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;  // 256 rows
  static constexpr size_t kBlockMask = kBlockSize - 1;
  static constexpr size_t kMaxBlocks = 1 << 16;

  const Row* FindRow(IndexId id) const {
    const std::atomic<Row*>* block =
        blocks_[id >> kBlockShift].load(std::memory_order_acquire);
    if (block == nullptr) return nullptr;
    return block[id & kBlockMask].load(std::memory_order_acquire);
  }

  Row* EnsureRow(IndexId id, uint32_t row_len);

  common::Mutex mu_;  // block/row allocation only
  std::atomic<std::atomic<Row*>*> blocks_[kMaxBlocks] = {};
  std::vector<std::unique_ptr<Row>> rows_ IDXSEL_GUARDED_BY(mu_);  // ownership
};

/// Reinterprets a dense row's atomic storage as a plain double stream for
/// the simd layer's vector loads/gathers. Sound under the kernel's
/// publication discipline: row slots are relaxed atomics only so that
/// racing writers of the *same* deterministic value never conflict; every
/// bulk read happens strictly after the slots it touches were published
/// (same thread, or through the exec::ThreadPool barriers), and
/// std::atomic<double> is lock-free and layout-identical to double on
/// every supported target (checked below).
inline const double* RawValues(const std::atomic<double>* values) {
  static_assert(sizeof(std::atomic<double>) == sizeof(double),
                "dense rows must be plain doubles under the hood");
  static_assert(std::atomic<double>::is_always_lock_free,
                "dense rows must be lock-free for bulk reads");
  return reinterpret_cast<const double*>(values);
}

}  // namespace idxsel::kernel

#endif  // IDXSEL_KERNEL_KERNEL_H_
