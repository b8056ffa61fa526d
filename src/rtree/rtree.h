#ifndef LBSQ_RTREE_RTREE_H_
#define LBSQ_RTREE_RTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/node.h"
#include "storage/lru_buffer_pool.h"
#include "storage/page_store.h"

// R*-tree [BKSS90] over 2-D points, stored on 4 KiB pages behind an LRU
// buffer pool. This is the spatial index all queries in the paper run
// against: window queries (Section 4), k-NN (Section 3 via [RKV95]/[HS99]
// in knn.h) and time-parameterized queries (src/tp).
//
// Cost accounting: every node fetch goes through the buffer pool, so
//   node accesses (NA)  = pool.logical_accesses()
//   page accesses (PA)  = disk.read_count()   (i.e. buffer misses)
// Benchmarks reset both after the tree is built.

namespace lbsq::rtree {

// What a logged dataset update did at its point (see
// RTree::CopyUpdatesSince). Serving layers feed these to the semantic
// cache's region-scoped invalidation (cache::SemanticCache::InvalidateAt).
enum class UpdateKind : uint8_t { kInsert, kDelete };

struct UpdateRecord {
  geo::Point point;
  UpdateKind kind = UpdateKind::kInsert;
};

class RTree {
 public:
  struct Options {
    // Logical fan-outs; must not exceed the physical page capacities.
    // Tests shrink them to exercise deep trees on small datasets.
    uint32_t leaf_capacity = kLeafCapacity;
    uint32_t internal_capacity = kInternalCapacity;
    // R* parameters: minimum fill ratio m/M and the share of entries
    // removed by forced reinsertion on first overflow per level.
    double min_fill = 0.4;
    double reinsert_fraction = 0.3;
  };

  // Identity of a tree inside a page store, for persistence: save meta()
  // alongside a FilePageManager-backed store and re-attach with the
  // meta-taking constructor after reopening. All fields are plain data.
  struct Meta {
    storage::PageId root = storage::kInvalidPageId;
    uint16_t root_level = 0;
    uint64_t size = 0;
    uint64_t num_nodes = 0;

    void SerializeTo(storage::Page* page, uint32_t offset) const;
    static Meta DeserializeFrom(const storage::Page& page, uint32_t offset);
  };

  // `buffer_capacity` = number of pages the LRU pool holds (0 = none).
  // The tree does not own the disk.
  RTree(storage::PageStore* disk, size_t buffer_capacity);
  RTree(storage::PageStore* disk, size_t buffer_capacity,
        const Options& options);

  // Re-attaches to an existing tree in `disk` (e.g. a reopened
  // FilePageManager file) described by `meta`. Options must match the
  // ones the tree was built with.
  RTree(storage::PageStore* disk, size_t buffer_capacity,
        const Options& options, const Meta& meta);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // -- Updates -------------------------------------------------------------

  void Insert(const geo::Point& p, ObjectId id);

  // Removes one entry matching (p, id); returns false if absent.
  bool Delete(const geo::Point& p, ObjectId id);

  // Sort-Tile-Recursive bulk load; requires an empty tree. Packs leaves to
  // ~`fill` of capacity (the paper's trees are built by insertion; STR at
  // 70% gives the same occupancy and is far faster for the 1M-point runs).
  // The points are ordered by x, cut into ceil(sqrt(leaves)) slices, and
  // each slice is ordered by y and cut into leaves; upper levels pack
  // the leaves in that order. Both orders are stable radix orders on
  // the IEEE total order of the coordinate (common/radix_sort.h), so
  // the pages are a pure function of the input sequence: points with
  // equal coordinates keep their input order, and -0.0 comes before
  // +0.0.
  void BulkLoad(std::vector<DataEntry> entries, double fill = 0.7);

  // -- Queries -------------------------------------------------------------

  // All points p with w.Contains(p) (closed containment, matching the
  // paper's "intersect the window" semantics for point data).
  void WindowQuery(const geo::Rect& w, std::vector<DataEntry>* out);

  // Streaming variant. Runs on the zero-copy read path: `emit` is called
  // while a NodeView into the buffer pool is live, so it must not issue
  // further operations against this tree (re-entrancy would invalidate
  // the view mid-iteration).
  void WindowQuery(const geo::Rect& w,
                   const std::function<void(const DataEntry&)>& emit);

  // -- Introspection (used by query algorithms and tests) -------------------

  // Deserializes the node stored at `id` via the buffer pool (counts one
  // node access).
  Node FetchNode(storage::PageId id);

  // Zero-copy fetch: a view over the page bytes pinned in the buffer
  // pool. Counts exactly one node access like FetchNode (and one page
  // access on a buffer miss), so NA/PA accounting is unchanged; it only
  // skips the per-fetch Node allocation + decode. The view is valid until
  // the next non-const call on this tree or its buffer pool.
  NodeView FetchView(storage::PageId id) {
    return NodeView(buffer_.Fetch(id));
  }

  // Dataset update epoch: bumped by every successful Insert, Delete and
  // BulkLoad on this handle. Serving layers compare it against the epoch
  // their semantic answer cache was filled under and invalidate the
  // cache when it advances (cache/semantic_cache.h).
  uint64_t update_epoch() const { return update_epoch_; }

  // Copies the updates that advanced the epoch from `since_epoch`
  // (exclusive) through update_epoch() (inclusive) into *out, oldest
  // first. Returns false when the log no longer reaches back that far —
  // the bounded log was trimmed, or a BulkLoad (which records no
  // per-point updates) happened in the gap — in which case the caller
  // must fall back to full invalidation. A true return with an empty
  // append means the epochs already match.
  [[nodiscard]] bool CopyUpdatesSince(uint64_t since_epoch,
                                      std::vector<UpdateRecord>* out) const;

  storage::PageId root() const { return root_; }
  Meta meta() const {
    return Meta{root_, root_level_, size_, num_nodes_};
  }
  geo::Rect root_mbr();
  // Conservative bounding box of the data. BulkLoad sets it exactly and
  // Insert expands it; Delete leaves it untouched, so after deletes it
  // may overcover (never undercover — mindist pruning against it stays
  // admissible). Unlike root_mbr() it is free once computed: the first
  // call on an attached or reattached handle derives it from the root
  // node, after which maintenance is incremental. Empty iff size() == 0.
  geo::Rect bounding_box();
  size_t size() const { return size_; }
  size_t num_nodes() const { return num_nodes_; }
  int height();  // 1 for a tree that is a single leaf
  const Options& options() const { return options_; }

  storage::LruBufferPool& buffer() { return buffer_; }
  storage::PageStore& disk() { return *disk_; }

  // Sets the LRU buffer to `fraction` of the current number of tree pages
  // (the paper's "LRU buffer equal to 10% of the R-tree size").
  void SetBufferFraction(double fraction);

  // Walks the whole tree checking structural invariants (parent MBRs tight
  // and containing children, level monotonicity, fill bounds except root).
  // Aborts via LBSQ_CHECK on violation. Test-only helper.
  void CheckInvariants();

  // R* ChooseSubtree among the children of internal `node` for an entry
  // with MBR `r`: the index of the child the insert descends into. Above
  // the leaf-parent level it minimizes area enlargement, then area; at
  // the leaf-parent level overlap enlargement comes first, with exact
  // pruning (rtree.cc) that leaves every choice equal to the full
  // O(n^2) criterion's. Public so tests can hold it to that criterion.
  static size_t ChooseSubtree(const Node& node, const geo::Rect& r);

 private:
  struct SplitResult {
    ChildEntry left;   // updated original node
    ChildEntry right;  // freshly allocated sibling
  };

  Node ReadNode(storage::PageId id);
  void WriteNode(storage::PageId id, const Node& node);
  storage::PageId AllocateNode(const Node& node);

  uint32_t CapacityFor(const Node& node) const {
    return node.is_leaf() ? options_.leaf_capacity
                          : options_.internal_capacity;
  }
  uint32_t MinFillFor(const Node& node) const;

  // Descends from `page_id` (at `node_level`) and inserts the entry at
  // `target_level`; returns a split descriptor if the node overflowed and
  // split, otherwise updates *self_mbr with the node's new MBR.
  std::optional<SplitResult> InsertRecursive(storage::PageId page_id,
                                             const ChildEntry& entry,
                                             const DataEntry& data_entry,
                                             uint16_t target_level,
                                             geo::Rect* self_mbr);

  // R* forced reinsert: removes the reinsert_fraction entries of `node`
  // (at page_id) farthest from its MBR center and re-inserts them from the
  // root. Returns the node's new MBR.
  geo::Rect ForcedReinsert(storage::PageId page_id, Node node);

  // R* split of an overflowing node; writes both halves and returns their
  // entries for the parent.
  SplitResult SplitNode(storage::PageId page_id, Node node);

  void InsertAtLevel(const ChildEntry& entry, const DataEntry& data_entry,
                     uint16_t target_level);

  // Delete helpers.
  bool DeleteRecursive(storage::PageId page_id, uint16_t node_level,
                       const geo::Point& p, ObjectId id, geo::Rect* self_mbr,
                       bool* underflow);
  void CondenseInsertOrphans(const Node& orphan);

  void CheckInvariantsRecursive(storage::PageId page_id,
                                const geo::Rect& parent_mbr, bool is_root,
                                uint16_t expected_level, size_t* points,
                                size_t* nodes);

  storage::PageStore* disk_;
  storage::LruBufferPool buffer_;
  Options options_;
  storage::PageId root_;
  uint16_t root_level_ = 0;
  size_t size_ = 0;
  size_t num_nodes_ = 1;
  // Maintained by bounding_box(); invalid until first derived (attach
  // leaves it unknown, BulkLoad and Insert keep it current).
  geo::Rect bbox_ = geo::Rect::Empty();
  bool bbox_valid_ = false;
  // Levels that have already used their one forced reinsert during the
  // current top-level Insert (R* OverflowTreatment).
  std::vector<bool> reinserted_levels_;

  // Entries removed by forced reinsertion, re-inserted after the current
  // insert path has fully unwound (deferring keeps ancestor copies on the
  // recursion stack from going stale).
  struct PendingEntry {
    uint16_t level = 0;
    ChildEntry child;  // valid when level > 0
    DataEntry data;    // valid when level == 0
  };
  std::vector<PendingEntry> pending_reinserts_;

  // Nodes dissolved by Delete's condense step, pending reinsertion.
  std::vector<Node> orphans_;

  // Successful mutations on this handle (see update_epoch()).
  uint64_t update_epoch_ = 0;

  // Appends to the bounded update log after an epoch bump (amortized
  // front-trim; see RecordUpdate in rtree.cc for the capacity rule).
  void RecordUpdate(const geo::Point& p, UpdateKind kind);

  // Bounded log of recent updates, oldest first: update_log_[i] is the
  // update that advanced the epoch to log_floor_ + i + 1, so the log
  // covers epochs (log_floor_, update_epoch_]. BulkLoad clears the log
  // and raises the floor (CopyUpdatesSince reports the gap).
  std::vector<UpdateRecord> update_log_;
  uint64_t log_floor_ = 0;
};

}  // namespace lbsq::rtree

#endif  // LBSQ_RTREE_RTREE_H_
