#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/radix_sort.h"

namespace lbsq::rtree {

namespace {

// Area enlargement of `mbr` needed to include `r`.
double Enlargement(const geo::Rect& mbr, const geo::Rect& r) {
  return mbr.ExpandedToInclude(r).Area() - mbr.Area();
}

double OverlapArea(const geo::Rect& a, const geo::Rect& b) {
  return a.Intersection(b).Area();
}

// True iff the closed intersection of `a` and `b` has positive width and
// height. Otherwise that intersection is empty or has a width or height
// of +0.0, so OverlapArea(a, b) is +0.0 whenever b's extents are finite,
// and so is the overlap with `b` of any rectangle inside `a`.
bool OverlapsWithArea(const geo::Rect& a, const geo::Rect& b) {
  return a.min_x < b.max_x && b.min_x < a.max_x && a.min_y < b.max_y &&
         b.min_y < a.max_y;
}

// The R* overlap enlargement of child `i` growing from `mbr` to `grown`:
// the sum, in child order, of grown's overlap area with every sibling,
// minus the same sum for `mbr`. Both sums start at +0.0 and a zero term
// leaves a sum's value unchanged, so skipping the siblings that grown
// meets without positive area (they add zero to both sums, since mbr
// lies inside grown) keeps both sums and the difference exact. When the
// child already holds the entry, grown equals mbr and the two sums are
// the same expression: one evaluation serves for both.
double OverlapDelta(const std::vector<ChildEntry>& children, size_t i,
                    const geo::Rect& mbr, const geo::Rect& grown) {
  const bool same = grown == mbr;
  double grown_sum = 0.0;
  double mbr_sum = 0.0;
  for (size_t j = 0; j < children.size(); ++j) {
    if (j == i) continue;
    const geo::Rect& sibling = children[j].mbr;
    if (!OverlapsWithArea(grown, sibling)) continue;
    grown_sum += OverlapArea(grown, sibling);
    if (!same) mbr_sum += OverlapArea(mbr, sibling);
  }
  return grown_sum - (same ? grown_sum : mbr_sum);
}

}  // namespace

RTree::RTree(storage::PageStore* disk, size_t buffer_capacity)
    : RTree(disk, buffer_capacity, Options()) {}

RTree::RTree(storage::PageStore* disk, size_t buffer_capacity,
             const Options& options)
    : disk_(disk), buffer_(disk, buffer_capacity), options_(options) {
  LBSQ_CHECK(options_.leaf_capacity >= 2 &&
             options_.leaf_capacity <= kLeafCapacity);
  LBSQ_CHECK(options_.internal_capacity >= 2 &&
             options_.internal_capacity <= kInternalCapacity);
  LBSQ_CHECK(options_.min_fill > 0.0 && options_.min_fill <= 0.5);
  LBSQ_CHECK(options_.reinsert_fraction >= 0.0 &&
             options_.reinsert_fraction < 1.0);
  Node root;
  root.level = 0;
  root_ = AllocateNode(root);
}

RTree::RTree(storage::PageStore* disk, size_t buffer_capacity,
             const Options& options, const Meta& meta)
    : disk_(disk), buffer_(disk, buffer_capacity), options_(options) {
  LBSQ_CHECK(meta.root != storage::kInvalidPageId);
  root_ = meta.root;
  root_level_ = meta.root_level;
  size_ = meta.size;
  num_nodes_ = meta.num_nodes;
  // Cheap sanity check that the meta matches the store's content.
  const Node root = ReadNode(root_);
  LBSQ_CHECK_EQ(root.level, root_level_);
}

void RTree::Meta::SerializeTo(storage::Page* page, uint32_t offset) const {
  page->WriteAt<storage::PageId>(offset, root);
  page->WriteAt<uint16_t>(offset + 4, root_level);
  page->WriteAt<uint64_t>(offset + 8, size);
  page->WriteAt<uint64_t>(offset + 16, num_nodes);
}

RTree::Meta RTree::Meta::DeserializeFrom(const storage::Page& page,
                                         uint32_t offset) {
  Meta meta;
  meta.root = page.ReadAt<storage::PageId>(offset);
  meta.root_level = page.ReadAt<uint16_t>(offset + 4);
  meta.size = page.ReadAt<uint64_t>(offset + 8);
  meta.num_nodes = page.ReadAt<uint64_t>(offset + 16);
  return meta;
}

Node RTree::ReadNode(storage::PageId id) {
  return Node::DeserializeFrom(buffer_.Fetch(id));
}

Node RTree::FetchNode(storage::PageId id) { return ReadNode(id); }

void RTree::WriteNode(storage::PageId id, const Node& node) {
  // Serialize straight into the cached frame when the pool holds one,
  // skipping the stack page and its 4 KiB copy into the pool. Clearing
  // first keeps the page bytes identical to serializing a fresh page.
  if (storage::Page* slot = buffer_.MutablePage(id)) {
    slot->Clear();
    node.SerializeTo(slot);
    return;
  }
  storage::Page page;
  node.SerializeTo(&page);
  buffer_.Write(id, page);
}

storage::PageId RTree::AllocateNode(const Node& node) {
  const storage::PageId id = disk_->Allocate();
  WriteNode(id, node);
  return id;
}

uint32_t RTree::MinFillFor(const Node& node) const {
  const uint32_t cap = CapacityFor(node);
  const auto m = static_cast<uint32_t>(options_.min_fill * cap);
  return std::max<uint32_t>(1, m);
}

// ---------------------------------------------------------------------------
// Insertion (R* ChooseSubtree + forced reinsert + split)
// ---------------------------------------------------------------------------

size_t RTree::ChooseSubtree(const Node& node, const geo::Rect& r) {
  LBSQ_CHECK(!node.is_leaf());
  LBSQ_CHECK(!node.children.empty());
  size_t best = 0;
  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement, then area
    // enlargement, then area (the R* criterion), first index on a tie.
    // Overlap enlargements are never negative: grown contains mbr, so
    // each term of grown's sum is at least the matching term of mbr's,
    // and rounding preserves that order through the sums. Once the best
    // is 0, a child can only win with a smaller (enlargement, area), and
    // the others need no overlap sums.
    double best_overlap_delta = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.children.size(); ++i) {
      const geo::Rect& mbr = node.children[i].mbr;
      const geo::Rect grown = mbr.ExpandedToInclude(r);
      const double enlarge = grown.Area() - mbr.Area();
      const double area = mbr.Area();
      const bool smaller_tail = enlarge < best_enlarge ||
                                (enlarge == best_enlarge && area < best_area);
      if (best_overlap_delta == 0.0 && !smaller_tail) continue;
      const double overlap_delta =
          OverlapDelta(node.children, i, mbr, grown);
      if (overlap_delta < best_overlap_delta ||
          (overlap_delta == best_overlap_delta && smaller_tail)) {
        best = i;
        best_overlap_delta = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    return best;
  }
  // Children are internal: minimize area enlargement, then area.
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.children.size(); ++i) {
    const double enlarge = Enlargement(node.children[i].mbr, r);
    const double area = node.children[i].mbr.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = i;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

namespace {

// Update-log capacity: how far back CopyUpdatesSince can reach. 4096
// covers any realistic between-sync gap (serving layers sync on every
// query / batch); a cache that fell further behind is better off with
// one epoch nuke than thousands of per-point passes anyway.
constexpr size_t kUpdateLogCapacity = 4096;

}  // namespace

void RTree::RecordUpdate(const geo::Point& p, UpdateKind kind) {
  // Amortized O(1) front-trim: let the log grow to twice the capacity,
  // then drop the older half in one move instead of erasing per update.
  if (update_log_.size() >= 2 * kUpdateLogCapacity) {
    update_log_.erase(update_log_.begin(),
                      update_log_.begin() + kUpdateLogCapacity);
    log_floor_ += kUpdateLogCapacity;
  }
  update_log_.push_back({p, kind});
}

bool RTree::CopyUpdatesSince(uint64_t since_epoch,
                             std::vector<UpdateRecord>* out) const {
  if (since_epoch > update_epoch_ || since_epoch < log_floor_) return false;
  // Invariant: log_floor_ + update_log_.size() == update_epoch_, so the
  // records for epochs (since_epoch, update_epoch_] start at index
  // since_epoch - log_floor_.
  for (size_t i = static_cast<size_t>(since_epoch - log_floor_);
       i < update_log_.size(); ++i) {
    out->push_back(update_log_[i]);
  }
  return true;
}

void RTree::Insert(const geo::Point& p, ObjectId id) {
  if (bbox_valid_) bbox_ = bbox_.ExpandedToInclude(p);
  reinserted_levels_.assign(static_cast<size_t>(root_level_) + 2, false);
  DataEntry entry{p, id};
  InsertAtLevel(ChildEntry{}, entry, /*target_level=*/0);
  ++size_;
  ++update_epoch_;
  RecordUpdate(p, UpdateKind::kInsert);
}

void RTree::InsertAtLevel(const ChildEntry& entry, const DataEntry& data_entry,
                          uint16_t target_level) {
  geo::Rect root_mbr_out;
  auto split =
      InsertRecursive(root_, entry, data_entry, target_level, &root_mbr_out);
  if (split.has_value()) {
    Node new_root;
    new_root.level = static_cast<uint16_t>(root_level_ + 1);
    new_root.children = {split->left, split->right};
    root_ = AllocateNode(new_root);
    ++root_level_;
    ++num_nodes_;
    if (reinserted_levels_.size() < static_cast<size_t>(root_level_) + 2) {
      reinserted_levels_.resize(static_cast<size_t>(root_level_) + 2, false);
    }
  }
  // Deferred forced reinserts (processed after the path above is
  // consistent again; see ForcedReinsert note in rtree.h).
  while (!pending_reinserts_.empty()) {
    const PendingEntry pe = pending_reinserts_.back();
    pending_reinserts_.pop_back();
    InsertAtLevel(pe.child, pe.data, pe.level);
  }
}

std::optional<RTree::SplitResult> RTree::InsertRecursive(
    storage::PageId page_id, const ChildEntry& entry,
    const DataEntry& data_entry, uint16_t target_level, geo::Rect* self_mbr) {
  Node node = ReadNode(page_id);
  LBSQ_CHECK(node.level >= target_level);

  if (node.level > target_level) {
    const geo::Rect entry_mbr = target_level == 0
                                    ? geo::Rect::FromPoint(data_entry.point)
                                    : entry.mbr;
    const size_t idx = ChooseSubtree(node, entry_mbr);
    geo::Rect child_mbr;
    auto child_split = InsertRecursive(node.children[idx].child, entry,
                                       data_entry, target_level, &child_mbr);
    if (child_split.has_value()) {
      node.children[idx] = child_split->left;
      node.children.push_back(child_split->right);
    } else {
      node.children[idx].mbr = child_mbr;
    }
    if (node.size() <= CapacityFor(node)) {
      WriteNode(page_id, node);
      *self_mbr = node.ComputeMbr();
      return std::nullopt;
    }
  } else {
    // Target level reached: add the new entry.
    if (node.is_leaf()) {
      node.data.push_back(data_entry);
    } else {
      node.children.push_back(entry);
    }
    if (node.size() <= CapacityFor(node)) {
      WriteNode(page_id, node);
      *self_mbr = node.ComputeMbr();
      return std::nullopt;
    }
  }

  // Overflow treatment: forced reinsert once per level per top-level
  // insert (never at the root), otherwise split.
  if (page_id != root_ && options_.reinsert_fraction > 0.0 &&
      !reinserted_levels_[node.level]) {
    reinserted_levels_[node.level] = true;
    *self_mbr = ForcedReinsert(page_id, std::move(node));
    return std::nullopt;
  }
  return SplitNode(page_id, std::move(node));
}

geo::Rect RTree::ForcedReinsert(storage::PageId page_id, Node node) {
  const geo::Point center = node.ComputeMbr().Center();
  const size_t count = node.size();
  const auto remove_count = std::max<size_t>(
      1, static_cast<size_t>(options_.reinsert_fraction * count));

  // Order entry indices by distance of their (MBR) center from the node
  // center, farthest first.
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  auto center_of = [&node](size_t i) {
    return node.is_leaf() ? node.data[i].point : node.children[i].mbr.Center();
  };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return geo::SquaredDistance(center_of(a), center) >
           geo::SquaredDistance(center_of(b), center);
  });

  std::vector<bool> removed(count, false);
  // Queue the farthest entries for reinsertion in *increasing* distance
  // order ("close reinsert", the variant the R* paper found best). The
  // pending list is consumed LIFO, so push farthest first.
  for (size_t i = 0; i < remove_count; ++i) {
    const size_t idx = order[i];
    removed[idx] = true;
    PendingEntry pe;
    pe.level = node.level;
    if (node.is_leaf()) {
      pe.data = node.data[idx];
    } else {
      pe.child = node.children[idx];
    }
    pending_reinserts_.push_back(pe);
  }

  Node kept;
  kept.level = node.level;
  for (size_t i = 0; i < count; ++i) {
    if (removed[i]) continue;
    if (node.is_leaf()) {
      kept.data.push_back(node.data[i]);
    } else {
      kept.children.push_back(node.children[i]);
    }
  }
  WriteNode(page_id, kept);
  return kept.ComputeMbr();
}

RTree::SplitResult RTree::SplitNode(storage::PageId page_id, Node node) {
  const size_t count = node.size();
  const uint32_t cap = CapacityFor(node);
  LBSQ_CHECK(count == cap + 1);
  const auto m =
      std::max<size_t>(1, static_cast<size_t>(options_.min_fill * cap));

  std::vector<geo::Rect> mbrs(count);
  for (size_t i = 0; i < count; ++i) {
    mbrs[i] = node.is_leaf() ? geo::Rect::FromPoint(node.data[i].point)
                             : node.children[i].mbr;
  }

  // R* ChooseSplitAxis / ChooseSplitIndex. For each axis we consider the
  // entries sorted by lower and by upper coordinate; for points the two
  // sorts coincide but both are evaluated for MBR entries.
  struct Candidate {
    std::vector<size_t> order;
    size_t split_at = 0;  // first `split_at` entries -> left group
    double overlap = std::numeric_limits<double>::infinity();
    double area = std::numeric_limits<double>::infinity();
  };

  auto evaluate_axis = [&](int axis, double* margin_sum,
                           Candidate* best) {
    *margin_sum = 0.0;
    for (int which = 0; which < 2; ++which) {  // 0: by lower, 1: by upper
      std::vector<size_t> order(count);
      for (size_t i = 0; i < count; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const geo::Rect& ra = mbrs[a];
        const geo::Rect& rb = mbrs[b];
        const double ka = axis == 0 ? (which == 0 ? ra.min_x : ra.max_x)
                                    : (which == 0 ? ra.min_y : ra.max_y);
        const double kb = axis == 0 ? (which == 0 ? rb.min_x : rb.max_x)
                                    : (which == 0 ? rb.min_y : rb.max_y);
        return ka < kb;
      });
      // Prefix/suffix MBRs for O(n) evaluation of all distributions.
      std::vector<geo::Rect> prefix(count), suffix(count);
      prefix[0] = mbrs[order[0]];
      for (size_t i = 1; i < count; ++i) {
        prefix[i] = prefix[i - 1].ExpandedToInclude(mbrs[order[i]]);
      }
      suffix[count - 1] = mbrs[order[count - 1]];
      for (size_t i = count - 1; i-- > 0;) {
        suffix[i] = suffix[i + 1].ExpandedToInclude(mbrs[order[i]]);
      }
      for (size_t k = m; k + m <= count; ++k) {
        const geo::Rect& left = prefix[k - 1];
        const geo::Rect& right = suffix[k];
        *margin_sum += left.Margin() + right.Margin();
        const double overlap = OverlapArea(left, right);
        const double area = left.Area() + right.Area();
        if (overlap < best->overlap ||
            (overlap == best->overlap && area < best->area)) {
          best->order = order;
          best->split_at = k;
          best->overlap = overlap;
          best->area = area;
        }
      }
    }
  };

  double margin_x = 0.0, margin_y = 0.0;
  Candidate best_x, best_y;
  evaluate_axis(0, &margin_x, &best_x);
  evaluate_axis(1, &margin_y, &best_y);
  const Candidate& chosen = margin_x <= margin_y ? best_x : best_y;

  Node left, right;
  left.level = right.level = node.level;
  for (size_t i = 0; i < count; ++i) {
    Node& dst = i < chosen.split_at ? left : right;
    if (node.is_leaf()) {
      dst.data.push_back(node.data[chosen.order[i]]);
    } else {
      dst.children.push_back(node.children[chosen.order[i]]);
    }
  }
  LBSQ_CHECK(left.size() >= m && right.size() >= m);

  WriteNode(page_id, left);
  const storage::PageId right_id = AllocateNode(right);
  ++num_nodes_;
  return SplitResult{ChildEntry{left.ComputeMbr(), page_id},
                     ChildEntry{right.ComputeMbr(), right_id}};
}

// ---------------------------------------------------------------------------
// Bulk load (Sort-Tile-Recursive)
// ---------------------------------------------------------------------------

void RTree::BulkLoad(std::vector<DataEntry> entries, double fill) {
  LBSQ_CHECK(size_ == 0);
  LBSQ_CHECK(fill > 0.0 && fill <= 1.0);
  bbox_ = geo::Rect::Empty();
  bbox_valid_ = true;
  if (entries.empty()) return;
  for (const DataEntry& e : entries) {
    bbox_ = bbox_.ExpandedToInclude(e.point);
  }
  size_ = entries.size();
  ++update_epoch_;
  // A bulk load is not attributable to individual points: clear the log
  // and raise the floor so CopyUpdatesSince reports the gap and callers
  // fall back to full invalidation.
  update_log_.clear();
  log_floor_ = update_epoch_;

  const auto leaf_cap = std::max<size_t>(
      1, static_cast<size_t>(fill * options_.leaf_capacity));
  const auto int_cap = std::max<size_t>(
      2, static_cast<size_t>(fill * options_.internal_capacity));

  // Level 0: order the points by x, cut them into slices of whole
  // leaves, and order each slice by y. Radix passes on the coordinates'
  // total-order images stand in for comparison sorts; equal coordinates
  // keep their input order. The scratch is freed before any page is
  // written.
  const size_t num_leaves = (entries.size() + leaf_cap - 1) / leaf_cap;
  const auto num_slices =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slice_size =
      (entries.size() + num_slices - 1) / num_slices;
  {
    std::vector<DataEntry> scratch(entries.size());
    RadixSort(entries.data(), entries.size(), scratch.data(),
              [](const DataEntry& e) { return OrderedBits(e.point.x); });
    for (size_t s = 0; s < entries.size(); s += slice_size) {
      const size_t slice_end = std::min(entries.size(), s + slice_size);
      RadixSort(entries.data() + s, slice_end - s, scratch.data(),
                [](const DataEntry& e) { return OrderedBits(e.point.y); });
    }
  }

  // Pack each slice into leaves of leaf_cap points.
  std::vector<ChildEntry> level_entries;
  level_entries.reserve(num_leaves);
  // The initial empty root page is reused as the first leaf.
  bool reused_root = false;
  for (size_t s = 0; s < entries.size(); s += slice_size) {
    const size_t slice_end = std::min(entries.size(), s + slice_size);
    for (size_t i = s; i < slice_end; i += leaf_cap) {
      Node leaf;
      leaf.level = 0;
      const size_t end = std::min(slice_end, i + leaf_cap);
      leaf.data.assign(entries.begin() + static_cast<ptrdiff_t>(i),
                       entries.begin() + static_cast<ptrdiff_t>(end));
      storage::PageId id;
      if (!reused_root) {
        id = root_;
        WriteNode(id, leaf);
        reused_root = true;
      } else {
        id = AllocateNode(leaf);
        ++num_nodes_;
      }
      level_entries.push_back(ChildEntry{leaf.ComputeMbr(), id});
    }
  }

  // Upper levels: pack child entries (already in tile order) into nodes.
  uint16_t level = 1;
  while (level_entries.size() > 1) {
    std::vector<ChildEntry> next;
    next.reserve((level_entries.size() + int_cap - 1) / int_cap);
    for (size_t i = 0; i < level_entries.size(); i += int_cap) {
      Node inner;
      inner.level = level;
      const size_t end = std::min(level_entries.size(), i + int_cap);
      inner.children.assign(
          level_entries.begin() + static_cast<ptrdiff_t>(i),
          level_entries.begin() + static_cast<ptrdiff_t>(end));
      const storage::PageId id = AllocateNode(inner);
      ++num_nodes_;
      next.push_back(ChildEntry{inner.ComputeMbr(), id});
    }
    level_entries = std::move(next);
    ++level;
  }
  root_ = level_entries[0].child;
  root_level_ = static_cast<uint16_t>(level - 1);
}

// ---------------------------------------------------------------------------
// Deletion with condense-tree
// ---------------------------------------------------------------------------

bool RTree::Delete(const geo::Point& p, ObjectId id) {
  geo::Rect mbr;
  bool underflow = false;
  orphans_.clear();
  if (!DeleteRecursive(root_, root_level_, p, id, &mbr, &underflow)) {
    return false;
  }
  LBSQ_CHECK(!underflow);  // the root never reports underflow
  --size_;
  ++update_epoch_;
  RecordUpdate(p, UpdateKind::kDelete);

  // Shrink the root while it is internal with a single child.
  while (root_level_ > 0) {
    Node root = ReadNode(root_);
    if (root.children.size() != 1) break;
    const storage::PageId child = root.children[0].child;
    buffer_.Discard(root_);
    disk_->Free(root_);
    --num_nodes_;
    root_ = child;
    --root_level_;
  }

  // Reinsert entries of nodes dissolved by condensing, at their original
  // levels. Forced reinsertion stays enabled; each call is a fresh
  // top-level insertion.
  std::vector<Node> orphans;
  orphans.swap(orphans_);
  for (const Node& orphan : orphans) {
    reinserted_levels_.assign(static_cast<size_t>(root_level_) + 2, false);
    CondenseInsertOrphans(orphan);
  }
  return true;
}

void RTree::CondenseInsertOrphans(const Node& orphan) {
  if (orphan.is_leaf()) {
    for (const DataEntry& e : orphan.data) {
      InsertAtLevel(ChildEntry{}, e, 0);
    }
  } else {
    for (const ChildEntry& e : orphan.children) {
      InsertAtLevel(e, DataEntry{}, orphan.level);
    }
  }
}

bool RTree::DeleteRecursive(storage::PageId page_id, uint16_t node_level,
                            const geo::Point& p, ObjectId id,
                            geo::Rect* self_mbr, bool* underflow) {
  Node node = ReadNode(page_id);
  *underflow = false;

  if (node.is_leaf()) {
    auto it = std::find_if(node.data.begin(), node.data.end(),
                           [&](const DataEntry& e) {
                             return e.id == id && e.point == p;
                           });
    if (it == node.data.end()) return false;
    node.data.erase(it);
    if (page_id != root_ && node.size() < MinFillFor(node)) {
      *underflow = true;
      orphans_.push_back(std::move(node));
      return true;
    }
    WriteNode(page_id, node);
    *self_mbr = node.ComputeMbr();
    return true;
  }

  for (size_t i = 0; i < node.children.size(); ++i) {
    if (!node.children[i].mbr.Contains(p)) continue;
    geo::Rect child_mbr;
    bool child_underflow = false;
    if (!DeleteRecursive(node.children[i].child,
                         static_cast<uint16_t>(node_level - 1), p, id,
                         &child_mbr, &child_underflow)) {
      continue;
    }
    if (child_underflow) {
      buffer_.Discard(node.children[i].child);
      disk_->Free(node.children[i].child);
      --num_nodes_;
      node.children.erase(node.children.begin() +
                          static_cast<ptrdiff_t>(i));
    } else {
      node.children[i].mbr = child_mbr;
    }
    if (page_id != root_ && node.size() < MinFillFor(node)) {
      *underflow = true;
      orphans_.push_back(std::move(node));
      return true;
    }
    WriteNode(page_id, node);
    *self_mbr = node.ComputeMbr();
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Window query
// ---------------------------------------------------------------------------

namespace {

// Shared window traversal, templated on the emitter so the vector
// overload inlines its push_back (no std::function call per point).
//
// The `contained` flag marks subtrees whose MBR lies entirely inside the
// window: their leaf points are emitted without per-point Contains tests
// and their children are pushed without per-child Intersects tests. The
// fetched node set is unchanged — a contained parent's children all
// intersect the window anyway — so NA/PA stay identical to the plain
// Intersects/Contains traversal (the oracle in tests/test_util.h), as
// does the emit order.
struct WindowFrame {
  storage::PageId id;
  bool contained;
};

template <typename Emit>
void WindowTraverse(RTree& tree, const geo::Rect& w, Emit&& emit) {
  // The unrolled comparisons below assume a non-empty window (plain
  // Intersects() rejects everything for an empty one). Fetch the root
  // anyway so node-access accounting matches the plain traversal exactly.
  if (w.IsEmpty()) {
    tree.FetchView(tree.root());
    return;
  }
  // Per-thread scratch: window queries are call-and-return and the emit
  // contract forbids re-entering the tree mid-scan, so one traversal
  // stack per thread avoids an allocation per query.
  thread_local std::vector<WindowFrame> stack;
  stack.clear();
  stack.push_back({tree.root(), false});
  while (!stack.empty()) {
    const WindowFrame frame = stack.back();
    stack.pop_back();
    const NodeView node = tree.FetchView(frame.id);
    const size_t n = node.size();
    if (node.is_leaf()) {
      if (frame.contained) {
        for (size_t i = 0; i < n; ++i) emit(node.data_entry(i));
      } else {
        // SoA two-pass scan: pass 1 evaluates Rect::Contains for every
        // entry as a branch-free map over the contiguous x[]/y[] arrays
        // (autovectorizes); pass 2 emits the hits in entry order — the
        // same predicate and emit order as the scalar loop.
        uint8_t hit[kLeafCapacity];
        const uint8_t* xs = node.leaf_xs();
        const uint8_t* ys = node.leaf_ys();
        for (size_t i = 0; i < n; ++i) {
          const double px = LoadF64(xs, i);
          const double py = LoadF64(ys, i);
          hit[i] = static_cast<uint8_t>((px >= w.min_x) & (px <= w.max_x) &
                                        (py >= w.min_y) & (py <= w.max_y));
        }
        for (size_t i = 0; i < n; ++i) {
          if (hit[i]) emit(node.data_entry(i));
        }
      }
    } else if (frame.contained) {
      for (size_t i = 0; i < n; ++i) {
        stack.push_back({node.child_page(i), true});
      }
    } else {
      // Pass 1: Rect::Intersects and window-contains-child masks over
      // the contiguous MBR arrays (2 = intersects and contained,
      // 1 = intersects only, 0 = disjoint); pass 2 pushes the
      // surviving children in entry order, as before.
      uint8_t overlap[kInternalCapacity];
      const uint8_t* xlo = node.child_xlos();
      const uint8_t* ylo = node.child_ylos();
      const uint8_t* xhi = node.child_xhis();
      const uint8_t* yhi = node.child_yhis();
      for (size_t i = 0; i < n; ++i) {
        const double cmin_x = LoadF64(xlo, i);
        const double cmin_y = LoadF64(ylo, i);
        const double cmax_x = LoadF64(xhi, i);
        const double cmax_y = LoadF64(yhi, i);
        const uint8_t intersects =
            static_cast<uint8_t>((cmin_x <= w.max_x) & (cmax_x >= w.min_x) &
                                 (cmin_y <= w.max_y) & (cmax_y >= w.min_y));
        const uint8_t contained =
            static_cast<uint8_t>((cmin_x >= w.min_x) & (cmax_x <= w.max_x) &
                                 (cmin_y >= w.min_y) & (cmax_y <= w.max_y));
        overlap[i] = static_cast<uint8_t>(intersects + (intersects & contained));
      }
      for (size_t i = 0; i < n; ++i) {
        if (overlap[i] == 0) continue;
        stack.push_back({node.child_page(i), overlap[i] == 2});
      }
    }
  }
}

}  // namespace

void RTree::WindowQuery(const geo::Rect& w, std::vector<DataEntry>* out) {
  out->clear();
  WindowTraverse(*this, w, [out](const DataEntry& e) { out->push_back(e); });
}

void RTree::WindowQuery(const geo::Rect& w,
                        const std::function<void(const DataEntry&)>& emit) {
  WindowTraverse(*this, w, [&emit](const DataEntry& e) { emit(e); });
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

geo::Rect RTree::root_mbr() { return FetchView(root_).ComputeMbr(); }

geo::Rect RTree::bounding_box() {
  if (!bbox_valid_) {
    bbox_ = size_ == 0 ? geo::Rect::Empty() : root_mbr();
    bbox_valid_ = true;
  }
  return bbox_;
}

int RTree::height() { return root_level_ + 1; }

void RTree::SetBufferFraction(double fraction) {
  LBSQ_CHECK(fraction >= 0.0);
  const auto pages = static_cast<size_t>(
      fraction * static_cast<double>(num_nodes_));
  buffer_.Clear();
  buffer_.Resize(std::max<size_t>(1, pages));
}

void RTree::CheckInvariants() {
  size_t points = 0;
  size_t nodes = 0;
  CheckInvariantsRecursive(root_, geo::Rect(), /*is_root=*/true, root_level_,
                           &points, &nodes);
  LBSQ_CHECK_EQ(points, size_);
  LBSQ_CHECK_EQ(nodes, num_nodes_);
}

void RTree::CheckInvariantsRecursive(storage::PageId page_id,
                                     const geo::Rect& parent_mbr, bool is_root,
                                     uint16_t expected_level, size_t* points,
                                     size_t* nodes) {
  const Node node = ReadNode(page_id);
  ++*nodes;
  LBSQ_CHECK_EQ(node.level, expected_level);
  LBSQ_CHECK(node.size() <= CapacityFor(node));
  if (!is_root) {
    LBSQ_CHECK(node.size() >= 1);
    // The parent's entry MBR must be exactly the tight MBR of this node.
    LBSQ_CHECK(node.ComputeMbr() == parent_mbr);
  }
  if (node.is_leaf()) {
    *points += node.data.size();
    return;
  }
  LBSQ_CHECK(node.level > 0);
  for (const ChildEntry& e : node.children) {
    CheckInvariantsRecursive(e.child, e.mbr, /*is_root=*/false,
                             static_cast<uint16_t>(node.level - 1), points,
                             nodes);
  }
}

}  // namespace lbsq::rtree
