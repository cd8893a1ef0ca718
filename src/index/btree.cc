#include "index/btree.h"

#include <algorithm>

#include "common/logging.h"

namespace impliance::index {

namespace {
// Max entries per node; split at overflow. Small enough to exercise deep
// trees in tests, large enough to be cache-friendly.
constexpr size_t kMaxEntries = 32;
constexpr size_t kLeafGrowth = 8;
}  // namespace

struct BPlusTree::Node {
  bool is_leaf = true;
  std::vector<BTreeEntry> entries;             // leaf: data; internal: separators
  std::vector<std::unique_ptr<Node>> children; // internal only: entries.size()+1
  Node* next = nullptr;                        // leaf chaining

  explicit Node(bool leaf) : is_leaf(leaf) {}
};

BPlusTree::BPlusTree() : root_(std::make_unique<Node>(true)) {}
BPlusTree::~BPlusTree() = default;

int BPlusTree::CompareEntry(const BTreeEntry& a, const BTreeEntry& b) {
  int c = a.value.Compare(b.value);
  if (c != 0) return c;
  if (a.doc != b.doc) return a.doc < b.doc ? -1 : 1;
  return 0;
}

namespace {

bool EntryLess(const BTreeEntry& a, const BTreeEntry& b) {
  int c = a.value.Compare(b.value);
  if (c != 0) return c < 0;
  return a.doc < b.doc;
}

}  // namespace

void BPlusTree::Insert(const model::Value& value, model::DocId doc) {
  std::optional<Split> split = InsertInto(root_.get(), BTreeEntry{value, doc});
  if (split.has_value()) {
    auto new_root = std::make_unique<Node>(false);
    new_root->entries.push_back(std::move(split->separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  ++size_;
}

std::optional<BPlusTree::Split> BPlusTree::InsertInto(Node* node,
                                                      BTreeEntry entry) {
  if (node->is_leaf) {
    auto it = std::upper_bound(node->entries.begin(), node->entries.end(),
                               entry, EntryLess);
    if (node->entries.size() == node->entries.capacity()) {
      // Grow by a few entries, not by doubling: most leaves never fill,
      // and doubling would leave a third of every leaf unused.
      const size_t at = static_cast<size_t>(it - node->entries.begin());
      node->entries.reserve(node->entries.size() + kLeafGrowth);
      it = node->entries.begin() + static_cast<ptrdiff_t>(at);
    }
    node->entries.insert(it, std::move(entry));
    if (node->entries.size() <= kMaxEntries) return std::nullopt;

    // Split leaf: right half moves to a new node; separator is the first
    // key of the right node (copied, B+-tree style).
    auto right = std::make_unique<Node>(true);
    const size_t mid = node->entries.size() / 2;
    right->entries.assign(std::make_move_iterator(node->entries.begin() + mid),
                          std::make_move_iterator(node->entries.end()));
    node->entries.resize(mid);
    // The vector doubled on the insert that overflowed it; left at that
    // capacity, a node that takes no more inserts (every node but the last
    // under ascending keys) would waste three quarters of it for good.
    node->entries.shrink_to_fit();
    right->next = node->next;
    node->next = right.get();
    Split split{right->entries.front(), std::move(right)};
    return split;
  }

  // Internal: descend into the child whose range covers `entry`.
  size_t child_index =
      std::upper_bound(node->entries.begin(), node->entries.end(), entry,
                       EntryLess) -
      node->entries.begin();
  std::optional<Split> child_split =
      InsertInto(node->children[child_index].get(), std::move(entry));
  if (!child_split.has_value()) return std::nullopt;

  node->entries.insert(node->entries.begin() + child_index,
                       std::move(child_split->separator));
  node->children.insert(node->children.begin() + child_index + 1,
                        std::move(child_split->right));
  if (node->entries.size() <= kMaxEntries) return std::nullopt;

  // Split internal node: the middle separator moves up (not copied).
  auto right = std::make_unique<Node>(false);
  const size_t mid = node->entries.size() / 2;
  BTreeEntry up = std::move(node->entries[mid]);
  right->entries.assign(
      std::make_move_iterator(node->entries.begin() + mid + 1),
      std::make_move_iterator(node->entries.end()));
  right->children.assign(
      std::make_move_iterator(node->children.begin() + mid + 1),
      std::make_move_iterator(node->children.end()));
  node->entries.resize(mid);
  node->children.resize(mid + 1);
  node->entries.shrink_to_fit();
  node->children.shrink_to_fit();
  Split split{std::move(up), std::move(right)};
  return split;
}

const BPlusTree::Node* BPlusTree::FindLeaf(const BTreeEntry& probe) const {
  // Descends to the LEFTMOST leaf that may contain an entry equal to
  // `probe`: duplicates of a separator key can straddle a split, so on
  // separator equality we go left and rely on the leaf chain to continue
  // rightward.
  const Node* node = root_.get();
  while (!node->is_leaf) {
    size_t child_index =
        std::lower_bound(node->entries.begin(), node->entries.end(), probe,
                         EntryLess) -
        node->entries.begin();
    node = node->children[child_index].get();
  }
  return node;
}

bool BPlusTree::Erase(const model::Value& value, model::DocId doc) {
  BTreeEntry probe{value, doc};
  // Lazy deletion: walk the leaf chain from the leftmost candidate leaf and
  // remove the first entry equal to `probe`.
  Node* leaf = const_cast<Node*>(FindLeaf(probe));
  for (; leaf != nullptr; leaf = leaf->next) {
    auto it = std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                               probe, EntryLess);
    if (it != leaf->entries.end()) {
      if (CompareEntry(*it, probe) != 0) return false;  // passed probe's slot
      leaf->entries.erase(it);
      --size_;
      return true;
    }
    // Leaf exhausted with every entry < probe (or empty): keep walking.
  }
  return false;
}

std::vector<model::DocId> BPlusTree::Lookup(const model::Value& value) const {
  std::vector<model::DocId> docs;
  ScanRange(&value, true, &value, true,
            [&docs](const model::Value&, model::DocId doc) {
              docs.push_back(doc);
              return true;
            });
  return docs;
}

void BPlusTree::ScanRange(
    const model::Value* lo, bool lo_inclusive, const model::Value* hi,
    bool hi_inclusive,
    const std::function<bool(const model::Value&, model::DocId)>& fn) const {
  const Node* leaf;
  size_t start_index = 0;
  if (lo != nullptr) {
    BTreeEntry probe{*lo, 0};  // doc 0 sorts before every real doc id
    leaf = FindLeaf(probe);
    start_index = std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                                   probe, EntryLess) -
                  leaf->entries.begin();
    // The probe's leaf may have ended before any >= entry; move on.
    if (start_index == leaf->entries.size() && leaf->next != nullptr) {
      leaf = leaf->next;
      start_index = 0;
    }
  } else {
    const Node* node = root_.get();
    while (!node->is_leaf) node = node->children.front().get();
    leaf = node;
  }

  for (const Node* node = leaf; node != nullptr; node = node->next) {
    for (size_t i = (node == leaf ? start_index : 0); i < node->entries.size();
         ++i) {
      const BTreeEntry& entry = node->entries[i];
      if (lo != nullptr && !lo_inclusive && entry.value.Compare(*lo) == 0) {
        continue;
      }
      if (hi != nullptr) {
        int c = entry.value.Compare(*hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return;
      }
      if (!fn(entry.value, entry.doc)) return;
    }
  }
}

int BPlusTree::height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

bool BPlusTree::CheckInvariants() const {
  // 1. Uniform leaf depth + sorted entries + separator bounds, via DFS.
  struct Frame {
    const Node* node;
    int depth;
  };
  std::vector<Frame> stack{{root_.get(), 1}};
  int leaf_depth = -1;
  size_t counted = 0;
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const Node* node = frame.node;
    // Multiset semantics: adjacent entries may be equal, never decreasing.
    for (size_t i = 1; i < node->entries.size(); ++i) {
      if (EntryLess(node->entries[i], node->entries[i - 1])) return false;
    }
    if (node->is_leaf) {
      if (leaf_depth == -1) leaf_depth = frame.depth;
      if (leaf_depth != frame.depth) return false;
      counted += node->entries.size();
    } else {
      if (node->children.size() != node->entries.size() + 1) return false;
      for (const auto& child : node->children) {
        stack.push_back({child.get(), frame.depth + 1});
      }
      // Separator bounds: keys in child i must be <= entries[i] (duplicates
      // of a separator may straddle the split), keys in child i+1 >= it.
      for (size_t i = 0; i < node->entries.size(); ++i) {
        const Node* left = node->children[i].get();
        const Node* right = node->children[i + 1].get();
        if (!left->entries.empty() &&
            EntryLess(node->entries[i], left->entries.back())) {
          return false;
        }
        if (!right->entries.empty() &&
            EntryLess(right->entries.front(), node->entries[i])) {
          return false;
        }
      }
    }
  }
  if (counted != size_) return false;

  // 2. Leaf chain visits exactly the leaves, in order.
  const Node* node = root_.get();
  while (!node->is_leaf) node = node->children.front().get();
  size_t chained = 0;
  const BTreeEntry* prev = nullptr;
  for (; node != nullptr; node = node->next) {
    chained += node->entries.size();
    for (const BTreeEntry& entry : node->entries) {
      if (prev != nullptr && EntryLess(entry, *prev)) return false;
      prev = &entry;
    }
  }
  return chained == size_;
}

}  // namespace impliance::index
