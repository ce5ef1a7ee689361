// Red-black tree index mapping encoded keys to RowIds.
//
// The paper attributes master saturation under the ordering mix partly to
// "costly index updates ... due to rebalancing for inserts in the RB-tree
// index data structure" — so the index really is a red-black tree, and it
// counts its rotations so the cost model can charge for rebalancing work.
//
// Keys are the fixed-width byte strings of storage/key.hpp, all of one
// width per tree, ordered by memcmp and stored inline in their nodes.
// Keys are unique within a tree; non-unique secondary indexes are built
// by appending the primary key to the indexed columns (see Table).
//
// Range visits take a bound of fewer bytes than a key as a prefix: `lo`
// starts at the first key at or above it, and `hi` admits every key whose
// leading bytes are at or below it. An empty bound leaves that end open.
// The visitor is called as fn(std::string_view key, RowId) and returns
// false to stop early.
//
// The nodes are threaded: each holds a link to its in-order successor, so
// a forward walk steps one pointer per entry. The links follow the key
// order, which rotations never change, so they leave the tree's shape,
// colours and rotation count exactly as in the plain tree.
//
// Nodes come from the tree's own pool: blocks of nodes, an erased node
// going on a free list for the next insert. A copy takes its nodes from
// one block sized to it, in key order. clear() and the destructor hand
// the blocks back without visiting the nodes. Under ASan a free-listed
// node and a block's unused tail are poisoned.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/page.hpp"

namespace dmv::storage {

class RbTree {
 public:
  explicit RbTree(size_t key_width);
  ~RbTree();
  // An exact copy: the same shape, colours, keys, RowIds and rotations(),
  // so every later insert or erase rebalances (and counts) as on `o`.
  // The nodes are one block, laid out (and linked) in key order, so
  // in-order walks over the copy step through memory front to back.
  RbTree(const RbTree& o);
  RbTree& operator=(const RbTree&) = delete;
  RbTree(RbTree&& o) noexcept;
  RbTree& operator=(RbTree&& o) noexcept;

  size_t key_width() const { return width_; }

  // `key` is key_width() bytes. Returns false (and leaves the tree
  // unchanged) on duplicate key.
  bool insert(std::string_view key, RowId rid);

  // Returns false if the key was absent.
  bool erase(std::string_view key);

  // Nullopt unless a key equals `key` (so also for a shorter key).
  std::optional<RowId> find(std::string_view key) const;

  // In-order visit of the entries from `lo` through the prefix bound `hi`.
  template <typename Fn>
  void scan(std::string_view lo, std::string_view hi, Fn&& fn) const {
    for (Node* x = lo.empty() ? nil_->succ : lower_bound(lo); x != nil_;
         x = x->succ) {
      if (!hi.empty() && prefix_cmp(x, hi) > 0) return;
      if (!fn(key_of(x), rid_of(x))) return;
    }
  }

  // Reverse-order visit of the same range (newest-first scans, e.g.
  // "the most recent N orders"). It walks parent links: reverse scans are
  // short, and a predecessor link would grow every node by a word.
  template <typename Fn>
  void scan_desc(std::string_view lo, std::string_view hi, Fn&& fn) const {
    for (Node* x = hi.empty() ? maximum(root_) : upper_bound_prefix(hi);
         x != nil_; x = prev(x)) {
      if (!lo.empty() && prefix_cmp(x, lo) < 0) return;
      if (!fn(key_of(x), rid_of(x))) return;
    }
  }

  // Visit every entry in order.
  template <typename Fn>
  void scan_all(Fn&& fn) const {
    scan({}, {}, fn);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();
  // An empty tree of this key width that carries on rotations(): what
  // clear() would leave here, built without touching this tree.
  RbTree empty_like() const;

  // Rotations performed since construction; proxy for rebalancing cost.
  uint64_t rotations() const { return rotations_; }

  // Validates the red-black invariants (root black, no red-red edge, equal
  // black height on every path, BST ordering) and the successor chain
  // (from the minimum, strictly increasing keys, size() entries, ending at
  // the maximum). For tests.
  bool check_invariants() const;

  // Per entry in key order: the key-order position of its parent (-1 at
  // the root) and whether it is red. Two trees with equal keys have equal
  // shapes exactly when these are equal. For tests.
  std::vector<std::pair<int64_t, bool>> shape() const;

 private:
  // A node's key_width() key bytes follow it in the same allocation.
  // `succ` is the in-order successor, nil_ after the largest key; nil_'s
  // own `succ` is the smallest key, so the chain is a ring through nil_.
  // The RowId is stored as its two fields so `red` fills its padding.
  struct Node {
    Node* left;
    Node* right;
    Node* parent;
    PageNo page;
    uint16_t slot;
    bool red;
    Node* succ;
  };
  static_assert(sizeof(Node) == 40, "a tree node is five words");
  static RowId rid_of(const Node* x) { return {x->page, x->slot}; }
  static const char* key_bytes(const Node* x) {
    return reinterpret_cast<const char*>(x + 1);
  }
  std::string_view key_of(const Node* x) const {
    return {key_bytes(x), width_};
  }
  // memcmp's sign, inline: keys are a few words long, so comparing them
  // as big-endian 64-bit words beats a library call per tree level
  // (std::memcmp here made perfbench's setup_s about 50% higher; see
  // EXPERIMENTS.md, "Inline key compare against std::memcmp").
  static int compare(const char* a, const char* b, size_t n) {
    if (n < 8) {
      for (; n > 0; ++a, ++b, --n)
        if (*a != *b) return uint8_t(*a) < uint8_t(*b) ? -1 : 1;
      return 0;
    }
    const char* const a_last = a + n - 8;
    for (;; a += 8, b += 8) {
      // The last word may overlap the one before it, whose bytes are equal.
      if (a > a_last) {
        b -= a - a_last;
        a = a_last;
      }
      const uint64_t x = load_be64(a), y = load_be64(b);
      if (x != y) return x < y ? -1 : 1;
      if (a == a_last) return 0;
    }
  }
  static uint64_t load_be64(const char* p) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    if constexpr (std::endian::native == std::endian::little)
      v = __builtin_bswap64(v);
    return v;
  }
  // x's key against `bound` over the bound's bytes.
  static int prefix_cmp(const Node* x, std::string_view bound) {
    return compare(key_bytes(x), bound.data(), bound.size());
  }

  Node* new_node(std::string_view key, RowId rid, Node* parent);
  // Copy of `o`'s subtree rooted at `x` (o's nil_ maps to ours), left
  // subtree first so allocation follows key order. Each new node is
  // linked after `last`, which then points at it.
  Node* copy_subtree(const RbTree& o, const Node* x, Node*& last);
  static Node* new_nil();

  // --- node pool ---
  // A pool block: `bytes` of ::operator new memory, nodes at `stride_`.
  struct Block {
    std::byte* mem;
    size_t bytes;
  };
  // Bytes per node: the node and its key, rounded up to the node's
  // alignment.
  static size_t stride(size_t key_width) {
    return (sizeof(Node) + key_width + alignof(Node) - 1) /
           alignof(Node) * alignof(Node);
  }
  // A node's memory: the free list's head, else the current block's next
  // node, else the first node of a new block of `grow_nodes()` nodes.
  Node* alloc_node();
  // Puts `n` on the free list.
  void free_node(Node* n);
  // Adds a block of `nodes` nodes and makes it the current one.
  void add_block(size_t nodes);
  // Nodes in the block an insert adds when the pool is full: an eighth of
  // the tree, within [16, 1024].
  size_t grow_nodes() const;
  // Hands every block back and empties the pool.
  void drop_blocks();
  // Takes `o`'s pool, leaving `o`'s empty.
  void take_pool(RbTree& o);

  Node* maximum(Node* x) const {
    if (x == nil_) return nil_;
    while (x->right != nil_) x = x->right;
    return x;
  }
  Node* prev(Node* x) const {
    if (x->left != nil_) return maximum(x->left);
    Node* p = x->parent;
    while (p != nil_ && x == p->left) {
      x = p;
      p = p->parent;
    }
    return p;
  }
  // First node whose key is >= `bound` (prefix bytes compared).
  Node* lower_bound(std::string_view bound) const;
  // Last node whose key's prefix is <= `bound`.
  Node* upper_bound_prefix(std::string_view bound) const;
  void rotate_left(Node* x);
  void rotate_right(Node* x);
  void insert_fixup(Node* z);
  void erase_fixup(Node* x);
  void transplant(Node* u, Node* v);
  int black_height(const Node* n) const;

  size_t width_;
  size_t stride_;
  Node* root_;
  Node* nil_;
  size_t size_ = 0;
  uint64_t rotations_ = 0;
  std::vector<Block> blocks_;
  Node* free_ = nullptr;         // erased nodes, linked through `left`
  std::byte* next_ = nullptr;    // the current block's first unused node
  std::byte* end_ = nullptr;     // the current block's end
};

}  // namespace dmv::storage
