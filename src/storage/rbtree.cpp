#include "storage/rbtree.hpp"

#include <new>
#include <unordered_map>

#include "util/assert.hpp"

namespace dmv::storage {

RbTree::Node* RbTree::new_nil() {
  Node* n = new (::operator new(sizeof(Node))) Node{};
  n->left = n->right = n->parent = n;
  return n;
}

RbTree::Node* RbTree::new_node(std::string_view key, RowId rid,
                               Node* parent) {
  Node* n = new (::operator new(sizeof(Node) + width_))
      Node{nil_, nil_, parent, rid, true};
  std::memcpy(n + 1, key.data(), width_);
  return n;
}

void RbTree::free_node(Node* n) { ::operator delete(n); }

RbTree::RbTree(size_t key_width)
    : width_(key_width), root_(nullptr), nil_(new_nil()) {
  root_ = nil_;
}

RbTree::~RbTree() {
  clear();
  free_node(nil_);
}

RbTree::RbTree(const RbTree& o)
    : width_(o.width_),
      root_(nullptr),
      nil_(new_nil()),
      size_(o.size_),
      rotations_(o.rotations_) {
  root_ = copy_subtree(o, o.root_);
}

RbTree::Node* RbTree::copy_subtree(const RbTree& o, const Node* x) {
  // Plain recursion: the tree depth is O(log n).
  if (x == o.nil_) return nil_;
  Node* left = copy_subtree(o, x->left);
  Node* n = new_node(o.key_of(x), x->rid, nil_);
  n->red = x->red;
  n->left = left;
  if (left != nil_) left->parent = n;
  n->right = copy_subtree(o, x->right);
  if (n->right != nil_) n->right->parent = n;
  return n;
}

RbTree::RbTree(RbTree&& o) noexcept
    : width_(o.width_),
      root_(o.root_),
      nil_(o.nil_),
      size_(o.size_),
      rotations_(o.rotations_) {
  o.nil_ = new_nil();
  o.root_ = o.nil_;
  o.size_ = 0;
}

RbTree& RbTree::operator=(RbTree&& o) noexcept {
  if (this != &o) {
    clear();
    free_node(nil_);
    width_ = o.width_;
    root_ = o.root_;
    nil_ = o.nil_;
    size_ = o.size_;
    rotations_ = o.rotations_;
    o.nil_ = new_nil();
    o.root_ = o.nil_;
    o.size_ = 0;
  }
  return *this;
}

void RbTree::free_subtree(Node* n) {
  // Iterative post-order free to avoid deep recursion on large tables.
  std::vector<Node*> stack;
  if (n != nil_) stack.push_back(n);
  while (!stack.empty()) {
    Node* cur = stack.back();
    stack.pop_back();
    if (cur->left != nil_) stack.push_back(cur->left);
    if (cur->right != nil_) stack.push_back(cur->right);
    free_node(cur);
  }
}

void RbTree::clear() {
  free_subtree(root_);
  root_ = nil_;
  size_ = 0;
}

void RbTree::rotate_left(Node* x) {
  ++rotations_;
  Node* y = x->right;
  x->right = y->left;
  if (y->left != nil_) y->left->parent = x;
  y->parent = x->parent;
  if (x->parent == nil_)
    root_ = y;
  else if (x == x->parent->left)
    x->parent->left = y;
  else
    x->parent->right = y;
  y->left = x;
  x->parent = y;
}

void RbTree::rotate_right(Node* x) {
  ++rotations_;
  Node* y = x->left;
  x->left = y->right;
  if (y->right != nil_) y->right->parent = x;
  y->parent = x->parent;
  if (x->parent == nil_)
    root_ = y;
  else if (x == x->parent->right)
    x->parent->right = y;
  else
    x->parent->left = y;
  y->right = x;
  x->parent = y;
}

bool RbTree::insert(std::string_view key, RowId rid) {
  DMV_ASSERT(key.size() == width_);
  Node* y = nil_;
  Node* x = root_;
  int c = 0;
  while (x != nil_) {
    y = x;
    c = compare(key.data(), key_bytes(x), width_);
    if (c == 0) return false;
    x = c < 0 ? x->left : x->right;
  }
  Node* z = new_node(key, rid, y);
  if (y == nil_)
    root_ = z;
  else if (c < 0)
    y->left = z;
  else
    y->right = z;
  insert_fixup(z);
  ++size_;
  return true;
}

void RbTree::insert_fixup(Node* z) {
  while (z->parent->red) {
    if (z->parent == z->parent->parent->left) {
      Node* y = z->parent->parent->right;
      if (y->red) {
        z->parent->red = false;
        y->red = false;
        z->parent->parent->red = true;
        z = z->parent->parent;
      } else {
        if (z == z->parent->right) {
          z = z->parent;
          rotate_left(z);
        }
        z->parent->red = false;
        z->parent->parent->red = true;
        rotate_right(z->parent->parent);
      }
    } else {
      Node* y = z->parent->parent->left;
      if (y->red) {
        z->parent->red = false;
        y->red = false;
        z->parent->parent->red = true;
        z = z->parent->parent;
      } else {
        if (z == z->parent->left) {
          z = z->parent;
          rotate_right(z);
        }
        z->parent->red = false;
        z->parent->parent->red = true;
        rotate_left(z->parent->parent);
      }
    }
  }
  root_->red = false;
}

void RbTree::transplant(Node* u, Node* v) {
  if (u->parent == nil_)
    root_ = v;
  else if (u == u->parent->left)
    u->parent->left = v;
  else
    u->parent->right = v;
  v->parent = u->parent;
}

bool RbTree::erase(std::string_view key) {
  DMV_ASSERT(key.size() == width_);
  Node* z = root_;
  while (z != nil_) {
    const int c = compare(key.data(), key_bytes(z), width_);
    if (c == 0) break;
    z = c < 0 ? z->left : z->right;
  }
  if (z == nil_) return false;

  Node* y = z;
  bool y_was_red = y->red;
  Node* x;
  if (z->left == nil_) {
    x = z->right;
    transplant(z, z->right);
  } else if (z->right == nil_) {
    x = z->left;
    transplant(z, z->left);
  } else {
    y = minimum(z->right);
    y_was_red = y->red;
    x = y->right;
    if (y->parent == z) {
      x->parent = y;
    } else {
      transplant(y, y->right);
      y->right = z->right;
      y->right->parent = y;
    }
    transplant(z, y);
    y->left = z->left;
    y->left->parent = y;
    y->red = z->red;
  }
  free_node(z);
  if (!y_was_red) erase_fixup(x);
  --size_;
  return true;
}

void RbTree::erase_fixup(Node* x) {
  while (x != root_ && !x->red) {
    if (x == x->parent->left) {
      Node* w = x->parent->right;
      if (w->red) {
        w->red = false;
        x->parent->red = true;
        rotate_left(x->parent);
        w = x->parent->right;
      }
      if (!w->left->red && !w->right->red) {
        w->red = true;
        x = x->parent;
      } else {
        if (!w->right->red) {
          w->left->red = false;
          w->red = true;
          rotate_right(w);
          w = x->parent->right;
        }
        w->red = x->parent->red;
        x->parent->red = false;
        w->right->red = false;
        rotate_left(x->parent);
        x = root_;
      }
    } else {
      Node* w = x->parent->left;
      if (w->red) {
        w->red = false;
        x->parent->red = true;
        rotate_right(x->parent);
        w = x->parent->left;
      }
      if (!w->right->red && !w->left->red) {
        w->red = true;
        x = x->parent;
      } else {
        if (!w->left->red) {
          w->right->red = false;
          w->red = true;
          rotate_left(w);
          w = x->parent->left;
        }
        w->red = x->parent->red;
        x->parent->red = false;
        w->left->red = false;
        rotate_right(x->parent);
        x = root_;
      }
    }
  }
  x->red = false;
}

std::optional<RowId> RbTree::find(std::string_view key) const {
  if (key.size() != width_) return std::nullopt;
  Node* x = root_;
  while (x != nil_) {
    const int c = compare(key.data(), key_bytes(x), width_);
    if (c == 0) return x->rid;
    x = c < 0 ? x->left : x->right;
  }
  return std::nullopt;
}

RbTree::Node* RbTree::lower_bound(std::string_view bound) const {
  Node* x = root_;
  Node* best = nil_;
  while (x != nil_) {
    if (prefix_cmp(x, bound) >= 0) {
      best = x;
      x = x->left;
    } else {
      x = x->right;
    }
  }
  return best;
}

RbTree::Node* RbTree::upper_bound_prefix(std::string_view bound) const {
  Node* x = root_;
  Node* best = nil_;
  while (x != nil_) {
    if (prefix_cmp(x, bound) <= 0) {
      best = x;
      x = x->right;
    } else {
      x = x->left;
    }
  }
  return best;
}

int RbTree::black_height(const Node* n) const {
  // Plain recursion: the tree depth is O(log n). -1 flags a violation.
  if (n == nil_) return 1;
  if (n->red && (n->left->red || n->right->red)) return -1;
  if (n->left != nil_ &&
      compare(key_bytes(n->left), key_bytes(n), width_) >= 0)
    return -1;
  if (n->right != nil_ &&
      compare(key_bytes(n), key_bytes(n->right), width_) >= 0)
    return -1;
  const int lh = black_height(n->left);
  const int rh = black_height(n->right);
  if (lh < 0 || rh < 0 || lh != rh) return -1;
  return lh + (n->red ? 0 : 1);
}

bool RbTree::check_invariants() const {
  return !root_->red && black_height(root_) >= 0;
}

std::vector<std::pair<int64_t, bool>> RbTree::shape() const {
  std::vector<const Node*> order;
  for (Node* x = minimum(root_); x != nil_; x = next(x)) order.push_back(x);
  std::unordered_map<const Node*, int64_t> pos;
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = int64_t(i);
  std::vector<std::pair<int64_t, bool>> out;
  out.reserve(order.size());
  for (const Node* x : order)
    out.emplace_back(x->parent == nil_ ? -1 : pos.at(x->parent), x->red);
  return out;
}

}  // namespace dmv::storage
