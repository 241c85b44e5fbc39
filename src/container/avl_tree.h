// A from-scratch AVL tree modeling the balanced trees Windows Page Fusion keeps its
// fused ("combined") pages in. Same probe-based lookup interface as RbTree so the
// fusion engines can share code paths.

#ifndef VUSION_SRC_CONTAINER_AVL_TREE_H_
#define VUSION_SRC_CONTAINER_AVL_TREE_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/container/arena.h"

namespace vusion {

template <typename T, typename Compare>
class AvlTree {
 public:
  struct Node {
    T value;
    Node* left = nullptr;
    Node* right = nullptr;
    std::int32_t height = 1;
  };

  explicit AvlTree(Compare compare = Compare()) : compare_(std::move(compare)) {}
  ~AvlTree() { ClearRecursive(root_); }

  AvlTree(const AvlTree&) = delete;
  AvlTree& operator=(const AvlTree&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Compare& comparator() { return compare_; }

  // Routes node allocation through an arena (see src/container/arena.h). Must be
  // called while the tree is empty; the arena must outlive the tree.
  void SetNodeArena(Arena* arena) {
    assert(root_ == nullptr);
    arena_ = arena;
  }

  // Inserts a value (duplicates descend right). Returns comparisons performed.
  std::size_t Insert(T value) {
    std::size_t steps = 0;
    root_ = InsertRecursive(root_, std::move(value), steps);
    ++size_;
    return steps;
  }

  // Probe-based three-way search; see RbTree::Find.
  template <typename Probe>
  std::pair<const T*, std::size_t> Find(Probe&& probe) const {
    Node* cur = root_;
    std::size_t steps = 0;
    while (cur != nullptr) {
      ++steps;
      const int c = probe(cur->value);
      if (c == 0) {
        return {&cur->value, steps};
      }
      cur = (c < 0) ? cur->left : cur->right;
    }
    return {nullptr, steps};
  }

  // Removes the first value matching the probe. Returns true if found.
  template <typename Probe>
  bool RemoveIf(Probe&& probe) {
    bool removed = false;
    root_ = RemoveRecursive(root_, probe, removed);
    if (removed) {
      --size_;
    }
    return removed;
  }

  void Clear() {
    ClearRecursive(root_);
    root_ = nullptr;
    size_ = 0;
  }

  template <typename Visitor>
  void InOrder(Visitor&& visit) const {
    InOrderRecursive(root_, visit);
  }

  // Checks the AVL balance invariant (|balance factor| <= 1 everywhere) and that the
  // cached heights are consistent.
  [[nodiscard]] bool ValidateInvariants() const {
    bool ok = true;
    CheckRecursive(root_, ok);
    return ok;
  }

  // Savestates: structural preorder dump/rebuild (see RbTree::ExportPreorder).
  // Export calls fn(value, height, has_left, has_right) per node in preorder.
  template <typename Fn>
  void ExportPreorder(Fn&& fn) const {
    ExportPreorderRecursive(root_, fn);
  }

  // Rebuilds from the same preorder stream on an empty tree.
  // produce(height, has_left, has_right) returns the node's value; on_node fires
  // with each freshly linked Node* in preorder (so callers holding back-pointers
  // into the tree — WPF's Combined entries — can re-anchor them). Fails closed
  // like RbTree::ImportPreorder: false on a node count other than `count` or a
  // nesting deeper than 2 * bit_width(count) levels.
  template <typename Producer, typename OnNode>
  [[nodiscard]] bool ImportPreorder(std::size_t count, Producer&& produce, OnNode&& on_node) {
    assert(root_ == nullptr && size_ == 0);
    if (count == 0) {
      return true;
    }
    const auto levels = static_cast<std::size_t>(2 * std::bit_width(count));
    return ImportPreorderRecursive(&root_, levels, count, produce, on_node) && size_ == count;
  }

 private:
  template <typename Fn>
  void ExportPreorderRecursive(const Node* n, Fn& fn) const {
    if (n == nullptr) {
      return;
    }
    fn(n->value, n->height, n->left != nullptr, n->right != nullptr);
    ExportPreorderRecursive(n->left, fn);
    ExportPreorderRecursive(n->right, fn);
  }

  template <typename Producer, typename OnNode>
  bool ImportPreorderRecursive(Node** link, std::size_t levels, std::size_t count,
                               Producer& produce, OnNode& on_node) {
    if (levels == 0 || size_ == count) {
      return false;
    }
    std::int32_t height = 1;
    bool has_left = false;
    bool has_right = false;
    Node* n = NewNode(produce(height, has_left, has_right));
    n->height = height;
    *link = n;
    ++size_;
    on_node(n);
    return (!has_left ||
            ImportPreorderRecursive(&n->left, levels - 1, count, produce, on_node)) &&
           (!has_right ||
            ImportPreorderRecursive(&n->right, levels - 1, count, produce, on_node));
  }

  static std::int32_t HeightOf(const Node* n) { return n == nullptr ? 0 : n->height; }

  static void Update(Node* n) {
    n->height = 1 + std::max(HeightOf(n->left), HeightOf(n->right));
  }

  static Node* RotateRight(Node* y) {
    Node* x = y->left;
    y->left = x->right;
    x->right = y;
    Update(y);
    Update(x);
    return x;
  }

  static Node* RotateLeft(Node* x) {
    Node* y = x->right;
    x->right = y->left;
    y->left = x;
    Update(x);
    Update(y);
    return y;
  }

  static Node* Rebalance(Node* n) {
    Update(n);
    const std::int32_t balance = HeightOf(n->left) - HeightOf(n->right);
    if (balance > 1) {
      if (HeightOf(n->left->left) < HeightOf(n->left->right)) {
        n->left = RotateLeft(n->left);
      }
      return RotateRight(n);
    }
    if (balance < -1) {
      if (HeightOf(n->right->right) < HeightOf(n->right->left)) {
        n->right = RotateRight(n->right);
      }
      return RotateLeft(n);
    }
    return n;
  }

  Node* InsertRecursive(Node* n, T value, std::size_t& steps) {
    if (n == nullptr) {
      return NewNode(std::move(value));
    }
    ++steps;
    if (compare_(value, n->value) < 0) {
      n->left = InsertRecursive(n->left, std::move(value), steps);
    } else {
      n->right = InsertRecursive(n->right, std::move(value), steps);
    }
    return Rebalance(n);
  }

  template <typename Probe>
  Node* RemoveRecursive(Node* n, Probe& probe, bool& removed) {
    if (n == nullptr) {
      return nullptr;
    }
    const int c = probe(n->value);
    if (c < 0) {
      n->left = RemoveRecursive(n->left, probe, removed);
    } else if (c > 0) {
      n->right = RemoveRecursive(n->right, probe, removed);
    } else {
      removed = true;
      if (n->left == nullptr || n->right == nullptr) {
        Node* child = (n->left != nullptr) ? n->left : n->right;
        DeleteNode(n);
        return child;
      }
      // Two children: replace with in-order successor's value.
      Node* succ = n->right;
      while (succ->left != nullptr) {
        succ = succ->left;
      }
      n->value = std::move(succ->value);
      bool inner_removed = false;
      auto exact = [succ](const T&) { return 0; };
      n->right = RemoveExact(n->right, succ, exact, inner_removed);
      assert(inner_removed);
    }
    return Rebalance(n);
  }

  // Removes the specific node `target` (found by pointer identity along the leftmost
  // path), used when deleting a two-child node's successor.
  template <typename Probe>
  Node* RemoveExact(Node* n, Node* target, Probe& probe, bool& removed) {
    if (n == nullptr) {
      return nullptr;
    }
    if (n == target) {
      removed = true;
      Node* child = (n->left != nullptr) ? n->left : n->right;
      DeleteNode(n);
      return child;
    }
    n->left = RemoveExact(n->left, target, probe, removed);
    return Rebalance(n);
  }

  void ClearRecursive(Node* n) {
    if (n == nullptr) {
      return;
    }
    ClearRecursive(n->left);
    ClearRecursive(n->right);
    DeleteNode(n);
  }

  Node* NewNode(T value) {
    if (arena_ != nullptr) {
      return arena_->template New<Node>(Node{std::move(value)});
    }
    return new Node{std::move(value)};
  }

  void DeleteNode(Node* n) {
    if (arena_ != nullptr) {
      arena_->Delete(n);
    } else {
      delete n;
    }
  }

  template <typename Visitor>
  void InOrderRecursive(const Node* n, Visitor& visit) const {
    if (n == nullptr) {
      return;
    }
    InOrderRecursive(n->left, visit);
    visit(n->value);
    InOrderRecursive(n->right, visit);
  }

  std::int32_t CheckRecursive(const Node* n, bool& ok) const {
    if (n == nullptr) {
      return 0;
    }
    const std::int32_t lh = CheckRecursive(n->left, ok);
    const std::int32_t rh = CheckRecursive(n->right, ok);
    if (std::abs(lh - rh) > 1 || n->height != 1 + std::max(lh, rh)) {
      ok = false;
    }
    return 1 + std::max(lh, rh);
  }

  Compare compare_;
  Node* root_ = nullptr;
  std::size_t size_ = 0;
  Arena* arena_ = nullptr;
};

}  // namespace vusion

#endif  // VUSION_SRC_CONTAINER_AVL_TREE_H_
