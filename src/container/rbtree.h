// A from-scratch red-black tree modeling the kernel's rbtree as used by KSM.
//
// KSM keeps two content-ordered red-black trees (stable and unstable); lookups walk
// the tree comparing the probe page's bytes against each node's page. To support
// that access pattern the tree is parameterized on a stateful three-way comparator
// (which typically dereferences frame contents), and Find() accepts an arbitrary
// three-way probe callable so a lookup can compare a page against stored entries
// without constructing a value.
//
// The tree is not thread safe; the simulated kernel is single-threaded by design.

#ifndef VUSION_SRC_CONTAINER_RBTREE_H_
#define VUSION_SRC_CONTAINER_RBTREE_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>

#include "src/container/arena.h"

namespace vusion {

template <typename T, typename Compare>
class RbTree {
 public:
  struct Node {
    T value;
    Node* left = nullptr;
    Node* right = nullptr;
    Node* parent = nullptr;
    bool red = true;
  };

  explicit RbTree(Compare compare = Compare()) : compare_(std::move(compare)) {}
  ~RbTree() { Clear(); }

  RbTree(const RbTree&) = delete;
  RbTree& operator=(const RbTree&) = delete;

  // Routes node allocation through an arena (see src/container/arena.h). Must be
  // called while the tree is empty; the arena must outlive the tree.
  void SetNodeArena(Arena* arena) {
    assert(root_ == nullptr);
    arena_ = arena;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Inserts a value; duplicates are allowed (they descend right, like the kernel's
  // tie-breaking by page address is irrelevant here). Returns the new node.
  Node* Insert(T value) {
    Node* node = NewNode(std::move(value));
    Node* parent = nullptr;
    Node* cur = root_;
    while (cur != nullptr) {
      parent = cur;
      cur = (compare_(node->value, cur->value) < 0) ? cur->left : cur->right;
    }
    node->parent = parent;
    if (parent == nullptr) {
      root_ = node;
    } else if (compare_(node->value, parent->value) < 0) {
      parent->left = node;
    } else {
      parent->right = node;
    }
    InsertFixup(node);
    ++size_;
    return node;
  }

  // Three-way search with an arbitrary probe: probe(value) < 0 descends left,
  // > 0 descends right, == 0 is a match. Returns the node, or nullptr.
  template <typename Probe>
  Node* Find(Probe&& probe) const {
    Node* cur = root_;
    while (cur != nullptr) {
      const int c = probe(cur->value);
      if (c == 0) {
        return cur;
      }
      cur = (c < 0) ? cur->left : cur->right;
    }
    return nullptr;
  }

  // Removes a node previously returned by Insert/Find. The node is deleted.
  void Remove(Node* z) {
    assert(z != nullptr);
    Node* y = z;
    bool y_was_red = y->red;
    Node* x = nullptr;
    Node* x_parent = nullptr;
    if (z->left == nullptr) {
      x = z->right;
      x_parent = z->parent;
      Transplant(z, z->right);
    } else if (z->right == nullptr) {
      x = z->left;
      x_parent = z->parent;
      Transplant(z, z->left);
    } else {
      y = Minimum(z->right);
      y_was_red = y->red;
      x = y->right;
      if (y->parent == z) {
        x_parent = y;
      } else {
        x_parent = y->parent;
        Transplant(y, y->right);
        y->right = z->right;
        y->right->parent = y;
      }
      Transplant(z, y);
      y->left = z->left;
      y->left->parent = y;
      y->red = z->red;
    }
    if (!y_was_red) {
      RemoveFixup(x, x_parent);
    }
    DeleteNode(z);
    --size_;
  }

  void Clear() {
    ClearRecursive(root_);
    root_ = nullptr;
    size_ = 0;
  }

  // In-order traversal; visitor receives const T&.
  template <typename Visitor>
  void InOrder(Visitor&& visit) const {
    InOrderRecursive(root_, visit);
  }

  // Verifies the red-black invariants: root black, no red node has a red child, and
  // all root-to-leaf paths contain the same number of black nodes. Used by tests.
  [[nodiscard]] bool ValidateInvariants() const {
    if (root_ != nullptr && root_->red) {
      return false;
    }
    int black_height = -1;
    return ValidateRecursive(root_, 0, black_height);
  }

  // Savestates: structural preorder dump/rebuild. The node colours travel with
  // the values, so a restored tree is the *same* tree — not merely an
  // equivalent set — and every future descent path (and thus every
  // shape-dependent Find result) matches the saved instance exactly.
  // Export calls fn(value, red, has_left, has_right) per node in preorder.
  template <typename Fn>
  void ExportPreorder(Fn&& fn) const {
    ExportPreorderRecursive(root_, fn);
  }

  // Rebuilds from the same preorder stream. Must be called on an empty tree.
  // produce(red, has_left, has_right) returns the node's value; after each node
  // is linked, on_node(Node*) fires in preorder so callers can rebuild
  // pointer/index maps into the tree's stored values. Returns false, and stops
  // reading, once the stream's has-left/has-right flags yield a node count
  // other than `count` or nest deeper than 2 * bit_width(count) levels, more
  // than any red-black tree of `count` nodes has. The nodes read so far stay
  // linked, so the destructor frees them.
  template <typename Producer, typename OnNode>
  [[nodiscard]] bool ImportPreorder(std::size_t count, Producer&& produce, OnNode&& on_node) {
    assert(root_ == nullptr && size_ == 0);
    if (count == 0) {
      return true;
    }
    const auto levels = static_cast<std::size_t>(2 * std::bit_width(count));
    return ImportPreorderRecursive(&root_, nullptr, levels, count, produce, on_node) &&
           size_ == count;
  }

 private:
  template <typename Fn>
  void ExportPreorderRecursive(const Node* n, Fn& fn) const {
    if (n == nullptr) {
      return;
    }
    fn(n->value, n->red, n->left != nullptr, n->right != nullptr);
    ExportPreorderRecursive(n->left, fn);
    ExportPreorderRecursive(n->right, fn);
  }

  // Links the next streamed node at *link, then its subtrees, at most `levels`
  // deep; false once a node is past that depth or past `count`.
  template <typename Producer, typename OnNode>
  bool ImportPreorderRecursive(Node** link, Node* parent, std::size_t levels, std::size_t count,
                               Producer& produce, OnNode& on_node) {
    if (levels == 0 || size_ == count) {
      return false;
    }
    bool red = false;
    bool has_left = false;
    bool has_right = false;
    Node* n = NewNode(produce(red, has_left, has_right));
    n->parent = parent;
    n->red = red;
    *link = n;
    ++size_;
    on_node(n);
    return (!has_left ||
            ImportPreorderRecursive(&n->left, n, levels - 1, count, produce, on_node)) &&
           (!has_right ||
            ImportPreorderRecursive(&n->right, n, levels - 1, count, produce, on_node));
  }

  static Node* Minimum(Node* n) {
    while (n->left != nullptr) {
      n = n->left;
    }
    return n;
  }

  void RotateLeft(Node* x) {
    Node* y = x->right;
    x->right = y->left;
    if (y->left != nullptr) {
      y->left->parent = x;
    }
    y->parent = x->parent;
    if (x->parent == nullptr) {
      root_ = y;
    } else if (x == x->parent->left) {
      x->parent->left = y;
    } else {
      x->parent->right = y;
    }
    y->left = x;
    x->parent = y;
  }

  void RotateRight(Node* x) {
    Node* y = x->left;
    x->left = y->right;
    if (y->right != nullptr) {
      y->right->parent = x;
    }
    y->parent = x->parent;
    if (x->parent == nullptr) {
      root_ = y;
    } else if (x == x->parent->right) {
      x->parent->right = y;
    } else {
      x->parent->left = y;
    }
    y->right = x;
    x->parent = y;
  }

  void InsertFixup(Node* z) {
    while (z->parent != nullptr && z->parent->red) {
      Node* gp = z->parent->parent;
      if (z->parent == gp->left) {
        Node* uncle = gp->right;
        if (uncle != nullptr && uncle->red) {
          z->parent->red = false;
          uncle->red = false;
          gp->red = true;
          z = gp;
        } else {
          if (z == z->parent->right) {
            z = z->parent;
            RotateLeft(z);
          }
          z->parent->red = false;
          z->parent->parent->red = true;
          RotateRight(z->parent->parent);
        }
      } else {
        Node* uncle = gp->left;
        if (uncle != nullptr && uncle->red) {
          z->parent->red = false;
          uncle->red = false;
          gp->red = true;
          z = gp;
        } else {
          if (z == z->parent->left) {
            z = z->parent;
            RotateRight(z);
          }
          z->parent->red = false;
          z->parent->parent->red = true;
          RotateLeft(z->parent->parent);
        }
      }
    }
    root_->red = false;
  }

  void Transplant(Node* u, Node* v) {
    if (u->parent == nullptr) {
      root_ = v;
    } else if (u == u->parent->left) {
      u->parent->left = v;
    } else {
      u->parent->right = v;
    }
    if (v != nullptr) {
      v->parent = u->parent;
    }
  }

  static bool IsRed(const Node* n) { return n != nullptr && n->red; }

  // x may be null; x_parent is its (possibly new) parent.
  void RemoveFixup(Node* x, Node* x_parent) {
    while (x != root_ && !IsRed(x)) {
      if (x_parent == nullptr) {
        break;
      }
      if (x == x_parent->left) {
        Node* w = x_parent->right;
        if (IsRed(w)) {
          w->red = false;
          x_parent->red = true;
          RotateLeft(x_parent);
          w = x_parent->right;
        }
        if (!IsRed(w->left) && !IsRed(w->right)) {
          w->red = true;
          x = x_parent;
          x_parent = x->parent;
        } else {
          if (!IsRed(w->right)) {
            if (w->left != nullptr) {
              w->left->red = false;
            }
            w->red = true;
            RotateRight(w);
            w = x_parent->right;
          }
          w->red = x_parent->red;
          x_parent->red = false;
          if (w->right != nullptr) {
            w->right->red = false;
          }
          RotateLeft(x_parent);
          x = root_;
          x_parent = nullptr;
        }
      } else {
        Node* w = x_parent->left;
        if (IsRed(w)) {
          w->red = false;
          x_parent->red = true;
          RotateRight(x_parent);
          w = x_parent->left;
        }
        if (!IsRed(w->right) && !IsRed(w->left)) {
          w->red = true;
          x = x_parent;
          x_parent = x->parent;
        } else {
          if (!IsRed(w->left)) {
            if (w->right != nullptr) {
              w->right->red = false;
            }
            w->red = true;
            RotateLeft(w);
            w = x_parent->left;
          }
          w->red = x_parent->red;
          x_parent->red = false;
          if (w->left != nullptr) {
            w->left->red = false;
          }
          RotateRight(x_parent);
          x = root_;
          x_parent = nullptr;
        }
      }
    }
    if (x != nullptr) {
      x->red = false;
    }
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

  bool ValidateRecursive(const Node* n, int blacks, int& expected) const {
    if (n == nullptr) {
      if (expected < 0) {
        expected = blacks;
      }
      return blacks == expected;
    }
    if (n->red && (IsRed(n->left) || IsRed(n->right))) {
      return false;
    }
    if (!n->red) {
      ++blacks;
    }
    return ValidateRecursive(n->left, blacks, expected) &&
           ValidateRecursive(n->right, blacks, expected);
  }

  Compare compare_;
  Node* root_ = nullptr;
  std::size_t size_ = 0;
  Arena* arena_ = nullptr;
};

}  // namespace vusion

#endif  // VUSION_SRC_CONTAINER_RBTREE_H_
