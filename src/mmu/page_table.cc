#include "src/mmu/page_table.h"

#include <cassert>

#include "src/chaos/fault_injector.h"

namespace vusion {

PageTable::PageTable(FrameAllocator& allocator, PhysicalMemory& memory)
    : allocator_(&allocator), memory_(&memory) {
  root_ = NewNode(kPageTableLevels - 1);
}

PageTable::~PageTable() {
  if (root_ != nullptr) {
    FreeNode(root_.get());
  }
}

std::unique_ptr<PageTable::Node> PageTable::NewNode(int level) {
  auto node = std::make_unique<Node>();
  node->level = level;
  // Page-table node allocations are the simulator's __GFP_NOFAIL path: the
  // kernel cannot tolerate losing a translation level, so fault injection is
  // suppressed here (the allocation still fails on genuine exhaustion).
  const FaultInjector::ScopedSuppress no_chaos;
  node->frame = allocator_->Allocate();
  assert(node->frame != kInvalidFrame && "out of memory for page tables");
  if (level > 0) {
    node->children.resize(kPtFanout);
  }
  if (level <= 1) {
    node->entries.resize(kPtFanout);
  }
  ++node_count_;
  return node;
}

void PageTable::FreeNode(Node* node) {
  memo_region_ = ~Vpn{0};
  memo_pmd_ = nullptr;
  memo_leaf_ = nullptr;
  for (auto& child : node->children) {
    if (child != nullptr) {
      FreeNode(child.get());
      child.reset();
    }
  }
  allocator_->Free(node->frame);
  --node_count_;
}

Pte* PageTable::ResolveSlow(Vpn vpn, bool create) {
  const Vpn region = vpn >> 9;
  Node* pmd = region == memo_region_ ? memo_pmd_ : nullptr;
  if (pmd == nullptr) {
    pmd = root_.get();
    for (int level = kPageTableLevels - 1; level >= 2; --level) {
      std::unique_ptr<Node>& child = pmd->children[IndexAt(vpn, level)];
      if (child == nullptr) {
        if (!create) {
          return nullptr;
        }
        child = NewNode(level - 1);
      }
      pmd = child.get();
    }
    memo_region_ = region;
    memo_pmd_ = pmd;
  }
  const std::size_t idx = IndexAt(vpn, 1);
  if (pmd->entries[idx].huge()) {
    memo_leaf_ = nullptr;
    return &pmd->entries[idx];
  }
  std::unique_ptr<Node>& leaf = pmd->children[idx];
  if (leaf == nullptr) {
    if (!create) {
      memo_leaf_ = nullptr;
      return nullptr;
    }
    leaf = NewNode(0);
  }
  memo_leaf_ = leaf.get();
  return &leaf->entries[IndexAt(vpn, 0)];
}

const Pte* PageTable::Resolve(Vpn vpn) const {
  const Node* node = root_.get();
  for (int level = kPageTableLevels - 1; level >= 1; --level) {
    const std::size_t idx = IndexAt(vpn, level);
    if (level == 1 && node->entries[idx].huge()) {
      return &node->entries[idx];
    }
    const Node* child = node->children[idx].get();
    if (child == nullptr) {
      return nullptr;
    }
    node = child;
  }
  return &node->entries[IndexAt(vpn, 0)];
}

PageTable::WalkResult PageTable::TimedWalk(Vpn vpn) {
  WalkResult result;
  Node* node = root_.get();
  for (int level = kPageTableLevels - 1; level >= 1; --level) {
    const std::size_t idx = IndexAt(vpn, level);
    result.touched.push_back(EntryAddr(*node, idx));
    if (level == 1 && node->entries[idx].huge()) {
      result.pte = &node->entries[idx];
      return result;
    }
    Node* child = node->children[idx].get();
    if (child == nullptr) {
      return result;  // translation absent; fault with the levels touched so far
    }
    node = child;
  }
  const std::size_t idx = IndexAt(vpn, 0);
  result.touched.push_back(EntryAddr(*node, idx));
  result.pte = &node->entries[idx];
  return result;
}

void PageTable::MapHuge(Vpn vpn, FrameId frame_base, std::uint16_t flags) {
  assert(vpn % kPagesPerHugePage == 0);
  Node* node = root_.get();
  for (int level = kPageTableLevels - 1; level >= 2; --level) {
    std::unique_ptr<Node>& child = node->children[IndexAt(vpn, level)];
    if (child == nullptr) {
      child = NewNode(level - 1);
    }
    node = child.get();
  }
  const std::size_t idx = IndexAt(vpn, 1);
  if (node->children[idx] != nullptr) {
    FreeNode(node->children[idx].get());
    node->children[idx].reset();
  }
  node->entries[idx] = Pte{frame_base, static_cast<std::uint16_t>(flags | kPteHuge)};
}

bool PageTable::SplitHuge(Vpn vpn) {
  const Vpn base = vpn & ~(kPagesPerHugePage - 1);
  Node* node = root_.get();
  for (int level = kPageTableLevels - 1; level >= 2; --level) {
    Node* child = node->children[IndexAt(base, level)].get();
    if (child == nullptr) {
      return false;
    }
    node = child;
  }
  const std::size_t idx = IndexAt(base, 1);
  Pte& pmd = node->entries[idx];
  if (!pmd.huge()) {
    return false;
  }
  auto leaf = NewNode(0);
  const auto small_flags = static_cast<std::uint16_t>(pmd.flags & ~kPteHuge);
  for (std::size_t i = 0; i < kPagesPerHugePage; ++i) {
    leaf->entries[i] = Pte{static_cast<FrameId>(pmd.frame + i), small_flags};
  }
  pmd = Pte{};
  node->children[idx] = std::move(leaf);
  return true;
}

bool PageTable::IsHuge(Vpn vpn) const {
  const Pte* pte = Resolve(vpn);
  return pte != nullptr && pte->huge();
}

namespace {
void CollectNodes(const auto* node, std::vector<FrameId>& out) {
  out.push_back(node->frame);
  for (const auto& child : node->children) {
    if (child != nullptr) {
      CollectNodes(child.get(), out);
    }
  }
}
}  // namespace

void PageTable::CollectNodeFrames(std::vector<FrameId>& out) const {
  CollectNodes(root_.get(), out);
}

void PageTable::ForEachEntry(Vpn start, Vpn end, const std::function<void(Vpn, Pte&)>& fn) {
  ForEachRecursive(root_.get(), 0, start, end, fn);
}

void PageTable::ForEachRecursive(Node* node, Vpn base, Vpn start, Vpn end,
                                 const std::function<void(Vpn, Pte&)>& fn) {
  if (node->level == 0) {
    for (std::size_t i = 0; i < kPtFanout; ++i) {
      const Vpn vpn = base + i;
      if (vpn >= start && vpn < end && node->entries[i].flags != 0) {
        fn(vpn, node->entries[i]);
      }
    }
    return;
  }
  const Vpn span = Vpn{1} << (9 * node->level);
  for (std::size_t i = 0; i < kPtFanout; ++i) {
    const Vpn child_base = base + i * span;
    if (child_base >= end || child_base + span <= start) {
      continue;
    }
    if (node->level == 1 && node->entries[i].flags != 0) {
      fn(child_base, node->entries[i]);
      continue;
    }
    if (node->children[i] != nullptr) {
      ForEachRecursive(node->children[i].get(), child_base, start, end, fn);
    }
  }
}

}  // namespace vusion

#include "src/snapshot/io.h"

#include <functional>

namespace vusion {

void PageTable::SaveState(snapshot::SnapshotWriter& w) const {
  w.U64(node_count_);
  // Recursive structural dump. Entries are sparse by flags != 0: a cleared PTE
  // is behaviourally absent everywhere (Resolve callers gate on flags), so
  // both an uninterrupted run and a restored run serialize it identically.
  std::function<void(const Node&)> save = [&](const Node& node) {
    w.U32(node.frame);
    if (node.level <= 1) {
      std::uint32_t nonzero = 0;
      for (const Pte& e : node.entries) {
        if (e.flags != 0) {
          ++nonzero;
        }
      }
      w.U32(nonzero);
      for (std::size_t i = 0; i < node.entries.size(); ++i) {
        if (node.entries[i].flags != 0) {
          w.U16(static_cast<std::uint16_t>(i));
          w.U32(node.entries[i].frame);
          w.U16(node.entries[i].flags);
        }
      }
    }
    if (node.level >= 1) {
      std::uint32_t present = 0;
      for (const auto& child : node.children) {
        if (child != nullptr) {
          ++present;
        }
      }
      w.U32(present);
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (node.children[i] != nullptr) {
          w.U16(static_cast<std::uint16_t>(i));
          save(*node.children[i]);
        }
      }
    }
  };
  save(*root_);
}

void PageTable::Abandon() {
  memo_region_ = ~Vpn{0};
  memo_pmd_ = nullptr;
  memo_leaf_ = nullptr;
  root_.reset();
  node_count_ = 0;
}

void PageTable::RestoreState(snapshot::SnapshotReader& r) {
  const std::uint64_t expected_nodes = r.U64();
  // Discard the old tree without FreeNode: the buddy allocator is restored
  // wholesale by the Machine, so returning the old nodes' frames would
  // double-free them; the new tree reuses the *recorded* frames.
  Abandon();
  std::function<std::unique_ptr<Node>(int)> load = [&](int level) -> std::unique_ptr<Node> {
    auto node = std::make_unique<Node>();
    node->level = level;
    node->frame = r.Frame(memory_->frame_count());
    if (level > 0) {
      node->children.resize(kPtFanout);
    }
    if (level <= 1) {
      node->entries.resize(kPtFanout);
    }
    ++node_count_;
    if (level <= 1) {
      const std::uint32_t n = r.U32();
      if (n > kPtFanout) {
        throw snapshot::RestoreError("pagetable", "entry count out of range");
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint16_t idx = r.U16();
        if (idx >= kPtFanout) {
          throw snapshot::RestoreError("pagetable", "entry index out of range");
        }
        const FrameId frame = r.U32();
        const std::uint16_t flags = r.U16();
        node->entries[idx] = Pte{frame, flags};
      }
    }
    if (level >= 1) {
      const std::uint32_t n = r.U32();
      if (n > kPtFanout) {
        throw snapshot::RestoreError("pagetable", "child count out of range");
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint16_t idx = r.U16();
        if (idx >= kPtFanout || node->children[idx] != nullptr) {
          throw snapshot::RestoreError("pagetable", "bad child index");
        }
        node->children[idx] = load(level - 1);
      }
    }
    return node;
  };
  root_ = load(kPageTableLevels - 1);
  if (node_count_ != expected_nodes) {
    throw snapshot::RestoreError("pagetable", "node count mismatch");
  }
}

}  // namespace vusion
