#include "src/container/rbtree.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/sim/rng.h"

namespace vusion {
namespace {

struct IntCompare {
  int operator()(const int& a, const int& b) const { return (a > b) - (a < b); }
};

using IntTree = RbTree<int, IntCompare>;

int ProbeFor(int target, const int& value) { return (target > value) - (target < value); }

TEST(RbTreeTest, InsertAndFind) {
  IntTree tree;
  tree.Insert(5);
  tree.Insert(3);
  tree.Insert(8);
  EXPECT_EQ(tree.size(), 3u);
  const IntTree::Node* node = tree.Find([](const int& v) { return ProbeFor(3, v); });
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->value, 3);
  EXPECT_EQ(tree.Find([](const int& v) { return ProbeFor(42, v); }), nullptr);
}

TEST(RbTreeTest, InOrderIsSorted) {
  IntTree tree;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(static_cast<int>(rng.NextBelow(1000)));
  }
  std::vector<int> values;
  tree.InOrder([&](const int& v) { values.push_back(v); });
  EXPECT_EQ(values.size(), 200u);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST(RbTreeTest, RemoveLeafRootAndInner) {
  IntTree tree;
  tree.Insert(5);
  IntTree::Node* n3 = tree.Insert(3);
  IntTree::Node* n8 = tree.Insert(8);
  tree.Insert(7);
  tree.Remove(n3);  // leaf
  EXPECT_TRUE(tree.ValidateInvariants());
  tree.Remove(n8);  // inner with child
  EXPECT_TRUE(tree.ValidateInvariants());
  EXPECT_EQ(tree.size(), 2u);
  std::vector<int> values;
  tree.InOrder([&](const int& v) { values.push_back(v); });
  EXPECT_EQ(values, (std::vector<int>{5, 7}));
}

TEST(RbTreeTest, DuplicatesAllowed) {
  IntTree tree;
  tree.Insert(4);
  tree.Insert(4);
  tree.Insert(4);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_TRUE(tree.ValidateInvariants());
}

TEST(RbTreeTest, ClearEmptiesTree) {
  IntTree tree;
  for (int i = 0; i < 50; ++i) {
    tree.Insert(i);
  }
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.ValidateInvariants());
  tree.Insert(1);
  EXPECT_EQ(tree.size(), 1u);
}

// Property test: random insert/remove interleavings preserve the red-black
// invariants and match a reference multiset.
class RbTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RbTreePropertyTest, RandomOperationsKeepInvariants) {
  const int operations = GetParam();
  IntTree tree;
  Rng rng(100 + operations);
  std::multimap<int, IntTree::Node*> live;
  for (int op = 0; op < operations; ++op) {
    if (live.empty() || rng.NextBool(0.6)) {
      const int value = static_cast<int>(rng.NextBelow(500));
      live.emplace(value, tree.Insert(value));
    } else {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      tree.Remove(it->second);
      live.erase(it);
    }
    ASSERT_TRUE(tree.ValidateInvariants()) << "after op " << op;
    ASSERT_EQ(tree.size(), live.size());
  }
  // Final content check.
  std::vector<int> tree_values;
  tree.InOrder([&](const int& v) { tree_values.push_back(v); });
  std::vector<int> expected;
  for (const auto& [v, node] : live) {
    expected.push_back(v);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(tree_values, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RbTreePropertyTest,
                         ::testing::Values(10, 100, 500, 2000));

// One ExportPreorder record: a value and the shape ImportPreorder reads back.
struct PreorderRecord {
  int value = 0;
  bool red = false;
  bool has_left = false;
  bool has_right = false;
};

std::vector<PreorderRecord> ExportRecords(const IntTree& tree) {
  std::vector<PreorderRecord> records;
  tree.ExportPreorder([&](const int& v, bool red, bool has_left, bool has_right) {
    records.push_back({v, red, has_left, has_right});
  });
  return records;
}

// Imports `records` into `tree` as a stream that claims `count` nodes and
// returns ImportPreorder's result; *read counts the records it consumed.
bool ImportRecords(IntTree& tree, std::size_t count, const std::vector<PreorderRecord>& records,
                   std::size_t* read) {
  *read = 0;
  return tree.ImportPreorder(
      count,
      [&](bool& red, bool& has_left, bool& has_right) {
        if (*read == records.size()) {
          ADD_FAILURE() << "import read past the stream";
          return 0;  // a leaf ends the descent
        }
        const PreorderRecord& rec = records[(*read)++];
        red = rec.red;
        has_left = rec.has_left;
        has_right = rec.has_right;
        return rec.value;
      },
      [](IntTree::Node*) {});
}

// A stream must describe exactly `count` nodes: the right count rebuilds the
// same tree, and a count one off either way fails without reading past the
// stream (short) or past `count` nodes (long).
TEST(RbTreeTest, ImportPreorderRejectsAStreamOfAnotherLength) {
  IntTree source;
  for (int i = 0; i < 50; ++i) {
    source.Insert(i * 7 % 50);
  }
  const std::vector<PreorderRecord> records = ExportRecords(source);
  ASSERT_EQ(records.size(), 50u);
  std::size_t read = 0;
  {
    IntTree tree;
    EXPECT_TRUE(ImportRecords(tree, 50, records, &read));
    EXPECT_EQ(read, 50u);
    EXPECT_TRUE(tree.ValidateInvariants());
    const std::vector<PreorderRecord> again = ExportRecords(tree);
    ASSERT_EQ(again.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(again[i].value, records[i].value);
      EXPECT_EQ(again[i].red, records[i].red);
    }
  }
  {
    IntTree tree;
    EXPECT_FALSE(ImportRecords(tree, 51, records, &read)) << "short stream";
    EXPECT_EQ(read, 50u);
  }
  {
    IntTree tree;
    EXPECT_FALSE(ImportRecords(tree, 49, records, &read)) << "long stream";
    EXPECT_EQ(read, 49u);
    EXPECT_EQ(tree.size(), 49u);  // what was read stays linked for the destructor
  }
}

// A left spine of 64 nodes is deeper than any red-black tree of 64 nodes
// (2 * bit_width(64) = 14 levels); the import stops at that depth instead of
// recursing down the whole spine.
TEST(RbTreeTest, ImportPreorderRejectsASpineDeeperThanTheBound) {
  std::vector<PreorderRecord> spine(64);
  for (std::size_t i = 0; i < spine.size(); ++i) {
    spine[i] = {static_cast<int>(spine.size() - i), false, i + 1 < spine.size(), false};
  }
  IntTree tree;
  std::size_t read = 0;
  EXPECT_FALSE(ImportRecords(tree, spine.size(), spine, &read));
  EXPECT_EQ(read, 14u);
}

}  // namespace
}  // namespace vusion
