#include "src/container/avl_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/sim/rng.h"

namespace vusion {
namespace {

struct IntCompare {
  int operator()(const int& a, const int& b) const { return (a > b) - (a < b); }
};

using IntTree = AvlTree<int, IntCompare>;

auto Probe(int target) {
  return [target](const int& v) { return (target > v) - (target < v); };
}

TEST(AvlTreeTest, InsertAndFind) {
  IntTree tree;
  tree.Insert(10);
  tree.Insert(20);
  tree.Insert(5);
  EXPECT_EQ(tree.size(), 3u);
  auto [found, steps] = tree.Find(Probe(20));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 20);
  EXPECT_EQ(tree.Find(Probe(99)).first, nullptr);
}

TEST(AvlTreeTest, SequentialInsertStaysBalanced) {
  IntTree tree;
  for (int i = 0; i < 1000; ++i) {
    tree.Insert(i);
  }
  EXPECT_TRUE(tree.ValidateInvariants());
  // A balanced tree of 1000 nodes resolves lookups in <= ~12 steps.
  auto [found, steps] = tree.Find(Probe(999));
  ASSERT_NE(found, nullptr);
  EXPECT_LE(steps, 12u);
}

TEST(AvlTreeTest, RemoveIf) {
  IntTree tree;
  tree.Insert(1);
  tree.Insert(2);
  tree.Insert(3);
  EXPECT_TRUE(tree.RemoveIf(Probe(2)));
  EXPECT_FALSE(tree.RemoveIf(Probe(2)));
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.ValidateInvariants());
}

TEST(AvlTreeTest, InOrderSorted) {
  IntTree tree;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    tree.Insert(static_cast<int>(rng.NextBelow(10000)));
  }
  std::vector<int> values;
  tree.InOrder([&](const int& v) { values.push_back(v); });
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

class AvlPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AvlPropertyTest, RandomOperationsKeepBalance) {
  const int operations = GetParam();
  IntTree tree;
  Rng rng(3000 + operations);
  std::multiset<int> reference;
  for (int op = 0; op < operations; ++op) {
    if (reference.empty() || rng.NextBool(0.6)) {
      const int value = static_cast<int>(rng.NextBelow(300));
      tree.Insert(value);
      reference.insert(value);
    } else {
      auto it = reference.begin();
      std::advance(it, rng.NextBelow(reference.size()));
      ASSERT_TRUE(tree.RemoveIf(Probe(*it)));
      reference.erase(it);
    }
    ASSERT_TRUE(tree.ValidateInvariants()) << "after op " << op;
    ASSERT_EQ(tree.size(), reference.size());
  }
  std::vector<int> values;
  tree.InOrder([&](const int& v) { values.push_back(v); });
  EXPECT_TRUE(std::equal(values.begin(), values.end(), reference.begin()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AvlPropertyTest, ::testing::Values(10, 100, 1000));

// One ExportPreorder record: a value and the shape ImportPreorder reads back.
struct PreorderRecord {
  int value = 0;
  std::int32_t height = 1;
  bool has_left = false;
  bool has_right = false;
};

std::vector<PreorderRecord> ExportRecords(const IntTree& tree) {
  std::vector<PreorderRecord> records;
  tree.ExportPreorder([&](const int& v, std::int32_t height, bool has_left, bool has_right) {
    records.push_back({v, height, has_left, has_right});
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
      [&](std::int32_t& height, bool& has_left, bool& has_right) {
        if (*read == records.size()) {
          ADD_FAILURE() << "import read past the stream";
          return 0;  // a leaf ends the descent
        }
        const PreorderRecord& rec = records[(*read)++];
        height = rec.height;
        has_left = rec.has_left;
        has_right = rec.has_right;
        return rec.value;
      },
      [](IntTree::Node*) {});
}

// See RbTreeTest.ImportPreorderRejectsAStreamOfAnotherLength.
TEST(AvlTreeTest, ImportPreorderRejectsAStreamOfAnotherLength) {
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
      EXPECT_EQ(again[i].height, records[i].height);
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

// A left spine of 64 nodes nests past 2 * bit_width(64) = 14 levels, deeper
// than any AVL tree of 64 nodes; the import stops there.
TEST(AvlTreeTest, ImportPreorderRejectsASpineDeeperThanTheBound) {
  std::vector<PreorderRecord> spine(64);
  for (std::size_t i = 0; i < spine.size(); ++i) {
    spine[i] = {static_cast<int>(spine.size() - i), static_cast<std::int32_t>(spine.size() - i),
                i + 1 < spine.size(), false};
  }
  IntTree tree;
  std::size_t read = 0;
  EXPECT_FALSE(ImportRecords(tree, spine.size(), spine, &read));
  EXPECT_EQ(read, 14u);
}

TEST(AvlTreeTest, ClearThenReuse) {
  IntTree tree;
  for (int i = 0; i < 20; ++i) {
    tree.Insert(i);
  }
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  tree.Insert(42);
  EXPECT_EQ(*tree.Find(Probe(42)).first, 42);
}

}  // namespace
}  // namespace vusion
