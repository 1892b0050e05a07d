#include "catalog/catalog.h"

#include "gtest/gtest.h"
#include "types/schema.h"

namespace erq {
namespace {

Schema AbSchema() {
  return Schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
}

TEST(SchemaTest, IndexOfCaseInsensitive) {
  Schema s = AbSchema();
  auto idx = s.IndexOf("A");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 0u);
  EXPECT_TRUE(s.Contains("B"));
  EXPECT_FALSE(s.Contains("c"));
  EXPECT_FALSE(s.IndexOf("missing").ok());
}

TEST(SchemaTest, ToString) {
  EXPECT_EQ(AbSchema().ToString(), "a INT, b STRING");
}

TEST(TableTest, AppendValidatesArity) {
  Table t("t", AbSchema());
  EXPECT_FALSE(t.Append({Value::Int(1)}).ok());
  EXPECT_TRUE(t.Append({Value::Int(1), Value::String("x")}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, AppendValidatesTypes) {
  Table t("t", AbSchema());
  EXPECT_FALSE(t.Append({Value::String("no"), Value::String("x")}).ok());
  // NULLs are allowed in any column.
  EXPECT_TRUE(t.Append({Value::Null(), Value::Null()}).ok());
}

TEST(TableTest, VersionBumpsOnMutation) {
  Table t("t", AbSchema());
  uint64_t v0 = t.version();
  t.AppendUnchecked({Value::Int(1), Value::String("x")});
  EXPECT_GT(t.version(), v0);
  uint64_t v1 = t.version();
  t.Clear();
  EXPECT_GT(t.version(), v1);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("T", AbSchema()).ok());
  EXPECT_TRUE(c.HasTable("t"));  // case-insensitive
  EXPECT_FALSE(c.CreateTable("t", AbSchema()).ok());
  ASSERT_TRUE(c.GetTable("T").ok());
  ASSERT_TRUE(c.DropTable("T").ok());
  EXPECT_FALSE(c.HasTable("T"));
  EXPECT_FALSE(c.DropTable("T").ok());
}

TEST(CatalogTest, RejectsDuplicateColumns) {
  Catalog c;
  EXPECT_FALSE(
      c.CreateTable("bad", Schema({{"x", DataType::kInt64},
                                   {"X", DataType::kInt64}}))
          .ok());
}

TEST(CatalogTest, UpdateListenersFireOnAppendAndDrop) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("t", AbSchema()).ok());
  std::vector<std::string> events;
  c.AddUpdateListener([&](const std::string& name) { events.push_back(name); });
  ASSERT_TRUE(
      c.AppendRows("t", {{Value::Int(1), Value::String("x")}}).ok());
  ASSERT_TRUE(c.DropTable("t").ok());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "t");
}

/// Row ids of `index` within [lo, hi] per bounds.
std::vector<size_t> Lookup(const SortedIndex& index, Bound lo, Bound hi) {
  std::vector<size_t> out;
  index.snapshot()->AppendRange(KeyRange{std::move(lo), std::move(hi)}, &out);
  return out;
}

TEST(IndexTest, EqualAndRangeLookup) {
  Catalog c;
  auto t = c.CreateTable("t", AbSchema());
  ASSERT_TRUE(t.ok());
  for (int64_t i = 0; i < 10; ++i) {
    t.value()->AppendUnchecked({Value::Int(i % 5), Value::String("r")});
  }
  auto idx = c.CreateIndex("t", "a");
  ASSERT_TRUE(idx.ok());
  const SortedIndex& index = *idx.value();
  // Key 3 sits in rows 3 and 8, emitted in row order.
  EXPECT_EQ(Lookup(index, Bound::Inclusive(Value::Int(3)),
                   Bound::Inclusive(Value::Int(3))),
            (std::vector<size_t>{3, 8}));
  EXPECT_EQ(Lookup(index, Bound::Inclusive(Value::Int(99)),
                   Bound::Inclusive(Value::Int(99)))
                .size(),
            0u);
  // [1, 3): values 1, 2 => 4 rows.
  EXPECT_EQ(Lookup(index, Bound::Inclusive(Value::Int(1)),
                   Bound::Exclusive(Value::Int(3)))
                .size(),
            4u);
  // Unbounded scan returns everything; an inverted range nothing.
  EXPECT_EQ(Lookup(index, Bound::Unbounded(), Bound::Unbounded()).size(), 10u);
  EXPECT_EQ(Lookup(index, Bound::Inclusive(Value::Int(4)),
                   Bound::Inclusive(Value::Int(1)))
                .size(),
            0u);
}

TEST(IndexTest, SkipsNullKeysAndRefreshes) {
  Catalog c;
  auto t = c.CreateTable("t", AbSchema());
  ASSERT_TRUE(t.ok());
  t.value()->AppendUnchecked({Value::Null(), Value::String("n")});
  t.value()->AppendUnchecked({Value::Int(1), Value::String("x")});
  auto idx = c.CreateIndex("t", "a");
  ASSERT_TRUE(idx.ok());
  std::shared_ptr<const SortedIndex::Snapshot> before = idx.value()->snapshot();
  EXPECT_EQ(before->num_entries(), 1u);
  EXPECT_EQ(idx.value()->snapshot(), before);  // one build per version
  // Append more rows: the next snapshot covers them, the old one is kept
  // unchanged for readers still holding it.
  t.value()->AppendUnchecked({Value::Int(2), Value::String("y")});
  SortedIndex* found = c.FindIndex("t", "a");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->snapshot()->num_entries(), 2u);
  EXPECT_EQ(before->num_entries(), 1u);
  EXPECT_EQ(c.FindIndex("t", "b"), nullptr);
}

TEST(IndexTest, CreateIndexIsIdempotent) {
  Catalog c;
  auto t = c.CreateTable("t", AbSchema());
  ASSERT_TRUE(t.ok());
  auto i1 = c.CreateIndex("t", "a");
  auto i2 = c.CreateIndex("t", "a");
  ASSERT_TRUE(i1.ok() && i2.ok());
  EXPECT_EQ(i1.value(), i2.value());
  EXPECT_FALSE(c.CreateIndex("t", "zzz").ok());
  EXPECT_FALSE(c.CreateIndex("nope", "a").ok());
}

TEST(TableTest, EstimatedBytesGrows) {
  Table t("t", AbSchema());
  size_t b0 = t.EstimatedBytes();
  t.AppendUnchecked({Value::Int(1), Value::String("hello world")});
  EXPECT_GT(t.EstimatedBytes(), b0);
}

}  // namespace
}  // namespace erq
