#include "storage/heap_relation.h"

#include <gtest/gtest.h>

#include "test_util.h"

#include "catalog/catalog.h"

namespace ariel {
namespace {

Schema EmpSchema() {
  return Schema({Attribute{"name", DataType::kString},
                 Attribute{"sal", DataType::kFloat},
                 Attribute{"dno", DataType::kInt}});
}

Tuple Emp(const std::string& name, double sal, int64_t dno) {
  return Tuple(std::vector<Value>{Value::String(name), Value::Float(sal),
                                  Value::Int(dno)});
}

TEST(HeapRelationTest, InsertGetDelete) {
  HeapRelation rel(1, "emp", EmpSchema());
  auto tid = rel.Insert(Emp("a", 10.0, 1));
  ASSERT_OK(tid);
  ASSERT_NE(rel.Get(*tid), nullptr);
  EXPECT_EQ(rel.Get(*tid)->at(0), Value::String("a"));
  EXPECT_EQ(rel.size(), 1u);

  ASSERT_OK(rel.Delete(*tid));
  EXPECT_EQ(rel.Get(*tid), nullptr);
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Delete(*tid).ok());  // double delete rejected
}

TEST(HeapRelationTest, TidsStableAcrossUnrelatedMutations) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  TupleId b = *rel.Insert(Emp("b", 2.0, 1));
  TupleId c = *rel.Insert(Emp("c", 3.0, 1));
  ASSERT_OK(rel.Delete(b));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(rel.Insert(Emp("x", 9.0, 2)));
  }
  // a and c still resolve to their original tuples.
  EXPECT_EQ(rel.Get(a)->at(0), Value::String("a"));
  EXPECT_EQ(rel.Get(c)->at(0), Value::String("c"));
}

TEST(HeapRelationTest, FreeSlotsAreReused) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  ASSERT_OK(rel.Delete(a));
  TupleId b = *rel.Insert(Emp("b", 2.0, 1));
  EXPECT_EQ(a.slot, b.slot);  // slot recycled
  EXPECT_EQ(rel.Get(b)->at(0), Value::String("b"));
}

TEST(HeapRelationTest, UpdateInPlace) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  ASSERT_OK(rel.Update(a, Emp("a", 99.0, 2)));
  EXPECT_EQ(rel.Get(a)->at(1), Value::Float(99.0));
  EXPECT_FALSE(rel.Update(TupleId{1, 999}, Emp("x", 0.0, 0)).ok());
}

TEST(HeapRelationTest, SchemaCoercionAndErrors) {
  HeapRelation rel(1, "emp", EmpSchema());
  // Int literal into a float column coerces.
  Tuple t(std::vector<Value>{Value::String("a"), Value::Int(5),
                             Value::Int(1)});
  auto tid = rel.Insert(std::move(t));
  ASSERT_OK(tid);
  EXPECT_EQ(rel.Get(*tid)->at(1), Value::Float(5.0));

  // Wrong arity rejected.
  EXPECT_FALSE(rel.Insert(Tuple(std::vector<Value>{Value::Int(1)})).ok());
  // Wrong type rejected.
  EXPECT_FALSE(rel.Insert(Tuple(std::vector<Value>{
                              Value::Int(1), Value::Float(1.0),
                              Value::Int(1)}))
                   .ok());
  // Nulls are allowed in any column.
  EXPECT_OK(rel.Insert(Tuple(std::vector<Value>{
                             Value::Null(), Value::Null(), Value::Null()})));
}

TEST(HeapRelationTest, ForEachVisitsLiveTuplesOnly) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  ASSERT_OK(rel.Insert(Emp("b", 2.0, 1)));
  ASSERT_OK(rel.Delete(a));
  size_t count = 0;
  rel.ForEach([&](TupleId, const Tuple& t) {
    EXPECT_EQ(t.at(0), Value::String("b"));
    ++count;
  });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(rel.AllTupleIds().size(), 1u);
}

TEST(HeapRelationTest, IndexMaintainedByMutations) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 10.0, 1));
  ASSERT_OK(rel.CreateIndex("sal"));  // built over existing data
  const BTreeIndex* index = rel.GetIndex("sal");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 1u);

  TupleId b = *rel.Insert(Emp("b", 20.0, 1));
  EXPECT_EQ(index->size(), 2u);

  ASSERT_OK(rel.Update(b, Emp("b", 30.0, 1)));
  std::vector<TupleId> out;
  index->Lookup(Value::Float(20.0), &out);
  EXPECT_TRUE(out.empty());
  index->Lookup(Value::Float(30.0), &out);
  EXPECT_EQ(out.size(), 1u);

  ASSERT_OK(rel.Delete(a));
  EXPECT_EQ(index->size(), 1u);

  EXPECT_EQ(rel.GetIndex("name"), nullptr);
  EXPECT_FALSE(rel.CreateIndex("nonexistent").ok());
  EXPECT_EQ(rel.IndexedAttributes().size(), 1u);
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema schema = EmpSchema();
  EXPECT_EQ(schema.IndexOf("SAL"), 1);
  EXPECT_EQ(schema.IndexOf("nope"), -1);
  ASSERT_OK(schema.Find("dno"));
  EXPECT_EQ(*schema.Find("dno"), 2u);
  EXPECT_FALSE(schema.Find("nope").ok());
}

TEST(SchemaTest, ToStringRendersTypes) {
  EXPECT_EQ(EmpSchema().ToString(), "(name=string, sal=float, dno=int)");
}

TEST(CatalogTest, CreateLookupDrop) {
  Catalog catalog;
  auto rel = catalog.CreateRelation("Emp", EmpSchema());
  ASSERT_OK(rel);
  EXPECT_EQ((*rel)->name(), "emp");
  EXPECT_NE(catalog.GetRelation("EMP"), nullptr);
  EXPECT_EQ(catalog.GetRelationById((*rel)->id()), *rel);

  EXPECT_FALSE(catalog.CreateRelation("emp", EmpSchema()).ok());
  ASSERT_OK(catalog.DropRelation("emp"));
  EXPECT_EQ(catalog.GetRelation("emp"), nullptr);
  EXPECT_FALSE(catalog.DropRelation("emp").ok());
}

TEST(CatalogTest, RelationNamesSorted) {
  Catalog catalog;
  ASSERT_OK(catalog.CreateRelation("zeta", EmpSchema()));
  ASSERT_OK(catalog.CreateRelation("alpha", EmpSchema()));
  EXPECT_EQ(catalog.RelationNames(),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(catalog.num_relations(), 2u);
}

TEST(TupleTest, ConcatAndToString) {
  Tuple a(std::vector<Value>{Value::Int(1)});
  Tuple b(std::vector<Value>{Value::String("x")});
  Tuple c = Tuple::Concat(a, b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ToString(), "[1, \"x\"]");
}

TEST(TupleTest, TidEncodingRoundTrip) {
  TupleId tid{0x12345678u, 0x9ABCDEF0u};
  EXPECT_EQ(DecodeTid(EncodeTid(tid)), tid);
  EXPECT_EQ(DecodeTid(EncodeTid(TupleId{1, 0})), (TupleId{1, 0}));
}

}  // namespace
}  // namespace ariel
