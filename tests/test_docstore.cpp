#include "docstore/docstore.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "json/json.hpp"

namespace ds = synapse::docstore;
namespace json = synapse::json;

namespace {
/// Open file descriptors of this process.
size_t open_fds() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

json::Value doc(const std::string& cmd, double size) {
  json::Object o;
  o["command"] = cmd;
  o["size"] = size;
  json::Object meta;
  meta["tag"] = cmd + "-tag";
  o["meta"] = std::move(meta);
  return json::Value(std::move(o));
}
}  // namespace

TEST(DocStore, InsertAssignsIds) {
  ds::Collection coll("c");
  const auto a = coll.insert(doc("x", 1));
  const auto b = coll.insert(doc("y", 2));
  EXPECT_NE(a.id, b.id);
  EXPECT_FALSE(a.truncated);
  EXPECT_EQ(coll.size(), 2u);
}

TEST(DocStore, GetById) {
  ds::Collection coll("c");
  const auto r = coll.insert(doc("x", 5));
  const auto found = coll.get(r.id);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ((*found)["command"].as_string(), "x");
  EXPECT_FALSE(coll.get(r.id + 100).has_value());
}

TEST(DocStore, FindByFieldEquality) {
  ds::Collection coll("c");
  coll.insert(doc("a", 1));
  coll.insert(doc("a", 2));
  coll.insert(doc("b", 3));
  const auto hits = coll.find({{"command", json::Value("a")}});
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(coll.find({{"command", json::Value("zzz")}}).empty());
}

TEST(DocStore, FindWithDottedPath) {
  ds::Collection coll("c");
  coll.insert(doc("a", 1));
  const auto hits = coll.find({{"meta.tag", json::Value("a-tag")}});
  EXPECT_EQ(hits.size(), 1u);
}

TEST(DocStore, FindConjunction) {
  ds::Collection coll("c");
  coll.insert(doc("a", 1));
  coll.insert(doc("a", 2));
  const auto hits = coll.find(
      {{"command", json::Value("a")}, {"size", json::Value(2)}});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_DOUBLE_EQ(hits[0]["size"].as_double(), 2.0);
}

TEST(DocStore, FindOne) {
  ds::Collection coll("c");
  EXPECT_FALSE(coll.find_one({{"command", json::Value("a")}}).has_value());
  coll.insert(doc("a", 1));
  EXPECT_TRUE(coll.find_one({{"command", json::Value("a")}}).has_value());
}

TEST(DocStore, Remove) {
  ds::Collection coll("c");
  coll.insert(doc("a", 1));
  coll.insert(doc("b", 2));
  EXPECT_EQ(coll.remove({{"command", json::Value("a")}}), 1u);
  EXPECT_EQ(coll.size(), 1u);
  EXPECT_EQ(coll.remove({{"command", json::Value("a")}}), 0u);
}

TEST(DocStore, RejectsNonObject) {
  ds::Collection coll("c");
  EXPECT_THROW(coll.insert(json::Value(5)), json::JsonError);
}

TEST(DocStore, SixteenMbLimitTrimsLargestArray) {
  // Build a document just over the 16 MB cap: a samples array of ~70k
  // entries x ~230 bytes (~20 MB). The insert must succeed, report truncation,
  // and drop samples from the tail — the paper's "largest configuration
  // misses one data sample" behaviour (sections 4.5 / E.1).
  json::Object o;
  o["command"] = "big";
  json::Array samples;
  const std::string pad(200, 'x');
  for (int i = 0; i < 90000; ++i) {
    json::Object s;
    s["t"] = i;
    s["pad"] = pad;
    samples.push_back(json::Value(std::move(s)));
  }
  const size_t original = samples.size();
  o["samples"] = std::move(samples);

  ds::Collection coll("c");
  const auto r = coll.insert(json::Value(std::move(o)));
  EXPECT_TRUE(r.truncated);
  EXPECT_LE(r.stored_bytes, ds::kMaxDocumentBytes);

  const auto stored = coll.get(r.id);
  ASSERT_TRUE(stored.has_value());
  const size_t kept = (*stored)["samples"].size();
  EXPECT_LT(kept, original);
  EXPECT_GT(kept, original / 2);  // trims the tail, not the bulk
}

namespace {
/// The stored form of a document: what get() returns, minus the `_id`
/// the collection adds.
std::string stored_dump(const ds::Collection& coll, uint64_t id) {
  json::Value stored = *coll.get(id);
  stored.as_object().erase("_id");
  return json::dump(stored);
}
}  // namespace

TEST(DocStore, StoredBytesIsTheDumpOfTheStoredDocument) {
  ds::Collection coll("c");
  // Fits as is.
  const auto small = coll.insert(doc("small", 1));
  EXPECT_FALSE(small.truncated);
  EXPECT_EQ(small.stored_bytes, stored_dump(coll, small.id).size());

  // Trimmed over several rounds, with the largest array nested inside
  // an array of objects next to a smaller one.
  json::Array samples;
  json::Array other;
  const std::string pad(200, 'x');
  for (int i = 0; i < 120000; ++i) {
    json::Object s;
    s["t"] = i * 0.1;
    s["pad"] = pad.substr(0, 100 + i % 100);
    samples.push_back(json::Value(std::move(s)));
    if (i % 10 == 0) other.push_back(json::Value(i));
  }
  json::Object series;
  series["samples"] = std::move(samples);
  json::Array all;
  all.push_back(json::Value(std::move(series)));
  json::Object o;
  o["series"] = std::move(all);
  o["other"] = std::move(other);
  const auto big = coll.insert(json::Value(std::move(o)));
  EXPECT_TRUE(big.truncated);
  EXPECT_LE(big.stored_bytes, ds::kMaxDocumentBytes);
  EXPECT_EQ(big.stored_bytes, stored_dump(coll, big.id).size());

  // The last element of an array goes without a separator.
  json::Object lone;
  lone["blob"] =
      json::Array{json::Value(std::string(ds::kMaxDocumentBytes, 'y'))};
  const auto emptied = coll.insert(json::Value(std::move(lone)));
  EXPECT_TRUE(emptied.truncated);
  EXPECT_EQ(stored_dump(coll, emptied.id), "{\"blob\":[]}");
  EXPECT_EQ(emptied.stored_bytes, stored_dump(coll, emptied.id).size());
}

TEST(DocStore, StorePersistsAndReloads) {
  const std::string dir = "/tmp/synapse_docstore_test";
  std::system(("rm -rf " + dir).c_str());
  {
    ds::Store store(dir);
    store.collection("profiles").insert(doc("cmd1", 1));
    store.collection("profiles").insert(doc("cmd2", 2));
    store.collection("other").insert(doc("x", 3));
    store.flush();
  }
  {
    ds::Store store(dir);
    EXPECT_EQ(store.collection("profiles").size(), 2u);
    EXPECT_EQ(store.collection("other").size(), 1u);
    const auto names = store.collection_names();
    EXPECT_EQ(names.size(), 2u);
    // Ids continue after reload.
    const auto r = store.collection("profiles").insert(doc("cmd3", 3));
    EXPECT_GE(r.id, 3u);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(DocStore, ConcurrentInsertsAreSafe) {
  ds::Collection coll("c");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&coll, t] {
      for (int i = 0; i < 50; ++i) {
        coll.insert(doc("t" + std::to_string(t), i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(coll.size(), 400u);
}

TEST(DocStore, LookupPath) {
  const auto v = json::parse(R"({"a": {"b": {"c": 7}}})");
  const json::Value* p = ds::lookup_path(v, "a.b.c");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->as_double(), 7.0);
  EXPECT_EQ(ds::lookup_path(v, "a.b.missing"), nullptr);
  EXPECT_EQ(ds::lookup_path(v, "a.b.c.d"), nullptr);
}

TEST(DocStore, CorruptCollectionThrowsWithoutLeakingTheDirectory) {
  const std::string dir = "/tmp/synapse_docstore_fd_leak";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  std::system(("echo 'not json' > " + dir + "/bad.collection.json").c_str());
  const size_t before = open_fds();
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(ds::Store store(dir), json::JsonError);
  }
  // The directory scan closed its handle although loading threw.
  EXPECT_EQ(open_fds(), before);
  std::system(("rm -rf " + dir).c_str());
}
