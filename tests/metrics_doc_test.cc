// Keeps docs/METRICS.md honest: exercises every module that registers
// instruments, then diffs the set of names documented in the markdown
// table against the live MetricsRegistry. A metric added without
// documentation — or documented but renamed/removed — fails here with
// the exact difference.

#include <unistd.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "core/manager.h"
#include "core/serialize.h"
#include "gtest/gtest.h"
#include "mv/mv_cache.h"
#include "persist/io.h"
#include "persist/journal.h"
#include "persist/persistence.h"
#include "persist/snapshot.h"
#include "server/request_handler.h"
#include "test_util.h"

#ifndef ERQ_SOURCE_DIR
#error "metrics_doc_test requires ERQ_SOURCE_DIR"
#endif

namespace erq {
namespace {

using ::erq::testing::FixtureDb;

/// True iff `s` is a full instrument name: `erq.` followed by at least
/// two more non-empty [a-z0-9_] segments. Prose references like the
/// `erq.<module>.<name>` convention or globs (`erq.caqp.*`) contain
/// characters outside that grammar and are rejected whole.
bool IsInstrumentName(const std::string& s) {
  if (s.rfind("erq.", 0) != 0) return false;
  int segments = 0;
  size_t seg_len = 0;
  for (size_t i = 4; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      ++seg_len;
    } else {
      return false;
    }
  }
  return segments >= 1 && seg_len > 0;
}

std::set<std::string> DocumentedNames() {
  const std::string path = std::string(ERQ_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // Names appear in backticks inside the tables: collect every
  // `token` whose whole content is an instrument name.
  std::set<std::string> names;
  size_t pos = 0;
  while (true) {
    const size_t open = text.find('`', pos);
    if (open == std::string::npos) break;
    const size_t close = text.find('`', open + 1);
    if (close == std::string::npos) break;
    std::string token = text.substr(open + 1, close - open - 1);
    if (IsInstrumentName(token)) names.insert(std::move(token));
    pos = close + 1;
  }
  names.erase("erq.metrics.v1");  // the JSON schema id, not an instrument
  return names;
}

/// Runs at least one operation through every module that lazily
/// registers instruments, so the live registry holds the full set.
void ExerciseAllModules() {
  FixtureDb db;

  // Manager pipeline: an executed non-empty query, an executed empty one
  // (harvest into C_aqp), and its repeat (detected) — touches manager,
  // gate, detector, caqp, and exec instruments.
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  ASSERT_TRUE(manager.init_status().ok());
  ASSERT_TRUE(manager.Query("select * from A where a < 15").ok());
  ASSERT_TRUE(manager.Query("select * from A where a > 100").ok());
  ASSERT_TRUE(manager.Query("select * from A where a > 100").ok());

  // Partition pruning: a selective query over a partitioned table
  // touches the erq.exec.partitions.* instrument group.
  PartitionScheme scheme;
  scheme.kind = PartitionScheme::Kind::kRange;
  scheme.key_column = "a";
  scheme.range_bounds = {Value::Int(15)};
  ASSERT_TRUE(db.catalog().SetPartitioning("A", std::move(scheme)).ok());
  ASSERT_TRUE(manager.Query("select * from A where a < 12").ok());

  // Reuse store: a harvested-then-spliced selective scan registers the
  // erq.reuse.* counter and gauge groups.
  EmptyResultConfig reuse_config;
  reuse_config.reuse.enabled = true;
  EmptyResultManager reuse_manager(&db.catalog(), &db.stats(), reuse_config);
  ASSERT_TRUE(reuse_manager.init_status().ok());
  ASSERT_TRUE(reuse_manager.Query("select * from B where d >= 1").ok());
  ASSERT_TRUE(reuse_manager.Query("select * from B where d >= 1").ok());

  // Serialization counter group.
  size_t skipped = 0;
  SerializeCache(manager.detector().cache(), &skipped);

  // The static erq.server.* instruments (registered on first resolve).
  // Per-tenant erq.server.tenant.<name>.* instruments are deliberately
  // NOT registered here: METRICS.md documents them as a prose pattern
  // (the <name> placeholder is not a valid instrument name).
  (void)ServerInstruments::Resolve();

  // MV baseline.
  MvEmptyCache mv(8);
  auto plan = db.Plan("select * from B where d = 999");
  ASSERT_TRUE(plan.ok());
  mv.RecordEmpty(*plan);
  mv.CheckEmpty(*plan);

  // Persistence: open (recovery instruments), attach + insert (journal
  // instruments), explicit rotation (snapshot counter).
  const std::string dir =
      std::string(::testing::TempDir()) + "erq_metrics_doc";
  (void)RemoveFileIfExists(dir + "/" + kJournalFileName);
  (void)RemoveFileIfExists(dir + "/" + kSnapshotFileName);
  PersistOptions options;
  options.dir = dir;
  auto p = Persistence::Open(options);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  CaqpCache cache(16);
  ASSERT_TRUE((*p)->AttachCaqp(&cache).ok());
  for (const AtomicQueryPart& part : manager.detector().cache().Snapshot()) {
    cache.Insert(part);
  }
  ASSERT_TRUE((*p)->SnapshotNow().ok());
  p->reset();
  (void)RemoveFileIfExists(dir + "/" + kJournalFileName);
  (void)RemoveFileIfExists(dir + "/" + kSnapshotFileName);
  ::rmdir(dir.c_str());
}

TEST(MetricsDocTest, DocumentationMatchesRegistry) {
  ExerciseAllModules();

  std::set<std::string> documented = DocumentedNames();
  ASSERT_FALSE(documented.empty());

  std::set<std::string> live;
  for (const std::string& name : MetricsRegistry::Global().Names()) {
    // Other tests in this binary may register scratch instruments under
    // erq.test.*; the production namespace is what the docs cover.
    if (name.rfind("erq.test.", 0) == 0) continue;
    live.insert(name);
  }

  for (const std::string& name : live) {
    EXPECT_TRUE(documented.count(name))
        << "registered but not documented in docs/METRICS.md: " << name;
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(live.count(name))
        << "documented in docs/METRICS.md but never registered: " << name;
  }
}

}  // namespace
}  // namespace erq
