// Inspects the on-disk state a Persistence directory holds: the framed
// snapshot and journal files (DESIGN.md §7). Decodes record-by-record,
// verifies CRCs, and reports what recovery would reconstruct — without
// needing a running manager.
//
//   $ cache_inspect [--verify] [--records] <persist-dir>
//   $ cache_inspect --reuse-preview
//
//   --records   dump every record (type + payload) of both files
//   --verify    exit non-zero if the snapshot is corrupt or the journal
//               has a torn tail (recovery would succeed after truncation,
//               but a torn tail right after a clean shutdown indicates a
//               real problem) — for scripts and CI smoke checks
//   --reuse-preview  no persist-dir: build a small in-memory instance,
//               run a splice-able workload with the intermediate-result
//               store enabled, and print ReuseStore::DescribeEntries()
//               plus the counters — shows what the (memory-only) reuse
//               store holds in the same entry normal form the C_aqp
//               record dump uses. Exits non-zero if the canned workload
//               never populates the store.
//
// Output includes the count of recovered parts that fail to re-parse
// (unserializable/opaque leftovers can never appear here — the writer
// skips them — so any such count is flagged loudly).

#include <cstdio>
#include <cstring>
#include <string>

#include "core/manager.h"
#include "core/serialize.h"
#include "persist/journal.h"
#include "persist/persistence.h"
#include "persist/snapshot.h"
#include "reuse/reuse_store.h"
#include "stats/analyzer.h"
#include "workload/tpcr.h"

namespace erq {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--verify] [--records] <persist-dir>\n"
               "       %s --reuse-preview\n",
               argv0, argv0);
  return 2;
}

/// Builds a tiny TPC-R instance, runs a few selective scans twice each
/// with the reuse store on, and prints what the store holds. The queries
/// filter on unindexed columns so they plan as Filter-over-TableScan —
/// the only shape the harvester accepts.
int ReusePreview() {
  Catalog catalog;
  TpcrConfig tpcr;
  tpcr.scale = 0.2;
  tpcr.seed = 11;
  StatusOr<TpcrInstance> instance = BuildTpcr(&catalog, tpcr);
  if (!instance.ok()) {
    std::fprintf(stderr, "BuildTpcr: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  StatsCatalog stats;
  if (!stats.AnalyzeAll(catalog).ok()) return 1;

  EmptyResultConfig config;
  config.reuse.enabled = true;
  EmptyResultManager manager(&catalog, &stats, config);
  if (!manager.init_status().ok()) {
    std::fprintf(stderr, "manager: %s\n",
                 manager.init_status().ToString().c_str());
    return 1;
  }

  const char* queries[] = {
      "select custkey from customer where acctbal >= 0 and acctbal < 800",
      "select custkey from customer where acctbal >= 9000",
      "select orderkey from orders where totalprice < 2000",
      "select orderkey from lineitem where quantity = 50",
  };
  for (const char* sql : queries) {
    for (int pass = 0; pass < 2; ++pass) {  // harvest, then splice
      StatusOr<QueryOutcome> outcome = manager.Query(sql);
      if (!outcome.ok()) {
        std::fprintf(stderr, "query failed: %s\n%s\n",
                     outcome.status().ToString().c_str(), sql);
        return 1;
      }
    }
  }

  const ReuseStore* store = manager.reuse_store();
  if (store == nullptr) {
    std::fprintf(stderr, "reuse store not constructed despite enabled\n");
    return 1;
  }
  const ReuseStoreStats s = store->stats_snapshot();
  std::printf("reuse store: %llu entr%s, %llu byte(s) of %zu budget\n",
              static_cast<unsigned long long>(s.entries),
              s.entries == 1 ? "y" : "ies",
              static_cast<unsigned long long>(s.bytes),
              store->config().budget_bytes);
  std::printf(
      "counters: lookups=%llu hits=%llu rows_served=%llu admitted=%llu "
      "rejected=%llu evictions=%llu invalidated=%llu\n",
      static_cast<unsigned long long>(s.lookups),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.rows_served),
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.evictions),
      static_cast<unsigned long long>(s.invalidated));
  for (const std::string& line : store->DescribeEntries()) {
    std::printf("entry %s\n", line.c_str());
  }
  if (s.entries == 0 || s.hits == 0) {
    std::fprintf(stderr,
                 "reuse preview: canned workload populated nothing "
                 "(entries=%llu hits=%llu)\n",
                 static_cast<unsigned long long>(s.entries),
                 static_cast<unsigned long long>(s.hits));
    return 1;
  }
  return 0;
}

const char* RecordTypeName(RecordType t) {
  switch (t) {
    case RecordType::kFileHeader:
      return "header";
    case RecordType::kCaqpInsert:
      return "caqp-insert";
    case RecordType::kCaqpRemove:
      return "caqp-remove";
    case RecordType::kCaqpClear:
      return "caqp-clear";
    case RecordType::kMvStore:
      return "legacy-mv-store";
    case RecordType::kMvRemove:
      return "legacy-mv-remove";
    case RecordType::kMvClear:
      return "legacy-mv-clear";
    case RecordType::kSnapshotFooter:
      return "footer";
  }
  return "?";
}

void DumpRecords(const char* file, const std::vector<Record>& records) {
  for (size_t i = 0; i < records.size(); ++i) {
    std::printf("%s[%zu] %s %s\n", file, i, RecordTypeName(records[i].type),
                records[i].payload.c_str());
  }
}

int Main(int argc, char** argv) {
  bool verify = false;
  bool dump = false;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--records") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--reuse-preview") == 0) {
      if (argc != 2) return Usage(argv[0]);
      return ReusePreview();
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (dir.empty()) {
      dir = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (dir.empty()) return Usage(argv[0]);

  int problems = 0;

  StatusOr<SnapshotScan> snapshot = ReadSnapshot(dir);
  if (!snapshot.ok()) {
    std::printf("snapshot: %s\n", snapshot.status().ToString().c_str());
    ++problems;
  } else if (snapshot->missing) {
    std::printf("snapshot: none\n");
  } else {
    std::printf("snapshot: %zu record(s)\n", snapshot->records.size());
    if (dump) DumpRecords("snapshot", snapshot->records);
  }

  StatusOr<JournalScan> journal = ScanJournal(dir);
  if (!journal.ok()) {
    std::printf("journal: %s\n", journal.status().ToString().c_str());
    ++problems;
  } else if (journal->missing) {
    std::printf("journal: none\n");
  } else {
    std::printf("journal: %zu record(s), %llu valid byte(s)\n",
                journal->records.size(),
                static_cast<unsigned long long>(journal->valid_bytes));
    if (journal->truncated_bytes > 0) {
      std::printf("journal: TORN TAIL — %llu byte(s) would be truncated "
                  "by recovery\n",
                  static_cast<unsigned long long>(journal->truncated_bytes));
      ++problems;
    }
    if (dump) DumpRecords("journal", journal->records);
  }

  // What recovery would reconstruct. OpenReadOnly never truncates a torn
  // tail, creates the directory, or opens the journal for appending, so
  // the preview is safe even in verify mode: an inspector must not repair
  // what it is checking.
  if (snapshot.ok() && journal.ok()) {
    PersistOptions options;
    options.dir = dir;
    StatusOr<std::unique_ptr<Persistence>> p =
        Persistence::OpenReadOnly(options);
    if (!p.ok()) {
      std::printf("recovery: %s\n", p.status().ToString().c_str());
      ++problems;
    } else {
      const Persistence::RecoveredState& rec = (*p)->recovered();
      std::printf("recovery: %zu C_aqp part(s)\n", rec.parts.size());
      size_t unserializable = 0;
      for (const AtomicQueryPart& part : rec.parts) {
        if (!SerializePart(part).ok()) ++unserializable;
      }
      if (unserializable > 0) {
        // The journal writer skips opaque parts, so these indicate a
        // foreign or hand-edited file.
        std::printf("recovery: %zu part(s) NOT serializable — persisted "
                    "state was not written by this tool chain\n",
                    unserializable);
        ++problems;
      }
    }
  }

  if (verify) {
    std::printf("verify: %s\n", problems == 0 ? "ok" : "CORRUPT");
    return problems == 0 ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace erq

int main(int argc, char** argv) { return erq::Main(argc, argv); }
