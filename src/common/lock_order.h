#pragma once

/// \file
/// The global lock hierarchy — the single source of truth for the order
/// in which the codebase's mutexes may nest (DESIGN.md §"Lock hierarchy
/// & deadlock freedom").
///
/// Levels ascend in acquisition order: a thread may acquire a mutex only
/// while every lock it already holds has a *strictly lower* level.
/// Because the relation is a total order, no cycle — and therefore no
/// deadlock — is possible among locks that obey it.
///
/// Every `erq::Mutex` member in src/ must
///   1. name its own anchor in `ERQ_ACQUIRED_AFTER(lock_order::kX)`,
///   2. pass the same anchor to the ranked constructor (`{lock_order::kX}`),
///   3. document real cross-module edges with `ERQ_ACQUIRED_BEFORE(...)`.
/// `tools/lock_lint.py` (the `lock_lint` ctest) parses this table,
/// rejects unannotated or mismatched declarations, extracts the
/// whole-program acquisition graph, and fails the build on any edge that
/// contradicts the levels below. `ERQ_DEBUG_LOCK_ORDER` builds enforce
/// the same order at runtime on every acquisition.
///
/// The order encodes the system's real layering:
///   Server (4)        connection registry of the network front end;
///                     held only around connection admit/retire
///   TenantRegistry (6) tenant map of the network front end; held while
///                     lazily constructing a tenant's manager, which
///                     registers instruments (Metrics) — hence below
///                     every engine lock
///   Manager (10)      the adaptive cost gate only (pipeline counters are
///                     lock-free scope instruments); never held across
///                     module calls
///   ReuseStore (12)   intermediate-result reuse store writer state; held
///                     across epoch retirement of replaced index
///                     snapshots, hence below Epoch
///   CaqpCache (20)    C_aqp writer state; held across epoch retirement
///                     of replaced snapshots and persistence-listener
///                     calls
///   Epoch (24)        EpochManager's limbo lists; Retire() runs under
///                     the CaqpCache or ReuseStore writer mutex
///   MvCache (30)      in-memory MV-baseline store; a leaf within the
///                     query path
///   StatsCatalog (40) optimizer statistics; leaf within the query path
///   Table (44)        one table's row-store mutations + partition/zone-map
///                     state; short critical sections that call into no
///                     other module (snapshot readers copy a shared_ptr)
///   Index (46)        one sorted index's snapshot publication; held while
///                     a stale snapshot is rebuilt from lock-free row
///                     reads, calls into no other module
///   Persistence (50)  durable mirror + journal; acquired under the C_aqp
///                     writer lock, and itself held across IO seams
///   FailPoint (60)    fault-injection registry, consulted at IO
///                     boundaries under the persistence lock
///   Metrics (70)      instrument registration; the universal leaf —
///                     any module may register instruments under its own
///                     lock. A scope registry and its parent share the
///                     rank, so a scope resolves the parent's instrument
///                     before taking its own mutex (they never nest)
/// Gaps leave room to slot in the next arc's locks (per-tenant server
/// state) without renumbering; 24 sits inside CaqpCache's gap because
/// epoch reclamation is that module's internals.

#include "common/thread_annotations.h"

namespace erq {
namespace lock_order {

/// ErqServer::mu_ — live-connection registry of the network front end.
inline constexpr LockRank kServer{4, "Server"};
/// TenantRegistry::mu_ — the tenant-name → manager map; held across lazy
/// manager construction (which reaches Metrics), so it sits below every
/// engine lock.
inline constexpr LockRank kTenantRegistry{6, "TenantRegistry"};
/// EmptyResultManager::mu_ — the adaptive cost gate only; the pipeline
/// counters are lock-free instruments of the manager's metrics scope.
inline constexpr LockRank kManager{10, "Manager"};
/// ReuseStore::mu_ — admission/eviction/invalidation writer state of the
/// intermediate-result reuse store; epoch-retires replaced index
/// snapshots while held (reader lookups are lock-free, like C_aqp's).
inline constexpr LockRank kReuseStore{12, "ReuseStore"};
/// CaqpCache::mu_ — the C_aqp writer state (entries, postings, slots,
/// clock hand, change listener); lookups take no lock.
inline constexpr LockRank kCaqpCache{20, "CaqpCache"};
/// EpochManager::mu_ — limbo lists + epoch advancement.
inline constexpr LockRank kEpoch{24, "Epoch"};
/// MvEmptyCache::mu_ — the in-memory MV-baseline view store; holders call
/// into no other module.
inline constexpr LockRank kMvCache{30, "MvCache"};
/// StatsCatalog::mu_ — per-column statistics snapshots.
inline constexpr LockRank kStatsCatalog{40, "StatsCatalog"};
/// Table::mu_ — serializes one table's mutations and guards its partition
/// scheme + zone-map state; partition_snapshot() readers only copy a
/// published shared_ptr under it. Never held across calls into another
/// module, so it sits just above the stats leaf.
inline constexpr LockRank kTable{44, "Table"};
/// SortedIndex::mu_ — publishes one index's per-version entry snapshot;
/// held across the rebuild of a stale snapshot, which reads rows without
/// locks and calls into no other module.
inline constexpr LockRank kIndex{46, "Index"};
/// Persistence::mu_ — durable mirrors, journal writer, sticky IO status.
inline constexpr LockRank kPersistence{50, "Persistence"};
/// FailPoint::mu_ — crash-point registry (hit counters, armings).
inline constexpr LockRank kFailPoint{60, "FailPoint"};
/// MetricsRegistry::mu_ — instrument registration and snapshots. Shared
/// by a scope registry and its parent, so the two are never held together:
/// a scope resolves the parent's instrument before taking its own mutex.
inline constexpr LockRank kMetrics{70, "Metrics"};

}  // namespace lock_order
}  // namespace erq
