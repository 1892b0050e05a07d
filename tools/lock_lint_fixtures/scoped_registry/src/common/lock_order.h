#pragma once
// Fixture rank table: one level, the metrics leaf.
#include "common/thread_annotations.h"

namespace erq {
namespace lock_order {

inline constexpr LockRank kMetrics{70, "Metrics"};

}  // namespace lock_order
}  // namespace erq
