#include "catalog/partition.h"

#include <algorithm>
#include <cstring>

namespace erq {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t StableValueHash(const Value& v) {
  uint64_t h = kFnvOffset;
  unsigned char tag = static_cast<unsigned char>(v.type());
  h = Fnv1a(&tag, 1, h);
  switch (v.type()) {
    case DataType::kNull:
      return h;
    case DataType::kInt64:
    case DataType::kDate: {
      int64_t i = v.type() == DataType::kDate
                      ? static_cast<int64_t>(v.AsDate())
                      : v.AsInt();
      return Fnv1a(&i, sizeof(i), h);
    }
    case DataType::kDouble: {
      // An integral double must hash like the equal INT so that "x = 5"
      // and "x = 5.0" route to the same hash partition.
      double d = v.AsDouble();
      int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) {
        unsigned char int_tag = static_cast<unsigned char>(DataType::kInt64);
        uint64_t hi = Fnv1a(&int_tag, 1, kFnvOffset);
        return Fnv1a(&i, sizeof(i), hi);
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Fnv1a(&bits, sizeof(bits), h);
    }
    case DataType::kString: {
      const std::string& s = v.AsString();
      return Fnv1a(s.data(), s.size(), h);
    }
  }
  return h;
}

size_t PartitionScheme::Count() const {
  switch (kind) {
    case Kind::kNone:
      return 1;
    case Kind::kHash:
      return partitions == 0 ? 1 : partitions;
    case Kind::kRange:
      return range_bounds.size() + 1;
  }
  return 1;
}

Status PartitionScheme::Validate(const Schema& schema) const {
  if (kind == Kind::kNone) return Status::OK();
  StatusOr<size_t> key = schema.IndexOf(key_column);
  if (!key.ok()) {
    return Status::InvalidArgument("partitioning key column '" + key_column +
                                   "' does not exist in the schema");
  }
  if (kind == Kind::kHash && partitions == 0) {
    return Status::InvalidArgument("hash partitioning requires partitions >= 1");
  }
  if (kind == Kind::kRange) {
    for (size_t i = 0; i < range_bounds.size(); ++i) {
      if (range_bounds[i].is_null()) {
        return Status::InvalidArgument("range bounds must be non-NULL");
      }
      if (i > 0 && !(range_bounds[i - 1] < range_bounds[i])) {
        return Status::InvalidArgument(
            "range bounds must be strictly ascending");
      }
    }
  }
  return Status::OK();
}

size_t PartitionScheme::PartitionOf(const Value& key) const {
  switch (kind) {
    case Kind::kNone:
      return 0;
    case Kind::kHash: {
      if (key.is_null()) return 0;
      size_t n = Count();
      return static_cast<size_t>(StableValueHash(key) % n);
    }
    case Kind::kRange: {
      if (key.is_null()) return 0;
      // First partition whose exclusive upper bound exceeds the key; keys
      // past every bound land in the final catch-all partition. Compare()
      // totally orders mixed types, so the assignment is deterministic
      // even for keys of an unexpected type.
      size_t lo = 0, hi = range_bounds.size();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (key.Compare(range_bounds[mid]) < 0) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return lo;
    }
  }
  return 0;
}

void ColumnZoneMap::Observe(const Value& v, size_t distinct_cap) {
  if (v.is_null()) return;
  if (non_null == 0) {
    min = v;
    max = v;
  } else {
    if (v.Compare(*min) < 0) min = v;
    if (v.Compare(*max) > 0) max = v;
  }
  ++non_null;
  if (distinct_overflow || distinct_cap == 0) {
    distinct_overflow = true;
    return;
  }
  for (const Value& d : distinct) {
    if (d.Compare(v) == 0) return;
  }
  if (distinct.size() >= distinct_cap) {
    distinct.clear();
    distinct_overflow = true;
    return;
  }
  distinct.push_back(v);
}

std::vector<Value> EquiWidthBounds(const std::vector<Row>& rows,
                                   size_t key_index, size_t partitions) {
  std::vector<Value> bounds;
  if (partitions < 2) return bounds;
  std::optional<Value> lo, hi;
  for (const Row& r : rows) {
    if (key_index >= r.size() || r[key_index].is_null()) continue;
    const Value& v = r[key_index];
    if (!lo.has_value()) {
      lo = v;
      hi = v;
      continue;
    }
    if (!v.ComparableWith(*lo)) continue;
    if (v.Compare(*lo) < 0) lo = v;
    if (v.Compare(*hi) > 0) hi = v;
  }
  if (!lo.has_value() || lo->Compare(*hi) == 0) return bounds;
  // Split [lo, hi] into `partitions` equal numeric slices; non-numeric
  // keys (strings) fall back to a single catch-all partition.
  if (lo->type() == DataType::kString) return bounds;
  double dlo = lo->AsDouble();
  double dhi = hi->AsDouble();
  double width = (dhi - dlo) / static_cast<double>(partitions);
  bounds.reserve(partitions - 1);
  for (size_t i = 1; i < partitions; ++i) {
    double cut = dlo + width * static_cast<double>(i);
    Value bound;
    if (lo->type() == DataType::kDouble) {
      bound = Value::Double(cut);
    } else if (lo->type() == DataType::kDate) {
      bound = Value::Date(static_cast<int32_t>(cut));
    } else {
      bound = Value::Int(static_cast<int64_t>(cut));
    }
    if (!bounds.empty() && !(bounds.back() < bound)) continue;  // dedup
    bounds.push_back(std::move(bound));
  }
  return bounds;
}

}  // namespace erq
