#include "sim/snapshot.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/require.h"

namespace epm::sim {

namespace {

constexpr std::uint32_t kTaggedKernelMagic = 0x74616773U;  // "tags"
constexpr std::uint32_t kTaggedKernelVersion = 1;
/// Bytes of one serialized record with an empty payload.
constexpr std::size_t kRecordBytes = 5 * 8;

std::string hex(std::uint32_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out += digits[(v >> shift) & 0xf];
  }
  return out;
}

}  // namespace

void SnapshotWriter::write_u32(std::uint32_t v) {
  for (int byte = 0; byte < 4; ++byte) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (byte * 8)));
  }
}

void SnapshotWriter::write_u64(std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (byte * 8)));
  }
}

void SnapshotWriter::write_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void SnapshotWriter::write_payload(const std::vector<std::uint64_t>& p) {
  write_u64(p.size());
  for (const std::uint64_t v : p) write_u64(v);
}

void SnapshotWriter::field(const std::vector<double>& v) {
  write_u64(v.size());
  for (const double x : v) write_f64(x);
}

void SnapshotWriter::section(std::uint32_t magic, std::uint32_t version) {
  write_u32(magic);
  write_u32(version);
}

void SnapshotReader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    throw std::runtime_error("snapshot truncated: needed " +
                             std::to_string(n) + " bytes, " +
                             std::to_string(size_ - pos_) + " left");
  }
}

std::uint8_t SnapshotReader::read_u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t SnapshotReader::read_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int byte = 0; byte < 4; ++byte) {
    v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (byte * 8);
  }
  return v;
}

std::uint64_t SnapshotReader::read_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int byte = 0; byte < 8; ++byte) {
    v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (byte * 8);
  }
  return v;
}

double SnapshotReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<std::uint64_t> SnapshotReader::read_payload() {
  const std::size_t n = read_count(8);
  std::vector<std::uint64_t> p;
  p.reserve(n);
  for (std::size_t i = 0; i < n; ++i) p.push_back(read_u64());
  return p;
}

void SnapshotReader::field(std::vector<double>& v) {
  v.resize(read_count(8));
  for (double& x : v) x = read_f64();
}

std::size_t SnapshotReader::read_count(std::size_t element_bytes) {
  const std::uint64_t n = read_u64();
  // Divide rather than multiply: n * element_bytes can wrap.
  if (n > remaining() / element_bytes) {
    throw std::runtime_error("snapshot count " + std::to_string(n) + " of " +
                             std::to_string(element_bytes) +
                             "-byte elements exceeds the " +
                             std::to_string(remaining()) + " bytes left");
  }
  return static_cast<std::size_t>(n);
}

void SnapshotReader::section(std::uint32_t magic, std::uint32_t version) {
  const std::uint32_t got_magic = read_u32();
  if (got_magic != magic) {
    throw std::runtime_error("snapshot section mismatch: expected " +
                             hex(magic) + ", found " + hex(got_magic));
  }
  const std::uint32_t got_version = read_u32();
  if (got_version != version) {
    throw std::runtime_error(
        "snapshot version mismatch for section " + hex(magic) + ": expected " +
        std::to_string(version) + ", found " + std::to_string(got_version));
  }
}

// ---------------------------------------------------------------------------
// TaggedKernel
// ---------------------------------------------------------------------------

void TaggedKernel::on(std::uint64_t tag, TagHandler handler) {
  require(static_cast<bool>(handler), "TaggedKernel: empty handler");
  const auto [it, inserted] = handlers_.emplace(tag, std::move(handler));
  (void)it;
  require(inserted, [&] {
    return "TaggedKernel: tag " + std::to_string(tag) + " already has a handler";
  });
}

std::uint64_t TaggedKernel::add_record(double when_s, double period_s,
                                       std::uint64_t tag, TagPayload payload) {
  require(handlers_.count(tag) > 0, [&] {
    return "TaggedKernel: no handler registered for tag " + std::to_string(tag);
  });
  const std::uint64_t id = next_id_++;
  Record rec;
  rec.when_s = when_s;
  rec.period_s = period_s;
  rec.tag = tag;
  rec.payload = std::move(payload);
  auto [it, inserted] = records_.emplace(id, std::move(rec));
  ensure(inserted, "TaggedKernel: record id collision");
  arm(id, it->second);
  return id;
}

void TaggedKernel::arm(std::uint64_t id, Record& rec) {
  // A 16-byte capture — inline in the event node, no allocation.
  rec.handle = sim_.schedule_at(rec.when_s, [this, id] { fire(id); });
}

std::uint64_t TaggedKernel::schedule_tagged_at(double when_s,
                                               std::uint64_t tag,
                                               TagPayload payload) {
  return add_record(when_s, 0.0, tag, std::move(payload));
}

std::uint64_t TaggedKernel::schedule_tagged_periodic(double first_s,
                                                     double period_s,
                                                     std::uint64_t tag,
                                                     TagPayload payload) {
  require(period_s > 0.0, "TaggedKernel: period must be positive");
  return add_record(first_s, period_s, tag, std::move(payload));
}

void TaggedKernel::cancel_tagged(std::uint64_t record_id) {
  const auto it = records_.find(record_id);
  if (it == records_.end()) return;
  sim_.cancel(it->second.handle);
  records_.erase(it);
}

void TaggedKernel::fire(std::uint64_t id) {
  const auto it = records_.find(id);
  ensure(it != records_.end(),
         "TaggedKernel: fired an event whose record is gone");
  const double now = sim_.now();
  Record rec = std::move(it->second);
  records_.erase(it);
  if (rec.period_s > 0.0) {
    // Re-arm BEFORE the handler runs, exactly like the kernel's native
    // periodic path — but under a fresh record id, so record-id order keeps
    // matching seq order (the restore-determinism invariant).
    add_record(now + rec.period_s, rec.period_s, rec.tag, rec.payload);
  }
  const auto hit = handlers_.find(rec.tag);
  ensure(hit != handlers_.end(), [&] {
    return "TaggedKernel: handler vanished for tag " + std::to_string(rec.tag);
  });
  hit->second(now, rec.payload);
}

template <typename Io, typename Table>
void TaggedKernel::fields(Io& io, double& now_s, std::uint64_t& next_id,
                          Table& table) {
  io.section(kTaggedKernelMagic, kTaggedKernelVersion);
  io.field(now_s);
  io.field(next_id);
  io.size(table, kRecordBytes);
  for (auto& [id, rec] : table) {
    io.field(id);
    io.field(rec.when_s);
    io.field(rec.period_s);
    io.field(rec.tag);
    io.field(rec.payload);
  }
}

void TaggedKernel::save(SnapshotWriter& w) const {
  if (sim_.pending() != records_.size()) {
    throw std::runtime_error(
        "TaggedKernel: cannot snapshot — the kernel holds " +
        std::to_string(sim_.pending()) + " pending events but only " +
        std::to_string(records_.size()) +
        " are tagged records (untagged closures cannot be serialized)");
  }
  double now = sim_.now();
  std::uint64_t next_id = next_id_;
  fields(w, now, next_id, records_);
}

void TaggedKernel::restore(SnapshotReader& r) {
  require(records_.empty() && sim_.pending() == 0,
          "TaggedKernel: restore target must be idle (no pending events)");
  double now = 0.0;
  std::uint64_t next_id = 0;
  std::vector<std::pair<std::uint64_t, Record>> table;
  fields(r, now, next_id, table);
  if (!std::isfinite(now) || now < 0.0) {
    throw std::runtime_error("snapshot clock is not a finite time");
  }
  sim_.restore_clock(now);
  std::uint64_t prev_id = 0;
  for (auto& [id, rec] : table) {
    if (id <= prev_id || id >= next_id) {
      throw std::runtime_error("snapshot record ids out of order");
    }
    prev_id = id;
    if (!std::isfinite(rec.when_s) || rec.when_s < now) {
      throw std::runtime_error("snapshot record scheduled before the clock");
    }
    if (handlers_.count(rec.tag) == 0) {
      throw std::runtime_error("snapshot record carries tag " +
                               std::to_string(rec.tag) +
                               " with no registered handler");
    }
    // Re-scheduling in ascending record id order assigns fresh kernel seq
    // numbers in the same relative order the uninterrupted run had.
    arm(id, records_.emplace(id, std::move(rec)).first->second);
  }
  next_id_ = next_id;
}

}  // namespace epm::sim
