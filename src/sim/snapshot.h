// Deterministic checkpoint/restore for the DES kernels.
//
// C++ closures cannot be serialized, so snapshotting is *cooperative*: a
// world that wants checkpoint/restore schedules its events through a
// TaggedKernel — every pending event is a (tag, payload-of-u64s) record with
// a registered handler, and the closure the kernel actually stores is a
// 16-byte trampoline that looks the record up by id. A snapshot is then just
// the record table plus the clock; restore re-registers the handlers (code,
// not data) and re-schedules every record in record-id order.
//
// Bit-identical continuation depends on one invariant: among pending events,
// record-id order equals kernel sequence order. TaggedKernel maintains it by
// construction — records are created in scheduling order, and periodic
// events are self-rescheduling with a FRESH record id at every firing
// (mirroring the kernel's own re-arm, which also draws a fresh seq). After
// restore, fresh seq numbers are assigned in record-id order, so every
// same-timestamp tie resolves exactly as in the uninterrupted run.
//
// The byte format is explicit little-endian with per-section magic+version
// headers, so a stale or foreign snapshot fails loudly instead of producing
// a silently different world.
//
// Each section states its layout once, as a field list templated over the
// stream: save() runs it through a SnapshotWriter and restore() through a
// SnapshotReader. The list is typically a static member template over
// (Self, Io), with Self const on save, so the same lines read the members
// on save and assign them on restore. Writer and reader share one
// vocabulary —
//
//   io.section(magic, version)  header: written, or checked on read
//   io.field(x)                 bool (u8), u64, f64, enum (its underlying
//                               width), u64 payload or f64 vector (each a
//                               u64 count, then the elements)
//   io.expect(x, message)       config echo: written, or read and required
//                               to equal the live config's value
//   io.size(container, bytes)   element count: written, or read through
//                               read_count and the container resized
//   io.nested(object)           a sub-section: object.save / .restore
//
// so a write list and a read list cannot drift apart. Work only one
// direction needs (checks on restored values, rebuilding indexes) runs in
// save()/restore() around the shared list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/require.h"
#include "sim/simulator.h"

namespace epm::sim {

/// Append-only little-endian byte buffer for snapshot serialization.
class SnapshotWriter {
 public:
  void write_u8(std::uint8_t v) { bytes_.push_back(v); }
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_f64(double v);
  void write_payload(const std::vector<std::uint64_t>& p);

  // The field vocabulary (see the file comment).
  /// Section header: a magic tag plus a format version, checked on read.
  void section(std::uint32_t magic, std::uint32_t version);
  void field(bool v) { write_u8(v ? 1 : 0); }
  void field(std::uint64_t v) { write_u64(v); }
  void field(double v) { write_f64(v); }
  template <typename E>
    requires std::is_enum_v<E>
  void field(E v) {
    static_assert(sizeof(E) == 1 || sizeof(E) == 4);
    if constexpr (sizeof(E) == 1) {
      write_u8(static_cast<std::uint8_t>(v));
    } else {
      write_u32(static_cast<std::uint32_t>(v));
    }
  }
  void field(const std::vector<std::uint64_t>& p) { write_payload(p); }
  void field(const std::vector<double>& v);
  template <typename T>
  void expect(const T& v, const char* /*message*/) { field(v); }
  template <typename Container>
  void size(const Container& c, std::size_t /*element_bytes*/) {
    write_u64(c.size());
  }
  template <typename Section>
  void nested(const Section& s) { s.save(*this); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a snapshot buffer. Every overrun, magic
/// mismatch, or version mismatch throws std::runtime_error — a snapshot is
/// external input and must never be trusted silently.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes.data()), size_(bytes.size()) {}
  SnapshotReader(const std::uint8_t* bytes, std::size_t size)
      : bytes_(bytes), size_(size) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  double read_f64();
  std::vector<std::uint64_t> read_payload();
  /// Reads an element count and checks that that many elements of at least
  /// `element_bytes` (> 0) bytes each fit in the bytes left, so a corrupt
  /// count throws before a container is sized from it.
  std::size_t read_count(std::size_t element_bytes);

  // The field vocabulary (see the file comment).
  void section(std::uint32_t magic, std::uint32_t version);
  void field(bool& v) { v = read_u8() != 0; }
  void field(std::uint64_t& v) { v = read_u64(); }
  void field(double& v) { v = read_f64(); }
  template <typename E>
    requires std::is_enum_v<E>
  void field(E& v) {
    static_assert(sizeof(E) == 1 || sizeof(E) == 4);
    if constexpr (sizeof(E) == 1) {
      v = static_cast<E>(read_u8());
    } else {
      v = static_cast<E>(read_u32());
    }
  }
  void field(std::vector<std::uint64_t>& p) { p = read_payload(); }
  void field(std::vector<double>& v);
  /// Throws std::invalid_argument with `message` when the snapshot's value
  /// differs from `v`: the snapshot was taken under another config.
  template <typename T>
  void expect(const T& v, const char* message) {
    T got{};
    field(got);
    require(got == v, message);
  }
  template <typename Container>
  void size(Container& c, std::size_t element_bytes) {
    const std::size_t n = read_count(element_bytes);
    c.clear();
    c.resize(n);
  }
  template <typename Section>
  void nested(Section& s) { s.restore(*this); }

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* bytes_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

using TagPayload = std::vector<std::uint64_t>;
/// Handler for one event tag; receives the firing time and the payload.
using TagHandler = std::function<void(double now_s, const TagPayload&)>;

/// Snapshot-capable scheduling facade over one Simulator.
///
/// Worlds that need checkpoint/restore route every schedule through this
/// wrapper; save() refuses (throws std::runtime_error) if the underlying
/// kernel holds pending events that did not come through it, because those
/// closures cannot be serialized. Handlers are registered code, re-attached
/// by the restoring process before restore().
class TaggedKernel {
 public:
  explicit TaggedKernel(Simulator& sim) : sim_(sim) {}
  TaggedKernel(const TaggedKernel&) = delete;
  TaggedKernel& operator=(const TaggedKernel&) = delete;

  Simulator& sim() { return sim_; }

  /// Registers the handler for `tag`; a tag can be bound only once.
  void on(std::uint64_t tag, TagHandler handler);

  /// Schedules a one-shot tagged event; returns its record id (usable with
  /// cancel_tagged, and stable across save/restore).
  std::uint64_t schedule_tagged_at(double when_s, std::uint64_t tag,
                                   TagPayload payload);
  /// Periodic tagged event. Implemented by self-rescheduling with a fresh
  /// record id each firing (never the kernel's native periodic path), so
  /// record-id order always matches kernel seq order among pending events.
  std::uint64_t schedule_tagged_periodic(double first_s, double period_s,
                                         std::uint64_t tag,
                                         TagPayload payload);
  /// Cancels a pending tagged event; unknown ids are a harmless no-op (the
  /// record may have fired already). For a periodic record this cancels all
  /// future firings.
  void cancel_tagged(std::uint64_t record_id);

  /// Pending tagged records (== sim().pending() whenever every pending
  /// event is tagged).
  std::size_t tagged_pending() const { return records_.size(); }

  /// Serializes the kernel clock plus every pending record. Throws
  /// std::runtime_error if the kernel holds untagged pending events.
  void save(SnapshotWriter& w) const;
  /// Restores into an idle kernel (no pending events, no pending records):
  /// rewinds/advances the clock and re-schedules every record in record-id
  /// order. Handlers must already be registered.
  void restore(SnapshotReader& r);

 private:
  struct Record {
    double when_s = 0.0;
    double period_s = 0.0;  ///< > 0: re-arm under a fresh id after firing
    std::uint64_t tag = 0;
    TagPayload payload;
    EventHandle handle;
  };

  /// The "tags" section: the clock, the next record id, then every pending
  /// record in record-id order. `Table` is the live record map on save and a
  /// (record id, record) vector on restore.
  template <typename Io, typename Table>
  static void fields(Io& io, double& now_s, std::uint64_t& next_id,
                     Table& table);

  std::uint64_t add_record(double when_s, double period_s, std::uint64_t tag,
                           TagPayload payload);
  void arm(std::uint64_t id, Record& rec);
  void fire(std::uint64_t id);

  Simulator& sim_;
  /// Ordered by record id so save/restore iterate in scheduling order.
  std::map<std::uint64_t, Record> records_;
  std::unordered_map<std::uint64_t, TagHandler> handlers_;
  std::uint64_t next_id_ = 1;
};

}  // namespace epm::sim
