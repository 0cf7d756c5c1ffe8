// Allocation-free event callables for the DES kernel.
//
// The kernel's hot path fires millions of closures; std::function heap-
// allocates any capture larger than its tiny internal buffer and copies it
// on every priority_queue pop. EventFn replaces it with a move-only callable
// whose captures live inline (up to kInlineSize bytes) — the common case for
// event closures, which capture a context pointer plus a couple of ids — so
// scheduling an event touches no allocator at all. Oversized closures are
// boxed out-of-line on the global heap.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace epm::sim {

/// Move-only `void()` callable with inline storage for small captures.
/// Construction from a callable is explicit so that overload sets taking
/// both EventFn and std::function stay unambiguous.
class EventFn {
 public:
  /// Captures at most this large (and no stricter than pointer-aligned) are
  /// stored inline; everything bigger or over-aligned is boxed out-of-line.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(double);

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  explicit EventFn(F&& fn) {
    emplace(std::forward<F>(fn));
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  /// True when the capture lives inline (diagnostics / tests).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs into raw `dst` storage and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
    bool inline_storage;
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineSize && alignof(F) <= kInlineAlign;
  }

  template <typename F>
  struct InlineModel {
    static void invoke(void* self) { (*std::launder(static_cast<F*>(self)))(); }
    static void relocate(void* dst, void* src) noexcept {
      F* from = std::launder(static_cast<F*>(src));
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* self) noexcept {
      std::launder(static_cast<F*>(self))->~F();
    }
    static constexpr Ops ops{&invoke, &relocate, &destroy, true};
  };

  struct Boxed {
    void* obj;
  };

  template <typename F>
  struct BoxedModel {
    static void invoke(void* self) {
      (*static_cast<F*>(std::launder(static_cast<Boxed*>(self))->obj))();
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Boxed(*std::launder(static_cast<Boxed*>(src)));
    }
    static void destroy(void* self) noexcept {
      delete static_cast<F*>(std::launder(static_cast<Boxed*>(self))->obj);
    }
    static constexpr Ops ops{&invoke, &relocate, &destroy, false};
  };

  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &InlineModel<D>::ops;
    } else {
      static_assert(alignof(D) <= alignof(std::max_align_t),
                    "EventFn: over-aligned captures are not supported");
      ::new (static_cast<void*>(buf_)) Boxed{new D(std::forward<F>(fn))};
      ops_ = &BoxedModel<D>::ops;
    }
  }

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // ops_ precedes the buffer, and the buffer is only pointer-aligned, so a
  // Node's hot fire-path bytes (timestamp, status, ops pointer, the first
  // capture words) pack into one cache line.
  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) std::byte buf_[kInlineSize];
};

}  // namespace epm::sim
