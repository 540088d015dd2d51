#pragma once
// Scoped pipeline-stage tracing.
//
// SpanTracer times the attack pipeline's stages (capture -> segmentation
// -> classification -> hint routing -> DBDD estimation) with RAII spans:
// per-stage aggregate timings (count / total / min / max) plus a bounded
// ring buffer of the most recent raw SpanEvents for postmortems. Spans
// are timed where the work runs, so each campaign worker fills a private
// tracer that the campaign merges in worker-index order.
//
// The zero-cost-off half of the design mirrors riscv's
// NullExecutionObserver: pipeline code is templated over a TracerT and
// instantiated once with SpanTracer and once with NullSpanTracer. The
// null tracer's span() returns an empty object, so the instrumented
// statements compile to nothing — the untraced instantiation *is* the
// pre-observability code, which is how the byte-identical-output
// guarantee holds by construction (timings are observations; no pipeline
// decision may read them).

#include <array>
#include <cstdint>
#include <vector>

namespace reveal::obs {

/// Pipeline stages in execution order.
enum class Stage : std::uint8_t {
  kCapture = 0,
  kSegmentation,
  kClassification,
  kHints,
  kEstimation,
};

inline constexpr std::size_t kStageCount = 5;

[[nodiscard]] const char* to_string(Stage stage);

/// One closed span: which stage, which pipeline item (capture index), and
/// the monotonic-clock interval.
struct SpanEvent {
  Stage stage = Stage::kCapture;
  std::uint32_t index = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;

  friend bool operator==(const SpanEvent&, const SpanEvent&) = default;
};

/// Aggregate timing of one stage.
struct StageTiming {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;

  void add(std::uint64_t duration_ns) noexcept;
  void merge(const StageTiming& other) noexcept;

  friend bool operator==(const StageTiming&, const StageTiming&) = default;
};

class SpanTracer {
 public:
  static constexpr bool kEnabled = true;

  /// `ring_capacity` bounds the raw-event log; once full, the oldest
  /// events are overwritten (dropped() counts the overwrites). Aggregate
  /// timings are unaffected by the ring size.
  explicit SpanTracer(std::size_t ring_capacity = kDefaultRingCapacity);

  static constexpr std::size_t kDefaultRingCapacity = 1024;

  /// RAII span: records on destruction. Move-only; moving transfers the
  /// pending record.
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class SpanTracer;
    Span(SpanTracer* tracer, Stage stage, std::uint32_t index) noexcept;
    SpanTracer* tracer_;
    Stage stage_;
    std::uint32_t index_;
    std::uint64_t begin_ns_;
  };

  [[nodiscard]] Span span(Stage stage, std::uint32_t index = 0) noexcept {
    return Span(this, stage, index);
  }

  /// Records one closed interval directly (what an expiring Span does).
  void record(Stage stage, std::uint32_t index, std::uint64_t begin_ns,
              std::uint64_t end_ns);

  [[nodiscard]] const std::array<StageTiming, kStageCount>& timings() const noexcept {
    return timings_;
  }
  [[nodiscard]] const StageTiming& timing(Stage stage) const {
    return timings_.at(static_cast<std::size_t>(stage));
  }

  /// Events still in the ring, oldest first.
  [[nodiscard]] std::vector<SpanEvent> events() const;
  [[nodiscard]] std::size_t ring_capacity() const noexcept { return ring_.size(); }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Folds another tracer in: stage timings merge (count/total add,
  /// min/max combine) and the other ring's surviving events replay into
  /// this ring in their recorded order.
  void merge(const SpanTracer& other);

  /// Monotonic nanosecond clock used by spans.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

 private:
  void push_event(const SpanEvent& e);

  std::array<StageTiming, kStageCount> timings_{};
  std::vector<SpanEvent> ring_;
  std::size_t next_ = 0;      ///< ring slot the next event lands in
  std::size_t filled_ = 0;    ///< events currently held (<= ring size)
  std::uint64_t dropped_ = 0;
};

/// Compile-time-off tracer: span() returns an empty object, so templated
/// pipeline code instantiated with NullSpanTracer carries no tracing
/// residue (no clock reads, no stores) — the PR 3 NullExecutionObserver
/// pattern applied to the attack pipeline.
struct NullSpanTracer {
  static constexpr bool kEnabled = false;
  struct Span {};
  Span span(Stage, std::uint32_t = 0) const noexcept { return {}; }
};

}  // namespace reveal::obs
