#pragma once

#include "obs/metrics.h"  // obs::enabled()

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sync.h"

/// \file span.h
/// Structured span tracing (ipso::obs). Spans land in a bounded ring buffer
/// and export as Chrome trace_event JSON (obs/export.h), loadable in
/// chrome://tracing and Perfetto.
///
/// Two clock domains, kept strictly apart:
///
///  * **Real-time spans** (ScopedSpan): RAII, timestamped with
///    steady_clock relative to the tracer epoch, emitted on the calling
///    thread's track (or an explicit parent's track). Used by the runner
///    and the thread pool.
///  * **Simulated-time spans** (record_span): the caller passes
///    (t_start, t_end) taken from the discrete-event clock — the sim never
///    reads a wall clock, so tracing cannot perturb determinism. Each
///    simulated job gets its own track (sim time restarts at 0 per job).
///
/// The ring is bounded: when full, new spans are dropped and counted (the
/// exporter reports the number). Everything is gated on obs::enabled().

namespace ipso::obs {

/// One completed span. `args` is a raw JSON object body (no braces), e.g.
/// `"attr":"Wp","seconds":1.25` — empty for no args.
struct SpanRecord {
  std::string name;
  std::string category;
  std::string args;
  std::uint32_t track = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Track registry + bounded span ring. Thread-safe; push is a short
/// critical section (spans are coarse: stages, sweep points, pool tasks).
class Tracer {
 public:
  struct TrackInfo {
    std::string label;
    bool simulated = false;
  };

  explicit Tracer(std::size_t capacity = 1 << 16);

  static Tracer& global() noexcept;

  /// Registers a track. Simulated tracks are capped (kMaxTracks): a sweep
  /// can run a job per track, and an unbounded trace would not load; past
  /// the cap an invalid track is returned and its spans are dropped.
  std::uint32_t make_track(const std::string& label, bool simulated)
      IPSO_EXCLUDES(mu_);

  /// The calling thread's real-time track (created on first use).
  std::uint32_t thread_track();

  /// Names the calling thread's track (e.g. "pool-worker-3").
  void name_thread_track(const std::string& label) IPSO_EXCLUDES(mu_);

  /// Appends to the ring; drops (and counts) when full or the track is
  /// invalid. No-op while obs is disabled.
  void record(SpanRecord rec) noexcept IPSO_EXCLUDES(mu_);

  /// Microseconds since the tracer epoch (process start), steady clock.
  double now_us() const noexcept;

  std::vector<SpanRecord> spans() const IPSO_EXCLUDES(mu_);
  std::vector<TrackInfo> tracks() const IPSO_EXCLUDES(mu_);
  std::uint64_t dropped() const noexcept IPSO_EXCLUDES(mu_);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Empties the ring and resets the drop counter (tracks survive).
  void clear() noexcept IPSO_EXCLUDES(mu_);

  static constexpr std::size_t kMaxTracks = 4096;
  static constexpr std::uint32_t kInvalidTrack =
      static_cast<std::uint32_t>(-1);

 private:
  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  /// DESIGN.md §13, capability "obs.tracer" — a leaf held only over ring
  /// pushes and snapshots.
  mutable sync::Mutex mu_;
  /// Insertion order; bounded by capacity_.
  std::vector<SpanRecord> ring_ IPSO_GUARDED_BY(mu_);
  std::size_t next_ IPSO_GUARDED_BY(mu_) = 0;  ///< overwrite cursor once full
  std::uint64_t dropped_ IPSO_GUARDED_BY(mu_) = 0;
  std::vector<TrackInfo> tracks_ IPSO_GUARDED_BY(mu_);
};

/// RAII real-time span on the current thread's track; the parent overload
/// places the span on the parent's track instead (explicit parent handle
/// for work that logically nests under a span from another thread).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, const char* category = "",
                      std::string args = {});
  ScopedSpan(std::string name, const char* category, const ScopedSpan& parent,
             std::string args = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t track() const noexcept { return track_; }

 private:
  bool active_ = false;
  std::uint32_t track_ = 0;
  double start_us_ = 0.0;
  std::string name_;
  const char* category_ = "";
  std::string args_;
};

/// Records one simulated-time span with explicit (t_start, t_end) in
/// simulated seconds; timestamps are exported as microseconds.
void record_span(std::uint32_t track, std::string name, const char* category,
                 double t_start_seconds, double t_end_seconds,
                 std::string args = {});

/// Registers a simulated-time track on the global tracer; returns
/// Tracer::kInvalidTrack while disabled or past the track cap.
std::uint32_t make_sim_track(const std::string& label);

}  // namespace ipso::obs
