#include "obs/span.h"

#include <utility>

namespace ipso::obs {

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() noexcept {
  static Tracer instance;
  return instance;
}

std::uint32_t Tracer::make_track(const std::string& label, bool simulated) {
  sync::MutexLock lk(mu_);
  if (tracks_.size() >= kMaxTracks) {
    ++dropped_;  // spans for this would-be track count as dropped below too
    return kInvalidTrack;
  }
  tracks_.push_back({label, simulated});
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

std::uint32_t Tracer::thread_track() {
  // One-entry thread-local cache; only the global tracer sits on hot paths,
  // a different owner (unit tests) just re-registers.
  thread_local Tracer* owner = nullptr;
  thread_local std::uint32_t cached = kInvalidTrack;
  if (owner != this || cached == kInvalidTrack) {
    cached = make_track("thread", /*simulated=*/false);
    owner = this;
  }
  return cached;
}

void Tracer::name_thread_track(const std::string& label) {
  const std::uint32_t id = thread_track();
  sync::MutexLock lk(mu_);
  if (id < tracks_.size()) tracks_[id].label = label;
}

void Tracer::record(SpanRecord rec) noexcept {
  if (!enabled() || rec.track == kInvalidTrack) {
    if (rec.track == kInvalidTrack) {
      sync::MutexLock lk(mu_);
      ++dropped_;
    }
    return;
  }
  sync::MutexLock lk(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
    return;
  }
  // Full: overwrite the oldest span (classic ring) and count the loss.
  ring_[next_] = std::move(rec);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

double Tracer::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<SpanRecord> Tracer::spans() const {
  sync::MutexLock lk(mu_);
  if (ring_.size() < capacity_ || next_ == 0) return ring_;
  // Rotate so the result is in insertion order.
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  return out;
}

std::vector<Tracer::TrackInfo> Tracer::tracks() const {
  sync::MutexLock lk(mu_);
  return tracks_;
}

std::uint64_t Tracer::dropped() const noexcept {
  sync::MutexLock lk(mu_);
  return dropped_;
}

void Tracer::clear() noexcept {
  sync::MutexLock lk(mu_);
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

ScopedSpan::ScopedSpan(std::string name, const char* category,
                       std::string args) {
  if (!enabled()) return;
  active_ = true;
  track_ = Tracer::global().thread_track();
  start_us_ = Tracer::global().now_us();
  name_ = std::move(name);
  category_ = category;
  args_ = std::move(args);
}

ScopedSpan::ScopedSpan(std::string name, const char* category,
                       const ScopedSpan& parent, std::string args) {
  if (!enabled()) return;
  active_ = true;
  track_ = parent.active_ ? parent.track_ : Tracer::global().thread_track();
  start_us_ = Tracer::global().now_us();
  name_ = std::move(name);
  category_ = category;
  args_ = std::move(args);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer::global().record({std::move(name_), category_, std::move(args_),
                           track_, start_us_, Tracer::global().now_us()});
}

void record_span(std::uint32_t track, std::string name, const char* category,
                 double t_start_seconds, double t_end_seconds,
                 std::string args) {
  if (!enabled()) return;
  Tracer::global().record({std::move(name), category, std::move(args), track,
                           t_start_seconds * 1e6, t_end_seconds * 1e6});
}

std::uint32_t make_sim_track(const std::string& label) {
  if (!enabled()) return Tracer::kInvalidTrack;
  return Tracer::global().make_track(label, /*simulated=*/true);
}

}  // namespace ipso::obs
