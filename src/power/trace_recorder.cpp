#include "power/trace_recorder.hpp"

namespace reveal::power {

TraceRecorder::TraceRecorder(const LeakageModel& model, std::uint64_t noise_seed)
    : model_(model), noise_rng_(noise_seed) {}

void TraceRecorder::on_instruction(const riscv::InstrEvent& event) {
  for (Watch& w : watches_) {
    if (w.pc == event.pc) {
      markers_.push_back({samples_.size(), event.pc, w.tag});
      if (w.increment) ++w.tag;
    }
  }
  model_.append_samples(event, noise_rng_, samples_);
}

std::vector<double> TraceRecorder::take_samples() noexcept {
  std::vector<double> out = std::move(samples_);
  // Leave the recorder reusable instead of holding stale markers from the
  // capture that was just moved out: a subsequent capture must not see the
  // previous run's marker stream. (The noise RNG deliberately keeps
  // advancing; begin_capture() reseeds it for reproducible reuse.)
  samples_.clear();
  markers_.clear();
  return out;
}

void TraceRecorder::begin_capture(std::uint64_t noise_seed) {
  samples_.clear();
  markers_.clear();
  noise_rng_ = num::Xoshiro256StarStar(noise_seed);
  for (Watch& w : watches_) w.tag = w.initial_tag;
}

void TraceRecorder::reserve(std::size_t samples, std::size_t markers) {
  samples_.reserve(samples);
  markers_.reserve(markers);
}

void TraceRecorder::watch_pc(std::uint32_t pc, std::uint32_t tag, bool increment) {
  watches_.push_back({pc, tag, tag, increment});
}

void TraceRecorder::clear() {
  samples_.clear();
  markers_.clear();
}

}  // namespace reveal::power
