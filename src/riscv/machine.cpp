#include "riscv/machine.hpp"

#include <cstring>
#include <stdexcept>

namespace reveal::riscv {

std::uint32_t TimingModel::cycles_for(InstrClass klass, bool taken) const noexcept {
  switch (klass) {
    case InstrClass::kAlu: return alu;
    case InstrClass::kAluImm: return alu_imm;
    case InstrClass::kLoad: return load;
    case InstrClass::kStore: return store;
    case InstrClass::kBranch: return taken ? branch_taken : branch_not_taken;
    case InstrClass::kJump: return jump;
    case InstrClass::kMul: return mul;
    case InstrClass::kDiv: return div;
    case InstrClass::kSystem: return system;
  }
  return system;
}

Machine::Machine(std::size_t memory_bytes, TimingModel timing)
    : memory_(memory_bytes, 0), timing_(timing) {}

void Machine::load_program(const std::vector<std::uint32_t>& words, std::uint32_t address) {
  if (!in_bounds(address, static_cast<std::uint32_t>(words.size() * 4)))
    throw std::out_of_range("Machine::load_program: program does not fit in memory");
  const auto bytes = static_cast<std::uint32_t>(words.size() * 4);
  // Unchanged reload: captures reload the same firmware before every run,
  // so when the exact program bytes already cover the translation region
  // the warm translated blocks stay valid (stores always invalidate, so a
  // live block can only describe current memory) — just reset the pc
  // instead of recopying and retranslating.
  if ((address & 3u) == 0 && !words.empty() && address == block_cache_.base() &&
      address + bytes == block_cache_.end() &&
      std::memcmp(memory_.data() + address, words.data(), bytes) == 0) {
    pc_ = address;
    return;
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::memcpy(memory_.data() + address + i * 4, &words[i], 4);
  }
  pc_ = address;
  // Blocks translate lazily on first dispatch into the new region. An
  // unaligned base cannot be word-indexed; execution there traps on fetch
  // anyway.
  if ((address & 3u) == 0 && !words.empty()) {
    block_cache_.reset(address, address + bytes);
  } else {
    block_cache_.reset(0, 0);
  }
}

std::uint32_t Machine::load_word(std::uint32_t address) const {
  if ((address & 3u) != 0 || !in_bounds(address, 4))
    throw std::out_of_range("Machine::load_word: bad address");
  std::uint32_t value;
  std::memcpy(&value, memory_.data() + address, 4);
  return value;
}

void Machine::store_word(std::uint32_t address, std::uint32_t value) {
  if ((address & 3u) != 0 || !in_bounds(address, 4))
    throw std::out_of_range("Machine::store_word: bad address");
  std::memcpy(memory_.data() + address, &value, 4);
  block_cache_.invalidate_word(address);
}

void Machine::reset() noexcept {
  std::memset(regs_, 0, sizeof(regs_));
  pc_ = 0;
  cycles_ = 0;
  retired_ = 0;
  halted_ = false;
  trapped_ = false;
  trap_message_.clear();
}

bool Machine::trap(const std::string& message) {
  trapped_ = true;
  trap_message_ = message;
  return false;
}

Machine::StopReason Machine::run(std::uint64_t max_instructions,
                                 ExecutionObserver* observer) {
  if (observer == nullptr) {
    NullExecutionObserver null_observer;
    return run_with(max_instructions, null_observer);
  }
  return run_with(max_instructions, *observer);
}

Machine::StopReason Machine::run_reference(std::uint64_t max_instructions,
                                           ExecutionObserver* observer) {
  halted_ = false;
  trapped_ = false;
  for (std::uint64_t i = 0; i < max_instructions; ++i) {
    if (!step_impl(observer)) {
      return trapped_ ? StopReason::kTrap : StopReason::kHalt;
    }
  }
  return StopReason::kInstrLimit;
}

}  // namespace reveal::riscv
