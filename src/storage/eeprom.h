// In-chip EEPROM checkpoint area.
//
// "We periodically save the head and tail pointers of the queue to the
// in-chip EEPROM of MicaZ motes, which has a much larger write limit, so
// that even if a node fails we can still correctly retrieve its locally
// stored data" (paper §III-B.3). We model a tiny named record with its own
// write counter so tests can assert the checkpoint cadence stays within the
// EEPROM's endurance budget.
#pragma once

#include <cstdint>
#include <optional>

namespace enviromic::storage {

struct Checkpoint {
  std::uint32_t head_block = 0;   //!< oldest live block
  std::uint32_t used_blocks = 0;  //!< number of live blocks in ring order
  std::uint32_t chunk_counter = 0;  //!< next per-node chunk sequence number

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

class Eeprom {
 public:
  explicit Eeprom(std::uint64_t write_limit = 100000)
      : write_limit_(write_limit) {}

  void save(const Checkpoint& cp) {
    record_ = cp;
    ++writes_;
  }

  const std::optional<Checkpoint>& load() const { return record_; }

  std::uint64_t writes() const { return writes_; }
  std::uint64_t write_limit() const { return write_limit_; }

 private:
  std::uint64_t write_limit_;
  std::uint64_t writes_ = 0;
  std::optional<Checkpoint> record_;
};

}  // namespace enviromic::storage
