#include "digital/counter.h"

#include <stdexcept>

namespace msbist::digital {

BinaryCounter::BinaryCounter(unsigned bits, CounterFaults faults)
    : bits_(bits), faults_(faults) {
  if (bits_ == 0 || bits_ > 31) {
    throw std::invalid_argument("BinaryCounter: bits must be in [1, 31]");
  }
  if (faults_.stuck_bit && *faults_.stuck_bit >= bits_) {
    throw std::invalid_argument("BinaryCounter: stuck bit outside counter width");
  }
  max_ = (1u << bits_) - 1u;
}

}  // namespace msbist::digital
