#include "digital/latch.h"

#include <stdexcept>

namespace msbist::digital {

OutputLatch::OutputLatch(unsigned bits, LatchFaults faults)
    : bits_(bits), faults_(faults), mask_(bits >= 32 ? ~0u : ((1u << bits) - 1u)) {
  if (bits_ == 0 || bits_ > 32) {
    throw std::invalid_argument("OutputLatch: bits must be in [1, 32]");
  }
}

}  // namespace msbist::digital
