#include "cellsim/local_store.h"

#include <sstream>

namespace cellsweep::cell {

LocalStore::LocalStore(std::size_t capacity_bytes,
                       std::size_t code_reserve_bytes)
    : capacity_(capacity_bytes),
      code_reserve_(padded(code_reserve_bytes)),
      top_(code_reserve_),
      high_water_(code_reserve_) {
  if (code_reserve_ > capacity_)
    throw LocalStoreOverflow("code reservation exceeds local store");
  regions_.push_back(Region{"(code+stack)", 0, code_reserve_});
}

std::size_t LocalStore::allocate(const std::string& name, std::size_t bytes) {
  const std::size_t size = padded(bytes);
  if (top_ + size > capacity_) {
    std::ostringstream os;
    os << "local store overflow allocating '" << name << "' (" << size
       << " B): " << top_ << "/" << capacity_ << " B already in use";
    throw LocalStoreOverflow(os.str());
  }
  const std::size_t offset = top_;
  top_ += size;
  if (top_ > high_water_) high_water_ = top_;
  regions_.push_back(Region{name, offset, size});
  return offset;
}

void LocalStore::reset() noexcept {
  top_ = code_reserve_;
  regions_.resize(1);
}

std::string LocalStore::describe() const {
  std::ostringstream os;
  os << "local store " << used() << "/" << capacity() << " B used\n";
  for (const auto& r : regions_)
    os << "  [" << r.offset << ", " << r.offset + r.bytes << ") " << r.name
       << " (" << r.bytes << " B)\n";
  return os.str();
}

}  // namespace cellsweep::cell
