#include "core/timestamp.hpp"

#include <ostream>
#include <sstream>

namespace core {

std::string Timestamp::to_string() const {
  std::ostringstream os;
  os << logical << "@n" << node;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Timestamp& ts) {
  return os << ts.to_string();
}

}  // namespace core
