#include "apps/airline/airline.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "apps/airline/person_bits.hpp"

namespace apps::airline {

std::string person_name(Person p) { return "P" + std::to_string(p); }

std::string Update::to_string() const {
  switch (kind) {
    case Kind::kNoop:
      return "noop";
    case Kind::kRequest:
      return "request(" + person_name(person) + ")";
    case Kind::kCancel:
      return "cancel(" + person_name(person) + ")";
    case Kind::kMoveUp:
      return "move-up(" + person_name(person) + ")";
    case Kind::kMoveDown:
      return "move-down(" + person_name(person) + ")";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Update& u) {
  return os << u.to_string();
}

std::string Request::to_string() const {
  switch (kind) {
    case Kind::kRequest:
      return "REQUEST(" + person_name(person) + ")";
    case Kind::kCancel:
      return "CANCEL(" + person_name(person) + ")";
    case Kind::kMoveUp:
      return "MOVE-UP";
    case Kind::kMoveDown:
      return "MOVE-DOWN";
  }
  return "?";
}

std::string State::to_string() const {
  std::ostringstream os;
  os << "AL=[";
  for (std::size_t i = 0; i < assigned.size(); ++i) {
    if (i) os << ",";
    os << person_name(assigned[i]);
  }
  os << "] WL=[";
  for (std::size_t i = 0; i < waiting.size(); ++i) {
    if (i) os << ",";
    os << person_name(waiting[i]);
  }
  os << "]";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const State& s) {
  return os << s.to_string();
}

namespace detail {

bool all_distinct(const std::vector<Person>& first,
                  const std::vector<Person>& second) {
  const std::size_t entries = first.size() + second.size();
  if (entries < 2) return true;
  Person max_id = 0;
  for (Person p : first) max_id = std::max(max_id, p);
  for (Person p : second) max_id = std::max(max_id, p);
  if (PersonBits::fits(max_id, entries)) {
    PersonBits seen(max_id);
    const auto fresh = [&seen](Person p) { return seen.insert(p); };
    return std::all_of(first.begin(), first.end(), fresh) &&
           std::all_of(second.begin(), second.end(), fresh);
  }
  std::vector<Person> all;
  all.reserve(entries);
  all.insert(all.end(), first.begin(), first.end());
  all.insert(all.end(), second.begin(), second.end());
  std::sort(all.begin(), all.end());
  return std::adjacent_find(all.begin(), all.end()) == all.end();
}

}  // namespace detail

}  // namespace apps::airline
