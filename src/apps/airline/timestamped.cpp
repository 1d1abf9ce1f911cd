#include "apps/airline/timestamped.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "apps/airline/person_bits.hpp"

namespace apps::airline {

const TsEntry* TsState::find_assigned(Person p) const {
  for (const TsEntry& e : assigned) {
    if (e.person == p) return &e;
  }
  return nullptr;
}

const TsEntry* TsState::find_waiting(Person p) const {
  for (const TsEntry& e : waiting) {
    if (e.person == p) return &e;
  }
  return nullptr;
}

std::string TsState::to_string() const {
  std::ostringstream os;
  const auto render = [&os](const std::vector<TsEntry>& v) {
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os << ",";
      os << v[i];
    }
    os << "]";
  };
  os << "AL=";
  render(assigned);
  os << " WL=";
  render(waiting);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TsEntry& e) {
  return os << person_name(e.person) << "@" << e.stamp;
}

std::ostream& operator<<(std::ostream& os, const TsState& s) {
  return os << s.to_string();
}

namespace detail {

bool persons_disjoint(const std::vector<TsEntry>& first,
                      const std::vector<TsEntry>& second) {
  if (first.empty() || second.empty()) return true;
  Person max_id = 0;
  for (const TsEntry& e : first) max_id = std::max(max_id, e.person);
  for (const TsEntry& e : second) max_id = std::max(max_id, e.person);
  if (PersonBits::fits(max_id, first.size() + second.size())) {
    PersonBits in_first(max_id);
    for (const TsEntry& e : first) in_first.insert(e.person);
    return std::none_of(second.begin(), second.end(), [&](const TsEntry& e) {
      return in_first.contains(e.person);
    });
  }
  std::vector<Person> in_first;
  in_first.reserve(first.size());
  for (const TsEntry& e : first) in_first.push_back(e.person);
  std::sort(in_first.begin(), in_first.end());
  return std::none_of(second.begin(), second.end(), [&](const TsEntry& e) {
    return std::binary_search(in_first.begin(), in_first.end(), e.person);
  });
}

}  // namespace detail

void insert_sorted(std::vector<TsEntry>& list, TsEntry e) {
  const auto it = std::lower_bound(list.begin(), list.end(), e);
  list.insert(it, e);
}

}  // namespace apps::airline
