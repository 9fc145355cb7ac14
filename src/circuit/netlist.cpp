#include "circuit/netlist.h"

#include <atomic>
#include <stdexcept>

namespace msbist::circuit {

void Stamper::throw_write_count_mismatch(const Element* el) {
  std::string who = "an element";
  if (el != nullptr) who = el->name().empty() ? "an unnamed element" : el->name();
  throw std::logic_error(
      "Stamper: " + who +
      " made a different number of matrix writes than its discovery pass "
      "recorded; stamp() write sequences must not depend on values");
}

Netlist::Netlist() {
  static std::atomic<std::uint64_t> next{1};
  uid_ = next.fetch_add(1, std::memory_order_relaxed);
}

NodeId Netlist::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  index_.emplace(name, id);
  names_.push_back(name);
  return id;
}

NodeId Netlist::find_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = index_.find(name);
  if (it == index_.end()) throw std::out_of_range("Netlist: unknown node " + name);
  return it->second;
}

void Netlist::name_last(const std::string& n) {
  if (elements_.empty()) throw std::logic_error("Netlist::name_last: no elements");
  elements_.back()->set_name(n);
}

Element* Netlist::find(const std::string& n) const {
  for (const auto& el : elements_) {
    if (el->name() == n) return el.get();
  }
  return nullptr;
}

std::size_t Netlist::assign_unknowns() {
  std::size_t next = names_.size();
  for (auto& el : elements_) {
    if (el->branch_count() > 0) {
      el->set_branch_base(static_cast<int>(next));
      next += static_cast<std::size_t>(el->branch_count());
    }
  }
  return next;
}

}  // namespace msbist::circuit
