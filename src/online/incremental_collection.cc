#include "online/incremental_collection.h"

#include <string>
#include <unordered_map>

namespace minoan {
namespace online {

std::vector<std::vector<rdf::Triple>> GroupBySubject(
    const std::vector<rdf::Triple>& triples) {
  std::vector<std::vector<rdf::Triple>> groups;
  std::unordered_map<std::string, size_t> group_of;
  for (const rdf::Triple& t : triples) {
    // Blank labels and IRIs share no namespace; prefix blanks so "_:x" the
    // label and "_:x" the IRI (degenerate but legal) cannot collide.
    const std::string key =
        (t.subject.is_blank() ? "_:" : "") + t.subject.lexical;
    const auto [it, inserted] = group_of.emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(t);
  }
  return groups;
}

}  // namespace online
}  // namespace minoan
