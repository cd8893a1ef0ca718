#include "model/item.h"

#include <algorithm>
#include <set>

#include "common/coding.h"

namespace impliance::model {

Item& Item::AddChild(std::string child_name, Value child_value) {
  children.emplace_back(std::move(child_name), std::move(child_value));
  return children.back();
}

const Item* Item::FindChild(std::string_view child_name) const {
  for (const Item& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

Item* Item::FindChild(std::string_view child_name) {
  for (Item& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

void Item::Encode(std::string* dst) const {
  PutLengthPrefixed(dst, name);
  value.Encode(dst);
  PutVarint64(dst, children.size());
  for (const Item& child : children) child.Encode(dst);
}

bool Item::Decode(std::string_view* input, Item* out) {
  std::string_view name;
  if (!GetLengthPrefixed(input, &name)) return false;
  out->name.assign(name);
  if (!Value::Decode(input, &out->value)) return false;
  uint64_t n = 0;
  if (!GetVarint64(input, &n)) return false;
  // Guard against corrupt counts blowing up memory: children cannot
  // outnumber the remaining input bytes (each child is >= 2 bytes).
  if (n > input->size()) return false;
  out->children.clear();
  out->children.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!Decode(input, &out->children[i])) return false;
  }
  return true;
}

bool Item::operator==(const Item& other) const {
  return name == other.name && value == other.value &&
         children == other.children;
}

namespace {

void CollectPathsInto(const Item& node, std::string* prefix,
                      std::vector<PathValue>* out) {
  const size_t saved = prefix->size();
  prefix->push_back('/');
  prefix->append(node.name);
  out->push_back(PathValue{*prefix, &node.value});
  for (const Item& child : node.children) {
    CollectPathsInto(child, prefix, out);
  }
  prefix->resize(saved);
}

}  // namespace

std::vector<PathValue> CollectPaths(const Item& root) {
  std::vector<PathValue> out;
  std::string prefix;
  CollectPathsInto(root, &prefix, &out);
  return out;
}

std::vector<std::string> CollectDistinctPaths(const Item& root) {
  std::set<std::string> distinct;
  for (const PathValue& pv : CollectPaths(root)) {
    distinct.insert(pv.path);
  }
  return std::vector<std::string>(distinct.begin(), distinct.end());
}

namespace {

// The first node in pre-order (CollectPaths order) under `node`, inclusive,
// whose path relative to node's parent is `rest`. A subtree whose path is
// not a prefix of `rest` cannot hold a match, so it is skipped without
// building any path string.
const Value* FindPath(const Item& node, std::string_view rest) {
  if (rest.size() <= node.name.size() || rest[0] != '/' ||
      rest.compare(1, node.name.size(), node.name) != 0) {
    return nullptr;
  }
  rest.remove_prefix(node.name.size() + 1);
  if (rest.empty()) return &node.value;
  for (const Item& child : node.children) {
    if (const Value* value = FindPath(child, rest)) return value;
  }
  return nullptr;
}

}  // namespace

const Value* ResolvePath(const Item& root, std::string_view path) {
  return FindPath(root, path);
}

std::vector<const Value*> ResolvePathAll(const Item& root,
                                         std::string_view path) {
  std::vector<const Value*> out;
  for (const PathValue& pv : CollectPaths(root)) {
    if (pv.path == path) out.push_back(pv.value);
  }
  return out;
}

namespace {

void CollectTextInto(const Item& node, std::string* out) {
  if (node.value.is_string()) {
    if (!out->empty()) out->push_back(' ');
    out->append(node.value.string_value());
  }
  for (const Item& child : node.children) CollectTextInto(child, out);
}

}  // namespace

std::string CollectText(const Item& root) {
  std::string out;
  CollectTextInto(root, &out);
  return out;
}

}  // namespace impliance::model
