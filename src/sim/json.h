// Minimal ordered JSON value tree + writer, shared by the metrics registry and the
// bench reporter. Write-only by design (no parser): the simulator emits artifacts,
// it never consumes them. Object keys keep insertion order so emitted files diff
// cleanly across runs and PRs.

#ifndef VUSION_SRC_SIM_JSON_H_
#define VUSION_SRC_SIM_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vusion {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kUint,
    kDouble,
    kString,
    kArray,
    kObject,
    kRaw,  // preserialized JSON text, emitted verbatim
  };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(long v) : kind_(Kind::kInt), int_(v) {}
  Json(long long v) : kind_(Kind::kInt), int_(v) {}
  Json(unsigned v) : kind_(Kind::kUint), uint_(v) {}
  Json(unsigned long v) : kind_(Kind::kUint), uint_(v) {}
  Json(unsigned long long v) : kind_(Kind::kUint), uint_(v) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(const char* s) : kind_(Kind::kString), string_(s) {}
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Json Array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  // Wraps already-serialized JSON text; Dump() splices it verbatim. Lets bulk
  // producers (the metrics snapshot serializer) render straight into a string
  // with reserved capacity instead of building a node per value — at fleet
  // scale the per-node allocations dominate artifact teardown. The caller is
  // responsible for `text` being valid JSON.
  static Json Raw(std::string text) {
    Json j;
    j.kind_ = Kind::kRaw;
    j.string_ = std::move(text);
    return j;
  }

  // Object insertion (sets kind to object on a null value). Replaces an existing key.
  Json& Set(const std::string& key, Json value);
  // Array append (sets kind to array on a null value).
  Json& Push(Json value);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  // Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* Find(const std::string& key) const;
  [[nodiscard]] Json* FindMutable(const std::string& key);

  // Serializes with `indent` spaces per level (0 = compact single line).
  [[nodiscard]] std::string Dump(int indent = 2) const;

  static void AppendEscaped(std::string& out, const std::string& s);
  // Shared numeric formatting ("%.12g"; non-finite values become null) so raw
  // serializers emit tokens identical to the tree writer's.
  static void AppendDouble(std::string& out, double v);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;
  // Rough serialized size, used to reserve the output string once in Dump().
  [[nodiscard]] std::size_t EstimateDumpSize() const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  // kObject: (key, value) in insertion order; kArray: keys empty.
  std::vector<std::pair<std::string, Json>> items_;
};

}  // namespace vusion

#endif  // VUSION_SRC_SIM_JSON_H_
